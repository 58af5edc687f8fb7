"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)``. One test runs this checkout's
entry points in subprocesses: ``python -m qsep``, and the ``qsep`` script that
``pyproject.toml`` declares, run the way an installer's wrapper script runs it.
A separate test checks an installed ``qsep`` executable and the installed
distribution's version, and is skipped where no ``qsep`` distribution is
installed.
"""

import argparse
import csv
import importlib.metadata
import importlib.util
import inspect
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

import qsep
import qsep.cli
import qsep.separability
from qsep import (
    BellDiagonalState,
    NumericalError,
    ar_classify_asymptotic,
    bell_diagonal_density,
    bell_weights,
    classify_state,
    is_physical,
    order_parameter,
    region_scan,
    threshold_x,
)
from qsep.cli import _csv_field, _render_json, main
from qsep.separability import grid_axes
from test_entropy import lowest_curve, uppermost_curve

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def package_env():
    """Environment in which subprocesses import the qsep package under test,
    not another install."""
    pythonpath = [str(Path(qsep.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}


def read_csv_text(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# the value rule


# (value, its CSV field, its JSON text): every number a command prints goes
# through format(v, ".17g"), so booleans print as 1 and 0 in CSV, -0.0 keeps
# its sign, and JSON quotes the non-finite floats, which it has no literal for
@pytest.mark.parametrize("value, field, json_text", [
    (-0.0, "-0", "-0"),
    (0.0, "0", "0"),
    (math.inf, "inf", '"inf"'),
    (-math.inf, "-inf", '"-inf"'),
    (math.nan, "nan", '"nan"'),
    (5e-324, "4.9406564584124654e-324", "4.9406564584124654e-324"),
    (1e308, "1e+308", "1e+308"),
    (7, "7", "7"),
    (True, "1", "true"),
    (False, "0", "false"),
    (None, "", "null"),
    ('say "a\\b"', 'say "a\\b"', r'"say \"a\\b\""'),
])
def test_one_rule_renders_every_value(value, field, json_text):
    assert _csv_field(value) == field
    assert _render_json(value, 0) == json_text
    assert _render_json({"k": [value]}, 0) == f'{{\n  "k": [{json_text}]\n}}'


def test_a_value_that_is_not_a_number_is_refused():
    for value in (object(), b"1"):
        with pytest.raises(TypeError):
            _csv_field(value)
        with pytest.raises(TypeError):
            _render_json(value, 0)


# ---------------------------------------------------------------------------
# scalar commands


def test_cond_emits_versioned_json(capsys):
    code, out, err = run_cli(capsys, "cond", "--xyz", "0,0,0", "--q", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["format"] == "qsep/1"
    assert doc["command"] == {"name": "cond", "xyz": [0.0, 0.0, 0.0], "q": 2.0}
    payload = doc["payload"]
    assert payload["value"] == 0.5
    assert payload["cond_b_given_a"] == payload["cond_a_given_b"] == 0.5


def test_cond_pure_state_value(capsys):
    code, out, _ = run_cli(capsys, "cond", "--xyz", "1,1,1", "--q", "2")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == -1.0


def test_entropy_from_weights_and_from_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--weights", "0.125,0.125,0.125,0.625", "--q", "2"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["S_q_joint"] == pytest.approx(0.5625, abs=1e-15)
    assert payload["S_q_A"] == payload["S_q_B"] == 0.5

    code, out, _ = run_cli(capsys, "entropy", "--xyz", "0,0,0", "--q", "1")
    payload = json.loads(out)["payload"]
    assert payload["S_q_joint"] == pytest.approx(math.log(4.0), abs=1e-15)
    assert payload["S_q_A"] == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("xyz", ["1,1,-3.5", "1.5,1.5,0", "1.0000000004,0,0"])
def test_entropy_of_an_unphysical_state_names_its_weights(capsys, xyz):
    # the same weights through --weights meet the same rule; the last state's
    # weight[phi+] = -1e-10 is inside Spectrum's 1e-9 tolerance but below
    # -WEIGHT_TOL, so neither flag may print its negative entropy
    s = BellDiagonalState(*map(float, xyz.split(",")))
    weights = ",".join(map(repr, bell_weights(s)))
    for flag in (f"--xyz={xyz}", f"--weights={weights}"):
        code, out, err = run_cli(capsys, "entropy", flag, "--q", "2")
        assert (code, out) == (3, "")
        assert err == "error: " + "; ".join(is_physical(s).violations) + "\n"


def test_entropy_of_weights_summing_just_above_one_is_nonnegative(capsys):
    # Spectrum accepts a sum within 1e-9 of 1; the entropy is that of the
    # weights divided by their sum, here the pure state's 0
    code, out, _ = run_cli(capsys, "entropy", "--weights=1.0000000005,0,0,0", "--q", "3",
                           "--format", "csv")
    assert code == 0
    assert read_csv_text(out) == (["S_q_joint", "S_q_A", "S_q_B"], [["0", "0.375", "0.375"]])


def test_entropy_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--xyz", "0,0,0", "--q", "1", "--format", "csv"
    )
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["S_q_joint", "S_q_A", "S_q_B"]
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(math.log(4.0), abs=1e-15)


def test_classify_ppt_and_default_method(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--xyz", "0.2,0.2,0.2", "--method", "ppt"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["verdict"] == "separable"
    assert doc["payload"]["criterion"] == "ppt"
    assert doc["payload"]["witness"] == pytest.approx(-0.1, abs=1e-12)
    assert doc["payload"]["witness_q"] is None

    code, out, _ = run_cli(capsys, "classify", "--xyz", "0.5,0.5,0.5")
    doc = json.loads(out)
    assert doc["command"]["method"] == "ar-asymptotic"
    assert doc["command"]["boundary_tol"] == 1e-9
    assert doc["payload"]["verdict"] == "entangled"

    code, out, _ = run_cli(
        capsys, "classify", "--xyz", "0.333333333,0.333333333,0.333333333"
    )
    assert json.loads(out)["payload"]["verdict"] == "boundary"


@pytest.mark.parametrize("method, classifier, default", [
    ("ppt", "ppt_classify", 1e-9),
    ("ar-asymptotic", "ar_classify_asymptotic", 1e-9),
    ("ar-scan", "ar_classify_scan", 1e-7),
])
@pytest.mark.parametrize("flag", [[], ["--boundary-tol", "0.03125"]])
def test_classify_echoes_the_band_the_classifier_applies(capsys, monkeypatch, method,
                                                         classifier, default, flag):
    original, band = qsep.separability.CLASSIFIERS[method]
    applied = []

    def recording(*args, **kwargs):
        # the core's band parameter: core(weights, tol)
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        applied.append(bound.arguments["tol"])
        return original(*args, **kwargs)

    monkeypatch.setitem(qsep.separability.CLASSIFIERS, method, (recording, band))
    code, out, _ = run_cli(capsys, "classify", "--xyz", "0.4,0.4,0.4", "--method", method, *flag)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"]["boundary_tol"] == applied[0]
    assert applied == [0.03125 if flag else default]
    # the public classifier, at the echoed band, gives the printed witness
    s = BellDiagonalState(0.4, 0.4, 0.4)
    state = bell_diagonal_density(s) if method == "ppt" else s
    public = getattr(qsep.separability, classifier)(state, boundary_tol=applied[0])
    assert doc["payload"]["witness"] == public.witness


def test_classify_scan_reports_witness_location(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--xyz", "0.4,0.4,0.4", "--method", "ar-scan"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["verdict"] == "entangled"
    assert payload["witness"] < 0.0
    assert payload["witness_q"] == 200.0  # the sampled minimum deepens with q


def test_threshold_round_trips_the_library_value(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"]["direction"] == "diag"
    assert doc["payload"]["threshold_x"] == threshold_x(2.0, "diag")

    code, out, _ = run_cli(capsys, "threshold", "--q", "2", "--direction", "2,0,0")
    doc = json.loads(out)
    assert doc["command"]["direction"] == [2.0, 0.0, 0.0]
    assert doc["payload"]["threshold_x"] == 0.5


SCALAR_COMMANDS = [
    ["entropy", "--xyz=0.1,-0.2,0.3", "--q", "2"],
    ["entropy", "--weights=0.4,0.3,0.2,0.1", "--q", "0.5", "--format", "json"],
    ["cond", "--xyz=0.1,-0.2,0.3", "--q", "2"],
    ["classify", "--xyz=0.2,0.2,0.2", "--method", "ppt"],
    ["threshold", "--q", "3", "--direction=1,0.5,0.2"],
    ["qinflex", "--xyz=0.6,0.6,0.6", "--q-max", "5"],
]


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=" ".join)
def test_scalar_record_echoes_each_declared_flag_in_order(capsys, tmp_path, argv):
    # the command record is the name, then each flag the subcommand declares
    # but --out and --format, in declaration order; the member of a flag
    # group that was not given is left out, as its value is None
    parser = qsep.cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = commands.choices[argv[0]]
    grouped = {a.dest for g in subparser._mutually_exclusive_groups for a in g._group_actions}
    given = {token.split("=")[0] for token in argv}
    declared = [a.dest for a in subparser._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
                and a.dest not in ("out", "format")
                and (a.dest not in grouped or not given.isdisjoint(a.option_strings))]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    command = json.loads(out)["command"]
    assert list(command) == ["name", *declared]
    assert command["name"] == argv[0]
    # --out changes where the record goes, not what it echoes
    target = tmp_path / "record.json"
    assert run_cli(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == out


def test_qinflex_payloads(capsys):
    code, out, _ = run_cli(capsys, "qinflex", "--xyz", "0,0,0")
    payload = json.loads(out)["payload"]
    assert payload["q_inflexion"] is None
    assert payload["eta"] == 0.0
    assert payload["vertex"] is False
    assert payload["bracket"] is None

    code, out, _ = run_cli(capsys, "qinflex", "--xyz", "1,1,1")
    payload = json.loads(out)["payload"]
    assert payload["eta"] == 1.0
    assert payload["vertex"] is True

    code, out, _ = run_cli(capsys, "qinflex", "--xyz", "0.6,0.6,0.6")
    payload = json.loads(out)["payload"]
    assert payload["q_inflexion"] == pytest.approx(3.9913375067783657, rel=2e-6)
    assert len(payload["bracket"]) == 2
    assert list(payload) == ["q_inflexion", "eta", "vertex", "bracket", "d2_at_bracket"]


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_exit_code_domain_errors(capsys):
    code, out, err = run_cli(capsys, "cond", "--xyz", "2,0,0", "--q", "2")
    assert code == 3 and out == ""
    assert "negative" in err

    code, _, err = run_cli(
        capsys, "entropy", "--weights", "0.5,0.5,0.5,0.5", "--q", "2"
    )
    assert code == 3
    assert "probability" in err


@pytest.mark.parametrize("argv, expected", [
    (["threshold", "--q", "2", "--tol", "0"], 3),
    (["threshold", "--q", "2", "--tol", "-1"], 3),
    (["threshold", "--q", "2", "--tol", "1e-300"], 0),
    # threshold_x checks its own tol: non-finite values are refused
    (["threshold", "--q", "2", "--tol", "nan"], 3),
    (["threshold", "--q", "2", "--tol", "inf"], 3),
    # a band below the float spacing of the boundary still classifies
    (["classify", "--xyz", "0.2,0.2,0.2", "--boundary-tol", "1e-300"], 0),
    (["qinflex", "--xyz", "0.5,0.5,0.5", "--q-max", "0.0001"], 3),
    (["classify", "--xyz", "0.2,0.2,0.2", "--boundary-tol", "-1"], 3),
    (["classify", "--xyz", "0.2,0.2,0.2", "--boundary-tol", "nan"], 3),
    # no physical cell on this grid, so no classifier sees the band
    (["scan", "--range=1.2:1.4:3", "--boundary-tol", "-1"], 3),
    # 2000^3 cells, above the grid cap: refused before any cell is made
    (["scan", "--range=-3:1:2000"], 3),
    # a non-finite direction is refused before the ray is walked
    (["threshold", "--q", "2", "--direction", "inf,0,0"], 3),
    (["threshold", "--q", "2", "--direction", "nan,0,0"], 3),
    # finite weights whose sum overflows are not a probability spectrum
    (["entropy", "--weights", "1e308,1e308,0,0", "--q", "2"], 3),
])
def test_search_and_band_tolerances_exit_without_hanging(argv, expected):
    # Run in a subprocess with a timeout, so a bisection that stops
    # terminating fails here instead of stalling the suite. A tolerance
    # below the float spacing of the root must return, not spin.
    result = subprocess.run([sys.executable, "-m", "qsep", *argv],
                            capture_output=True, text=True, env=package_env(), timeout=60)
    assert result.returncode == expected, result.stderr


def test_exit_code_numerical_failure(capsys):
    code, out, err = run_cli(
        capsys, "threshold", "--q", "2", "--direction", "1,-0.5,0.2"
    )
    assert code == 4 and out == ""
    assert "never crosses" in err


def test_exit_code_usage_errors(capsys):
    assert run_cli(capsys, "cond", "--xyz", "0,0", "--q", "2")[0] == 2
    assert run_cli(capsys, "scan", "--range", "0:1")[0] == 2
    assert run_cli(capsys, "scan", "--range", "1:0:5")[0] == 2
    assert run_cli(capsys, "scan", "--range", "a:b:5")[0] == 2
    assert run_cli(capsys, "threshold", "--q", "2", "--direction", "north")[0] == 2
    # the qinflex payload holds lists, which one CSV row cannot
    assert run_cli(capsys, "qinflex", "--xyz", "0.6,0.6,0.6", "--format", "csv")[0] == 2
    # the inflexion search has no tolerance to set
    assert run_cli(capsys, "qinflex", "--xyz", "0.5,0.5,0.5", "--refine-tol", "1e-8")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    # "--" ends the options: the flag before it has no value
    assert run_cli(capsys, "cond", "--xyz", "0,0,0", "--q", "--")[0] == 2
    assert run_cli(capsys, "scan", "--range", "--")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_help_exits_cleanly(capsys):
    assert run_cli(capsys, "--help")[0] == 0


@pytest.mark.parametrize("argv, expected", [
    (["cond", "--xyz", "0,0,0", "--q", "-0.5"], 0),
    (["classify", "--xyz", "0,0,0", "--boundary-tol", "-1"], 3),
    (["qinflex", "--xyz", "0.6,0.6,0.6", "--q-max", "-5"], 3),
    (["figure", "fig1a", "--jobs", "-1"], 0),
    # an abbreviation argparse accepts takes its value the same way
    (["scan", "--ran", "-1:1:3"], 0),
    # the help flags take no value and are no value
    (["cond", "--help", "-x"], 0),
    (["cond", "--bogus", "-h"], 0),
])
def test_a_value_starting_with_a_dash_reaches_its_option(capsys, argv, expected):
    assert run_cli(capsys, *argv)[0] == expected


def test_an_out_path_starting_with_a_dash(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "scan", "--range=0:0:1", "--out", "-r.csv")
    assert (code, out) == (0, "")
    written = (tmp_path / "-r.csv").read_text(encoding="utf-8")
    assert written == run_cli(capsys, "scan", "--range=0:0:1")[1]


def test_every_option_but_help_takes_exactly_one_value():
    # The premise of qsep.cli._normalise_argv, which reads the token after
    # any long option but --help as that option's value.
    parser = qsep.cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands.choices
    for command in [parser, *commands.choices.values()]:
        for action in command._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                assert action.nargs is None, (command.prog, action.option_strings)
                assert all(o.startswith("--") for o in action.option_strings)


def test_cli_import_leaves_process_pools_out():
    # Grids run in one process; importing a pool would only add startup time.
    probe = ("import sys, qsep.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=package_env(), timeout=60, check=True)
    assert result.stdout.strip() == "[]"


# Every command is scalar arithmetic on the Bell weights, ppt's eigensolves
# included; numpy's import would be most of their start-up time.
NUMPY_FREE_COMMANDS = [
    ["cond", "--xyz", "0.7,0.5,0.4", "--q", "2"],
    ["entropy", "--xyz", "0.7,0.5,0.4", "--q", "2"],
    ["classify", "--xyz", "0.7,0.5,0.4", "--method", "ar-asymptotic"],
    ["classify", "--xyz", "0.7,0.5,0.4", "--method", "ar-scan"],
    ["threshold", "--q", "2"],
    ["qinflex", "--xyz", "0.6,0.6,0.6"],
    ["figure", "fig3"],
    ["scan", "--range=-1:1:5", "--method", "ar-asymptotic"],
    ["scan", "--range=-1:1:5", "--method", "ar-scan"],
    ["scan", "--range=-1:1:5", "--method", "ppt"],
]
# Besides numpy, neither dataclasses nor the inspect module it imports is
# loaded, nor typing: each would add to every command's start-up time. The
# probe reports which of the modules named in its second argument are loaded.
STARTUP_PROBE = """
import contextlib, io, json, sys
def loaded_now():
    return [m for m in json.loads(sys.argv[2]) if m in sys.modules]
import qsep
loaded = [loaded_now()]
import qsep.cli
loaded.append(loaded_now())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        loaded.append([qsep.cli.main(argv), loaded_now()])
print(json.dumps([loaded, out.getvalue()]))
"""
# The output of this command before numpy left the import path.
PPT_CLASSIFY = (
    '{\n  "format": "qsep/1",\n  "command": {\n    "name": "classify",\n'
    '    "xyz": [0.69999999999999996, 0.5, 0.40000000000000002],\n    "method": "ppt",\n'
    '    "boundary_tol": 1.0000000000000001e-09\n  },\n  "payload": {\n'
    '    "verdict": "entangled",\n    "criterion": "ppt",\n'
    '    "witness": 0.15000000000000002,\n    "witness_q": null\n  }\n}\n'
)


def test_no_command_loads_numpy():
    commands = NUMPY_FREE_COMMANDS + [["classify", "--xyz", "0.7,0.5,0.4", "--method", "ppt"]]
    result = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(commands),
                             json.dumps(["numpy", "dataclasses", "inspect"])],
                            capture_output=True, text=True, env=package_env(), timeout=120,
                            check=True)
    loaded, ppt_output = json.loads(result.stdout)
    assert loaded[:2] == [[], []]  # import qsep; import qsep.cli
    assert loaded[2:-1] == [[0, []]] * len(NUMPY_FREE_COMMANDS)
    assert loaded[-1] == [0, []]
    assert ppt_output == PPT_CLASSIFY


def test_no_command_loads_typing():
    # under -S: where site is imported, it may load typing itself
    commands = NUMPY_FREE_COMMANDS + [["classify", "--xyz", "0.7,0.5,0.4", "--method", "ppt"]]
    result = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE, json.dumps(commands),
                             json.dumps(["typing"])],
                            capture_output=True, text=True, env=package_env(), timeout=120,
                            check=True)
    loaded, _ = json.loads(result.stdout)
    assert loaded == [[], []] + [[0, []]] * len(commands)


@pytest.mark.parametrize("signum, expected", [(signal.SIGTERM, 143), (signal.SIGHUP, 129)],
                         ids=["SIGTERM", "SIGHUP"])
def test_sigterm_removes_the_temporary_out_file(tmp_path, signum, expected):
    target = tmp_path / "fig3.csv"
    proc = subprocess.Popen([sys.executable, "-m", "qsep", "figure", "fig3", "--out", str(target)],
                            env=package_env(), stderr=subprocess.PIPE)
    try:
        for _ in range(6000):  # the temporary file appears before the first row is computed
            if any(tmp_path.iterdir()) or proc.poll() is not None:
                break
            time.sleep(0.005)
        assert [p.name for p in tmp_path.iterdir()] == [f".fig3.csv.{proc.pid}.tmp"]
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (expected, b"")
    assert list(tmp_path.iterdir()) == []


def test_an_ignored_sighup_stays_ignored_while_out_is_written(tmp_path):
    # as under nohup: the hangup neither ends the run nor loses the output
    target = tmp_path / "scan.csv"
    argv = ["scan", "--range=-3:1:41", "--method", "ar-scan", "--out", str(target)]
    proc = subprocess.Popen([sys.executable, "-m", "qsep", *argv],
                            env=package_env(), stderr=subprocess.PIPE,
                            preexec_fn=lambda: signal.signal(signal.SIGHUP, signal.SIG_IGN))
    try:
        for _ in range(6000):
            if any(tmp_path.iterdir()) or proc.poll() is not None:
                break
            time.sleep(0.005)
        assert proc.poll() is None  # the signal arrives while the rows are written
        proc.send_signal(signal.SIGHUP)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")
    assert len(target.read_text(encoding="utf-8").splitlines()) == 41**3 + 1


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    path = tmp_path / "threshold.json"
    code, out, _ = run_cli(capsys, "threshold", "--q", "2", "--out", str(path))
    assert code == 0 and out == ""
    on_disk = path.read_text(encoding="utf-8")
    code, out, _ = run_cli(capsys, "threshold", "--q", "2")
    assert out == on_disk


def test_unwritable_out_path(capsys):
    code, _, err = run_cli(
        capsys, "threshold", "--q", "2", "--out", "/no_such_dir_qsep/x.json"
    )
    assert code == 1
    assert err.startswith("error:")


def test_out_through_a_symlink_keeps_the_link_and_the_mode(tmp_path, capsys):
    expected = run_cli(capsys, "figure", "fig1b")[1]
    real = tmp_path / "real.csv"
    real.write_bytes(b"old\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert run_cli(capsys, "figure", "fig1b", "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == expected
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_out_to_a_fifo_writes_through_it(tmp_path, capsys):
    expected = run_cli(capsys, "scan", "--range=-1:1:5")[1]
    fifo = tmp_path / "scan.fifo"
    os.mkfifo(fifo)
    # the reader runs in a child process: opening a FIFO blocks until both ends are open
    reader = subprocess.Popen([sys.executable, "-c",
                               "import sys; sys.stdout.write(open(sys.argv[1]).read())",
                               str(fifo)], stdout=subprocess.PIPE, text=True)
    try:
        assert run_cli(capsys, "scan", "--range=-1:1:5", "--out", str(fifo)) == (0, "", "")
        assert reader.communicate(timeout=60)[0] == expected
    finally:
        reader.kill()
    assert fifo.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["scan.fifo"]


def test_a_reader_closing_stdout_early_ends_the_run_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "qsep", "scan"], env=package_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"x,y,z,physical,")
    proc.stdout.close()  # the default grid's rows far outgrow a pipe's buffer
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_repeated_runs_are_identical(capsys):
    first = run_cli(capsys, "qinflex", "--xyz", "0.7,0.7,0.7")[1]
    second = run_cli(capsys, "qinflex", "--xyz", "0.7,0.7,0.7")[1]
    assert first == second


# ---------------------------------------------------------------------------
# figures


def test_figure_fig1a_structure(tmp_path, capsys):
    path = tmp_path / "fig1a.csv"
    code, out, _ = run_cli(capsys, "figure", "fig1a", "--out", str(path))
    assert code == 0 and out == ""
    header, rows = read_csv_text(path.read_text(encoding="utf-8"))
    assert header == ["direction", "x", "q", "S_q_cond"]
    assert len(rows) == 3 * 3 * 201
    assert rows[0][:3] == ["x00", "0", "0.5"]
    assert float(rows[0][3]) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-14)
    directions = {r[0] for r in rows}
    assert directions == {"x00", "xx0", "xxx"}
    assert {r[2] for r in rows} == {"0.5", "2", "5"}
    assert rows[-1][:3] == ["xxx", "1", "5"]


def test_figure_fig1b_symmetry_about_the_midpoint(tmp_path, capsys):
    path = tmp_path / "fig1b.csv"
    assert run_cli(capsys, "figure", "fig1b", "--out", str(path))[0] == 0
    header, rows = read_csv_text(path.read_text(encoding="utf-8"))
    assert header == ["x", "q", "S_q_cond"]
    assert len(rows) == 3 * 801
    for q_label in ("0.5", "2", "5"):
        series = [(float(r[0]), float(r[2])) for r in rows if r[1] == q_label]
        assert len(series) == 801
        for k, (x, value) in enumerate(series):
            x_mirror, value_mirror = series[800 - k]
            assert x + x_mirror == pytest.approx(-2.0, abs=1e-12)
            assert value == pytest.approx(value_mirror, abs=1e-12)


def test_figure_fig2_closed_forms_and_zero_exclusion(tmp_path, capsys):
    path = tmp_path / "fig2.csv"
    assert run_cli(capsys, "figure", "fig2", "--out", str(path))[0] == 0
    header, rows = read_csv_text(path.read_text(encoding="utf-8"))
    assert header == ["label", "q", "S_q_cond"]

    labels = {r[0] for r in rows}
    families = ("x00", "xx0", "xxx", "1x0", "1xx", "11x")
    expected_labels = {
        f"{fam}_{v:g}" for fam in families for v in (0.25, 0.5, 0.75, 1.0)
    } | {"xxx_0"}
    assert labels == expected_labels

    by_label = {}
    for label, q_text, value_text in rows:
        by_label.setdefault(label, []).append((float(q_text), float(value_text)))

    # fully mixed curve: all 1301 samples match the closed form
    top = by_label["xxx_0"]
    assert len(top) == 1301
    for q, value in top:
        assert value == pytest.approx(uppermost_curve(q), abs=1e-12)
    assert dict(top)[0.0] == 1.0

    # pure-state curve: q = 0 is excluded (rank-deficient), rest matches
    bottom = by_label["xxx_1"]
    assert len(bottom) == 1300
    assert all(q != 0.0 for q, _ in bottom)
    for q, value in bottom:
        assert value == pytest.approx(lowest_curve(q), abs=1e-12)

    # every rank-deficient family drops exactly the q = 0 row
    for label, series in by_label.items():
        rank_deficient = label.startswith(("1x0", "1xx", "11x")) or label.endswith("_1")
        assert len(series) == (1300 if rank_deficient else 1301)


def test_figure_fig3_geometry(tmp_path, capsys):
    path = tmp_path / "fig3.csv"
    assert run_cli(capsys, "figure", "fig3", "--out", str(path))[0] == 0
    header, rows = read_csv_text(path.read_text(encoding="utf-8"))
    assert header == ["x", "y", "z", "physical", "verdict", "eta"]
    assert len(rows) == 41**3

    physical = [r for r in rows if r[3] == "1"]
    fraction = len(physical) / len(rows)
    # continuum ratio: the state tetrahedron fills 1/6 of the cube
    assert abs(fraction - 1.0 / 6.0) < 0.02

    for r in rows:
        if r[3] == "0":
            assert r[4] == "" and r[5] == ""

    vertex_rows = [r for r in physical if float(r[5]) == 1.0]
    assert sorted((float(r[0]), float(r[1]), float(r[2])) for r in vertex_rows) == [
        (-3.0, 1.0, 1.0), (1.0, -3.0, 1.0), (1.0, 1.0, -3.0), (1.0, 1.0, 1.0)
    ]
    for r in physical:
        eta = float(r[5])
        if r[4] == "separable" or r[4] == "boundary":
            assert eta == 0.0
        else:
            assert eta > 0.0


def test_figure_fig3_rows_equal_a_fresh_evaluation_of_each_cell(capsys):
    # fig3 evaluates each Bell-weight multiset once; every other row with
    # that multiset must still hold the very fields its own state gives
    code, out, _ = run_cli(capsys, "figure", "fig3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    physical = [r for r in rows if r[3] == "1"]
    assert len(physical) == 12_341
    for x, y, z, _, verdict, eta in physical:
        s = BellDiagonalState(float(x), float(y), float(z))
        assert verdict == ar_classify_asymptotic(s).verdict
        assert eta == format(order_parameter(s).eta, ".17g")


def test_grid_commands_evaluate_once_per_multiset_or_once_per_cell(capsys, monkeypatch):
    # fig3 searches and renders each of the 2,240 weight multisets of its
    # 12,341 physical cells once, on the weights physical_runs tested: no
    # state, no Classification, no second physicality check. A ppt scan
    # classifies every physical cell, those that repeat a multiset included.
    calls = {}

    def count(patch, owner, name, key=None):
        def counted(*args, _key=key or name, _original=getattr(owner, name), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        patch.setattr(owner, name, counted)

    for name in ("max_weight_verdict", "inflexion_report", "order_parameter", "classify_state"):
        count(monkeypatch, qsep.cli, name)
    original = qsep.states.physical_weights
    with monkeypatch.context() as patch:
        for record in (BellDiagonalState, qsep.separability.Classification):
            count(patch, record, "__init__", record.__name__)
        for module in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qsep"
                       and getattr(m, "physical_weights", None) is original]:
            count(patch, module, "physical_weights")
        assert run_cli(capsys, "figure", "fig3")[0] == 0
    assert calls == {"max_weight_verdict": 2_240, "inflexion_report": 2_240}

    calls.clear()
    assert run_cli(capsys, "scan", "--range=-1:1:3", "--method", "ppt")[0] == 0
    spec = (-1.0, 1.0, 3)
    physical = [s for s in itertools.starmap(BellDiagonalState,
                                             itertools.product(*grid_axes(spec, spec, spec)))
                if is_physical(s)]
    assert len({tuple(sorted(bell_weights(s))) for s in physical}) < len(physical)
    assert calls == {"classify_state": len(physical)}


# ---------------------------------------------------------------------------
# scans


def test_scan_structure_and_jobs_invariance(tmp_path, capsys):
    serial = tmp_path / "scan1.csv"
    parallel = tmp_path / "scan3.csv"
    args = ("scan", "--range", "-1:1:9")
    assert run_cli(capsys, *args, "--jobs", "1", "--out", str(serial))[0] == 0
    assert run_cli(capsys, *args, "--jobs", "3", "--out", str(parallel))[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()

    header, rows = read_csv_text(serial.read_text(encoding="utf-8"))
    assert header == ["x", "y", "z", "physical", "verdict", "criterion",
                      "witness", "witness_q"]
    assert len(rows) == 9**3
    verdicts = {r[4] for r in rows}
    assert verdicts <= {"separable", "entangled", "boundary", ""}
    for r in rows:
        assert (r[3] == "1") == (r[4] != "")


def test_scan_outside_the_tetrahedron_classifies_nothing(capsys):
    code, out, _ = run_cli(
        capsys, "scan",
        "--xrange", "1.2:1.4:3", "--yrange", "0:0:1", "--zrange", "0:0:1",
    )
    assert code == 0
    _, rows = read_csv_text(out)
    assert len(rows) == 3
    assert all(r[3] == "0" and r[4] == "" for r in rows)


# (ranges, specs, rows the output must hold). -1:1:3 holds non-physical
# cells such as (-1, -1, -1) and the state (-1, -1, 1), whose weights are
# (1/2, 1/2, 0, 0). The second grid has a line that is non-physical because
# x > 1, a line with no physical z, and a run that ends at a physical -0.
SCAN_GRIDS = {
    "": (("--range=-1:1:3",), ((-1.0, 1.0, 3),) * 3,
         ("\n-1,-1,1,1,", "\n-1,-1,-1,0,,,,\n")),
    "-edge": (("--xrange=-0.8:1.25:3", "--yrange=-0.8:-0.8:1", "--zrange=-3:-0:3"),
              ((-0.8, 1.25, 3), (-0.8, -0.8, 1), (-3.0, -0.0, 3)),
              ("\n-0.80000000000000004,-0.80000000000000004,-0,0,,,,\n",
               "\n0.22499999999999987,-0.80000000000000004,-0,1,",
               "\n1.25,-0.80000000000000004,-0,0,,,,\n")),
    # lines whose physical run ends before z does, at z > 1
    "-zbeyond": (("--xrange=-0.5:0.5:3", "--yrange=-0.5:0:2", "--zrange=0:1.5:4"),
                 ((-0.5, 0.5, 3), (-0.5, 0.0, 2), (0.0, 1.5, 4)),
                 ("\n0.5,0,1,1,", "\n0.5,0,1.5,0,,,,\n")),
}


@pytest.mark.parametrize("method, grid", [
    pytest.param(method, grid, id=method + grid)
    for grid in SCAN_GRIDS for method in ("ppt", "ar-asymptotic", "ar-scan")
])
def test_scan_rows_are_the_region_scan_cells(capsys, method, grid):
    ranges, specs, expected_rows = SCAN_GRIDS[grid]
    code, out, _ = run_cli(capsys, "scan", *ranges, "--method", method)
    assert code == 0
    # cell by cell, from is_physical and classify_state: region_scan and
    # the CLI share the grid enumeration, so neither is the oracle here
    rows = []
    for x, y, z in itertools.product(*grid_axes(*specs)):
        s = BellDiagonalState(x, y, z)
        c = classify_state(s, method) if is_physical(s) else None
        fields = (None,) * 4 if c is None else (c.verdict, c.criterion, c.witness, c.witness_q)
        rows.append((x, y, z, c is not None, *fields))
    header = ["x", "y", "z", "physical", "verdict", "criterion", "witness", "witness_q"]
    assert out == "".join(",".join(map(_csv_field, row)) + "\n" for row in [header, *rows])
    assert all(row in out for row in expected_rows)
    scanned = []
    for cell in region_scan(*specs, method=method).cells:
        c = cell.classification
        fields = (None,) * 4 if c is None else (c.verdict, c.criterion, c.witness, c.witness_q)
        scanned.append((cell.x, cell.y, cell.z, cell.physical, *fields))
    assert scanned == rows


def test_scan_above_the_cap_writes_nothing(tmp_path, capsys, monkeypatch):
    def no_points(spec, name):
        raise AssertionError("grid points made for an oversized grid")

    monkeypatch.setattr(qsep.separability, "grid_points", no_points)
    code, out, err = run_cli(capsys, "scan", "--range=-3:1:2000")
    assert (code, out) == (3, "") and "MAX_GRID_CELLS" in err
    target = tmp_path / "scan.csv"
    target.write_bytes(b"kept\n")
    assert run_cli(capsys, "scan", "--range=-3:1:2000", "--out", str(target))[0] == 3
    assert target.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]


def fail_at_physical_cell(monkeypatch, n):
    """Make the scan's n-th classify_state call raise NumericalError."""
    classify = qsep.cli.classify_state
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == n:
            raise NumericalError("injected failure")
        return classify(*args)

    monkeypatch.setattr(qsep.cli, "classify_state", failing)


def test_scan_failing_partway_keeps_whole_planes_and_the_out_file(tmp_path, capsys, monkeypatch):
    argv = ("scan", "--range=-1:1:5", "--method", "ppt")
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = full.splitlines(keepends=True)
    header, planes = lines[0], [lines[1 + 25 * k: 26 + 25 * k] for k in range(5)]
    physical = [sum(row.split(",")[3] == "1" for row in plane) for plane in planes]
    assert physical[2] >= 2
    # the second physical cell of the third x plane fails
    fail_at_physical_cell(monkeypatch, physical[0] + physical[1] + 2)

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (4, "error: injected failure\n")
    assert out == header + "".join(planes[0] + planes[1])

    target = tmp_path / "scan.csv"
    target.write_bytes(b"kept\n")
    fail_at_physical_cell(monkeypatch, physical[0] + physical[1] + 2)
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (4, "")
    assert target.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]


def test_scan_keeps_the_sign_of_a_zero_coordinate(capsys):
    # 0.0 == -0.0, so formatting by value rather than by axis position
    # would print whichever zero came first
    code, out, _ = run_cli(capsys, "scan", "--xrange=-0:-0:1", "--yrange=0:0:1",
                           "--zrange=0:0:1")
    assert code == 0
    assert out.splitlines()[1].startswith("-0,0,0,1,")


@pytest.mark.parametrize("method", ["ppt", "ar-asymptotic", "ar-scan"])
def test_scan_prints_a_zero_witness_as_0(capsys, method):
    # the witness at (1, 1, -1) is zero under every method, and +0.0
    code, out, _ = run_cli(capsys, "scan", "--range=-1:1:3", "--method", method)
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("1,1,-1,"))
    assert row.startswith("1,1,-1,1,boundary,") and row.endswith(",0,")


def test_scan_methods_and_axis_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--range", "0:1:3", "--method", "ppt"
    )
    assert code == 0
    _, rows = read_csv_text(out)
    assert len(rows) == 27
    assert {r[5] for r in rows if r[3] == "1"} == {"ppt"}

    code, out, _ = run_cli(
        capsys, "scan",
        "--xrange", "0:0.8:2", "--yrange", "0:0:1", "--zrange", "0:0:1",
        "--method", "ar-scan",
    )
    _, rows = read_csv_text(out)
    assert len(rows) == 2
    assert all(r[3] == "1" and r[5] == "ar-scan" and r[7] != "" for r in rows)


# ---------------------------------------------------------------------------
# entry points

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    """The ``[project.scripts]`` table of this checkout's ``pyproject.toml``."""
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def installed_distribution():
    try:
        return importlib.metadata.distribution("qsep")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_module_and_script_entry_points():
    env = package_env()

    result = subprocess.run(
        [sys.executable, "-m", "qsep", "cond", "--xyz", "0,0,0", "--q", "2"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["payload"]["value"] == 0.5

    scripts = declared_scripts()
    assert "qsep" in scripts
    entry = importlib.metadata.EntryPoint(
        name="qsep", value=scripts["qsep"], group="console_scripts"
    )
    assert entry.load() is main

    # What the console-script wrapper an installer writes does.
    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "usage" in result.stdout


@pytest.mark.skipif(
    installed_distribution() is None,
    reason="no 'qsep' distribution found by importlib.metadata.distribution('qsep')",
)
def test_installed_console_script():
    assert installed_distribution().version == qsep.__version__
    scripts = installed_distribution().entry_points.select(group="console_scripts")
    assert {ep.name: ep.value for ep in scripts} == declared_scripts()

    script = shutil.which("qsep")
    assert script is not None
    result = subprocess.run([script, "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "subcommand" in result.stdout or "usage" in result.stdout


# ---------------------------------------------------------------------------
# the committed byte manifest, and the other tools

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_harness_command_matches_the_committed_manifest(capsys):
    # tools/compare_outputs.py --write-manifest records each command's exit
    # code and the SHA-256 of its stdout from a fresh `python -m qsep`; here
    # each runs in process. A change that moves bytes commits a new manifest.
    compare_outputs = load_tool("compare_outputs")
    manifest = json.loads(compare_outputs.MANIFEST.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in manifest] == [list(c) for c in compare_outputs.COMMANDS]
    moved = []
    for entry in manifest:
        code = main(list(entry["argv"]))
        out = capsys.readouterr().out.encode("utf-8")
        if compare_outputs.manifest_entry(entry["argv"], out, code) != entry:
            moved.append(" ".join(entry["argv"]))
    assert moved == []


def test_check_manifest_exits_1_when_a_command_moves(monkeypatch, tmp_path, capsys):
    # --check-manifest against a manifest that a stand-in runner wrote
    compare_outputs = load_tool("compare_outputs")
    monkeypatch.setattr(compare_outputs, "MANIFEST", tmp_path / "manifest.json")
    monkeypatch.setattr(compare_outputs, "run", lambda src, argv: (" ".join(argv).encode(), 0))
    compare_outputs.write_manifest()
    assert compare_outputs.main(["--check-manifest"]) == 0
    moved = list(compare_outputs.COMMANDS[3])
    monkeypatch.setattr(compare_outputs, "run", lambda src, argv: (
        b"" if argv == moved else " ".join(argv).encode(), 0))
    capsys.readouterr()
    assert compare_outputs.main(["--check-manifest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    count = len(compare_outputs.COMMANDS)
    assert lines[3] == f"stdout differ: qsep {' '.join(moved)} (exit 0 -> 0)"
    assert lines[-1] == f"{count - 1} of {count} commands identical"


COUNTED_SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


def f(x):
    """Function docstring."""
    # a comment line
    text = """a string,
not a docstring"""
    return len(text) + x


class C:
    \'\'\'Class docstring.\'\'\'

    y = ("a", "b")
'''


def test_count_code_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    count_code = load_tool("count_code")
    # import, def, the two-line string, return, class, y
    assert count_code.code_lines(COUNTED_SOURCE) == 7
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(COUNTED_SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nX = 1\n', encoding="utf-8")
    assert count_code.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py\t1\nsub/b.py\t7\ntotal\t8\n"
