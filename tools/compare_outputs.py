"""Check that this tree's CLI prints the same bytes as another checkout's,
or record its bytes in the committed manifest.

Run from anywhere, with the root of the other checkout (for example the
parent commit, extracted with ``git archive``) as the only argument:

    python tools/compare_outputs.py PARENT_ROOT

Each command of ``COMMANDS`` runs as ``python -m qsep ...`` twice: once with
PARENT_ROOT/src on PYTHONPATH and once with this tree's src. One line per
command says whether the two runs are identical or which of stdout and the
exit code differ; stderr is not compared. The exit status is 1 if any
command differs, else 0.

    python tools/compare_outputs.py --write-manifest

runs each command of ``COMMANDS`` once with this tree's src and rewrites
``MANIFEST`` (``outputs_manifest.json`` beside this file): one line per
command with its argv, its exit code and the SHA-256 of its stdout. The
test suite runs every command in process and compares it with the manifest,
so a change that moves output bytes commits the new manifest, whose diff
names the commands that moved.

    python tools/compare_outputs.py --check-manifest

runs each command of ``COMMANDS`` once as a fresh ``python -m qsep`` with
this tree's src and compares its exit code and stdout digest with
``MANIFEST``, one line per command as above; the exit status is 1 if any
command differs. Run by an interpreter without numpy, it checks that every
command works without numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MANIFEST = Path(__file__).resolve().parent / "outputs_manifest.json"
METHODS = ("ppt", "ar-asymptotic", "ar-scan")
GRIDS = (
    ("--range=-3:1:41",),
    ("--xrange=-3.03:0.97:41", "--yrange=-2.98:1.02:41", "--zrange=-3.01:0.99:41"),
    ("--xrange=-0.8:1.25:3", "--yrange=-0.8:-0.8:1", "--zrange=-3:-0:3"),
    # physical runs that end before z does, at z > 1
    ("--xrange=-0.5:0.5:3", "--yrange=-0.5:0:2", "--zrange=0:1.5:4"),
)
CLASSIFY_POINTS = ("-3,1,1", "1,-3,1", "1,1,-3", "1,1,1", "0,0,0",
                   "0.3333333333,0.3333333333,0.3333333333")
# found, root-free, near-critical (q_I ~ 131 at q_max 200), vertex, unphysical
QINFLEX_POINTS = ("0.6,0.6,0.6", "0.2,0.2,0.2", "0.34,0.34,0.34", "1,1,1", "1.2,0,0")

COMMANDS = (
    [["figure", which] for which in ("fig1a", "fig1b", "fig2", "fig3")]
    + [["figure", "fig3", "--jobs", "2"]]
    + [["scan", *grid, "--method", method] for grid in GRIDS for method in METHODS]
    + [["classify", f"--xyz={xyz}", "--method", method]
       for xyz in CLASSIFY_POINTS for method in METHODS]
    + [["qinflex", f"--xyz={xyz}", "--q-max", q_max]
       for q_max in ("5", "200", "1e4") for xyz in QINFLEX_POINTS]
    # a band of 1/4 makes the separable (0.2, 0.2, 0.2) a ppt and ar-asymptotic
    # boundary state
    + [[*command, "--method", method, "--boundary-tol", "0.25"]
       for command in (["classify", "--xyz=0.2,0.2,0.2"], ["scan", "--range=-1:1:5"])
       for method in METHODS]
    + [
        ["cond", "--xyz=0.1,-0.2,0.3", "--q", "2"],
        ["entropy", "--xyz=0.1,-0.2,0.3", "--q", "2"],
        ["entropy", "--weights=0.4,0.3,0.2,0.1", "--q", "0.5"],
        ["threshold", "--q", "2", "--direction", "edge"],
        ["threshold", "--q", "3", "--direction=1,0.5,0.2"],
        # the CSV row of a scalar command: an empty and a float witness_q
        ["classify", "--xyz=0.2,0.2,0.2", "--method", "ar-asymptotic", "--format", "csv"],
        ["classify", "--xyz=0.2,0.2,0.2", "--method", "ar-scan", "--format", "csv"],
        ["threshold", "--q", "2", "--direction", "edge", "--format", "csv"],
        ["cond", "--xyz=0.1,-0.2,0.3", "--q", "2", "--format", "csv"],
        # values that start with "-" in the two-token spelling
        ["cond", "--xyz", "-0.1,0.2,0.3", "--q", "-0.5"],
        ["scan", "--range", "-1:1:5", "--method", "ppt"],
        ["threshold", "--q", "3", "--direction", "-1,0.5,0.2"],
        # the default range
        ["scan", "--method", "ar-scan"],
        # the raw S_q(B|A) is -inf at the end of this ray
        ["threshold", "--q", "2000", "--direction", "diag"],
        # next to q = 1 the residual's expm1 and log1p carry the answer
        ["threshold", "--q", "1.000001", "--direction", "diag"],
        # three weights of 2/3 EPS_SUPPORT: a one-weight support, so a vertex
        ["qinflex", "--xyz=0.99999999999733336,0.99999999999733336,0.99999999999733336"],
        # exit 3: a grid over the cap, an unphysical state, a negative band
        ["scan", "--range=-3:1:2000"],
        ["cond", "--xyz=1.2,0,0", "--q", "2"],
        ["classify", "--xyz=0.2,0.2,0.2", "--boundary-tol=-1"],
        # the physicality edge: a phi+ weight of -9.75e-13 is accepted, one of
        # -1.025e-12 exits 3
        ["classify", "--xyz=1.0000000000039,0,0", "--method", "ppt"],
        ["classify", "--xyz=1.0000000000041,0,0", "--method", "ppt"],
    ]
)


def run(src: Path, argv: list[str]) -> tuple[bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "qsep", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.stdout, done.returncode


def manifest_entry(argv: list[str], stdout: bytes, code: int) -> dict:
    return {"argv": argv, "exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}


def write_manifest() -> None:
    entries = [json.dumps(manifest_entry(command, *run(SRC, command))) for command in COMMANDS]
    MANIFEST.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"{len(entries)} commands written to {MANIFEST}")


def compare(expected) -> int:
    """Run each command of ``COMMANDS`` with this tree's src and compare it
    with ``expected(command)``, a manifest entry; print one line per command
    and return 1 if any differs, else 0."""
    differing = 0
    for command in COMMANDS:
        old, new = expected(command), manifest_entry(command, *run(SRC, command))
        diffs = [name for name, key in (("stdout", "sha256"), ("exit code", "exit"))
                 if old[key] != new[key]]
        differing += bool(diffs)
        verdict = f"{' and '.join(diffs)} differ" if diffs else "identical"
        print(f"{verdict}: qsep {' '.join(command)} (exit {old['exit']} -> {new['exit']})",
              flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands identical")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if argv == ["--write-manifest"]:
        write_manifest()
        return 0
    if argv == ["--check-manifest"]:
        recorded = {json.dumps(entry["argv"]): entry
                    for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))}
        return compare(lambda command: recorded[json.dumps(command)])
    if len(argv) != 1:
        print("usage: python tools/compare_outputs.py PARENT_ROOT | --write-manifest"
              " | --check-manifest", file=sys.stderr)
        return 2
    parent_src = Path(argv[0]).resolve() / "src"
    if not (parent_src / "qsep").is_dir():
        print(f"error: no qsep package under {parent_src}", file=sys.stderr)
        return 2
    return compare(lambda command: manifest_entry(command, *run(parent_src, command)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
