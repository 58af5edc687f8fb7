"""Fast tests of the benchmark itself, on tiny workload sizes."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import qsep
import qsep.cli
from perfbench import oracles, run, workloads as wl
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload that can shrink and keep outputs out of the tree."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setitem(wl.WORKLOADS, "scan", wl.Scan(count=5, cells=None))
    monkeypatch.setitem(wl.WORKLOADS, "point-queries", wl.PointQueries(batch=4))


def _frozen_golden() -> dict:
    """The mpmath q_I values frozen in tests/test_criticality.py."""
    tree = ast.parse((ROOT / "tests" / "test_criticality.py").read_text(encoding="utf-8"))
    golden = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("GOLDEN_DIAGONAL",
                                                                    "GOLDEN_OFF_DIAGONAL"):
            for key, value in ast.literal_eval(node.value).items():
                golden[key if isinstance(key, tuple) else (key, key, key)] = value
    return golden


def test_inflexion_reference_matches_the_frozen_mpmath_roots():
    golden = _frozen_golden()
    assert len(golden) == 8
    xyz = np.array(list(golden))
    q_ref = oracles.inflexion_reference(oracles.bell_weights(xyz), oracles.Q_FLOOR, oracles.Q_MAX)
    np.testing.assert_allclose(q_ref, list(golden.values()), rtol=1e-13)


def test_second_derivative_matches_mpmath_through_q_equal_one():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    w = oracles.bell_weights([0.6, 0.3, -0.2])
    wm = [mp.mpf(float(v)) for v in w[0]]
    support, logs = oracles._support_logs(w)
    coef = np.where(support, w * logs ** 3, 0.0)
    for q in (1e-3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-6, 2.0, 150.0):
        def s(qq):
            u = qq - 1
            return -mp.fsum(v * mp.log(2 * v) * (mp.expm1(u * mp.log(2 * v)) / (u * mp.log(2 * v))
                                                 if u != 0 else 1) for v in wm)
        exact = mp.diff(s, mp.mpf(q), 2)
        got = oracles._d2(coef, logs, q)[0]
        assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-14)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["scan", "point-queries"])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = _last_json(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in DECLARED[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    value = {n: m["value"] for n, m in result["metrics"].items()}
    ppt_cells = value["separability.classify_state.ppt.calls"]
    assert ppt_cells > 0
    if workload == "scan":
        assert value["linalg.hermitian_eigenvalues.calls"] == 2 * ppt_cells
        assert value["cli.output_bytes"] > 0 and value["cli.self_s"] > 0
    else:
        assert value["separability.threshold_x.calls"] == ppt_cells
        assert value["entropy.conditional_entropy_bell.calls"] == ppt_cells


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    argv = ["--workload", "fig3", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def _scan_round():
    scan = wl.Scan(count=9, cells=None)
    axes = scan.inputs(1)
    call = run.in_process_cli(qsep.cli)
    return scan, axes, [call(argv) for argv in scan.argvs(axes, 1)]


def test_a_flipped_verdict_is_a_failed_operation():
    scan, axes, ops = _scan_round()
    assert run.check_rounds(scan, axes, [ops])[0] == 0
    text = ops[0].output.decode()
    flipped = text.replace(",entangled,", ",separable,", 1)
    assert flipped != text and ",entangled," in text
    ops[0] = wl.Op(ops[0].seconds, flipped.encode())
    failed, _ = run.check_rounds(scan, axes, [ops])
    assert failed == 1


def test_a_perturbed_eta_is_a_failed_operation():
    queries = wl.PointQueries(batch=6)
    inputs = queries.inputs(5)
    ops = queries.run(qsep, inputs, run.perf_counter)
    assert run.check_rounds(queries, inputs, [ops])[0] == 0
    k = next(i for i, op in enumerate(ops) if op.output[3] is not None)
    out = list(ops[k].output)
    out[4] *= 1.0 + 1e-3
    ops[k] = wl.Op(ops[k].seconds, tuple(out))
    failed, _ = run.check_rounds(queries, inputs, [ops])
    assert failed == 1


def test_later_rounds_must_repeat_the_first():
    queries = wl.PointQueries(batch=3)
    inputs = queries.inputs(2)
    first = queries.run(qsep, inputs, run.perf_counter)
    again = [wl.Op(op.seconds, op.digest()) for op in first]
    again[1] = wl.Op(0.0, "0" * 64)
    assert run.check_rounds(queries, inputs, [first, again])[0] == 1


def test_end_to_end_times_are_each_operations_best():
    rounds = [[wl.Op(3.0), wl.Op(1.0)], [wl.Op(2.0), wl.Op(4.0)]]
    assert run.best_times(rounds) == (3.0, [2.0, 1.0])


def test_an_output_left_on_disk_has_the_digest_of_its_bytes(tmp_path):
    path = tmp_path / "output"
    path.write_bytes(b"x,y\n1,2\n")
    assert wl.Op(0.0, path).digest() == wl.Op(0.0, b"x,y\n1,2\n").digest()


def test_seeds_fix_the_inputs():
    a, b, c = (wl.make_queries(s, 5) for s in (1, 1, 2))
    for field in ("xyz", "q_cond", "q_ray", "direction", "rho"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(getattr(a, field), getattr(c, field))
    scan = wl.Scan()
    assert scan.inputs(7) == scan.inputs(7) != scan.inputs(8)


def test_scan_grids_hold_the_same_work_and_stay_off_the_planes():
    for seed in (1, 2):
        axes = wl.Scan().inputs(seed)
        w = oracles.bell_weights(wl._grid(axes))
        physical = oracles.is_physical(w)
        assert physical.sum() == wl.SCAN_PHYSICAL_CELLS
        assert np.abs(oracles.max_weight_witness(w[physical])).min() > wl.INPUT_MARGIN


def test_tracer_counts_calls_across_layers_and_restores_the_package():
    original = qsep.separability.hermitian_eigenvalues
    tracer = Tracer()
    s = qsep.BellDiagonalState(0.5, 0.5, 0.5)
    with tracer.install(qsep):
        qsep.classify_state(s, "ppt")
        qsep.classify_state(s, method="ar-asymptotic")
    assert qsep.separability.hermitian_eigenvalues is original
    spans = tracer.summary()
    assert spans["separability.classify_state.ppt"]["calls"] == 1
    assert spans["separability.classify_state.ar-asymptotic"]["calls"] == 1
    assert spans["linalg.hermitian_eigenvalues"]["calls"] == 2
    # a module's calls to its own functions are not wrapped
    assert "separability.ppt_classify" not in spans
    top = spans["separability.classify_state.ppt"]
    assert 0.0 <= top["self_s"] <= top["busy_s"]
