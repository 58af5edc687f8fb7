"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A round is the unit that repeats while a run measures:

* ``fig3``: one ``qsep figure fig3`` command (the paper's 41^3 dataset);
* ``scan``: three ``qsep scan`` commands, one per method, on a seeded grid;
* ``point-queries``: a fixed batch of seeded states, each analysed in process.

Every check compares an output with the references in ``oracles``; a
problem found marks the operation that produced it as failed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import oracles

GRID_COUNT = 41
FIG3_AXIS = (-3.0, 1.0, GRID_COUNT)
SCAN_METHODS = ("ppt", "ar-asymptotic", "ar-scan")
SCAN_JITTER = 0.05
# Most shifted 41^3 grids hold this many physical cells; redrawing the
# others keeps the work per round the same for every seed.
SCAN_PHYSICAL_CELLS = 10660
INPUT_MARGIN = 1e-6
QUERY_BATCH = 200
THRESHOLD_TOL = 1e-12
SETUP_ARGV = ("cond", "--xyz", "0,0,0", "--q", "2")


@dataclass
class Op:
    """One measured operation: its latency, its output, or why it failed."""

    seconds: float
    output: object = None
    error: str | None = None

    def digest(self) -> str:
        if isinstance(self.output, Path):  # an output left on disk
            with open(self.output, "rb") as fh:
                return hashlib.file_digest(fh, "sha256").hexdigest()
        data = self.output if isinstance(self.output, bytes) else repr(self.output).encode()
        return hashlib.sha256(data).hexdigest()


@dataclass
class Findings:
    """What the checks of one round found, beside the per-op problems."""

    problems: list[list[str]]
    units: int = 0
    verdicts: Counter = field(default_factory=Counter)
    found: int = 0
    qi_rel_err: float = 0.0
    witness_abs_err: float = 0.0
    output_bytes: int = 0


def _max(current: float, values) -> float:
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    return max(current, float(values.max())) if values.size else current


# ---------------------------------------------------------------------------
# CLI outputs


def _grid(axes) -> np.ndarray:
    xs, ys, zs = (np.linspace(lo, hi, int(n)) for lo, hi, n in axes)
    return np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)


def _parse_csv(output: bytes, header: str, ncols: int) -> list[list[str]]:
    lines = output.decode("utf-8").split("\n")
    if lines[0] != header:
        raise ValueError(f"header is {lines[0]!r}, expected {header!r}")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"a row does not have {ncols} fields")
    return rows


def _check_grid_rows(rows, axes) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Coordinates and physicality of a grid CSV; returns (problems, w, physical)."""
    expected = _grid(axes)
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"], None, None
    xyz = np.array([[float(v) for v in r[:3]] for r in rows])
    problems = []
    if not np.array_equal(xyz, expected):
        problems.append("grid coordinates differ from the requested axes")
    w = oracles.bell_weights(expected)
    physical = oracles.is_physical(w)
    flags = np.array([r[3] for r in rows])
    if not np.array_equal(flags == "1", physical) or not np.all(np.isin(flags, ("0", "1"))):
        problems.append("physical flags differ from the weight test")
    if any(any(r[4:]) for r, p in zip(rows, physical) if not p):
        problems.append("a non-physical cell carries a result")
    return problems, w, physical


def _verdict_mismatches(verdicts, witness) -> int:
    expected = oracles.banded_verdict(witness)
    return int(sum(1 for got, want in zip(verdicts, expected) if want and got != want))


def check_fig3(output: bytes, findings: Findings) -> list[str]:
    rows = _parse_csv(output, "x,y,z,physical,verdict,eta", 6)
    problems, w, physical = _check_grid_rows(rows, [FIG3_AXIS] * 3)
    if w is None:
        return problems
    rows = [r for r, p in zip(rows, physical) if p]
    w = w[physical]
    verdicts = [r[4] for r in rows]
    bad = _verdict_mismatches(verdicts, oracles.max_weight_witness(w))
    if bad:
        problems.append(f"{bad} verdicts differ from the max-weight test")
    eta = np.array([float(r[5]) for r in rows])
    wrong, rel = oracles.eta_problems(w, eta)
    if wrong.any():
        problems.append(f"{int(wrong.sum())} eta values differ from the q_I reference")
    findings.units += len(rows)
    findings.verdicts.update(verdicts)
    findings.found += int(((eta > 0) & (eta < 1)).sum())
    findings.qi_rel_err = _max(findings.qi_rel_err, rel)
    return problems


def check_scan(output: bytes, method: str, axes, findings: Findings) -> list[str]:
    header = "x,y,z,physical,verdict,criterion,witness,witness_q"
    rows = _parse_csv(output, header, 8)
    problems, w, physical = _check_grid_rows(rows, axes)
    if w is None:
        return problems
    rows = [r for r, p in zip(rows, physical) if p]
    w = w[physical]
    expected_witness = oracles.max_weight_witness(w)
    verdicts = [r[4] for r in rows]
    bad = _verdict_mismatches(verdicts, expected_witness)
    if bad:
        problems.append(f"{bad} {method} verdicts differ from the max-weight test")
    criteria = {r[5] for r in rows}
    allowed = {"ar-scan", "ar-asymptotic"} if method == "ar-scan" else {method}
    if not criteria <= allowed:
        problems.append(f"unexpected criteria {sorted(criteria - allowed)}")
    witness = np.array([float(r[6]) for r in rows])
    if method == "ar-scan":
        scanned = np.array([r[5] == "ar-scan" for r in rows])
        sign_ok = np.where(np.array(verdicts) == "entangled", witness < -oracles.SCAN_TOL,
                           witness >= -oracles.SCAN_TOL)
        if not np.all(sign_ok[scanned]) or any(r[7] == "" for r, s in zip(rows, scanned) if s):
            problems.append("ar-scan witnesses disagree with their verdicts")
    else:
        err = np.abs(witness - expected_witness)
        if not np.all(err <= oracles.WITNESS_ATOL):
            problems.append(f"{method} witness off the closed form by {err.max():.3g}")
        findings.witness_abs_err = _max(findings.witness_abs_err, err)
    findings.units += len(rows)
    findings.verdicts.update(verdicts)
    return problems


def check_setup(output: bytes) -> list[str]:
    payload = json.loads(output)["payload"]
    return [] if payload["value"] == 0.5 else [f"cond at the origin gave {payload['value']!r}"]


# ---------------------------------------------------------------------------
# workloads


class Fig3:
    name = "fig3"
    cli = True
    jobs = 2

    def inputs(self, seed: int):
        return None  # the paper's dataset is one fixed grid

    def argvs(self, inputs, jobs: int) -> list[list[str]]:
        return [["figure", "fig3", "--jobs", str(jobs)]]

    def check(self, inputs, ops: list[Op], findings: Findings) -> None:
        findings.problems = [check_fig3(ops[0].output, findings)]


class Scan:
    name = "scan"
    cli = True
    jobs = 1

    def __init__(self, count: int = GRID_COUNT, cells: int | None = SCAN_PHYSICAL_CELLS) -> None:
        self.count = count
        self.cells = cells

    def inputs(self, seed: int):
        """Per-axis ranges -3:1 shifted by a seeded offset, off every plane."""
        rng = np.random.default_rng([seed, 1])
        for _ in range(1000):
            shifts = rng.uniform(-SCAN_JITTER, SCAN_JITTER, 3)
            axes = [(-3.0 + float(s), 1.0 + float(s), self.count) for s in shifts]
            w = oracles.bell_weights(_grid(axes))
            physical = oracles.is_physical(w)
            if (self.cells in (None, physical.sum())
                    and np.abs(w).min() > INPUT_MARGIN
                    and np.abs(oracles.max_weight_witness(w[physical])).min() > INPUT_MARGIN):
                return axes
        raise RuntimeError("no scan grid met the input margins")

    def argvs(self, axes, jobs: int) -> list[list[str]]:
        ranges = [f"--{name}range={lo!r}:{hi!r}:{n}" for name, (lo, hi, n) in zip("xyz", axes)]
        return [["scan", *ranges, "--method", m, "--jobs", str(jobs)] for m in SCAN_METHODS]

    def check(self, axes, ops: list[Op], findings: Findings) -> None:
        findings.problems = [check_scan(op.output, m, axes, findings)
                             for op, m in zip(ops, SCAN_METHODS)]


@dataclass
class Queries:
    """Seeded point queries: one state of the tetrahedron and its companions."""

    xyz: np.ndarray          # (n, 3) states, uniform in the tetrahedron
    q_cond: np.ndarray       # (n,) entropic index for the conditional entropy
    q_ray: np.ndarray        # (n,) entropic index q > 1 for the threshold
    direction: np.ndarray    # (n, 3) ray directions that cross the surface
    rho: np.ndarray          # (n, 4, 4) general density matrices


def make_queries(seed: int, n: int) -> Queries:
    rng = np.random.default_rng([seed, 2])
    xyz, dirs, q_ray, rhos = [], [], [], []
    while len(xyz) < n:
        s = 1.0 - 4.0 * rng.dirichlet(np.ones(4))[:3]
        w = oracles.bell_weights(s)
        if w.min() > INPUT_MARGIN and abs(oracles.max_weight_witness(w)[0]) > INPUT_MARGIN:
            xyz.append(s)
    while len(dirs) < n:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        q = rng.uniform(1.5, 10.0)
        end = oracles.bell_weights(oracles.ray_extent(d) * d)
        if oracles.ar_residual(end, [q])[0] > 1e-3:
            dirs.append(d)
            q_ray.append(q)
    while len(rhos) < n:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        if abs(oracles.ppt_witness(rho)) > INPUT_MARGIN:
            rhos.append(rho)
    return Queries(np.array(xyz), rng.uniform(0.1, 10.0, n), np.array(q_ray),
                   np.array(dirs), np.array(rhos))


class PointQueries:
    name = "point-queries"
    cli = False
    jobs = None

    def __init__(self, batch: int = QUERY_BATCH) -> None:
        self.batch = batch

    def inputs(self, seed: int) -> Queries:
        return make_queries(seed, self.batch)

    def run(self, qsep, inputs: Queries, clock) -> list[Op]:
        """Analyse each state in turn; qsep's functions are looked up per call."""
        states = [qsep.BellDiagonalState(*map(float, s)) for s in inputs.xyz]
        ops = []
        for i, s in enumerate(states):
            start = clock()
            try:
                cond = qsep.conditional_entropy_bell(s, float(inputs.q_cond[i]))
                classes = [qsep.classify_state(s, method=m) for m in SCAN_METHODS]
                report = qsep.order_parameter(s)
                t = qsep.threshold_x(float(inputs.q_ray[i]), tuple(map(float, inputs.direction[i])),
                                     THRESHOLD_TOL)
                general = qsep.ppt_classify(inputs.rho[i])
            except Exception as exc:  # any exception is a failed operation
                ops.append(Op(clock() - start, error=f"{type(exc).__name__}: {exc}"))
                continue
            elapsed = clock() - start
            ops.append(Op(elapsed, (
                cond.value, cond.q,
                tuple((c.verdict, c.criterion, c.witness) for c in classes),
                report.q_inflexion, report.eta, report.vertex,
                t, (general.verdict, general.witness),
            )))
        return ops

    def check(self, inputs: Queries, ops: list[Op], findings: Findings) -> None:
        findings.problems = [[] for _ in ops]
        done = [i for i, op in enumerate(ops) if op.error is None]
        if not done:
            return
        out = [ops[i].output for i in done]
        w = oracles.bell_weights(inputs.xyz[done])
        witness = oracles.max_weight_witness(w)
        expected = oracles.banded_verdict(witness)
        q_cond = inputs.q_cond[done]
        cond_ref = oracles.conditional_entropy(w, q_cond)
        eta = np.array([o[4] for o in out])
        eta_bad, rel = oracles.eta_problems(w, eta)
        g_ref = np.array([oracles.ppt_witness(inputs.rho[i]) for i in done])
        g_expected = oracles.banded_verdict(g_ref)
        findings.qi_rel_err = _max(findings.qi_rel_err, rel)
        for k, (i, o) in enumerate(zip(done, out)):
            problems = findings.problems[i]
            value, q, classes, q_inflexion, eta_k, vertex, t, general = o
            cond_err = abs(value - cond_ref[k])
            if q != q_cond[k] or not cond_err <= oracles.COND_RTOL * max(1.0, abs(cond_ref[k])):
                problems.append("conditional entropy differs from the closed form")
            for method, (verdict, criterion, wit) in zip(SCAN_METHODS, classes):
                findings.verdicts[verdict] += 1
                if verdict != expected[k]:
                    problems.append(f"{method} verdict {verdict} differs from the max-weight test")
                if method != "ar-scan":
                    err = abs(wit - witness[k])
                    findings.witness_abs_err = max(findings.witness_abs_err, err)
                    if not err <= oracles.WITNESS_ATOL:
                        problems.append(f"{method} witness off the closed form by {err:.3g}")
            consistent = q_inflexion is None or eta_k == 1.0 / (1.0 + q_inflexion)
            if eta_bad[k] or vertex or not consistent:
                problems.append("order parameter differs from the q_I reference")
            findings.found += q_inflexion is not None
            if oracles.threshold_problem(t, inputs.q_ray[i], inputs.direction[i], THRESHOLD_TOL):
                problems.append("threshold_x does not bracket a sign change of the residual")
            g_verdict, g_witness = general
            findings.verdicts[g_verdict] += 1
            if (g_verdict != g_expected[k]
                    or not abs(g_witness - g_ref[k]) <= oracles.GENERAL_WITNESS_ATOL):
                problems.append("general ppt verdict or witness differs from eigvalsh")
        findings.units += len(ops)


WORKLOADS = {w.name: w for w in (Fig3(), Scan(), PointQueries())}
