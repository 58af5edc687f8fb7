"""Acceptance gate: eleven end-to-end criteria.

Each test checks one criterion at its stated tolerance, enforces its runtime
budget where one applies, and prints exactly one PASS/FAIL line (bypassing
capture) so the gate can be read off the terminal directly.
"""

import math
import time

import numpy as np
import pytest

import helpers
from qsep import (
    BellDiagonalState,
    Spectrum,
    ar_classify_asymptotic,
    bell_diagonal_density,
    bell_spectrum,
    chain_rule_check,
    conditional_entropy_bell,
    hermitian_eigenvalues,
    inflexion_point,
    order_parameter,
    partial_trace,
    pseudoadditive_combine,
    region_scan,
    tensor_product,
    threshold_x,
    tsallis_entropy,
    werner,
)
from qsep.cli import main as cli_main
from qsep.entropy import bell_log_pairs, entropy_kernel
from qsep.states import bell_weights
from test_criticality import GOLDEN_DIAGONAL, GOLDEN_RTOL
from test_entropy import lowest_curve, uppermost_curve


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_asymptotic_threshold_and_verdict_flip(capsys):
    start = time.perf_counter()
    value = threshold_x(500.0, "diag")
    in_band = 1.0 / 3.0 < value < 1.0 / 3.0 + 2e-3

    # +-1e-9 in x maps to a +-7.5e-10 witness, inside the default boundary
    # band, so the flip is asserted with a tighter 1e-10 band.
    above = BellDiagonalState(*(1.0 / 3.0 + 1e-9,) * 3)
    below = BellDiagonalState(*(1.0 / 3.0 - 1e-9,) * 3)
    flip = (
        ar_classify_asymptotic(above, boundary_tol=1e-10).verdict == "entangled"
        and ar_classify_asymptotic(below, boundary_tol=1e-10).verdict == "separable"
    )
    elapsed = time.perf_counter() - start
    ok = in_band and flip and elapsed < 1.0
    _verdict(
        capsys, "criterion-01 threshold converges to 1/3",
        ok, f"threshold_x(500)={value:.9f}, flip={flip}, {elapsed:.2f}s",
    )


def test_criterion_02_quadratic_threshold(capsys):
    start = time.perf_counter()
    value = threshold_x(2.0, "diag")
    error = abs(value - 1.0 / math.sqrt(3.0))
    elapsed = time.perf_counter() - start
    ok = error < 1e-9 and elapsed < 0.1
    _verdict(
        capsys, "criterion-02 q=2 threshold is 1/sqrt(3)",
        ok, f"|error|={error:.2e}, {elapsed:.3f}s",
    )


def test_criterion_03_plane_criterion_in_the_dominant_sector(capsys):
    rng = np.random.default_rng(42)
    checked = 0
    skipped = 0
    mismatches = 0
    while checked + skipped < 500:
        (x, y, z), = helpers.random_physical_triples(rng, 1)
        w = bell_weights(BellDiagonalState(x, y, z))
        if max(w[:3]) >= 0.5:
            continue  # outside the sector where the last weight dominates
        total = x + y + z
        if abs(total - 1.0) <= 4e-9:
            skipped += 1
            continue
        verdict = ar_classify_asymptotic(BellDiagonalState(x, y, z)).verdict
        expected = "entangled" if total > 1.0 else "separable"
        if verdict != expected:
            mismatches += 1
        checked += 1
    ok = mismatches == 0 and checked >= 495
    _verdict(
        capsys, "criterion-03 verdict matches sign of x+y+z-1",
        ok, f"{checked} draws, {mismatches} mismatches, {skipped} in band",
    )


def test_criterion_04_oracle_equivalence_on_the_grid(capsys):
    start = time.perf_counter()
    specs = ((-3.0, 1.0, 21),) * 3
    by_ppt = region_scan(*specs, method="ppt")
    by_weight = region_scan(*specs, method="ar-asymptotic")
    compared = 0
    agreed = 0
    for a, b in zip(by_ppt.cells, by_weight.cells):
        if a.classification is None:
            continue
        if abs(a.classification.witness) > 1e-6:
            compared += 1
            agreed += a.classification.verdict == b.classification.verdict
    elapsed = time.perf_counter() - start
    ok = compared > 1400 and agreed == compared and elapsed < 5.0
    _verdict(
        capsys, "criterion-04 eigensolver PPT agrees with max-weight test",
        ok, f"{agreed}/{compared} off-boundary cells agree, {elapsed:.2f}s",
    )


def test_criterion_05_closed_form_curve_anchors(capsys):
    origin = bell_weights(BellDiagonalState(0.0, 0.0, 0.0))
    vertex = bell_weights(BellDiagonalState(1.0, 1.0, 1.0))
    worst = 0.0
    for k in range(1301):
        q = (k - 300) / 100.0
        worst = max(worst, abs(entropy_kernel(bell_log_pairs(origin), q) - uppermost_curve(q)))
        worst = max(worst, abs(entropy_kernel(bell_log_pairs(vertex), q) - lowest_curve(q)))
    ok = worst < 1e-12
    _verdict(
        capsys, "criterion-05 extreme curves match closed forms",
        ok, f"max abs error {worst:.2e} over q in [-3, 10]",
    )


def test_criterion_06_reduced_states_are_maximally_mixed(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    half = np.eye(2) / 2.0
    for xyz in helpers.random_physical_triples(rng, 1000):
        rho = bell_diagonal_density(BellDiagonalState(*xyz)).matrix
        for side in ("A", "B"):
            worst = max(worst, float(np.abs(partial_trace(rho, side) - half).max()))
    ok = worst < 1e-12
    _verdict(
        capsys, "criterion-06 both marginals equal I/2",
        ok, f"max deviation {worst:.2e} over 1000 states",
    )


def test_criterion_07_pseudoadditivity_on_product_states(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        q = float(rng.uniform(-2.0, 5.0))
        while abs(q - 1.0) < 1e-3:
            # the (q-1)-quotient form is ill conditioned in a vanishing
            # neighbourhood of q=1; the exact q=1 branch is tested separately
            q = float(rng.uniform(-2.0, 5.0))
        a = helpers.random_qubit_density(rng)
        b = helpers.random_qubit_density(rng)
        sa = tsallis_entropy(hermitian_eigenvalues(a), q)
        sb = tsallis_entropy(hermitian_eigenvalues(b), q)
        joint = tsallis_entropy(hermitian_eigenvalues(tensor_product(a, b)), q)
        worst = max(worst, abs(joint - pseudoadditive_combine(sa, sb, q)))
    ok = worst < 1e-10
    _verdict(
        capsys, "criterion-07 entropy is pseudoadditive on products",
        ok, f"max abs error {worst:.2e} over 1000 draws, q in [-2, 5]",
    )


def test_criterion_08_chain_rule_reconstruction(capsys):
    marginal = Spectrum.uniform(2)
    q_grid = (-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
    worst = 0.0
    states = 0
    for x in np.linspace(-3.0, 1.0, 9):
        for y in np.linspace(-3.0, 1.0, 9):
            for z in np.linspace(-3.0, 1.0, 9):
                s = BellDiagonalState(float(x), float(y), float(z))
                if min(bell_weights(s)) < 0.0:
                    continue
                states += 1
                joint = bell_spectrum(s)
                for q in q_grid:
                    cond = conditional_entropy_bell(s, q).value
                    rebuilt = chain_rule_check(marginal, cond, q)
                    worst = max(worst, abs(rebuilt - tsallis_entropy(joint, q)))
    ok = worst < 1e-10 and states > 100
    _verdict(
        capsys, "criterion-08 chain rule rebuilds the joint entropy",
        ok, f"max abs error {worst:.2e} over {states} states x {len(q_grid)} q",
    )


def test_criterion_09_criticality_behaviour(capsys):
    start = time.perf_counter()
    q_values = []
    golden_ok = True
    for t, expected in sorted(GOLDEN_DIAGONAL.items()):
        got = inflexion_point(werner(t))
        q_values.append(got)
        golden_ok &= abs(got - expected) <= GOLDEN_RTOL * expected
    decreasing = all(a > b for a, b in zip(q_values, q_values[1:]))
    absent = all(inflexion_point(werner(t)) is None for t in (0.1, 0.2, 0.3))
    vertex = order_parameter(BellDiagonalState(1.0, 1.0, 1.0)).eta == 1.0

    rng = np.random.default_rng(7)
    interior = helpers.random_octahedron_interior(rng, 200)
    zeros = sum(
        order_parameter(BellDiagonalState(*p)).eta == 0.0 for p in interior
    )
    elapsed = time.perf_counter() - start
    ok = golden_ok and decreasing and absent and vertex and zeros == 200 and elapsed < 10.0
    _verdict(
        capsys, "criterion-09 inflexion index behaves as a critical point",
        ok,
        f"golden={golden_ok}, decreasing={decreasing}, absent={absent}, "
        f"vertex eta=1: {vertex}, interior zeros {zeros}/200, {elapsed:.2f}s",
    )


def test_criterion_10_scan_is_deterministic_across_jobs(capsys, tmp_path):
    serial = tmp_path / "jobs1.csv"
    parallel = tmp_path / "jobs8.csv"
    rc1 = cli_main(["scan", "--jobs", "1", "--out", str(serial)])
    rc8 = cli_main(["scan", "--jobs", "8", "--out", str(parallel)])
    capsys.readouterr()
    same = serial.read_bytes() == parallel.read_bytes()
    lines = serial.read_text(encoding="utf-8").count("\n")
    ok = rc1 == 0 and rc8 == 0 and same and lines == 21**3 + 1
    _verdict(
        capsys, "criterion-10 jobs=1 and jobs=8 scans byte-identical",
        ok, f"{lines - 1} grid rows, identical={same}",
    )


def test_criterion_11_figure_family_sign_structure(capsys):
    from qsep.cli import _figure_fig2

    rows = []
    for line in "".join(_figure_fig2()).splitlines()[1:]:
        label, q_text, value_text = line.split(",")
        rows.append((label, float(q_text), float(value_text)))

    entangled = [(q, v) for label, q, v in rows if label == "xxx_0.75" and q > 0.0]
    separable = [(q, v) for label, q, v in rows if label == "xxx_0.25" and q > 0.0]
    has_negative = any(v < 0.0 for _, v in entangled)
    has_positive = any(v > 0.0 for _, v in entangled)
    stays_nonnegative = all(v >= 0.0 for _, v in separable)
    ok = has_negative and has_positive and stays_nonnegative and len(separable) == 1000
    _verdict(
        capsys, "criterion-11 conditional entropy signs split the families",
        ok,
        f"x=0.75 sign change: {has_negative and has_positive}, "
        f"x=0.25 nonnegative on {len(separable)} samples: {stays_nonnegative}",
    )
