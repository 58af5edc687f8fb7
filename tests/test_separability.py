"""Unit tests for the classifiers, thresholds, and region scans."""

import hashlib
import itertools
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from qsep import (
    BellDiagonalState,
    BracketError,
    UnphysicalStateError,
    ar_classify_asymptotic,
    ar_classify_scan,
    ar_residual,
    bell_diagonal_density,
    classify_state,
    default_q_grid,
    ppt_classify,
    region_scan,
    threshold_x,
    werner,
)
import qsep.linalg
import qsep.separability
import qsep.states
from qsep.criticality import Q_FLOOR, Q_MAX_DEFAULT, SEARCH_POINTS, eta_field
from qsep.entropy import bell_log_pairs, entropy_kernel
from qsep.separability import (
    BOUNDARY_TOL_ANALYTIC,
    BOUNDARY_TOL_SCAN,
    CLASSIFIERS,
    MAX_GRID_CELLS,
    Classification,
    boundary_tol_for,
    by_weight_multiset,
    grid_axes,
    grid_points,
    grid_results,
    log_grid,
    physical_runs,
    secant_root,
)
from qsep.states import WEIGHT_TOL, bell_weights, is_physical, nonnegative_weights, xyz_weights

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def test_ppt_werner_anchors():
    sep = ppt_classify(bell_diagonal_density(werner(0.2)))
    assert sep.verdict == "separable"
    assert sep.criterion == "ppt"
    assert sep.witness == pytest.approx(-0.1, abs=1e-12)
    assert sep.witness_q is None

    boundary = ppt_classify(bell_diagonal_density(werner(1.0 / 3.0)))
    assert boundary.verdict == "boundary"

    ent = ppt_classify(bell_diagonal_density(werner(0.5)))
    assert ent.verdict == "entangled"
    assert ent.witness == pytest.approx(0.125, abs=1e-12)


@settings(derandomize=True, deadline=None)
@given(helpers.tetrahedron_states())
def test_ppt_verdict_is_the_max_weight_plane(s):
    # Peres test against the paper's plane criterion: entangled iff a Bell
    # weight exceeds 1/2. Draws inside the boundary band, or within 1e-12 of
    # its edge (the eigensolver's rounding), are left out.
    margin = max(bell_weights(s)) - 0.5
    assume(abs(margin) > BOUNDARY_TOL_ANALYTIC + 1e-12)
    verdict = ppt_classify(bell_diagonal_density(s)).verdict
    assert verdict == ("entangled" if margin > 0.0 else "separable")


def test_ppt_accepts_raw_matrices():
    rho = bell_diagonal_density(werner(0.9)).matrix
    assert ppt_classify(rho).verdict == "entangled"


def test_ppt_witness_equals_max_weight_margin(rng):
    # The eigensolver route and the max-weight shortcut measure the same
    # distance to the separable boundary.
    for xyz in helpers.random_physical_triples(rng, 100):
        s = BellDiagonalState(*xyz)
        via_ppt = ppt_classify(bell_diagonal_density(s)).witness
        via_weights = ar_classify_asymptotic(s).witness
        assert via_ppt == pytest.approx(via_weights, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(helpers.tetrahedron_states(), helpers.edge_states()),
       st.one_of(st.none(), st.floats(0.0, 0.6)))
@example(BellDiagonalState(1.0, 1.0, -1.0), None)  # a zero witness
@example(werner(1.0 / 3.0), 0.25)
# Bell weights in [-WEIGHT_TOL, 0): phi+ at -9.75e-13, then phi+ and phi- at -7.5e-13
@example(BellDiagonalState(1.0000000000039, 0.0, 0.0), None)
@example(BellDiagonalState(1.000000000003, 1.000000000003, -3.000000000006), None)
def test_ppt_on_a_bell_state_is_ppt_on_its_matrix(s, band):
    # classify_state's ppt route solves the partial transpose's 2x2 blocks,
    # the matrix route the 4x4 array: the same Classification, witness bit
    # for bit, the sign of zero included, on every state physical_weights
    # accepts, those with weights just below zero too
    by_rows = classify_state(s, "ppt", band)
    by_matrix = ppt_classify(bell_diagonal_density(s), band)
    assert by_rows == by_matrix
    assert struct.pack("<d", by_rows.witness) == struct.pack("<d", by_matrix.witness)


def test_ppt_on_a_bell_state_makes_two_eigensolves(monkeypatch):
    # one per 2x2 block of the partial transpose, and no solve of rho: the
    # weights are rho's spectrum, and physical_weights has checked them
    original = qsep.linalg.hermitian_eigenvalues
    calls = []

    def recording(m):
        calls.append(m)
        return original(m)

    callers = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "qsep"
               and getattr(module, "hermitian_eigenvalues", None) is original]
    for module in callers:
        monkeypatch.setattr(module, "hermitian_eigenvalues", recording)
    for s in (werner(0.2), werner(0.9), BellDiagonalState(0.1, -0.2, 0.3)):
        calls.clear()
        classify_state(s, "ppt")
        # transposing qubit B swaps b and d in rho's blocks [[a, b], [b, a]]
        # and [[c, d], [d, c]]
        a, b, c, d = qsep.states.bell_blocks(bell_weights(s))
        assert calls == [[[a, d], [d, a]], [[c, b], [b, c]]]


@pytest.mark.parametrize("method", ["ppt", "ar-asymptotic", "ar-scan"])
def test_a_zero_witness_is_positive_zero(method):
    # (1, 1, -1) has Bell weights (0, 0, 1/2, 1/2): every criterion's margin
    # is zero, and each method reports it as +0.0, never -0.0
    witness = classify_state(BellDiagonalState(1.0, 1.0, -1.0), method).witness
    assert witness == 0.0
    assert math.copysign(1.0, witness) == 1.0


def test_residual_closed_forms():
    for t in (0.2, 0.5, 0.8):
        diag = ar_residual(BellDiagonalState(t, t, t), 2.0)
        assert diag == pytest.approx(3.0 * t * t - 1.0, abs=1e-14)
        edge = ar_residual(BellDiagonalState(t, t, 0.0), 2.0)
        assert edge == pytest.approx(1.5 * t * t - 1.0, abs=1e-14)
        axis = ar_residual(BellDiagonalState(t, 0.0, 0.0), 2.0)
        assert axis == pytest.approx(0.5 * t * t - 1.0, abs=1e-14)


def test_residual_requires_q_above_one_and_physical_state():
    with pytest.raises(ValueError):
        ar_residual(werner(0.5), 1.0)
    with pytest.raises(UnphysicalStateError):
        ar_residual(BellDiagonalState(2.0, 0.0, 0.0), 2.0)


def test_asymptotic_verdicts_and_witnesses():
    origin = ar_classify_asymptotic(BellDiagonalState(0.0, 0.0, 0.0))
    assert origin.verdict == "separable"
    assert origin.witness == pytest.approx(-0.25, abs=0)

    vertex = ar_classify_asymptotic(BellDiagonalState(1.0, 1.0, 1.0))
    assert vertex.verdict == "entangled"
    assert vertex.witness == pytest.approx(0.5, abs=0)

    near_third = ar_classify_asymptotic(werner(1.0 / 3.0))
    assert near_third.verdict == "boundary"


def test_asymptotic_band_is_controlled_by_tolerance():
    x = 1.0 / 3.0 + 1e-9
    wide = ar_classify_asymptotic(BellDiagonalState(x, x, x), boundary_tol=1e-9)
    narrow = ar_classify_asymptotic(BellDiagonalState(x, x, x), boundary_tol=1e-10)
    assert wide.verdict == "boundary"
    assert narrow.verdict == "entangled"


def test_default_q_grid_shape():
    grid = default_q_grid()
    assert len(grid) == 64
    assert grid[:4] == (0.25, 0.5, 0.75, 1.0)
    assert grid[-1] == 200.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_scan_detects_werner_between_thresholds():
    # x = 0.4 sits between the q->infinity threshold 1/3 and the q = 2
    # threshold 1/sqrt(3): only sufficiently large q reveals entanglement.
    result = ar_classify_scan(werner(0.4))
    assert result.verdict == "entangled"
    assert result.criterion == "ar-scan"
    assert result.witness < 0.0
    assert result.witness_q == 200.0  # the sampled minimum deepens with q
    assert ar_residual(werner(0.4), 2.0) < 0.0  # invisible at q = 2
    # the first grid sample that goes negative sits at finite q
    weights = bell_weights(werner(0.4))
    first_negative = min(
        q for q in default_q_grid() if entropy_kernel(bell_log_pairs(weights), q) < 0.0
    )
    assert 5.0 < first_negative < 12.0


def test_scan_sees_werner_06_at_q_two():
    assert ar_residual(werner(0.6), 2.0) > 0.0
    result = ar_classify_scan(werner(0.6), q_grid=(2.0,))
    assert result.verdict == "entangled"
    assert result.witness_q == 2.0


def test_verdicts_invariant_under_weight_permutation_maps(rng):
    for xyz in helpers.random_physical_triples(rng, 60):
        x, y, z = xyz
        base = ar_classify_asymptotic(BellDiagonalState(x, y, z)).verdict
        swapped = ar_classify_asymptotic(BellDiagonalState(x, z, y)).verdict
        cycled = ar_classify_asymptotic(
            BellDiagonalState(-x - y - z, x, y)
        ).verdict
        assert swapped == base
        assert cycled == base


def test_scan_separable_reports_minimum_location():
    result = ar_classify_scan(werner(0.2))
    assert result.verdict == "separable"
    assert result.criterion == "ar-scan"
    assert result.witness > 0.0
    assert result.witness_q == 200.0  # the scan minimum sits at the largest q


def test_scan_defers_to_asymptotic_near_the_plane():
    # Just above the critical plane the inflexion runs beyond the scan grid,
    # so the samples stay positive; the exact asymptotic verdict must win.
    t = (1.0 + 1e-5) / 3.0
    result = ar_classify_scan(BellDiagonalState(t, t, t))
    assert result.verdict == "entangled"
    assert result.criterion == "ar-asymptotic"

    t = (1.0 + 1e-10) / 3.0
    result = ar_classify_scan(BellDiagonalState(t, t, t))
    assert result.verdict == "boundary"
    assert result.criterion == "ar-asymptotic"


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        ar_classify_scan(werner(0.2), q_grid=())
    # nor can a grid with a non-finite sample be sorted and searched
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ar_classify_scan(werner(0.2), q_grid=(2.0, q))


def linear_scan_classification(s, q_grid=None):
    """The scan as a plain loop over every grid sample, in the grid's order:
    the witness is the first smallest sample met."""
    grid = default_q_grid() if q_grid is None else q_grid
    pairs = bell_log_pairs(bell_weights(s))
    min_value = math.inf
    min_q = None
    for q in grid:
        value = entropy_kernel(pairs, q)
        if value < min_value:
            min_value = value
            min_q = q
    asymptotic = ar_classify_asymptotic(s, BOUNDARY_TOL_ANALYTIC)
    if min_value < -BOUNDARY_TOL_SCAN:
        return Classification("entangled", "ar-scan", min_value, min_q)
    if asymptotic.verdict in ("entangled", "boundary"):
        return asymptotic
    return Classification("separable", "ar-scan", min_value, min_q)


# out of order, and reaching q = 1e4, where S_q of an entangled state is
# far below the default grid's
UNSORTED_Q_GRID = (0.5, 2.0, 1e4, 3.0, 1e3)
# ascending past q = 1e3, where S_q overflows to -inf for a Bell weight above
# about 0.71: the minimum is then tied over several samples
LONG_Q_GRID = default_q_grid() + (1e3, 2e3, 5e3, 1e4)
EDGE_WEIGHTS = [
    (0.5, 0.5, 0.0, 0.0),  # S_q = 0 at every q: each sample is the minimum
    (0.5 + 1e-14, 0.5 - 1e-14, 0.0, 0.0),
    (0.5, 0.5 - 1e-16, 1e-16, 0.0),
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(helpers.tetrahedron_states(), st.sampled_from([None, UNSORTED_Q_GRID, LONG_Q_GRID]))
def test_scan_equals_the_linear_scan(s, q_grid):
    assert ar_classify_scan(s, q_grid) == linear_scan_classification(s, q_grid)


@pytest.mark.parametrize("q_grid", [None, UNSORTED_Q_GRID, LONG_Q_GRID])
@pytest.mark.parametrize("weights", EDGE_WEIGHTS)
def test_scan_equals_the_linear_scan_at_two_half_weights(weights, q_grid):
    s = helpers.state_from_weights(weights)
    assert ar_classify_scan(s, q_grid) == linear_scan_classification(s, q_grid)


def test_scan_reports_the_first_of_tied_minima():
    # the psi- weight 0.9925 overflows S_q to -inf from q = 2e3 on
    result = ar_classify_scan(werner(0.99), LONG_Q_GRID)
    assert result == Classification("entangled", "ar-scan", -math.inf, 2e3)
    assert result == linear_scan_classification(werner(0.99), LONG_Q_GRID)


def test_scan_with_every_sample_divergent_has_no_location():
    # below q = 1 the samples of werner(0.2) overflow to +inf: none is a
    # minimum the loop would record
    grid = (-2000.0, -1000.0)
    result = ar_classify_scan(werner(0.2), grid)
    assert result == Classification("separable", "ar-scan", math.inf, None)
    assert result == linear_scan_classification(werner(0.2), grid)


def test_scan_evaluates_few_samples(monkeypatch):
    # S_q(B|A) falls strictly with q, so the minimum is the last sample and
    # the one below it is larger: two kernel calls, not 64. A flat curve
    # ties there and binary-searches the rest: at most 8 calls.
    calls = []

    def counting_kernel(pairs, q, n=0):
        calls.append(q)
        return entropy_kernel(pairs, q, n)

    def scan_calls(s, q_grid=None):
        calls.clear()
        ar_classify_scan(s, q_grid)
        return list(calls)

    monkeypatch.setattr(qsep.separability, "entropy_kernel", counting_kernel)
    for s in (werner(0.2), werner(0.6), BellDiagonalState(0.3, -0.2, 0.1)):
        assert scan_calls(s) == [200.0, default_q_grid()[-2]]
        assert scan_calls(s, (2.0,)) == [2.0]
    for w in EDGE_WEIGHTS:
        assert len(scan_calls(helpers.state_from_weights(w))) <= 8
    # S_q = 0 at every q: the top two samples tie and the search runs
    assert len(scan_calls(helpers.state_from_weights(EDGE_WEIGHTS[0]))) > 2


def test_threshold_diagonal_at_q_two():
    assert abs(threshold_x(2.0, "diag") - INV_SQRT3) < 1e-9


def test_threshold_edge_at_q_two():
    assert abs(threshold_x(2.0, "edge") - math.sqrt(2.0 / 3.0)) < 1e-9


def test_threshold_diagonal_approaches_one_third():
    value = threshold_x(500.0, "diag")
    assert 1.0 / 3.0 < value < 1.0 / 3.0 + 2e-3


@settings(derandomize=True, deadline=None)
@given(st.floats(20.0, 200.0))
@example(20.0)
@example(50.0)
@example(200.0)
def test_threshold_diagonal_follows_its_large_q_form(q):
    # On the Werner line the weights are (1 + 3x)/4 and three of (1 - x)/4,
    # so sum (2 w)^q = 2 reads ((1 + 3x)/2)^q = 2 - 3 ((1 - x)/2)^q. Near
    # x = 1/3 the last term is about 3^(1-q). It moves x_c below
    # (2^(1+1/q) - 1)/3 by 7.3e-12 at q = 20; from q = 30 on the gap is
    # below the search's tol of 1e-12.
    assert threshold_x(q, "diag") == pytest.approx((2.0 ** (1.0 + 1.0 / q) - 1.0) / 3.0, abs=1e-11)


@settings(derandomize=True, deadline=None)
@given(st.floats(20.0, 200.0), st.floats(0.5, 4.0),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
@example(20.0, 1.0, [1.0, 1.0, 1.0])
@example(50.0, 0.5, [0.8, 0.2, 0.0])
@example(200.0, 4.0, [0.2, 0.3, 0.5])
def test_threshold_on_any_ray_into_the_psi_minus_vertex_follows_its_large_q_form(q, t_near, shares):
    # Along t * d, the psi- weight is (1 + t sigma)/4 with sigma = d_x + d_y
    # + d_z, so sum (2 w)^q = 2 reads ((1 + t sigma)/2)^q = 2 - eps, where
    # eps sums (2 w_k)^q over the other three weights. With eps = 0 the root
    # is (2^(1+1/q) - 1)/sigma, and x + y + z = 1 as q -> inf. The eps term
    # moves it in by about 2^(1/q) eps / (q sigma), which is below t eps / q;
    # 1e-12 covers the search's tol. The ray is drawn through the point
    # near the threshold whose other weights are split by shares, reached at
    # t = t_near. Over 3,000 draws the gap reached 0.99 of the bound.
    assume(sum(shares) > 0.0)
    psi_minus = 2.0 ** (1.0 / q) / 2.0
    rest = [(1.0 - psi_minus) * share / sum(shares) for share in shares]
    assume(max(rest) <= 0.4)
    d = tuple((1.0 - 4.0 * w) / t_near for w in rest)
    sigma = d[0] + d[1] + d[2]
    t = threshold_x(q, d)
    eps = sum((2.0 * w) ** q for w in xyz_weights(t * d[0], t * d[1], t * d[2])[:3])
    assert abs(t - (2.0 ** (1.0 + 1.0 / q) - 1.0) / sigma) <= t * eps / q + 1e-12


def test_threshold_at_infinite_q_is_the_half_weight_plane():
    # every residual is +-inf at q = inf, and midpoint steps find max w = 1/2
    assert threshold_x(math.inf, "diag") == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert threshold_x(math.inf, "edge") == pytest.approx(0.5, abs=1e-12)


def test_threshold_decreases_with_q():
    values = [threshold_x(q, "diag") for q in (2.0, 5.0, 10.0, 50.0, 500.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v >= 1.0 / 3.0 - 1e-9 for v in values)


def test_threshold_axis_stops_at_physical_boundary():
    # Along (x, 0, 0) the q = 2 residual root sits beyond x = 1, but the
    # endpoint state reaches the asymptotic surface exactly, so the physical
    # boundary is the reported threshold.
    assert threshold_x(2.0, "axis") == 1.0
    assert threshold_x(2.0, (2.0, 0.0, 0.0)) == 0.5


def test_threshold_scales_with_direction_vector():
    assert threshold_x(2.0, (2.0, 2.0, 2.0)) == pytest.approx(INV_SQRT3 / 2.0, abs=1e-9)


def test_threshold_raises_when_ray_misses_surface():
    with pytest.raises(BracketError):
        threshold_x(2.0, (1.0, -0.5, 0.2))
    with pytest.raises(BracketError):
        threshold_x(2.0, (-1.0, -1.0, -1.0))
    # no positive component: only the wall of the sum bounds the ray
    with pytest.raises(BracketError):
        threshold_x(2.0, (-1.0, -1.0, 0.0))


@pytest.mark.parametrize("y, on_surface", [
    (-(1.0 - 4.0 * 0.99e-9), True),
    (-(1.0 - 4.0 * 1.01e-9), False),
    (1.0 - 4.0 * (0.5 - 1e-9), False),  # the largest weight is the float 0.5 - 1e-9
], ids=["delta=0.99e-9", "delta=1.01e-9", "band-edge"])
def test_threshold_end_of_ray_test_is_the_asymptotic_band(y, on_surface):
    # At t = 1 on (1, y, 0), y = -(1 - 4 delta), the weights are (0, 1/2 -
    # delta, 1/4, 1/4 + delta): no q = 2 crossing, and the ray's end is on
    # the critical surface exactly when ar-asymptotic does not call it separable.
    direction = (1.0, y, 0.0)
    assert (ar_classify_asymptotic(BellDiagonalState(*direction)).verdict
            != "separable") == on_surface
    if on_surface:
        assert threshold_x(2.0, direction) == 1.0
    else:
        with pytest.raises(BracketError):
            threshold_x(2.0, direction)


def test_threshold_input_validation():
    with pytest.raises(ValueError):
        threshold_x(1.0, "diag")
    with pytest.raises(ValueError):
        threshold_x(2.0, "bogus")
    with pytest.raises(ValueError):
        threshold_x(2.0, (0.0, 0.0, 0.0))
    for direction in ((math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0), (1.0, -math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            threshold_x(2.0, direction)
    # 1/v overflows: the physical boundary lies beyond the largest float
    for direction in ((5e-324, 0.0, 0.0), (1e-310, 1e-310, 1e-310), (-1e-310, 0.0, 0.0)):
        with pytest.raises(ValueError, match="too short"):
            threshold_x(2.0, direction)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            threshold_x(2.0, "diag", tol)
        with pytest.raises(ValueError, match="tol"):
            threshold_x(2.0, "axis", tol)  # ends on the boundary, no bisection


def ray_extent(d) -> float:
    """Largest t with every Bell weight of t * d nonnegative."""
    bounds = [1.0 / v for v in d if v > 0.0]
    if sum(d) < 0.0:
        bounds.append(-1.0 / sum(d))
    return min(bounds)


def threshold_with_calls(q: float, d, tol: float) -> tuple[float, int]:
    """threshold_x(q, d, tol) and the number of residual evaluations it made."""
    calls = []
    residual = qsep.separability.log_residual

    def counting(weights, q):
        calls.append(q)
        return residual(weights, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsep.separability, "log_residual", counting)
        t = threshold_x(q, d, tol)
    return t, len(calls)


def threshold_budget(d, tol: float) -> int:
    """Evaluations a bisection to tol makes, both ends included."""
    return 2 + math.ceil(math.log2(ray_extent(d) / tol))


@settings(derandomize=True, deadline=None)
@given(st.floats(1.05, 5000.0), st.tuples(*[st.floats(-1.0, 1.0)] * 3))
# on the diagonal S_q(B|A) at the ray's end is -3.3e147 at q = 500 and -inf
# at q = 2000 and 5000, while the log residual stays about q ln 2; next to
# q = 1 the residual is of the size of q - 1 and keeps its accuracy
@example(500.0, (1.0, 1.0, 1.0))
@example(2000.0, (1.0, 1.0, 1.0))
@example(5000.0, (1.0, 1.0, 1.0))
@example(1.0 + 2.0**-30, (1.0, 1.0, 1.0))
def test_threshold_matches_the_reference_bisection(q, d):
    # The kernel's sign is the reference: a bisection of it to tol, and its
    # change across [t - tol, t + tol]. Rays that end inside the
    # nonnegative-entropy region are left out.
    assume(max(map(abs, d)) > 1e-3)
    tol = 1e-12

    def entangled(t: float) -> bool:
        return entropy_kernel(bell_log_pairs(xyz_weights(t * d[0], t * d[1], t * d[2])), q) < 0.0

    assume(entangled(ray_extent(d)))
    t, calls = threshold_with_calls(q, d, tol)
    assert abs(t - helpers.bisect(entangled, 0.0, ray_extent(d), tol)) <= tol
    assert not entangled(t - tol) and entangled(t + tol)
    assert calls <= threshold_budget(d, tol)


def test_threshold_takes_a_median_of_at_most_12_evaluations():
    # a bisection to 1e-12 makes about 42; the rays cross the surface at q
    # drawn log-uniformly from 1.05 to 5000
    rng = np.random.default_rng(5)
    counts = []
    while len(counts) < 200:
        d = tuple(map(float, rng.normal(size=3)))
        q = float(np.exp(rng.uniform(np.log(1.05), np.log(5000.0))))
        try:
            t, calls = threshold_with_calls(q, d, 1e-12)
        except BracketError:
            continue
        if t < ray_extent(d):
            assert calls <= threshold_budget(d, 1e-12)
            counts.append(calls)
    assert np.median(counts) <= 12


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_secant_root_steps_to_the_midpoint_beside_a_non_finite_end(end):
    # no secant runs through an infinite value: with f(hi) = -inf both the
    # first iterate and the one after it are midpoints
    xs = []

    def f(x: float) -> float:
        xs.append(x)
        return 0.3 - x if end == "hi" else x - 0.3

    if end == "hi":
        root, expected = secant_root(f, 0.0, 1.0, 0.3, -math.inf, 1e-12), [0.5, 0.25]
    else:
        root, expected = secant_root(f, 0.0, 1.0, -math.inf, 0.7, 1e-12), [0.5]
    assert xs[:len(expected)] == expected
    assert abs(root - 0.3) <= 1e-12


def test_secant_root_returns_an_exact_zero_at_once():
    xs = []

    def f(x: float) -> float:
        xs.append(x)
        return x - 0.5

    assert secant_root(f, 0.0, 1.0, -0.5, 0.5, 0.0) == 0.5
    assert xs == [0.5]


@pytest.mark.parametrize("tol", [2.0, 0.5, 1e-3, 1e-9])
def test_secant_root_returns_within_a_tol_wider_than_the_float_spacing(tol):
    # steep and convex, so secant steps alone would keep the upper end for
    # long; a tol of at least the bracket's width returns its midpoint
    # without an evaluation
    xs = []

    def f(x: float) -> float:
        xs.append(x)
        return math.expm1(40.0 * x) - 1.0

    root = secant_root(f, 0.0, 1.0, -1.0, math.expm1(40.0) - 1.0, tol)
    assert abs(root - math.log(2.0) / 40.0) <= tol
    assert (xs == []) == (tol >= 1.0)


def hash_noise(x: float) -> float:
    """A deterministic value in [-1, 1) that jumps at every float x."""
    digest = hashlib.blake2b(struct.pack("<d", x), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**63 - 1.0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(1e-3, 1e3), st.floats(1e-12, 1e3), st.floats(0.0, 1.0), st.floats(0.0, 10.0))
def test_secant_root_ends_on_noise(lo, width, share, noise):
    # a root r buried in noise up to 10 times the bracket's width: Brent's
    # rule still ends the search within about two evaluations per halving
    # of the bracket, counted down to the float spacing at lo
    hi = lo + width
    assume(hi - lo >= 4.0 * math.ulp(lo))
    r, amplitude = lo + share * (hi - lo), noise * (hi - lo)
    xs = []

    def f(x: float) -> float:
        xs.append(x)
        return r - x + amplitude * hash_noise(x)

    f_lo, f_hi = f(lo), f(hi)
    assume(f_lo * f_hi < 0.0)
    xs.clear()
    root = secant_root(f, lo, hi, f_lo, f_hi, 0.0)
    assert lo <= root <= hi
    assert len(xs) <= 2.0 * math.log2((hi - lo) / math.ulp(lo)) + 2.0


def test_grid_points_validation_and_endpoints():
    pts = grid_points((-3.0, 1.0, 21), "x")
    assert len(pts) == 21
    assert pts[0] == -3.0 and pts[-1] == 1.0
    assert grid_points((0.5, 0.7, 1), "y") == (0.5,)
    with pytest.raises(ValueError):
        grid_points((-3.0, 1.0, 0), "x")
    with pytest.raises(ValueError):
        grid_points((-4.0, 1.0, 5), "x")
    with pytest.raises(ValueError):
        grid_points((0.0, 2.0, 5), "z")


@settings(derandomize=True, deadline=None)
@given(st.floats(-3.5, 1.5), st.floats(-3.5, 1.5), st.integers(1, 400))
def test_grid_points_are_numpy_linspace_bit_for_bit(a, b, count):
    lo, hi = min(a, b), max(a, b)
    points = grid_points((lo, hi, count), "x")
    assert [v.hex() for v in points] == [v.hex() for v in np.linspace(lo, hi, count).tolist()]


# Every log grid the package builds: default_q_grid's offsets of q from 1, and
# the inflexion search grid at the default q_max and the others tests use.
PACKAGE_LOG_GRIDS = [(1e-2, 199.0, 60), (Q_FLOOR, 5.0, SEARCH_POINTS),
                     (Q_FLOOR, Q_MAX_DEFAULT, SEARCH_POINTS), (Q_FLOOR, 1e4, SEARCH_POINTS)]


@pytest.mark.parametrize("lo, hi, count", PACKAGE_LOG_GRIDS)
def test_log_grid_is_geomspace_within_an_ulp_and_correctly_rounded_where_not(lo, hi, count):
    mp = pytest.importorskip("mpmath")
    grid = log_grid(lo, hi, count)
    assert len(grid) == count and grid[0] == lo and grid[-1] == hi
    # the exponents log_grid raises 10 to, by the linspace arithmetic above
    exponents = np.linspace(math.log10(lo), math.log10(hi), count).tolist()
    with mp.workdps(40):
        for point, numpy_point, e in zip(grid, np.geomspace(lo, hi, count).tolist(), exponents):
            if point != numpy_point:
                assert abs(point - numpy_point) <= math.ulp(numpy_point)
                assert point == float(mp.power(10, mp.mpf(e)))


def test_grids_above_the_cap_raise_before_any_point_is_made(monkeypatch):
    def no_points(spec, name):
        raise AssertionError("grid points made for an oversized grid")

    monkeypatch.setattr(qsep.separability, "grid_points", no_points)
    spec = (-3.0, 1.0, 2000)
    for build in (grid_axes, region_scan, eta_field):
        with pytest.raises(ValueError, match=f"MAX_GRID_CELLS = {MAX_GRID_CELLS}"):
            build(spec, spec, spec)


def test_grid_cap_holds_161_cubed_and_is_inclusive():
    assert MAX_GRID_CELLS >= 161**3
    axes = grid_axes((-3.0, 1.0, 161), (-3.0, 1.0, 161), (-3.0, 1.0, 161))
    assert [len(a) for a in axes] == [161, 161, 161]
    # n * n * 1 <= MAX_GRID_CELLS < n * n * 2
    n = math.isqrt(MAX_GRID_CELLS)
    side = (-3.0, 1.0, n)
    assert [len(a) for a in grid_axes(side, side, (0.0, 1.0, 1))] == [n, n, 1]
    with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
        grid_axes(side, side, (0.0, 1.0, 2))


def _ulps(v: float, k: int) -> float:
    """v moved by k ulp."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else -math.inf)
    return v


# Coordinates a few ulp either side of where one weight crosses -WEIGHT_TOL:
# x, y or z at 1 + 4 WEIGHT_TOL (phi+, phi-, psi+), x at -1 - 4 WEIGHT_TOL (psi-).
_ABOVE_ONE = [_ulps(1.0 + 4.0 * WEIGHT_TOL, k) for k in range(-3, 4)]
_BELOW_MINUS_ONE = [_ulps(-1.0 - 4.0 * WEIGHT_TOL, k) for k in range(-3, 4)]
NEAR_WEIGHT_TOL = ([(t, 0.0, 0.0) for t in _ABOVE_ONE] + [(0.0, t, 0.0) for t in _ABOVE_ONE]
                   + [(0.0, 0.0, t) for t in _ABOVE_ONE] + [(t, 0.0, 0.0) for t in _BELOW_MINUS_ONE])


def _only_run(x, y, z):
    """The z indices physical_runs keeps on the 1-cell grid (x, y, z)."""
    ((rx, ry, lo, hi),) = physical_runs(((x,), (y,), (z,)))
    assert (rx, ry) == (x, y)
    return list(range(lo, hi))


@settings(derandomize=True, deadline=None)
@given(st.floats(-3.5, 1.5), st.floats(-3.5, 1.5), st.floats(-3.5, 1.5))
def test_physical_runs_agree_with_is_physical(x, y, z):
    s = BellDiagonalState(x, y, z)
    assert _only_run(x, y, z) == ([0] if is_physical(s) else [])


def test_physical_runs_agree_with_is_physical_at_the_tolerance():
    kept = set()
    for xyz in NEAR_WEIGHT_TOL:
        s = BellDiagonalState(*xyz)
        assert _only_run(*xyz) == ([0] if is_physical(s) else [])
        kept.add(bool(is_physical(s)))
    assert kept == {True, False}


_AXIS_ENDS = st.one_of(st.floats(-3.5, 1.5),
                       st.sampled_from(sorted({v for xyz in NEAR_WEIGHT_TOL for v in xyz})))


@st.composite
def axis_specs(draw):
    """grid_axes specs with ends in [-3.5, 1.5], some of them at the
    NEAR_WEIGHT_TOL coordinates, and 1 to 12 points."""
    a, b = draw(_AXIS_ENDS), draw(_AXIS_ENDS)
    return min(a, b), max(a, b), draw(st.integers(1, 12))


@settings(derandomize=True, deadline=None)
@given(axis_specs(), axis_specs(), axis_specs())
@example((-0.8, 1.25, 3), (-0.8, -0.8, 1), (-3.0, -0.0, 3))
@example((-3.0, 1.0, 9), (-3.0, 1.0, 9), (-3.0, 1.0, 9))
def test_physical_runs_are_the_physical_cells_of_each_line(x_spec, y_spec, z_spec):
    xs, ys, zs = axes = grid_axes(x_spec, y_spec, z_spec)
    runs = list(physical_runs(axes))
    assert [(x, y) for x, y, _, _ in runs] == list(itertools.product(xs, ys))
    for x, y, lo, hi in runs:
        assert lo <= hi
        assert list(range(lo, hi)) == [
            k for k, z in enumerate(zs) if nonnegative_weights(xyz_weights(x, y, z))
        ]
    # grid_results evaluates exactly those cells, once each, in row order
    cells = []
    lines = list(grid_results(axes, lambda *cell: cells.append(cell) or cell))
    assert [line[:4] for line in lines] == runs
    assert cells == [(x, y, z) for x, y, lo, hi in runs for z in zs[lo:hi]]
    assert [result for line in lines for result in line[4]] == cells
    # by_weight_multiset evaluates each multiset once and hands every later
    # cell with that multiset the very object its first cell got
    made = []
    memo = by_weight_multiset(lambda *cell: made.append(object()) or made[-1])
    first = {}
    for cell in cells:
        result = memo(*cell)
        assert result is first.setdefault(tuple(sorted(xyz_weights(*cell))), result)
    assert list(first.values()) == made
    if (x_spec, y_spec, z_spec) == ((-3.0, 1.0, 9),) * 3:
        assert (len(cells), len(made)) == (165, 15)


def test_region_scan_structure():
    grid = region_scan((-3.0, 1.0, 5), (-3.0, 1.0, 5), (-3.0, 1.0, 5))
    assert len(grid.cells) == 125
    assert grid.xs == (-3.0, -2.0, -1.0, 0.0, 1.0)
    first = grid.cells[0]
    assert (first.x, first.y, first.z) == (-3.0, -3.0, -3.0)
    assert not first.physical and first.classification is None
    # x-major enumeration: z varies fastest
    second = grid.cells[1]
    assert (second.x, second.y, second.z) == (-3.0, -3.0, -2.0)
    for cell in grid.cells:
        assert cell.physical == (cell.classification is not None)


@pytest.mark.parametrize("boundary_tol", [-1.0, math.nan, math.inf])
def test_region_scan_rejects_a_bad_band_on_any_grid(boundary_tol):
    # (1.2, 1.2, 1.2) is not physical: no classifier runs, the band is
    # still checked
    for spec in ((1.2, 1.2, 1), (-3.0, 1.0, 3)):
        with pytest.raises(ValueError, match="boundary_tol"):
            region_scan(spec, spec, spec, boundary_tol=boundary_tol)


@pytest.mark.parametrize("count", [2.9, math.inf, math.nan, "3", 0, -1.0])
def test_grids_reject_a_count_that_is_not_whole_before_the_cap(count, monkeypatch):
    with pytest.raises(ValueError, match="whole number of points"):
        grid_points((0.0, 1.0, count), "x")

    def no_points(spec, name):
        raise AssertionError("grid points made for a bad count")

    monkeypatch.setattr(qsep.separability, "grid_points", no_points)
    # 2000 x 2000 x 2 cells would exceed the cap: the count is checked first
    big = (-3.0, 1.0, 2000)
    for build in (region_scan, eta_field):
        for specs in (((0.0, 1.0, count), (0.0, 0.0, 1), (0.0, 0.0, 1)),
                      (big, big, (-3.0, 1.0, count))):
            with pytest.raises(ValueError, match="whole number of points"):
                build(*specs)


def test_grids_take_an_integral_float_count():
    assert region_scan((0.0, 1.0, 5.0), (0.0, 0.0, 1), (0.0, 0.0, 1.0)) == \
        region_scan((0.0, 1.0, 5), (0.0, 0.0, 1), (0.0, 0.0, 1))
    assert eta_field((-3.0, 1.0, 5.0), (0.0, 0.0, 1), (0.0, 0.0, 1.0)) == \
        eta_field((-3.0, 1.0, 5), (0.0, 0.0, 1), (0.0, 0.0, 1))


def test_region_scan_rejects_an_unknown_method_on_any_grid():
    for spec in ((1.2, 1.2, 1), (-3.0, 1.0, 3)):
        with pytest.raises(ValueError, match="unknown classification method"):
            region_scan(spec, spec, spec, method="bogus")


def test_boundary_tol_for_resolves_each_method_once():
    assert {method: band for method, (_, band) in CLASSIFIERS.items()} == {
        "ppt": BOUNDARY_TOL_ANALYTIC,
        "ar-asymptotic": BOUNDARY_TOL_ANALYTIC,
        "ar-scan": BOUNDARY_TOL_SCAN,
    }
    for method, (_, default) in CLASSIFIERS.items():
        assert boundary_tol_for(method) == default
        assert boundary_tol_for(method, 0.0) == 0.0
        assert boundary_tol_for(method, 0.25) == 0.25
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="boundary_tol"):
                boundary_tol_for(method, tol)
    for tol in (None, 1e-3, -1.0):
        with pytest.raises(ValueError, match="unknown classification method"):
            boundary_tol_for("majorization", tol)


def test_every_classifier_takes_its_default_band_from_the_table(monkeypatch):
    # A band of 1/4 turns werner(0.2) (witness -0.1) into a boundary state, and
    # hands werner(0.34)'s scan verdict (witness about -0.013) to the
    # asymptotic cross-check.
    separable, entangled = werner(0.2), werner(0.34)
    assert ppt_classify(bell_diagonal_density(separable)).verdict == "separable"
    assert ar_classify_asymptotic(separable).verdict == "separable"
    assert ar_classify_scan(entangled).criterion == "ar-scan"
    for method, (classifier, _) in list(CLASSIFIERS.items()):
        monkeypatch.setitem(CLASSIFIERS, method, (classifier, 0.25))
    assert ppt_classify(bell_diagonal_density(separable)).verdict == "boundary"
    assert ar_classify_asymptotic(separable).verdict == "boundary"
    assert ar_classify_scan(entangled).criterion == "ar-asymptotic"
    for method in ("ppt", "ar-asymptotic"):
        assert classify_state(separable, method).verdict == "boundary"
    for classify, state in ((ppt_classify, bell_diagonal_density(separable)),
                            (ar_classify_asymptotic, separable), (ar_classify_scan, separable)):
        with pytest.raises(ValueError, match="boundary_tol must be finite and nonnegative"):
            classify(state, boundary_tol=-1.0)


@pytest.mark.parametrize("method", ["ppt", "ar-asymptotic", "ar-scan"])
def test_classify_state_resolves_the_band_once(method, monkeypatch):
    original = qsep.separability.boundary_tol_for
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qsep.separability, "boundary_tol_for", counting)
    for tol in (None, 0.125):
        calls.clear()
        assert classify_state(werner(0.6), method, tol).verdict == "entangled"
        assert calls == [(method, tol)]
    # the band is checked before the state, whatever the method
    calls.clear()
    with pytest.raises(ValueError, match="boundary_tol"):
        classify_state(BellDiagonalState(1.2, 0.0, 0.0), method, -1.0)
    assert calls == [(method, -1.0)]
    # a state the scan does not call entangled goes on to the asymptotic
    # cross-check, which takes the ar-asymptotic default: another band
    calls.clear()
    assert classify_state(werner(0.2), method).verdict == "separable"
    assert calls == [(method, None)] + [("ar-asymptotic",)] * (method == "ar-scan")


def test_scan_and_threshold_build_only_the_classification_they_return(monkeypatch):
    original = qsep.separability.Classification
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qsep.separability, "Classification", counting)
    assert ar_classify_scan(werner(0.2)).verdict == "separable"
    assert len(built) == 1
    built.clear()
    # the axis ray ends on the critical surface: the end-of-ray test decides
    assert threshold_x(2.0, "axis") == 1.0
    assert built == []


def test_region_scan_methods_agree_off_boundary():
    specs = ((-3.0, 1.0, 9),) * 3
    by_ppt = region_scan(*specs, method="ppt")
    by_weight = region_scan(*specs, method="ar-asymptotic")
    compared = 0
    for a, b in zip(by_ppt.cells, by_weight.cells):
        if a.classification is None:
            continue
        if abs(a.classification.witness) > 1e-6:
            assert a.classification.verdict == b.classification.verdict
            compared += 1
    assert compared > 100


def test_classify_state_dispatch():
    s = werner(0.6)
    assert classify_state(s, "ppt").criterion == "ppt"
    assert classify_state(s, "ar-asymptotic").criterion == "ar-asymptotic"
    assert classify_state(s, "ar-scan").criterion == "ar-scan"
    with pytest.raises(ValueError):
        classify_state(s, "majorization")
    # a separable state must not be called entangled through a negative band
    separable = werner(0.2)
    for method in ("ppt", "ar-asymptotic", "ar-scan"):
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="boundary_tol"):
                classify_state(separable, method, tol)
