"""Unit tests for the inflexion search and the order parameter."""

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qsep.criticality
from qsep import (
    BellDiagonalState,
    UnphysicalStateError,
    eta_field,
    inflexion_point,
    order_parameter,
    werner,
)
from qsep.criticality import (
    Q_FLOOR,
    Q_MAX_DEFAULT,
    SEARCH_POINTS,
    CriticalityReport,
    inflexion_report,
)
from qsep.entropy import bell_log_pairs, entropy_kernel
from qsep.separability import grid_points, log_grid
from qsep.states import bell_weights

from helpers import bisect, state_from_weights, tetrahedron_states

# Inflexion locations frozen from an independent 60-digit-precision solver
# (analytic second derivative, dense log grid, bisection to 1e-30) before the
# production search was written. The search takes secant steps on the exact
# second derivative down to 2 ulp; its largest relative error over these
# eight roots, in q_I and in eta, measured 1.4e-15 (werner(0.4)), which
# GOLDEN_RTOL covers with a 70x margin.
GOLDEN_DIAGONAL = {
    0.4: 13.973792082953026,
    0.5: 6.0839769765829796,
    0.6: 3.9913375067783657,
    0.7: 2.9753099307537908,
    0.8: 2.3509503696064717,
    0.9: 1.8787435834473882,
}
GOLDEN_OFF_DIAGONAL = {
    (0.5, 0.7, 0.2): 7.3782714341306633,
    (0.9, 0.3, 0.1): 9.5794658545761269,
}
GOLDEN_RTOL = 1e-13

VERTICES = [(-3.0, 1.0, 1.0), (1.0, -3.0, 1.0), (1.0, 1.0, -3.0), (1.0, 1.0, 1.0)]


def test_inflexion_matches_frozen_reference_on_diagonal():
    for t, expected in GOLDEN_DIAGONAL.items():
        report = order_parameter(werner(t))
        assert report.q_inflexion == pytest.approx(expected, rel=GOLDEN_RTOL)
        assert report.eta == pytest.approx(1.0 / (1.0 + expected), rel=GOLDEN_RTOL)
        assert report.eta == 1.0 / (1.0 + report.q_inflexion)
        assert not report.vertex


def test_inflexion_matches_frozen_reference_off_diagonal():
    for xyz, expected in GOLDEN_OFF_DIAGONAL.items():
        got = inflexion_point(BellDiagonalState(*xyz))
        assert got == pytest.approx(expected, rel=GOLDEN_RTOL)


def test_no_inflexion_for_separable_diagonal_states():
    for t in (0.1, 0.2, 0.3):
        report = order_parameter(werner(t))
        assert report.q_inflexion is None
        assert report.eta == 0.0
        assert report.bracket is None
        assert report.d2_at_bracket is None
        assert inflexion_point(werner(t)) is None


def test_origin_has_no_inflexion():
    assert order_parameter(BellDiagonalState(0.0, 0.0, 0.0)).eta == 0.0


def test_vertices_use_the_limit_convention():
    for xyz in VERTICES:
        s = BellDiagonalState(*xyz)
        report = order_parameter(s)
        assert report.vertex
        assert report.eta == 1.0
        assert report.q_inflexion is None
        assert inflexion_point(s) is None


def test_search_reports_the_refined_bracket():
    report = order_parameter(werner(0.5))
    lo, hi = report.bracket
    assert lo < report.q_inflexion < hi
    d2_lo, d2_hi = report.d2_at_bracket
    assert d2_lo > 0.0 > d2_hi


def test_eta_grows_towards_the_vertex():
    ts = [0.4 + 0.05 * k for k in range(12)]  # 0.4 .. 0.95
    etas = [order_parameter(werner(t)).eta for t in ts]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    assert 0.0 < etas[0] < etas[-1] < 1.0


def test_exact_kernel_matches_mpmath_through_q_equal_one():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    full_rank = (0.6, 0.3, -0.2)
    rank_deficient = (1.0, 0.3, -0.2)
    for xyz in (full_rank, rank_deficient):
        weights = bell_weights(BellDiagonalState(*xyz))
        pairs = bell_log_pairs(weights)
        exact_weights = [mp.mpf(w) for w in weights if w > 0.0]

        def s(q):
            u = q - 1
            return -mp.fsum(w * mp.log(2 * w) * (mp.expm1(u * mp.log(2 * w)) / (u * mp.log(2 * w))
                                                 if u != 0 else 1) for w in exact_weights)

        # at q = 1.95, (q - 1) ln(2 w) = -0.485 for w = 0.3: the edge of the
        # series branch of phi_2
        for q in (1e-3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-6, 1.95, 2.0, 150.0):
            exact_s = float(s(mp.mpf(q)))
            exact_d2 = float(mp.diff(s, mp.mpf(q), 2))
            assert entropy_kernel(pairs, q) == pytest.approx(exact_s, rel=1e-12, abs=1e-14)
            assert entropy_kernel(pairs, q, 2) == pytest.approx(exact_d2, rel=1e-12, abs=1e-14)


def test_search_parameters_are_validated():
    s = werner(0.5)
    for q_max in (Q_FLOOR, 1e-4, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="q_max"):
            order_parameter(s, q_max=q_max)
        with pytest.raises(ValueError, match="q_max"):
            inflexion_point(s, q_max=q_max)


def test_deep_inflexion_needs_a_larger_search_range():
    # 0.5% past the critical plane the inflexion sits near q = 522, far
    # beyond the default ceiling: the default search honestly reports none.
    t = (1.0 + 0.005) / 3.0
    s = BellDiagonalState(t, t, t)
    assert inflexion_point(s) is None
    deep = inflexion_point(s, q_max=2000.0)
    assert deep is not None
    assert 450.0 < deep < 600.0

    t = (1.0 + 0.01) / 3.0
    found = inflexion_point(BellDiagonalState(t, t, t), q_max=300.0)
    assert found == pytest.approx(261.0, rel=1e-2)


def test_unphysical_states_are_rejected():
    with pytest.raises(UnphysicalStateError):
        inflexion_point(BellDiagonalState(2.0, 0.0, 0.0))
    with pytest.raises(UnphysicalStateError):
        order_parameter(BellDiagonalState(-1.0, -1.0, -1.0))


def test_eta_field_matches_pointwise_evaluation():
    # the 165 physical cells of this grid hold 15 distinct weight multisets,
    # so most cells take the eta of an earlier cell with the same multiset
    spec = (-3.0, 1.0, 9)
    pts = grid_points(spec, "x")
    rows = eta_field(spec, spec, spec)
    assert len(rows) == 165
    assert len({tuple(sorted(bell_weights(BellDiagonalState(*r[:3])))) for r in rows}) == 15
    assert rows[0][:3] == (pts[0], pts[8], pts[8])  # the phi+ vertex
    assert rows[1][:3] == (pts[1], pts[7], pts[8])
    assert rows[2][:3] == (pts[1], pts[8], pts[7])  # z varies fastest
    assert [r[:3] for r in rows] == sorted(r[:3] for r in rows)  # x-major
    for x, y, z, eta in rows:
        assert eta == order_parameter(BellDiagonalState(x, y, z)).eta


@pytest.mark.parametrize("q_max", [Q_FLOOR, math.nan, math.inf, -1.0])
def test_eta_field_rejects_a_bad_q_max_on_any_grid(q_max):
    # (1.2, 1.2, 1.2) is not physical: no search runs, q_max is still checked
    for spec in ((1.2, 1.2, 1), (-3.0, 1.0, 3)):
        with pytest.raises(ValueError, match="q_max"):
            eta_field(spec, spec, spec, q_max=q_max)


# ---------------------------------------------------------------------------
# the binary search and secant steps against the linear scan they replaced


def linear_scan_report(s: BellDiagonalState, q_max: float) -> CriticalityReport:
    """Reference: S'' at every grid point, every finite sign change found
    (there must be at most one), and that one bisected until the midpoint
    rounds onto an end (tol 1e-300).
    order_parameter ran this scan before it used S''' < 0 to binary-search
    the grid and to take secant steps inside the bracket."""
    pairs = bell_log_pairs(bell_weights(s))
    grid = log_grid(Q_FLOOR, q_max, SEARCH_POINTS)
    d2 = [entropy_kernel(pairs, q, 2) for q in grid]
    brackets = [k for k in range(len(grid) - 1)
                if math.isfinite(d2[k]) and math.isfinite(d2[k + 1]) and d2[k] * d2[k + 1] < 0.0]
    if not brackets:
        return CriticalityReport(None, 0.0, None, None)
    (k,) = brackets  # S''' < 0: S'' changes sign at most once
    lo_negative = d2[k] < 0.0
    q = bisect(lambda t: (entropy_kernel(pairs, t, 2) < 0.0) != lo_negative,
               grid[k], grid[k + 1], 1e-300)
    return CriticalityReport(q, 1.0 / (1.0 + q), (grid[k], grid[k + 1]), (d2[k], d2[k + 1]))


SEARCH_Q_MAX = (5.0, Q_MAX_DEFAULT, 1e4)
# The secant's root and the bisected one both sit within a few ulp of the
# sign change of the computed S''; the largest gap measured on fig3's cells
# at q_max 200 and 1e4 is 5.0e-15 relative (3.0e-15 in eta).
REFERENCE_RTOL = 1e-13


def assert_matches_reference(report: CriticalityReport, reference: CriticalityReport) -> None:
    """Everything but the root equal; the root and eta within REFERENCE_RTOL."""
    assert report.bracket == reference.bracket
    assert report.d2_at_bracket == reference.d2_at_bracket
    assert report.vertex == reference.vertex
    assert (report.q_inflexion is None) == (reference.q_inflexion is None)
    if reference.q_inflexion is None:
        assert report == reference
    else:
        assert report.q_inflexion == pytest.approx(reference.q_inflexion, rel=REFERENCE_RTOL)
        assert report.eta == pytest.approx(reference.eta, rel=REFERENCE_RTOL)


@settings(derandomize=True, deadline=None)
@given(tetrahedron_states(), st.sampled_from(SEARCH_Q_MAX))
def test_binary_search_matches_the_linear_scan(s, q_max):
    assume(max(bell_weights(s)) < 1.0 - 1e-12)  # vertices short-circuit
    assert_matches_reference(order_parameter(s, q_max=q_max), linear_scan_report(s, q_max))


@pytest.mark.parametrize("q_max", SEARCH_Q_MAX)
@pytest.mark.parametrize("weights", [
    (0.5, 0.5, 0.0, 0.0),  # every L_k = 0: S'' = 0 throughout
    (1e-3 / 3, 1e-3 / 3, 1e-3 / 3, 1.0 - 1e-3),  # 1e-3 from the psi- vertex
])
def test_binary_search_matches_the_linear_scan_at_the_edges(weights, q_max):
    s = state_from_weights(weights)
    assert_matches_reference(order_parameter(s, q_max=q_max), linear_scan_report(s, q_max))


@settings(derandomize=True, deadline=None)
@given(tetrahedron_states())
def test_second_derivative_is_non_increasing_on_the_search_grid(s):
    pairs = bell_log_pairs(bell_weights(s))
    d2 = [entropy_kernel(pairs, q, 2)
          for q in log_grid(Q_FLOOR, Q_MAX_DEFAULT, SEARCH_POINTS)]
    assert all(a >= b for a, b in zip(d2, d2[1:]))


def recorded_kernel_calls(patch) -> list[tuple[float, int]]:
    """Patch the search's kernel to record the (q, n) of every call."""
    calls = []
    kernel = qsep.criticality.entropy_kernel

    def recording(pairs, q, n=0):
        calls.append((q, n))
        return kernel(pairs, q, n)

    patch.setattr(qsep.criticality, "entropy_kernel", recording)
    return calls


@pytest.mark.parametrize("t, most", [(0.2, 1), (0.6, 14)])
def test_search_evaluates_few_second_derivatives(monkeypatch, t, most):
    # a scan of every grid point makes SEARCH_POINTS = 240 evaluations, and
    # bisecting the bracket to 1e-8 took 35 in all for werner(0.6); the
    # separable werner(0.2) is settled by S'' at the top of the grid alone
    calls = recorded_kernel_calls(monkeypatch)
    order_parameter(werner(t))
    assert {n for _, n in calls} == {2}
    assert len(calls) <= most


@settings(derandomize=True, deadline=None)
@given(tetrahedron_states(), st.sampled_from(SEARCH_Q_MAX))
@example(werner(0.6), Q_MAX_DEFAULT)
# two states near the critical surface, and the slowest refinement seen in
# 15,000 random states at q_max 5, 200, 1e4 and 1e7: 12 secant steps, 21
# calls in all
@example(state_from_weights((1e-5 / 3, 0.2, 0.3 - 1e-5 * 2 / 3, 0.5 + 1e-5)), 1e7)
@example(state_from_weights((0.49 / 3, 0.49 / 3, 0.49 / 3, 0.51)), 1e7)
@example(BellDiagonalState(-1.1542561297373144, -0.8239008383872168, 0.9984824265628943), 1e7)
# three of 20,000 states uniform on the weight simplex that took 23, 23 and
# 22 calls while Brent's rule sent a secant step of a few ulp, after a
# smaller one, to six midpoint steps; they now take 18, 19 and 21
@example(BellDiagonalState(0.9163546351997301, -1.9403833835610227, 0.15165969004239632),
         Q_MAX_DEFAULT)
@example(BellDiagonalState(0.8598770031593206, 0.9834637539776226, 0.10915673252523084), 1e4)
@example(BellDiagonalState(-0.16893191581584688, -1.7396168469498954, 0.98919792454142), 1e7)
def test_search_makes_at_most_21_second_derivative_evaluations(s, q_max):
    # 1 at the top of the grid, at most 8 in the binary search over the
    # other 239 points (2^8 > 239) and at most 12 in the secant refinement,
    # whose iterates lie strictly between two grid points
    assume(max(bell_weights(s)) < 1.0 - 1e-12)  # vertices short-circuit
    with pytest.MonkeyPatch.context() as patch:
        calls = recorded_kernel_calls(patch)
        order_parameter(s, q_max=q_max)
    grid = set(log_grid(Q_FLOOR, q_max, SEARCH_POINTS))
    assert {n for _, n in calls} == {2}
    assert calls[0][0] == q_max
    binary = sum(q in grid for q, _ in calls[1:])
    assert binary <= 8
    assert len(calls) - 1 - binary <= 12


@settings(derandomize=True, deadline=None)
@given(tetrahedron_states(), st.sampled_from(SEARCH_Q_MAX))
@example(werner(0.2), Q_MAX_DEFAULT)
@example(state_from_weights((0.5, 0.5, 0.0, 0.0)), Q_MAX_DEFAULT)
def test_a_state_convex_at_q_max_costs_one_evaluation(s, q_max):
    # S'' falls in q, so S''(q_max) >= 0 leaves no concave grid point
    assume(max(bell_weights(s)) < 1.0 - 1e-12)  # vertices short-circuit
    assume(entropy_kernel(bell_log_pairs(bell_weights(s)), q_max, 2) >= 0.0)
    with pytest.MonkeyPatch.context() as patch:
        calls = recorded_kernel_calls(patch)
        report = order_parameter(s, q_max=q_max)
    assert calls == [(q_max, 2)]
    assert report == CriticalityReport(None, 0.0, None, None)


def test_search_cost_on_the_21_point_grid(monkeypatch):
    # 1,771 physical cells, 880 of them with a root below q_max. A search in
    # every cell makes 13,197 S'' evaluations here. The cells hold 346
    # distinct weight multisets, and eta_field searches each once.
    calls = recorded_kernel_calls(monkeypatch)
    spec = (-3.0, 1.0, 21)
    eta_field(spec, spec, spec)
    assert {n for _, n in calls} == {2}
    assert len(calls) <= 2_533


def test_a_grid_builds_its_search_grid_at_most_once():
    # log_grid is memoised, so every search of this grid (one per weight
    # multiset) at a q_max other than the default reads one search grid
    log_grid.cache_clear()
    spec = (-3.0, 1.0, 9)
    eta_field(spec, spec, spec, q_max=1e4)
    assert log_grid.cache_info().misses <= 1
    assert log_grid.cache_info().hits > 0


@settings(derandomize=True, deadline=None)
@given(tetrahedron_states(), st.sampled_from(SEARCH_Q_MAX))
@example(BellDiagonalState(0.5, 0.7, 0.2), Q_MAX_DEFAULT)
@example(werner(0.2), Q_MAX_DEFAULT)
def test_report_depends_only_on_the_weight_multiset(s, q_max):
    # the premise of eta_field's one search per multiset. A permutation of
    # (x, y, z) permutes three weights, but the fourth, (1 + x + y + z)/4,
    # may round differently; every image whose sorted weights are the
    # state's gets an equal report, bit for bit.
    weights = sorted(bell_weights(s))
    report = order_parameter(s, q_max=q_max)
    # the weights-level report that eta_field and fig3 read, on the sorted
    # weights by_weight_multiset keys on
    assert inflexion_report(weights, q_max) == report
    for xyz in itertools.permutations((s.x, s.y, s.z)):
        image = BellDiagonalState(*xyz)
        if sorted(bell_weights(image)) == weights:
            assert order_parameter(image, q_max=q_max) == report


@settings(derandomize=True, deadline=None)
@given(tetrahedron_states())
@example(werner(0.6))
def test_search_evaluates_no_point_twice(s):
    # the binary search has already evaluated S'' at both ends of the bracket
    with pytest.MonkeyPatch.context() as patch:
        calls = recorded_kernel_calls(patch)
        order_parameter(s)
    assert len(set(calls)) == len(calls)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(VERTICES), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# the three small weights at 5/3 and 2/3 of EPS_SUPPORT: the far state's
# support is one weight, so it is a vertex with eta = 1
@example((1.0, 1.0, 1.0), 1.0 - 20e-12 / 3.0, 1.0 - 8e-12 / 3.0)
@example((-3.0, 1.0, 1.0), 1.0 - 20e-12 / 3.0, 1.0 - 8e-12 / 3.0)
def test_eta_is_non_decreasing_along_rays_into_each_vertex(vertex, t1, t2):
    near, far = sorted((t1, t2))
    eta_near = order_parameter(BellDiagonalState(*(near * v for v in vertex))).eta
    eta_far = order_parameter(BellDiagonalState(*(far * v for v in vertex))).eta
    assert eta_near <= eta_far


# ---------------------------------------------------------------------------
# the critical behaviour near the plane max w = 1/2


def _critical_amplitude() -> float:
    # e^v (v^2 - 2v + 2) rises in v (its derivative is e^v v^2) and crosses 4
    # between 1 and 2
    return bisect(lambda v: math.exp(v) * (v * v - 2.0 * v + 2.0) > 4.0, 1.0, 2.0, 1e-300)


# With delta = max w - 1/2 small, the largest weight's term of S'' balances
# the 2 w_k / (q - 1)^3 tails of the others, whose weights add up to about
# 1/2. That puts q_I near v* / (2 delta), where e^v* (v*^2 - 2 v* + 2) = 4:
# v* = 1.3000752425985869.
V_STAR = _critical_amplitude()


@settings(derandomize=True, deadline=None)
@given(st.floats(1e-5, 1e-3), st.integers(0, 3),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_order_parameter_near_the_critical_surface(delta, vertex, shares):
    # the other weights must stay away from 1/2: at (1/2 + delta, 1/2 - delta,
    # 0, 0) the left side is about 1, not O(delta). The largest value of
    # left side / delta measured over 3,000 draws was 1.55.
    assume(sum(shares) > 0.0)
    rest = [(0.5 - delta) * share / sum(shares) for share in shares]
    assume(max(rest) <= 0.4)
    s = state_from_weights(rest[:vertex] + [0.5 + delta] + rest[vertex:])
    delta = max(bell_weights(s)) - 0.5
    q_inflexion = inflexion_point(s, q_max=1e7)
    assert abs(q_inflexion * 2.0 * delta / V_STAR - 1.0) <= 2.0 * delta
