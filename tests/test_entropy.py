"""Unit tests for Tsallis entropies and the conditional-entropy closed form."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from qsep import (
    EPS_SUPPORT,
    BellDiagonalState,
    ConditionalEntropyValue,
    Spectrum,
    UnphysicalStateError,
    bell_diagonal_density,
    bell_spectrum,
    chain_rule_check,
    conditional_entropy,
    conditional_entropy_bell,
    hermitian_eigenvalues,
    partial_trace,
    pseudoadditive_combine,
    rescaled_power_sum,
    tensor_product,
    trace_power,
    tsallis_entropy,
    werner,
)
from qsep.entropy import bell_log_pairs, entropy_kernel
from qsep.states import bell_weights

UNIFORM4 = Spectrum.uniform(4)
PURE = Spectrum.from_values([1.0, 0.0, 0.0, 0.0], stochastic=True)


def uppermost_curve(q: float) -> float:
    """Conditional entropy of the maximally mixed state."""
    if q == 1.0:
        return math.log(2.0)
    return (2.0 ** (1.0 - q) - 1.0) / (1.0 - q)


def lowest_curve(q: float) -> float:
    """Conditional entropy of a pure Bell state."""
    if q == 1.0:
        return -math.log(2.0)
    return -(2.0 ** (q - 1.0) - 1.0) / (q - 1.0)


def test_tsallis_anchor_values():
    assert tsallis_entropy(UNIFORM4, 1.0) == pytest.approx(math.log(4.0), abs=1e-15)
    assert tsallis_entropy(UNIFORM4, 2.0) == pytest.approx(0.75, abs=1e-15)
    assert tsallis_entropy(UNIFORM4, 0.0) == pytest.approx(3.0, abs=1e-15)
    assert tsallis_entropy(UNIFORM4, 3.0) == pytest.approx(15.0 / 32.0, abs=1e-15)
    for q in (-2.0, 0.5, 1.0, 2.0):
        assert tsallis_entropy(PURE, q) == pytest.approx(0.0, abs=1e-15)


def test_tsallis_continuous_across_q_equals_one():
    spectra = [
        UNIFORM4,
        bell_spectrum(werner(0.37)),
        Spectrum.from_values([0.125, 0.125, 0.125, 0.625], stochastic=True),
    ]
    for s in spectra:
        center = tsallis_entropy(s, 1.0)
        assert abs(tsallis_entropy(s, 1.0 + 1e-6) - center) < 1e-5
        assert abs(tsallis_entropy(s, 1.0 - 1e-6) - center) < 1e-5


def test_tsallis_rejects_bad_inputs():
    raw = Spectrum.from_values([0.5, 0.2])
    with pytest.raises(ValueError):
        tsallis_entropy(raw, 2.0)
    with pytest.raises(ValueError):
        tsallis_entropy(UNIFORM4, math.inf)


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    st.floats(-3.0, 10.0),
)
def test_tsallis_nonnegative_on_full_support(raw, q):
    total = math.fsum(raw)
    spectrum = Spectrum.from_values([v / total for v in raw], stochastic=True)
    assert tsallis_entropy(spectrum, q) >= -1e-12


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(lambda raw: math.fsum(raw) > 0.0),
    st.lists(st.floats(-1e-9, 1e-9), min_size=5, max_size=5),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example([1.0], [5e-10] * 5, 3.0)
def test_tsallis_nonnegative_on_every_accepted_spectrum(raw, shifts, q):
    # a stochastic spectrum may sum to just above 1 and hold values just below 0
    total = math.fsum(raw)
    values = [v / total + shift for v, shift in zip(raw, shifts)]
    try:
        spectrum = Spectrum.from_values(values, stochastic=True)
    except ValueError:
        assume(False)
    assert tsallis_entropy(spectrum, q) >= 0.0


def test_tsallis_decreases_with_q_on_sampled_spectra():
    q_grid = [0.25 * k for k in range(1, 41)]
    for s in (UNIFORM4, bell_spectrum(werner(0.3))):
        values = [tsallis_entropy(s, q) for q in q_grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_pseudoadditivity_on_a_product_pair(rng):
    a = helpers.random_qubit_density(rng)
    b = helpers.random_qubit_density(rng)
    sa = hermitian_eigenvalues(a)
    sb = hermitian_eigenvalues(b)
    joint = hermitian_eigenvalues(tensor_product(a, b))
    for q in (-2.0, -0.5, 0.5, 1.0, 2.0, 3.7, 5.0):
        combined = pseudoadditive_combine(
            tsallis_entropy(sa, q), tsallis_entropy(sb, q), q
        )
        assert tsallis_entropy(joint, q) == pytest.approx(combined, abs=1e-12)


def test_conditional_entropy_matrix_route_matches_closed_form():
    for s in (werner(0.6), BellDiagonalState(0.3, -0.4, 0.5)):
        rho = bell_diagonal_density(s).matrix
        joint = hermitian_eigenvalues(rho)
        reduced = hermitian_eigenvalues(partial_trace(rho, "A"))
        for q in (0.5, 1.0, 2.0, 5.0):
            via_matrices = conditional_entropy(joint, reduced, q)
            closed = conditional_entropy_bell(s, q).value
            assert via_matrices == pytest.approx(closed, abs=1e-10)


def test_conditional_entropy_uniform_anchor():
    assert conditional_entropy(UNIFORM4, Spectrum.uniform(2), 2.0) == pytest.approx(
        0.5, abs=1e-15
    )


def test_conditional_entropy_where_the_reduced_power_sum_underflows():
    # Tr rho_A^q = 2^(1 - q) is below the smallest double here, and the
    # quotient is still (1 - 2^(1 - q)) / (q - 1)
    q = 2000.0
    assert conditional_entropy(UNIFORM4, Spectrum.uniform(2), q) == pytest.approx(
        (1.0 - 2.0 ** (1.0 - q)) / (q - 1.0), rel=1e-15
    )


def closed_form_with_scale(weights, q):
    """S_q(B|A) = (2 - sum_k (2 w_k)^q) / (2 (q - 1)) of the normalised
    support in 50-digit mpmath, and sum_k q |(2 w_k)^(q - 1) - 1| / |q - 1|,
    the size of its change per unit shift of one weight at fixed total (at
    q = 1 both are limits): the factor that carries the eigensolver's
    absolute rounding of the spectrum into S_q(B|A)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        support = [mp.mpf(w) for w in weights if w > EPS_SUPPORT]
        total = mp.fsum(support)
        logs = [mp.log(2 * w / total) for w in support]
        q, u = mp.mpf(q), mp.mpf(q) - 1
        if u == 0:
            value = -mp.fsum(w / total * L for w, L in zip(support, logs))
            scale = mp.fsum(abs(L) for L in logs)
        else:
            value = (2 - mp.fsum(mp.exp(q * L) for L in logs)) / (2 * u)
            scale = q * mp.fsum(abs(mp.expm1(u * L)) for L in logs) / abs(u)
        return float(value), float(scale)


@settings(derandomize=True, deadline=None)
@given(helpers.tetrahedron_states(), st.floats(0.5, 1000.0))
@example(BellDiagonalState(0.2, 0.1, -0.3), 100.0)
@example(werner(0.3), 1.0)
@example(BellDiagonalState(1.0, 1.0, 1.0), 1000.0)
def test_conditional_entropy_matrix_route_matches_mpmath(s, q):
    # Each eigenvalue is good to a few ulp of 1. A weight within that of
    # EPS_SUPPORT may land on either side of the support rule as an
    # eigenvalue: the rule, not the route, then decides whether it counts.
    weights = bell_weights(s)
    assume(all(abs(w - EPS_SUPPORT) > 4.0 * sys.float_info.epsilon for w in weights))
    rho = bell_diagonal_density(s).matrix
    joint = hermitian_eigenvalues(rho)
    reduced = hermitian_eigenvalues(partial_trace(rho, "A"))
    exact, scale = closed_form_with_scale(weights, q)
    got = conditional_entropy(joint, reduced, q)
    # so the route can be no closer than a few eps times the scale; the 1 is
    # for the rounding of ln Tr rho^q and ln Tr rho_A^q, each |q - 1| ln 2
    # to |q - 1| ln 4 in size before the division by q - 1
    assert abs(got - exact) <= 4.0 * sys.float_info.epsilon * (1.0 + abs(exact) + scale)


def test_conditional_entropy_bell_validates_and_labels():
    value = conditional_entropy_bell(werner(0.2), 2.0)
    assert isinstance(value, ConditionalEntropyValue)
    assert value.q == 2.0
    assert value.direction == "B|A"
    with pytest.raises(UnphysicalStateError):
        conditional_entropy_bell(BellDiagonalState(2.0, 0.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        conditional_entropy_bell(werner(0.2), math.nan)


def test_rescaled_power_sum_values():
    assert rescaled_power_sum((0.25,) * 4, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert rescaled_power_sum((0.0, 0.0, 0.0, 1.0), 2.0) == pytest.approx(4.0, abs=0)
    # zero weights drop out of the support, keeping negative q finite
    assert rescaled_power_sum((0.5, 0.5, 0.0, 0.0), -1.0) == pytest.approx(2.0, abs=1e-15)
    # a divergent power sum saturates to infinity instead of raising
    assert rescaled_power_sum((0.0, 0.0, 0.0, 1.0), 5000.0) == math.inf
    # weights below 1/2 give a sum far below 2, still to full relative precision
    assert rescaled_power_sum((0.25,) * 4, 200.0) == pytest.approx(4 * 2.0**-200, rel=1e-12)
    weights = (0.1, 0.2, 0.3, 0.4)
    assert rescaled_power_sum(weights, 50.0) == pytest.approx(
        math.fsum((2.0 * w) ** 50 for w in weights), rel=1e-12)
    assert entropy_kernel(bell_log_pairs((0.0, 0.0, 0.0, 1.0)), 5000.0) == -math.inf


@settings(derandomize=True, deadline=None)
@given(st.tuples(*[st.floats(0.0, 1.0)] * 4), st.floats(-3.0, 600.0))
@example((0.1, 0.2, 0.3, 0.4), 50.0)
def test_rescaled_power_sum_is_correctly_rounded_within_an_ulp(weights, q):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        exact = mp.fsum((2 * mp.mpf(w)) ** q for w in weights if w > EPS_SUPPORT)
    assume(sys.float_info.min <= exact <= sys.float_info.max)
    assert abs(rescaled_power_sum(weights, q) - exact) <= 5e-16 * exact


@settings(derandomize=True, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).filter(lambda raw: math.fsum(raw) > 0.0),
       st.floats(-3.0, 50.0))
def test_trace_power_is_the_plain_power_sum_bit_for_bit(raw, q):
    total = math.fsum(raw)
    s = Spectrum.from_values([v / total for v in raw], stochastic=True)
    assert trace_power(s, q) == math.fsum(v**q for v in s.values if v > EPS_SUPPORT)


def test_kernel_rejects_other_derivative_orders():
    pairs = bell_log_pairs((0.1, 0.2, 0.3, 0.4))
    for n in (-1, 1, 3, 4):
        with pytest.raises(ValueError, match="derivative order"):
            entropy_kernel(pairs, 2.0, n)


def test_closed_form_curve_anchors():
    origin = bell_weights(BellDiagonalState(0.0, 0.0, 0.0))
    vertex = bell_weights(BellDiagonalState(1.0, 1.0, 1.0))
    for k in range(-12, 41):
        q = 0.25 * k
        assert entropy_kernel(bell_log_pairs(origin), q) == pytest.approx(uppermost_curve(q), abs=1e-13)
        assert entropy_kernel(bell_log_pairs(vertex), q) == pytest.approx(lowest_curve(q), abs=1e-13)


def test_conditional_entropy_near_quadratic_threshold():
    x = 0.577350269
    value = conditional_entropy_bell(BellDiagonalState(x, x, x), 2.0).value
    assert abs(value) < 1e-8


def test_weight_permutation_symmetry_is_bit_exact():
    base = (0.1, 0.2, 0.3, 0.4)
    for q in (-1.0, 0.5, 2.0, 7.3):
        reference = entropy_kernel(bell_log_pairs(base), q)
        for perm in itertools.permutations(base):
            assert entropy_kernel(bell_log_pairs(perm), q) == reference


@settings(derandomize=True, deadline=None)
@given(helpers.tetrahedron_states(), st.sampled_from((0, 2)),
       st.floats(1e-3, 1e3) | st.sampled_from((1.0 - 1e-9, 1.0, 1.0 + 1e-9)))
def test_kernel_is_bit_exact_under_any_permutation_of_its_pairs(s, n, q):
    # math.fsum is correctly rounded, so the order of the terms cannot move
    # the sum: the premise of one inflexion search per weight multiset
    pairs = bell_log_pairs(bell_weights(s))
    reference = entropy_kernel(pairs, q, n)
    for perm in itertools.permutations(pairs):
        assert entropy_kernel(perm, q, n) == reference


def test_state_symmetry_images_agree():
    s = BellDiagonalState(0.3, -0.2, 0.6)
    images = [
        BellDiagonalState(0.3, 0.6, -0.2),                # swap phi-/psi+ weights
        BellDiagonalState(-0.2, 0.3, 0.6),                # swap phi+/phi- weights
        BellDiagonalState(-(0.3 - 0.2 + 0.6), -0.2, 0.6), # swap phi+/psi- weights
    ]
    for q in (0.5, 1.0, 2.0, 5.0):
        reference = conditional_entropy_bell(s, q).value
        for image in images:
            assert conditional_entropy_bell(image, q).value == pytest.approx(
                reference, abs=1e-13
            )


def test_chain_rule_reconstructs_joint_entropy():
    s = werner(0.7)
    joint = bell_spectrum(s)
    marginal = Spectrum.uniform(2)
    for q in (-2.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        cond = conditional_entropy_bell(s, q).value
        rebuilt = chain_rule_check(marginal, cond, q)
        assert rebuilt == pytest.approx(tsallis_entropy(joint, q), abs=1e-12)


@settings(derandomize=True, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1.05, 50.0))
def test_conditional_entropy_sign_tracks_max_weight(t, q):
    # For q > 1 the sign of S_q(B|A) is governed by whether any rescaled
    # weight exceeds one; on the symmetric line that flips where the
    # residual sum crosses 2.
    weights = bell_weights(BellDiagonalState(t, t, t))
    value = entropy_kernel(bell_log_pairs(weights), q)
    residual = rescaled_power_sum(weights, q) - 2.0
    if residual > 1e-12:
        assert value < 0.0
    elif residual < -1e-12:
        assert value > 0.0


@settings(derandomize=True, deadline=None)
@given(helpers.tetrahedron_states(), st.floats(1.0, 50.0, exclude_min=True))
def test_conditional_entropy_sign_is_the_power_sum_margin(s, q):
    # S_q(B|A) = (2 - sum_k (2 w_k)^q) / (2 (q - 1)), so for q > 1 the two
    # share a sign; the margin is summed here from plain powers, apart from
    # the kernel. Margins within rounding of zero are left out.
    margin = 2.0 - math.fsum((2.0 * w) ** q for w in bell_weights(s) if w > 0.0)
    assume(abs(margin) > 1e-12)
    value = conditional_entropy_bell(s, q).value
    assert math.copysign(1.0, value) == math.copysign(1.0, margin)
