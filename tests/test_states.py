"""Unit tests for the Bell basis and the Bell-diagonal state family."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import qsep.cli  # noqa: F401 - loads every package module for the counting test
import qsep.states
from qsep import (
    BellDiagonalState,
    TwoQubitState,
    UnphysicalStateError,
    ar_classify_asymptotic,
    ar_classify_scan,
    ar_residual,
    bell_diagonal_density,
    bell_projectors,
    bell_spectrum,
    bell_weights,
    classify_state,
    conditional_entropy_bell,
    inflexion_point,
    is_physical,
    order_parameter,
    werner,
)

VERTICES = {
    (-3.0, 1.0, 1.0): 0,  # phi+
    (1.0, -3.0, 1.0): 1,  # phi-
    (1.0, 1.0, -3.0): 2,  # psi+
    (1.0, 1.0, 1.0): 3,   # psi-
}


def test_projectors_are_an_orthonormal_resolution():
    projectors = bell_projectors()
    total = np.zeros((4, 4), dtype=complex)
    for i, p in enumerate(projectors):
        assert np.allclose(p, p.conj().T, atol=0)
        assert abs(p.trace() - 1.0) < 1e-15
        for j, other in enumerate(projectors):
            product = p @ other
            expected = p if i == j else np.zeros((4, 4))
            assert np.allclose(product, expected, atol=1e-15)
        total += p
    assert np.allclose(total, np.eye(4), atol=1e-15)


def test_phi_plus_and_psi_minus_matrices():
    projectors = bell_projectors()
    phi_plus = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
    )
    psi_minus = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )
    assert np.allclose(projectors[0], phi_plus, atol=0)
    assert np.allclose(projectors[3], psi_minus, atol=0)


def test_vertices_are_pure_bell_states():
    projectors = bell_projectors()
    for xyz, index in VERTICES.items():
        s = BellDiagonalState(*xyz)
        weights = bell_weights(s)
        expected = tuple(1.0 if k == index else 0.0 for k in range(4))
        assert weights == pytest.approx(expected, abs=1e-15)
        rho = bell_diagonal_density(s).matrix
        assert np.allclose(rho, projectors[index], atol=1e-15)
        assert bell_spectrum(s).values == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)


def test_bell_weights_formula_and_order():
    s = BellDiagonalState(0.1, -0.2, 0.3)
    w = bell_weights(s)
    assert w == pytest.approx((0.225, 0.3, 0.175, 0.3), abs=1e-15)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)


def test_weights_roundtrip_through_density(rng):
    projectors = bell_projectors()
    for xyz in helpers.random_physical_triples(rng, 100):
        s = BellDiagonalState(*xyz)
        rho = bell_diagonal_density(s).matrix
        recovered = tuple(float((p @ rho).trace().real) for p in projectors)
        assert recovered == pytest.approx(bell_weights(s), abs=1e-14)


@settings(derandomize=True, deadline=None)
@given(st.one_of(helpers.tetrahedron_states(), helpers.edge_states()))
@example(BellDiagonalState(-3.0, 1.0, 1.0))
@example(BellDiagonalState(1.0, -3.0, 1.0))
@example(BellDiagonalState(1.0, 1.0, -3.0))
@example(BellDiagonalState(1.0, 1.0, 1.0))
@example(BellDiagonalState(-1.0, 1.0, 1.0))  # edge midpoint: phi+ and psi- at 1/2
@example(BellDiagonalState(-1.0 / 3.0, -1.0 / 3.0, 1.0))  # face point: psi+ weight 0
# Bell weights in [-WEIGHT_TOL, 0): phi+ at -9.75e-13, then phi+ and phi- at -7.5e-13
@example(BellDiagonalState(1.0000000000039, 0.0, 0.0))
@example(BellDiagonalState(1.000000000003, 1.000000000003, -3.000000000006))
def test_density_is_the_projector_sum_bit_for_bit(s):
    # wherever physical_weights accepts the weights, the matrix passes
    # TwoQubitState's density checks: the ppt route checks the weights alone
    expected = np.zeros((4, 4), dtype=np.complex128)
    for w, p in zip(bell_weights(s), bell_projectors()):
        expected += w * p
    got = bell_diagonal_density(s).matrix.view(np.float64)
    expected = expected.view(np.float64)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_is_physical_accepts_and_reports():
    assert is_physical(BellDiagonalState(0.2, 0.2, 0.2))
    assert bool(is_physical(BellDiagonalState(1.0, 1.0, 1.0)))
    check = is_physical(BellDiagonalState(1.2, 0.0, 0.0))
    assert not check
    assert len(check.violations) == 1
    assert "phi+" in check.violations[0]
    check = is_physical(BellDiagonalState(1.2, 1.2, 0.0))
    assert sum("phi" in v for v in check.violations) == 2
    check = is_physical(BellDiagonalState(-1.0, -1.0, -1.0))
    assert not check
    assert "psi-" in check.violations[0]


def test_werner_endpoints_and_range():
    assert np.allclose(bell_diagonal_density(werner(0.0)).matrix, np.eye(4) / 4.0,
                       atol=1e-15)
    assert np.allclose(bell_diagonal_density(werner(1.0)).matrix, bell_projectors()[3],
                       atol=1e-15)
    with pytest.raises(ValueError):
        werner(-0.1)
    with pytest.raises(ValueError):
        werner(1.1)


def test_two_qubit_state_validation():
    good = TwoQubitState.from_matrix(np.eye(4) / 4.0)
    assert good.spectrum.stochastic
    assert good.spectrum.values == pytest.approx((0.25,) * 4, abs=1e-13)
    with pytest.raises(UnphysicalStateError, match="trace"):
        TwoQubitState.from_matrix(np.eye(4) / 2.0)
    with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
        TwoQubitState.from_matrix(np.diag([0.5, 0.5, 0.25, -0.25]))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        TwoQubitState.from_matrix(bad)
    with pytest.raises(ValueError, match="4x4"):
        TwoQubitState.from_matrix(np.eye(3) / 3.0)


def test_bell_diagonal_density_rejects_unphysical():
    with pytest.raises(UnphysicalStateError, match="phi\\+"):
        bell_diagonal_density(BellDiagonalState(2.0, 0.0, 0.0))


UNPHYSICAL_MESSAGES = {
    (1.0, 1.0, -3.5): "weight[psi-] = -0.125 is negative",
    (1.5, 1.5, 0.0): "weight[phi+] = -0.125 is negative; weight[phi-] = -0.125 is negative",
}
VALIDATING_ENTRY_POINTS = {
    "conditional_entropy_bell": lambda s: conditional_entropy_bell(s, 2.0),
    "ar_residual": lambda s: ar_residual(s, 2.0),
    "ar_classify_asymptotic": ar_classify_asymptotic,
    "ar_classify_scan": ar_classify_scan,
    "order_parameter": order_parameter,
    "inflexion_point": inflexion_point,
    "bell_diagonal_density": bell_diagonal_density,
    "bell_spectrum": bell_spectrum,
}


@pytest.mark.parametrize("xyz", UNPHYSICAL_MESSAGES)
@pytest.mark.parametrize("entry", VALIDATING_ENTRY_POINTS)
def test_every_entry_point_names_the_negative_weights(xyz, entry):
    s = BellDiagonalState(*xyz)
    message = "; ".join(is_physical(s).violations)
    assert message == UNPHYSICAL_MESSAGES[xyz]
    with pytest.raises(UnphysicalStateError) as info:
        VALIDATING_ENTRY_POINTS[entry](s)
    assert str(info.value) == message


@pytest.mark.parametrize("x, message", [
    (2.0, "weight[phi+] = -0.25 is negative"),
    # inside a spectrum's own 1e-9 tolerance, but below -WEIGHT_TOL
    (1.0 + 4e-10, "weight[phi+] = -1e-10 is negative"),
], ids=["phi+=-0.25", "phi+=-1e-10"])
def test_bell_spectrum_rejects_what_the_conditional_entropy_rejects(x, message):
    s = BellDiagonalState(x, 0.0, 0.0)
    for entry in (bell_spectrum, lambda s: conditional_entropy_bell(s, 2.0)):
        with pytest.raises(UnphysicalStateError) as info:
            entry(s)
        assert str(info.value) == message


CHECKED_ONCE = {
    "classify_state[ppt]": lambda s: classify_state(s, "ppt"),
    "classify_state[ar-asymptotic]": lambda s: classify_state(s, "ar-asymptotic"),
    "classify_state[ar-scan]": lambda s: classify_state(s, "ar-scan"),
    "conditional_entropy_bell": lambda s: conditional_entropy_bell(s, 2.0),
    "order_parameter": order_parameter,
    "ar_residual": lambda s: ar_residual(s, 2.0),
    "bell_diagonal_density": bell_diagonal_density,
    "bell_spectrum": bell_spectrum,
}


@pytest.mark.parametrize("entry", CHECKED_ONCE)
def test_each_entry_point_checks_physicality_once(entry, monkeypatch):
    original = qsep.states.physical_weights
    calls = []

    def counting(s):
        calls.append(s)
        return original(s)

    patched = sorted(name for name, module in list(sys.modules.items())
                     if name.split(".")[0] == "qsep"
                     and getattr(module, "physical_weights", None) is original)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "physical_weights", counting)
    assert {"qsep.criticality", "qsep.entropy", "qsep.separability",
            "qsep.states"} <= set(patched)
    s = BellDiagonalState(0.1, -0.2, 0.3)
    CHECKED_ONCE[entry](s)
    assert calls == [s]


def test_state_parameters_coerced_and_finite():
    s = BellDiagonalState(1, 0, 0)
    assert isinstance(s.x, float) and isinstance(s.y, float) and isinstance(s.z, float)
    with pytest.raises(ValueError):
        BellDiagonalState(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        BellDiagonalState(0.0, math.inf, 0.0)


@pytest.mark.parametrize("xyz, error, message", [
    ((math.nan, "abc", 0), ValueError, "x must be finite"),
    (("abc", math.nan, 0), ValueError, "could not convert string to float: 'abc'"),
    ((0, math.inf, "abc"), ValueError, "y must be finite"),
    ((0.5, "1e400", None), ValueError, "y must be finite"),
    ((0, 0, -math.inf), ValueError, "z must be finite"),
    ((None, math.nan, 0), TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
    ((0, None, "abc"), TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
    ((0, 0, [1]), TypeError, "float() argument must be a string or a real number, not 'list'"),
])
def test_state_parameters_are_checked_one_at_a_time(xyz, error, message):
    # x, y and z in turn: each is converted by float() and checked finite
    # before the next is touched
    with pytest.raises(error) as failure:
        BellDiagonalState(*xyz)
    assert type(failure.value) is error and str(failure.value) == message


def test_state_parameters_convert_as_float_does():
    s = BellDiagonalState("0.5", True, np.float32(0.25))
    assert (s.x, s.y, s.z) == (0.5, 1.0, 0.25)
    assert all(type(v) is float for v in (s.x, s.y, s.z))


@pytest.mark.parametrize("matrix, error, message", [
    (np.eye(3) / 3.0, ValueError, "density matrix must be 4x4, got shape (3, 3)"),
    (None, ValueError, "density matrix must be 4x4, got shape ()"),
    ([0.25] * 4, ValueError, "density matrix must be 4x4, got shape (4,)"),
    (np.full((4, 4), math.nan), ValueError, "matrix contains non-finite entries"),
    (np.eye(4) / 2.0, UnphysicalStateError, "density matrix trace is 2.0, expected 1"),
    (np.diag([0.5, 0.5, 0.25, -0.25]), UnphysicalStateError,
     "density matrix has negative eigenvalue -0.25"),
    (np.eye(4) / 4.0 + np.triu(np.full((4, 4), 0.1), 1), ValueError,
     "matrix is not Hermitian: max |m - m^H| = 1.000e-01 at entry (0, 1)"),
], ids=["3x3", "none", "flat", "nan", "trace", "negative", "not-hermitian"])
def test_two_qubit_state_messages(matrix, error, message):
    with pytest.raises(error) as failure:
        TwoQubitState(matrix)
    assert type(failure.value) is error and str(failure.value) == message
