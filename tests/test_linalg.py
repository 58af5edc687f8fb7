"""Unit tests for the dense linear-algebra layer."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import qsep.linalg
from qsep import (
    ConvergenceError,
    NumericalError,
    Spectrum,
    TwoQubitState,
    UnphysicalStateError,
    bell_diagonal_density,
    classify_state,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor_product,
    trace_power,
    werner,
)
from qsep.states import BellDiagonalState, bell_weights


def test_tensor_product_diagonal_example():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    expected = np.diag([3.0, 4.0, 6.0, 8.0])
    assert np.array_equal(tensor_product(a, b), expected)


def test_tensor_product_slow_index_is_first_factor():
    # row index 2*i_A + i_B: |1><1| (x) I occupies the lower-right block
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    out = tensor_product(p1, np.eye(2))
    assert np.array_equal(out, np.diag([0.0, 0.0, 1.0, 1.0]))


def test_tensor_product_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        tensor_product(np.eye(4), np.eye(2))
    with pytest.raises(ValueError):
        tensor_product(np.eye(2), np.ones((2, 3)))


def test_partial_trace_inverts_tensor_product(rng):
    for _ in range(25):
        a = helpers.random_qubit_density(rng)
        b = helpers.random_qubit_density(rng)
        joint = tensor_product(a, b)
        assert np.allclose(partial_trace(joint, "A"), a, atol=1e-14)
        assert np.allclose(partial_trace(joint, "B"), b, atol=1e-14)


def test_partial_trace_requires_axis_label():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4.0, "C")


def test_partial_transpose_requires_axis_label():
    with pytest.raises(ValueError, match="on must be"):
        partial_transpose(np.eye(4) / 4.0, on="C")


def test_partial_transpose_singlet_spectrum():
    rho = bell_diagonal_density(werner(1.0)).matrix
    spectrum = hermitian_eigenvalues(partial_transpose(rho, on="B"))
    expected = (0.5, 0.5, 0.5, -0.5)
    assert spectrum.values == pytest.approx(expected, abs=1e-12)
    assert not spectrum.stochastic


def test_partial_transpose_involution_and_factor_relation(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = (m + m.conj().T) / 2.0
    assert np.allclose(partial_transpose(partial_transpose(m, "A"), "A"), m, atol=0)
    assert np.allclose(partial_transpose(m, "B"), partial_transpose(m, "A").T, atol=0)


def test_partial_transpose_spectrum_is_half_minus_weights(rng):
    # For Bell-diagonal states the partial-transpose eigenvalues are exactly
    # {1/2 - w_k}, which is what makes the PPT test a max-weight test.
    for xyz in helpers.random_physical_triples(rng, 50):
        s = BellDiagonalState(*xyz)
        rho = bell_diagonal_density(s).matrix
        got = sorted(hermitian_eigenvalues(partial_transpose(rho, "B")).values)
        expected = sorted(0.5 - w for w in bell_weights(s))
        assert got == pytest.approx(expected, abs=1e-12)


def test_jacobi_matches_reference_solver(rng):
    for dim in (2, 4):
        for _ in range(100):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (m + m.conj().T) / 2.0
            scale = float(10.0 ** rng.integers(-3, 3))
            m = m * scale
            got = hermitian_eigenvalues(m).values
            expected = sorted(np.linalg.eigvalsh(m), reverse=True)
            assert got == pytest.approx(expected, abs=1e-11 * max(1.0, abs(scale)))
    # the matrices the ppt classifier solves: Bell-diagonal densities and
    # their partial transposes
    for xyz in helpers.random_physical_triples(rng, 100):
        rho = bell_diagonal_density(BellDiagonalState(*xyz)).matrix
        for m in (rho, partial_transpose(rho, "B")):
            got = hermitian_eigenvalues(m).values
            expected = sorted(np.linalg.eigvalsh(m), reverse=True)
            assert got == pytest.approx(expected, abs=1e-12)


def test_jacobi_raises_when_the_sweeps_run_out(monkeypatch):
    # only a 4x4 matrix sweeps: a 2x2 one is solved in closed form
    monkeypatch.setattr(qsep.linalg, "MAX_SWEEPS", 0)
    m = [[0.4, 0.1j, 0.0, 0.05], [-0.1j, 0.3, 0.0, 0.0], [0.0, 0.0, 0.2, 0.05],
         [0.05, 0.0, 0.05, 0.1]]
    with pytest.raises(ConvergenceError, match="0 sweeps"):
        hermitian_eigenvalues(m)
    assert hermitian_eigenvalues([[0.5, 0.25], [0.25, 0.5]]).values == (0.75, 0.25)


def test_hermitian_eigenvalues_rejects_asymmetry():
    # |m - m^H| is symmetric: the first largest entry, row-major, is named,
    # and it lies above the diagonal
    cases = (([(0, 1)], (0, 1)), ([(1, 0)], (0, 1)), ([(2, 3), (0, 3)], (0, 3)))
    for entries, (i, j) in cases:
        m = np.eye(4, dtype=complex)
        for entry in entries:
            m[entry] += 1e-6
        with pytest.raises(ValueError, match=rf"not Hermitian.*\({i}, {j}\)"):
            hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_symmetrises_tiny_asymmetry():
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 1] += 1e-11
    spectrum = hermitian_eigenvalues(m)
    assert spectrum.values == pytest.approx((0.4, 0.3, 0.2, 0.1), abs=1e-10)


@pytest.mark.parametrize("as_array", [False, True], ids=["rows", "array"])
def test_hermiticity_bound_is_relative_to_entries_above_one(as_array, rng):
    def solve(m):
        return hermitian_eigenvalues(np.array(m) if as_array else m)

    # a large Hermitian matrix whose only asymmetry is rounding is solved
    for scale in (1.0, 1e7, 1e12):
        for _ in range(10):
            q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            m = scale * (q @ np.diag(rng.uniform(size=4)) @ q.conj().T)
            expected = sorted(np.linalg.eigvalsh(m), reverse=True)
            assert solve(m.tolist()).values == pytest.approx(expected, rel=0, abs=1e-14 * scale)
    # the bound is HERMITICITY_TOL times the largest entry, or times 1 below that
    for m, ok in (([[1e3, 5e-8], [0.0, 1e3]], True), ([[1e3, 2e-7], [0.0, 1e3]], False),
                  ([[1.0, 5e-11], [0.0, 1.0]], True), ([[1.0, 2e-10], [0.0, 1.0]], False),
                  ([[1e-3, 2e-10], [0.0, 1e-3]], False)):
        if ok:
            solve(m)
        else:
            with pytest.raises(ValueError, match=r"not Hermitian.*\(0, 1\)"):
                solve(m)


@st.composite
def hermitian_rows(draw, dims=(2, 4)):
    """A Hermitian matrix of a dimension in dims as nested lists, entries
    drawn as floats and complex numbers, the lower triangle off by up to
    1e-12."""
    n = draw(st.sampled_from(dims))
    entry = st.floats(-10.0, 10.0)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(entry)
        for j in range(i + 1, n):
            rows[i][j] = draw(st.one_of(entry, st.builds(complex, entry, entry)))
            rows[j][i] = complex(rows[i][j]).conjugate() + draw(st.floats(-1e-12, 1e-12))
    return rows


@st.composite
def real_rows(draw, dims=(2, 4)):
    """A real symmetric matrix of a dimension in dims as nested lists of
    Python floats, signed zeros and subnormals among the entries, each
    mirror entry equal or off by up to 1e-12."""
    n = draw(st.sampled_from(dims))
    entry = st.one_of(st.floats(-10.0, 10.0), st.sampled_from((0.0, -0.0, 5e-324, -2.5e-320)))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(entry)
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            off = draw(st.one_of(st.none(), st.floats(-1e-12, 1e-12)))
            rows[j][i] = rows[i][j] if off is None else rows[i][j] + off
    return rows


def _bits(spectrum: Spectrum) -> tuple:
    return tuple(struct.pack("<d", v) for v in spectrum.values), spectrum.stochastic


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.one_of(hermitian_rows(), real_rows()))
@example([[-0.0, 0.0], [0.0, 0.25]])  # a -0.0 eigenvalue is +0.0 on both routes
# mirrored -0.0 entries, and an off-diagonal pair too small to rotate
@example([[0.5, -0.0, 0.0, 0.0], [-0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.25, 1e-300],
          [0.0, 0.0, 1e-300, -0.0]])
def test_rows_and_their_array_have_one_spectrum(rows):
    snapshot = [list(row) for row in rows]
    by_rows = hermitian_eigenvalues(rows)
    assert _bits(by_rows) == _bits(hermitian_eigenvalues(np.array(rows)))
    assert repr(rows) == repr(snapshot)  # the caller's rows, signed zeros included


def _cyclic_sweep(a: list[list[complex]]) -> list[float]:
    """The cyclic Jacobi sweep, for any dimension: the reference that the
    2x2 closed form must match bit for bit."""
    n = len(a)
    sweep = tuple((p, q, tuple(i for i in range(n) if i not in (p, q)))
                  for p in range(n - 1) for q in range(p + 1, n))
    for _ in range(100):
        off = max([abs(a[p][q]) for p, q, _ in sweep])
        if off < qsep.linalg.OFFDIAG_TOL:
            return [a[i][i].real for i in range(n)]
        for p, q, others in sweep:
            ap, aq = a[p], a[q]
            apq = ap[q]
            mag = abs(apq)
            if mag < qsep.linalg.OFFDIAG_TOL * 1e-2:
                continue
            phase = apq * (1.0 / mag)
            app, aqq = ap[p].real, aq[q].real
            tau = (aqq - app) / (2.0 * mag)
            t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
            if tau < 0.0:
                t = -t
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            phase_c = phase.conjugate()
            phase_s, phase_cc = phase_c * s, phase_c * c
            for i in others:
                ai = a[i]
                vip, viq = ai[p], ai[q]
                ai[p] = new_ip = c * vip - phase_s * viq
                ai[q] = new_iq = s * vip + phase_cc * viq
                ap[i] = new_ip.conjugate()
                aq[i] = new_iq.conjugate()
            ap[p] = app - t * mag
            aq[q] = aqq + t * mag
            ap[q] = 0.0
            aq[p] = 0.0
    raise AssertionError("the reference sweep did not converge")


_TOL = qsep.linalg.OFFDIAG_TOL
_BELOW_TOL = math.nextafter(_TOL, 0.0)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.one_of(hermitian_rows(dims=(2,)), real_rows(dims=(2,))))
# |a01| at OFFDIAG_TOL is rotated, one ulp below it is not
@example([[0.5, _TOL], [_TOL, 0.25]])
@example([[0.5, _BELOW_TOL], [_BELOW_TOL, 0.25]])
@example([[0.5, -_TOL], [-_TOL, 0.5]])
@example([[0.5, complex(0.0, _TOL)], [complex(0.0, -_TOL), 0.25]])
@example([[0.5, complex(0.0, _BELOW_TOL)], [complex(0.0, -_BELOW_TOL), 0.25]])
# signed zeros: a -0.0 difference of the diagonal, and -0.0 entries
@example([[0.0, 0.5], [0.5, -0.0]])
@example([[-0.0, -0.0], [-0.0, -0.0]])
@example([[-0.0, 0.25], [0.25, -0.0]])
# subnormals, on the diagonal and off it
@example([[5e-324, 0.5], [0.5, -2.5e-320]])
@example([[0.25, 5e-324], [5e-324, -0.25]])
# large enough to be solved scaled by 2**-8; 256 * OFFDIAG_TOL scales to it
@example([[1e308, 1e307], [1e307, -1e308]])
@example([[1.7e308, 256.0 * _TOL], [256.0 * _TOL, 1.7e308]])
@example([[1e308, complex(3e307, -4e307)], [complex(3e307, 4e307), 1e308]])
def test_a_2x2_solve_is_the_cyclic_sweep_bit_for_bit(rows):
    spectrum = hermitian_eigenvalues(rows)
    with mock.patch.object(qsep.linalg, "_jacobi_eigenvalues", _cyclic_sweep):
        assert _bits(spectrum) == _bits(hermitian_eigenvalues(rows))


def _solver_entry_types(monkeypatch) -> list[tuple[int, set]]:
    """Patch the Jacobi solver to record the dimension and the entry types
    of each matrix it is given."""
    seen, solve = [], qsep.linalg._jacobi_eigenvalues

    def recording(a):
        seen.append((len(a), {type(v) for row in a for v in row}))
        return solve(a)

    monkeypatch.setattr(qsep.linalg, "_jacobi_eigenvalues", recording)
    return seen


def test_bell_ppt_rows_reach_the_solver_as_floats(monkeypatch):
    seen = _solver_entry_types(monkeypatch)
    classify_state(BellDiagonalState(0.3, -0.2, 0.1), "ppt")
    # the partial transpose's two 2x2 blocks; rho itself is not solved
    assert seen == [(2, {float}), (2, {float})]


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1]],
    [[True, False], [False, True]],
    [[np.float64(0.5), 0.0], [0.0, 0.5]],
    [[0.5, 0.0], [0.0, 0.5 + 0j]],
    np.eye(2),
], ids=["int", "bool", "numpy-scalar", "complex", "array"])
def test_rows_not_all_floats_take_the_complex_route(monkeypatch, rows):
    seen = _solver_entry_types(monkeypatch)
    hermitian_eigenvalues(rows)
    assert seen == [(2, {complex})]


@pytest.mark.parametrize("as_array", [False, True], ids=["rows", "array"])
def test_huge_entries_are_solved_scaled(as_array, rng):
    # (m + m^H)/2 of these entries overflows unless the matrix is scaled
    cases = [[[1e308, 1e307], [1e307, -1e308]], [[1.7e308, 0.0], [0.0, 1.7e308]]]
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cases.append(((m + m.conj().T) * 2e306).tolist())
    for m in cases:
        got = hermitian_eigenvalues(np.array(m) if as_array else m).values
        expected = sorted(np.linalg.eigvalsh(np.array(m)), reverse=True)
        assert got == pytest.approx(expected, rel=0, abs=1e-13 * max(map(abs, expected)))
    # an eigenvalue beyond the largest float, and a huge asymmetry
    for m, message in (([[1e308, 1e308], [1e308, 1e308]], "must be finite"),
                       ([[1e308, 1e300], [0.0, 1e308]], r"not Hermitian.*\(0, 1\)")):
        with pytest.raises(ValueError, match=message):
            hermitian_eigenvalues(np.array(m) if as_array else m)


@pytest.mark.parametrize("rows, message", [
    ([[1.0, 0.0], [0.0]], "must be square"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "must be square"),
    ([1.0, 0.0], "must be square"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "2x2 or 4x4, got 3"),
    ([], "2x2 or 4x4, got 0"),
    ([[1.0, math.nan], [math.nan, 1.0]], "non-finite"),
    ([[1.0, 0.0], [0.0, complex(0.0, math.inf)]], "non-finite"),
    ([[None, 0.0], [0.0, 1.0]], "must be numbers"),
    ([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]], "must be numbers"),
    ([[1.0, 1e-6], [0.0, 1.0]], r"not Hermitian.*\(0, 1\)"),
])
def test_rows_are_checked_as_an_array_is(rows, message):
    with pytest.raises(ValueError, match=message):
        hermitian_eigenvalues(rows)


def test_rows_that_are_not_lists_go_through_numpy():
    assert hermitian_eigenvalues([(0.75, 0.25), (0.25, 0.75)]).values == (1.0, 0.5)


@pytest.mark.parametrize("rows, error, message", [
    ([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0]],
     UnphysicalStateError, "trace is 1.5, expected 1"),
    ([[0.75, 0.5, 0.0, 0.0], [0.5, 0.25, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
     UnphysicalStateError, "negative eigenvalue -0.0590169943"),
    ([[-0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0], [0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, -0.0]],
     UnphysicalStateError, "trace is 0.0, expected 1"),
    ([[0.4, 1e-6, 0.0, 0.0], [0.0, 0.3, 0.0, 0.0], [0.0, 0.0, 0.2, 0.0], [0.0, 0.0, 0.0, 0.1]],
     ValueError, r"not Hermitian: max \|m - m\^H\| = 1.000e-06 at entry \(0, 1\)"),
], ids=["trace", "negative-eigenvalue", "zero-trace", "not-hermitian"])
def test_density_rows_fail_as_a_two_qubit_state_does(rows, error, message):
    # TwoQubitState states the density rules once, for rows and arrays alike
    for m in (rows, np.array(rows)):
        with pytest.raises(error, match=message) as failure:
            TwoQubitState(m)
        assert type(failure.value) is error
    if "trace" in str(failure.value):  # numpy's own trace, sign of zero included
        assert f"trace is {float(np.array(rows).trace().real)!r}," in str(failure.value)


def test_density_rows_have_the_two_qubit_state_spectrum():
    # the density checks keep the eigensolver's spectrum of the rows, bit for bit
    rows = [[0.4, 0.1j, 0.0, 0.0], [-0.1j, 0.3, 0.0, 0.0], [0.0, 0.0, 0.2, 0.05],
            [0.0, 0.0, 0.05, 0.1]]
    assert _bits(TwoQubitState(np.array(rows)).spectrum) == _bits(hermitian_eigenvalues(rows))


def test_spectrum_sorts_descending_and_detects_stochastic():
    s = Spectrum.from_values([0.1, 0.7, 0.2])
    assert s.values == (0.7, 0.2, 0.1)
    assert s.stochastic
    assert s.dim == 3
    assert not Spectrum.from_values([0.5, 0.2]).stochastic
    # sums to one but has a genuinely negative entry: not a probability vector
    assert not Spectrum.from_values([0.6, 0.5, -0.1]).stochastic
    # finite values whose sum overflows
    assert not Spectrum.from_values([1e308, 1e308, 0.0, 0.0]).stochastic


def test_spectrum_rejects_bad_explicit_stochastic_flag():
    with pytest.raises(ValueError, match="not a probability spectrum"):
        Spectrum.from_values([0.5, 0.5, 0.5, 0.5], stochastic=True)
    with pytest.raises(ValueError, match="not a probability spectrum"):
        Spectrum.from_values([0.6, 0.5, -0.1], stochastic=True)
    with pytest.raises(ValueError, match="not a probability spectrum"):
        Spectrum.from_values([1e308, 1e308, 0.0, 0.0], stochastic=True)


def test_spectrum_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        Spectrum.from_values([])
    with pytest.raises(ValueError):
        Spectrum.from_values([0.5, math.inf])


def test_spectrum_uniform():
    u = Spectrum.uniform(4)
    assert u.values == (0.25,) * 4
    assert u.stochastic
    with pytest.raises(ValueError):
        Spectrum.uniform(0)


def test_trace_power_closed_forms():
    w = Spectrum.from_values([0.125, 0.125, 0.125, 0.625], stochastic=True)
    assert trace_power(w, 2.0) == pytest.approx(7.0 / 16.0, abs=1e-15)
    assert trace_power(Spectrum.uniform(2), 3.0) == pytest.approx(0.25, abs=1e-16)


def test_trace_power_runs_over_support_only():
    s = Spectrum.from_values([0.5, 0.5, 0.0, 0.0], stochastic=True)
    assert trace_power(s, 0.0) == 2.0
    assert trace_power(s, -1.0) == 4.0


def test_trace_power_requires_stochastic_and_finite_q():
    pt = hermitian_eigenvalues(
        partial_transpose(bell_diagonal_density(werner(1.0)).matrix, "B")
    )
    with pytest.raises(ValueError):
        trace_power(pt, 2.0)
    with pytest.raises(ValueError):
        trace_power(Spectrum.uniform(2), math.inf)


def test_convergence_error_is_a_numerical_error():
    assert issubclass(ConvergenceError, NumericalError)
    assert isinstance(ConvergenceError("x"), NumericalError)
