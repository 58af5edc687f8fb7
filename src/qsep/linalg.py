"""Dense complex linear algebra for 2x2 and 4x4 Hermitian operators, and the
``Spectrum`` its eigensolver returns; power sums over a spectrum are in
``entropy``.

Operators are nested lists of rows, or anything ``numpy.asarray`` turns
into a complex128 matrix. ``hermitian_eigenvalues`` checks and solves a
nested list in pure Python; numpy is imported by the functions that take
an array or return a matrix, not with this module, so the package's
scalar paths and its Bell-diagonal ``ppt`` route start without it. Composite
operators on two qubits use the row index convention 2*i_A + i_B, so the
first tensor factor is the slow index. Eigenvalues come from a Jacobi
solver so the package does not depend on LAPACK behaviour for its core
results; tests cross-check it against an independent solver. A 2x2 matrix
takes one rotation in closed form, with no sweep and no convergence test; a
4x4 matrix is swept cyclically. The solver, its Hermiticity check and the
symmetrisation run on the matrix as nested lists of Python numbers: floats
when every entry of the rows given is a float (real symmetric rows, such as
the 2x2 blocks of the partial transpose that the Bell-diagonal ``ppt`` route
solves, stay real), complex numbers otherwise. For a 4x4 matrix that is
several times faster than indexing numpy scalars, and it is still free of
LAPACK. A 2x2 matrix given as two rows of Python floats, whose entries'
magnitudes sum to less than 2**1020, takes one straight-line pass: the
symmetrisation and the Hermiticity check of the general pass, written out
for its three distinct entries, then the closed-form rotation, with no
copy of the rows and no loop over them. Every outcome of that pass, a
spectrum's bits or an error's message, is the general route's.
``hermitian_eigenvalues`` builds its ``Spectrum`` in the one pass that
``Spectrum.from_values`` also takes.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from itertools import chain

from .errors import ConvergenceError
from .records import Record

__all__ = ["Spectrum", "hermitian_eigenvalues", "partial_trace", "partial_transpose",
           "tensor_product"]

# Largest |m - m^H| entry an eigensolve accepts, in units of the largest
# entry of (m + m^H)/2 when that exceeds 1.
HERMITICITY_TOL = 1e-10
# Jacobi convergence: largest off-diagonal magnitude after a full sweep of a
# 4x4 matrix; a 2x2 off-diagonal entry below it is not rotated.
OFFDIAG_TOL = 1e-13
# Sweeps a 4x4 matrix may take; a 2x2 matrix never sweeps.
MAX_SWEEPS = 100
STOCHASTIC_TOL = 1e-9
# Matrices whose entries' magnitudes sum to this or more are solved scaled
# by 2**-8. Below it no step of the solve can overflow: that sum bounds the
# spectral norm, hence every entry of every rotated matrix, and no
# intermediate exceeds twice it.
_UNSCALED_MAX = 2.0 ** 1020


class Spectrum(Record):
    """Real eigenvalues stored in descending order.

    ``stochastic`` marks spectra that are probability weights: nonnegative
    within STOCHASTIC_TOL and summing to one within the same tolerance.
    Entropy functions require that flag; raw operator spectra (for example a
    partial transpose with a negative eigenvalue) simply carry it as False.
    """

    __slots__ = __match_args__ = ("values", "stochastic")

    def __init__(self, values: tuple[float, ...], stochastic: bool) -> None:
        store_values, store_stochastic = self._stores
        store_values(self, values)
        store_stochastic(self, stochastic)

    @classmethod
    def from_values(cls, values: Iterable[float], stochastic: bool | None = None) -> "Spectrum":
        return _spectrum(list(map(float, values)), stochastic)

    @classmethod
    def uniform(cls, dim: int) -> "Spectrum":
        # an integer of any type but bool, as sequence repetition takes it
        if isinstance(dim, bool) or not hasattr(dim, "__index__") or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        return cls(values=(1.0 / dim,) * dim, stochastic=True)

    @property
    def dim(self) -> int:
        return len(self.values)


def _spectrum(vals: list[float], stochastic: bool | None = None) -> Spectrum:
    """The Spectrum of a list of floats, sorted in place: the one pass that
    checks them finite, sums them once and flags a probability spectrum."""
    if not vals:
        raise ValueError("spectrum needs at least one eigenvalue")
    vals.sort(reverse=True)
    if not all(map(math.isfinite, vals)):
        raise ValueError("spectrum values must be finite")
    try:
        total = math.fsum(vals)
    except OverflowError:  # a partial sum of finite values does not fit a float
        # scaled by a power of two above len(vals), no partial sum overflows;
        # scaled back, the sum is finite or an infinity of its sign
        scale = 2.0 ** len(vals).bit_length()
        total = math.fsum([v / scale for v in vals]) * scale
    looks_stochastic = abs(total - 1.0) <= STOCHASTIC_TOL and vals[-1] >= -STOCHASTIC_TOL
    if stochastic is None:
        stochastic = looks_stochastic
    elif stochastic and not looks_stochastic:
        raise ValueError(
            f"values are not a probability spectrum: sum = {total!r}, min = {vals[-1]!r}"
        )
    return Spectrum(tuple(vals), bool(stochastic))


def _as_operator(m: np.ndarray, dims: tuple[int, ...], name: str = "matrix") -> np.ndarray:
    import numpy as np

    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] not in dims:
        raise ValueError(f"{name} must have dimension in {dims}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit operators."""
    import numpy as np

    a = _as_operator(a, (2,), "a")
    b = _as_operator(b, (2,), "b")
    return np.kron(a, b)


def partial_trace(m: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator, keeping subsystem A or B."""
    import numpy as np

    arr = _as_operator(m, (4,))
    t = arr.reshape(2, 2, 2, 2)  # axes (i_A, i_B, j_A, j_B)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("ikil->kl", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(m: np.ndarray, on: str) -> np.ndarray:
    """Transpose one tensor factor of a two-qubit operator."""
    arr = _as_operator(m, (4,))
    t = arr.reshape(2, 2, 2, 2)
    if on == "A":
        out = t.transpose(2, 1, 0, 3)
    elif on == "B":
        out = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"on must be 'A' or 'B', got {on!r}")
    return out.reshape(4, 4).copy()


# Entries (i, j) with i <= j, row-major: the Hermiticity pass's order.
_UPPER = {n: tuple((i, j) for i in range(n) for j in range(i, n)) for n in (2, 4)}

# Rotation order of one cyclic sweep of a 4x4 matrix: each pair (p, q) with
# p < q, row-major, and the indices the rotation mixes into it.
_SWEEP_ORDER = tuple((p, q, tuple(i for i in range(4) if i not in (p, q)))
                     for p in range(3) for q in range(p + 1, 4))


def _not_hermitian(amax: float, at: tuple[int, int]) -> ValueError:
    return ValueError(f"matrix is not Hermitian: max |m - m^H| = {amax:.3e} at entry {at}")


def _jacobi_eigenvalues(a: list[list[complex]]) -> list[float]:
    """Jacobi diagonalisation of a Hermitian 2x2 or 4x4 matrix, given as rows.

    Each step applies an exact 2x2 unitary rotation (a real Givens rotation
    composed with a phase) that annihilates one off-diagonal pair; on real
    symmetric rows the phase is a float and the rows stay real. A 2x2
    matrix takes one rotation, in closed form (Golub & Van Loan's 2-by-2
    symmetric Schur decomposition), or none when its off-diagonal magnitude
    is below OFFDIAG_TOL: it never sweeps and cannot fail. A 4x4 matrix is
    swept cyclically until the largest off-diagonal magnitude drops below
    OFFDIAG_TOL; more than MAX_SWEEPS sweeps raises ConvergenceError. The
    rows are updated in place.
    """
    if len(a) == 2:
        # the sweep's rotation, with the same roundings, leaves it diagonal
        (app, apq), (_, aqq) = a
        mag, app, aqq = abs(apq), app.real, aqq.real
        if mag < OFFDIAG_TOL:
            return [app, aqq]
        tau = (aqq - app) / (2.0 * mag)
        t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
        if tau < 0.0:
            t = -t
        return [app - t * mag, aqq + t * mag]
    hypot, sqrt = math.hypot, math.sqrt
    for _ in range(MAX_SWEEPS):
        off = max([abs(a[p][q]) for p, q, _ in _SWEEP_ORDER])
        if off < OFFDIAG_TOL:
            return [a[i][i].real for i in range(4)]
        for p, q, others in _SWEEP_ORDER:
            ap, aq = a[p], a[q]
            apq = ap[q]
            mag = abs(apq)
            if mag < OFFDIAG_TOL * 1e-2:
                continue
            # apq * (1 / mag), not apq / mag: numpy's complex division rounds
            # this way, so the spectra match numpy-array arithmetic bit for bit
            phase = apq * (1.0 / mag)
            app, aqq = ap[p].real, aq[q].real
            tau = (aqq - app) / (2.0 * mag)
            t = 1.0 / (abs(tau) + hypot(1.0, tau))
            if tau < 0.0:
                t = -t
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            phase_c = phase.conjugate()
            # phase_c * s * viq multiplies left to right: the same roundings
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
    raise ConvergenceError(
        f"Jacobi eigensolver did not converge within {MAX_SWEEPS} sweeps"
    )


def hermitian_eigenvalues(m: list[list[complex]] | np.ndarray) -> Spectrum:
    """Eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending.

    m is an array, or a list of row lists, which is checked as
    ``_as_operator`` checks an array (square, of dimension 2 or 4, finite)
    without numpy. Rows whose entries are all Python floats are copied and
    solved in real arithmetic; any other rows are converted by complex(),
    which gives each entry the value numpy's complex128 conversion gives it.
    Float rows give the Spectrum their complex values give, bit for bit. The
    caller's matrix is left as it was. Inputs may deviate from exact
    Hermiticity, in any entry, by at most HERMITICITY_TOL times the larger
    of 1 and the largest magnitude in (m + m^H)/2; the pass that checks
    this also symmetrises the matrix; 2x2 float rows below the scaling
    sum take it straight-line, with the same result. A matrix whose entries'
    magnitudes sum to 2**1020 or more is solved scaled by 2**-8, an exact
    power of two, so that no step overflows; below that sum nothing is
    scaled. Probability spectra (sum one, nonnegative) come back flagged
    stochastic.
    """
    if (type(m) is list and len(m) == 2 and type(m[0]) is type(m[1]) is list
            and len(m[0]) == len(m[1]) == 2):
        (a, b), (c, d) = m
        # the general pass's sum, left to right as sum() adds floats before
        # Python 3.12, so both take one scale; false for nan and inf, which
        # that pass then rejects
        if type(a) is type(b) is type(c) is type(d) is float and (
                abs(a) + abs(b) + abs(c) + abs(d) < _UNSCALED_MAX):
            # that pass, straight-line: |m - m^H| is 0 but at (0, 1)
            amax, b = abs(b - c), (b + c + 0.0) / 2.0
            a, d = (a + a + 0.0) / 2.0, (d + d + 0.0) / 2.0
            if amax > HERMITICITY_TOL and amax > HERMITICITY_TOL * max(abs(a), abs(b), abs(d)):
                raise _not_hermitian(amax, (0, 1))
            return _spectrum(_jacobi_eigenvalues([[a, b], [b, d]]))
    real = False
    if not (isinstance(m, list) and all([isinstance(row, list) for row in m])):
        rows = _as_operator(m, (2, 4)).tolist()
    elif len(m) not in (2, 4) or any([len(row) != len(m) for row in m]):
        raise ValueError(f"matrix must be square, 2x2 or 4x4, got {len(m)} rows")
    elif all(type(v) is float for row in m for v in row):
        real, rows = True, [row[:] for row in m]
    else:
        try:
            rows = [list(map(complex, row)) for row in m]
        except TypeError:  # None, or a list one level too deep
            raise ValueError("matrix entries must be numbers") from None
    scale = 1.0
    if not sum(map(abs, chain.from_iterable(rows))) < _UNSCALED_MAX:
        if not all(map(cmath.isfinite, chain.from_iterable(rows))):
            raise ValueError("matrix contains non-finite entries")
        # each entry is below 2**1024, so below 2**1016 once scaled: the
        # scaled sum of at most 16 is below _UNSCALED_MAX
        scale = 2.0 ** 8
        rows = [[v / scale for v in row] for row in rows]
    # |m - m^H| is symmetric: its first maximum, row-major, has i <= j. Each
    # (m + m^H)/2 entry is its own sum; a mirror's conjugate may flip a zero.
    # A complex divided by 2.0 has real part (re + im * 0.0) / 2.0, which
    # turns a -0.0 sum into +0.0; adding 0.0 gives a real entry those bits.
    amax, at = 0.0, (0, 0)
    for i, j in _UPPER[len(rows)]:
        ri, rj = rows[i], rows[j]
        mij, mji = ri[j], rj[i]
        if real:
            d = abs(mij - mji)
            ri[j] = rj[i] = (mij + mji + 0.0) / 2.0
        else:
            d = abs(mij - mji.conjugate())
            ri[j], rj[i] = (mij + mji.conjugate()) / 2.0, (mji + mij.conjugate()) / 2.0
        if d > amax:
            amax, at = d, (i, j)
    amax *= scale
    # the largest entry is looked up only past the absolute bound: the common
    # path pays nothing, and entries of at most 1 keep that bound exactly
    if amax > HERMITICITY_TOL and (
            amax > HERMITICITY_TOL * scale * max(map(abs, chain.from_iterable(rows)))):
        raise _not_hermitian(amax, at)
    values = _jacobi_eigenvalues(rows)
    if scale != 1.0:
        values = [v * scale for v in values]
    return _spectrum(values)
