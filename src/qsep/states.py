"""The Bell basis and the three-parameter family of Bell-diagonal states.

Conventions, fixed once for the whole package:

* computational basis order is (up-up, up-down, down-up, down-down);
* Bell kets carry real amplitudes +-1/sqrt(2);
* projector order is (phi+, phi-, psi+, psi-), and a state (x, y, z) puts
  weights ((1-x)/4, (1-y)/4, (1-z)/4, (1+x+y+z)/4) on them, in that order,
  as ``xyz_weights`` computes them.

A density matrix obeys three rules, stated once in ``TwoQubitState``: it
is Hermitian, its trace is 1 within DENSITY_TOL, and its eigenvalues are
>= -DENSITY_TOL. numpy is loaded only by the matrix API:
``bell_projectors``, ``TwoQubitState`` and ``bell_diagonal_density``, which
writes each state's matrix from its ``bell_blocks`` rather than summing
projectors. A Bell-diagonal state's weights are its spectrum, so the
``ppt`` route checks them alone, through ``physical_weights``.

Physical states fill the tetrahedron x, y, z <= 1 with x + y + z >= -1,
whose vertices map to the four Bell projectors. ``nonnegative_weights`` is
the one statement of that rule. ``checked_weights`` applies it to four
weights, however they came in, and ``physical_weights`` is the one
physicality check of every public entry point that takes a state.
"""

from __future__ import annotations

import math

from .errors import UnphysicalStateError
from .linalg import Spectrum, hermitian_eigenvalues
from .records import Record

__all__ = ["BellDiagonalState", "PhysicalityCheck", "TwoQubitState", "bell_diagonal_density",
           "bell_projectors", "bell_spectrum", "bell_weights", "is_physical", "werner"]

WEIGHT_TOL = 1e-12
# A density matrix's trace may miss 1, and its eigenvalues 0 from below, by this.
DENSITY_TOL = 1e-11
WEIGHT_LABELS = ("phi+", "phi-", "psi+", "psi-")

_SQRT_HALF = math.sqrt(0.5)
_BELL_KETS = (
    (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF),   # phi+
    (_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF),  # phi-
    (0.0, _SQRT_HALF, _SQRT_HALF, 0.0),   # psi+
    (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0),  # psi-
)


class BellDiagonalState(Record):
    """Mixing parameters (x, y, z) of a Bell-diagonal state, each converted
    by ``float`` and checked finite before the next is read."""

    __slots__ = __match_args__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        if not math.isfinite(x := float(x)):
            raise ValueError("x must be finite")
        if not math.isfinite(y := float(y)):
            raise ValueError("y must be finite")
        if not math.isfinite(z := float(z)):
            raise ValueError("z must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


class PhysicalityCheck(Record):
    """Outcome of the weight-positivity test, with one entry per violation."""

    __slots__ = __match_args__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[str, ...]) -> None:
        super().__init__(ok, violations)

    def __bool__(self) -> bool:
        return self.ok


def xyz_weights(x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """Weights on (phi+, phi-, psi+, psi-) of the parameters (x, y, z), in
    canonical projector order: the one statement of the weight formula."""
    return (
        (1.0 - x) / 4.0,
        (1.0 - y) / 4.0,
        (1.0 - z) / 4.0,
        (1.0 + x + y + z) / 4.0,
    )


def bell_weights(s: BellDiagonalState) -> tuple[float, float, float, float]:
    """Weights on (phi+, phi-, psi+, psi-), in canonical projector order."""
    return xyz_weights(s.x, s.y, s.z)


def bell_spectrum(s: BellDiagonalState) -> Spectrum:
    """Sorted probability spectrum of a physical Bell-diagonal state."""
    return Spectrum.from_values(physical_weights(s), stochastic=True)


def nonnegative_weights(weights) -> bool:
    """True when no weight lies below -WEIGHT_TOL: the physicality rule."""
    return min(weights) >= -WEIGHT_TOL


def _violations(weights) -> tuple[str, ...]:
    return tuple(f"weight[{label}] = {w:.6g} is negative"
                 for label, w in zip(WEIGHT_LABELS, weights) if w < -WEIGHT_TOL)


def is_physical(s: BellDiagonalState) -> PhysicalityCheck:
    """Check all four weights are nonnegative within WEIGHT_TOL."""
    violations = _violations(bell_weights(s))
    return PhysicalityCheck(ok=not violations, violations=violations)


def checked_weights(weights):
    """Four Bell weights in canonical order, returned as given, or
    UnphysicalStateError naming each one below -WEIGHT_TOL (the messages
    of ``is_physical``)."""
    if not nonnegative_weights(weights):
        raise UnphysicalStateError("; ".join(_violations(weights)))
    return weights


def physical_weights(s: BellDiagonalState) -> tuple[float, float, float, float]:
    """bell_weights(s), checked by ``checked_weights``."""
    return checked_weights(bell_weights(s))


def bell_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four Bell projectors as 4x4 complex matrices, canonical order."""
    import numpy as np

    mats = []
    for ket in _BELL_KETS:
        v = np.asarray(ket, dtype=np.complex128)
        mats.append(np.outer(v, v.conj()))
    return tuple(mats)


class TwoQubitState(Record):
    """A validated 4x4 density matrix.

    Construction checks Hermiticity (to ``linalg.HERMITICITY_TOL``), unit
    trace (to ``DENSITY_TOL``) and positive semidefiniteness (eigenvalues
    >= -DENSITY_TOL); the eigenvalue spectrum is kept on the instance.
    States compare and hash by identity.
    """

    __slots__, __match_args__ = ("matrix", "spectrum"), ("matrix",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix: np.ndarray) -> None:
        import numpy as np

        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {arr.shape}")
        spectrum = hermitian_eigenvalues(arr)
        trace = float(arr.trace().real)
        if abs(trace - 1.0) > DENSITY_TOL:
            raise UnphysicalStateError(f"density matrix trace is {trace!r}, expected 1")
        if spectrum.values[-1] < -DENSITY_TOL:
            raise UnphysicalStateError(
                f"density matrix has negative eigenvalue {spectrum.values[-1]!r}")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "TwoQubitState":
        return cls(matrix=m)


def bell_blocks(weights) -> tuple[float, float, float, float]:
    """(a, b, c, d) of the density matrix sum_k w_k P_k of checked Bell
    weights in canonical order: its phi block [[a, b], [b, a]] on (up-up,
    down-down) and its psi block [[c, d], [d, c]] on (up-down, down-up).
    Each adds its two nonzero terms w_k * h in projector order, so it is
    that sum bit for bit."""
    h = _SQRT_HALF * _SQRT_HALF  # each projector entry's magnitude, as rounded
    phi_p, phi_m, psi_p, psi_m = (w * h for w in weights)
    return phi_p + phi_m, phi_p - phi_m, psi_p + psi_m, psi_p - psi_m


def bell_diagonal_density(s: BellDiagonalState) -> TwoQubitState:
    """Density matrix sum_k w_k P_k of a physical Bell-diagonal state,
    written from its ``bell_blocks``, as a TwoQubitState."""
    import numpy as np

    a, b, c, d = bell_blocks(physical_weights(s))
    rows = [[a, 0.0, 0.0, b], [0.0, c, d, 0.0], [0.0, d, c, 0.0], [b, 0.0, 0.0, a]]
    return TwoQubitState(matrix=np.array(rows, dtype=np.complex128))


def werner(x: float) -> BellDiagonalState:
    """The symmetric line (x, x, x), a psi- weight (1+3x)/4 mixed with noise."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {x!r}")
    return BellDiagonalState(x, x, x)
