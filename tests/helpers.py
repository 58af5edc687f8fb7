"""Helpers shared by the test modules: seeded numpy draws, hypothesis
strategies and the reference bisection."""

from __future__ import annotations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from qsep import BellDiagonalState
from qsep.states import WEIGHT_TOL, bell_weights, nonnegative_weights


def random_physical_triples(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """Uniform draws over the Bell-weight simplex, returned as (x, y, z)."""
    draws = rng.dirichlet(np.ones(4), size=n)
    return [
        (1.0 - 4.0 * w1, 1.0 - 4.0 * w2, 1.0 - 4.0 * w3)
        for w1, w2, w3, _ in draws
    ]


def random_qubit_density(rng: np.random.Generator, floor: float = 0.3) -> np.ndarray:
    """A random single-qubit density matrix with spectrum >= floor/2.

    Mixing with the maximally mixed state keeps every eigenvalue bounded away
    from zero, so power sums stay well conditioned at negative q.
    """
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    rho = rho / rho.trace().real
    return (1.0 - floor) * rho + floor * np.eye(2) / 2.0


def random_octahedron_interior(rng: np.random.Generator, n: int,
                               margin: float = 1e-3) -> list[tuple[float, float, float]]:
    """Points strictly inside the max-weight <= 1/2 octahedron."""
    points: list[tuple[float, float, float]] = []
    while len(points) < n:
        x, y, z = rng.uniform(-1.0 + margin, 1.0 - margin, size=3)
        if -1.0 + margin <= x + y + z <= 1.0 - margin:
            points.append((float(x), float(y), float(z)))
    return points


def bisect(above, lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] after halving it to a width of at most tol.

    ``above(t)`` tells whether t lies on the ``hi`` side of the change being
    located. tol must be finite and positive. Halving also stops once the
    midpoint rounds onto an end, so a tol below the float spacing still
    returns. A reference independent of the package's root finder.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def state_from_weights(weights) -> BellDiagonalState:
    """The state with Bell weights (w1, w2, w3, w4); the trace fixes w4."""
    w1, w2, w3, _ = weights
    return BellDiagonalState(1.0 - 4.0 * w1, 1.0 - 4.0 * w2, 1.0 - 4.0 * w3)


def _state_from_cuts(cuts: list[float]) -> BellDiagonalState:
    a, b, c = sorted(cuts)
    return state_from_weights((a, b - a, c - b, 1.0 - c))


def tetrahedron_states():
    """Hypothesis strategy for states uniform in the physical tetrahedron.

    The gaps between three sorted uniform cuts of [0, 1] are uniform on the
    Bell-weight simplex; the fourth weight is what the state's trace leaves.
    """
    return st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(_state_from_cuts)


@st.composite
def edge_states(draw):
    """Hypothesis strategy for states just outside the tetrahedron that the
    physicality rule still accepts: one to three Bell weights drawn in
    [-WEIGHT_TOL, 0), the others uniform on the simplex of what is left.
    Draws whose weights, recomputed from (x, y, z), fall below -WEIGHT_TOL
    are rejected."""
    small = draw(st.lists(st.floats(-WEIGHT_TOL, 0.0, exclude_max=True), min_size=1, max_size=3))
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3 - len(small),
                                max_size=3 - len(small))))
    rest = [(hi - lo) * (1.0 - sum(small)) for lo, hi in zip([0.0, *cuts], [*cuts, 1.0])]
    s = state_from_weights(draw(st.permutations(small + rest)))
    assume(nonnegative_weights(bell_weights(s)))
    return s
