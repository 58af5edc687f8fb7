"""Critical entropic index and the entanglement order parameter.

For an entangled Bell-diagonal state the conditional entropy S_q(B|A), seen
as a function of q, switches from convex to concave at a finite index q_I
(the inflexion point) and then dives towards minus infinity. Separable
states keep positive curvature on the whole searched range, so no inflexion
exists there. The order parameter

    eta = 1 / (1 + q_I)

is zero when q_I is absent and tends to one as a state approaches a Bell
vertex; at the exact vertices eta = 1 is assigned by that limit convention.

The search is resolution limited: close to the critical planes q_I grows
without bound, and any state whose q_I exceeds ``q_max`` (default 200)
reports no inflexion. The second derivative is the exact one of
``entropy.entropy_kernel``. Its own q-derivative,

    S'''(q) = -sum_k w_k L_k^4 phi_3((q - 1) L_k),  phi_3 > 0,

is negative unless every L_k = ln(2 w_k) vanishes (two weights of 1/2, where
S'' = 0 throughout). So S'' falls strictly in q and changes sign at most
once, from + to -. The search rests on that fact but never evaluates S'''.
It first evaluates S'' at q_max, the top of a log-spaced grid of
SEARCH_POINTS points, which ``log_grid`` builds once per q_max. Unless
S''(q_max) < 0, no grid point is concave, and that one evaluation reports no
inflexion. Otherwise it binary-searches the rest of the grid for the first
point where S'' < 0, reusing the value at q_max. Provided S'' is finite at
both ends of the interval ending there and changes sign across it, the root
inside is found on S'' alone by the package's one root finder,
``separability.secant_root``, with tol = 0: it ends once a secant step moves
q by at most 2 ulp or the midpoint rounds onto an end, with q_I at the
precision of the computed S''. States with S'' = 0 throughout, a root below
Q_FLOOR, or S'' overflowing at the end of the interval report no inflexion.

A state is a vertex when its support, the weights above ``EPS_SUPPORT``
that ``bell_log_pairs`` keeps for the kernel, is one weight: S'' < 0 at
every q there, so there is no sign change, and the limit convention gives
eta = 1. The report depends on a state only through the multiset of its
four Bell weights, bit for bit: the physicality test takes their ``min``,
``bell_log_pairs`` tests and maps each weight on its own, and
``entropy_kernel`` sums its terms with the correctly rounded
``math.fsum``, whose result does not depend on their order. Every state
with the same sorted weights therefore gets the same bracket, the same S''
values and the same secant path.

``order_parameter`` checks q_max and the state once each, then hands the
weights to ``inflexion_report``, the report from checked weights: the
vertex rule, then the search. ``eta_field`` and the CLI's ``figure fig3``
call ``inflexion_report`` once per distinct multiset of a grid, on the
sorted weights that ``separability.by_weight_multiset`` keys on, which are
the floats whose physicality the grid enumeration has tested.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .entropy import bell_log_pairs, entropy_kernel
from .records import Record
from .states import BellDiagonalState, physical_weights
from .separability import (AxisSpec, by_weight_multiset, grid_axes, grid_results,
                           log_grid, secant_root)

__all__ = ["CriticalityReport", "eta_field", "inflexion_point", "order_parameter"]

Q_FLOOR = 1e-3
Q_MAX_DEFAULT = 200.0
SEARCH_POINTS = 240


class CriticalityReport(Record):
    """Inflexion search outcome plus the diagnostics behind it.

    ``bracket`` is the grid interval whose sign change was refined (None if
    none was found), with the second-derivative values at its ends.
    """

    __slots__ = __match_args__ = ("q_inflexion", "eta", "bracket", "d2_at_bracket", "vertex")

    def __init__(self, q_inflexion: float | None, eta: float, bracket: tuple[float, float] | None,
                 d2_at_bracket: tuple[float, float] | None, vertex: bool = False) -> None:
        super().__init__(q_inflexion, eta, bracket, d2_at_bracket, vertex)


def _check_q_max(q_max: float) -> None:
    if not (math.isfinite(q_max) and q_max > Q_FLOOR):
        raise ValueError(f"q_max must be finite and above {Q_FLOOR}, got {q_max!r}")


def inflexion_report(weights, q_max: float) -> CriticalityReport:
    """``order_parameter``'s report from checked Bell weights, in any order,
    and a q_max that ``order_parameter`` would accept: the vertex rule, then
    the search. It reads the weights' multiset only."""
    pairs = bell_log_pairs(weights)
    if len(pairs) == 1:
        return CriticalityReport(None, 1.0, None, None, vertex=True)
    grid = log_grid(Q_FLOOR, q_max, SEARCH_POINTS)
    d2 = {}

    def concave(q: float) -> bool:
        d2[q] = entropy_kernel(pairs, q, 2)
        return d2[q] < 0.0

    # S'' falls in q, so the grid holds at most one sign change, and it sits
    # just before the first concave point. If the top of the grid is not
    # concave, no point is, and that one evaluation settles a state with no
    # root. Otherwise the binary search runs below grid[-1]; for k > 0, S''
    # is then known at both grid[k - 1] and grid[k].
    if not concave(grid[-1]):
        return CriticalityReport(None, 0.0, None, None)
    k = bisect_left(grid, True, hi=len(grid) - 1, key=concave)
    if k > 0:
        lo, hi = grid[k - 1], grid[k]
        a, b = d2[lo], d2[hi]
        if math.isfinite(a) and math.isfinite(b) and a * b < 0.0:
            q_inflexion = secant_root(lambda q: entropy_kernel(pairs, q, 2), lo, hi, a, b, 0.0)
            return CriticalityReport(q_inflexion, 1.0 / (1.0 + q_inflexion), (lo, hi), (a, b))
    return CriticalityReport(None, 0.0, None, None)


def inflexion_point(s: BellDiagonalState, q_max: float = Q_MAX_DEFAULT) -> float | None:
    """Smallest q in (Q_FLOOR, q_max] where the curvature of S_q(B|A) flips.

    Returns None when no sign change is found; states whose inflexion sits
    beyond q_max are indistinguishable from that case by construction.
    q_max must be finite and above Q_FLOOR; the result is the root of the
    computed S'' to a few ulp.
    """
    return order_parameter(s, q_max).q_inflexion


def order_parameter(s: BellDiagonalState, q_max: float = Q_MAX_DEFAULT) -> CriticalityReport:
    """Full inflexion report with eta = 1/(1 + q_I), or eta = 0 if absent.

    A state whose support is a single Bell weight is a vertex: it gets
    eta = 1 (the limit value along any ray into the vertex), reported with
    ``vertex=True``. Two states whose sorted Bell weights are equal floats
    get equal reports (see the module docstring).
    """
    _check_q_max(q_max)
    return inflexion_report(physical_weights(s), q_max)


def eta_field(x_spec: AxisSpec, y_spec: AxisSpec, z_spec: AxisSpec,
              q_max: float = Q_MAX_DEFAULT) -> tuple[tuple[float, float, float, float], ...]:
    """Order parameter over the physical cells of a grid, x-major order.

    eta depends on a state only through the multiset of its Bell weights
    (see ``order_parameter``), so the grid runs one search per distinct
    multiset (``by_weight_multiset``): a cell whose sorted weights equal an
    earlier cell's reuses that cell's eta, which is the same float. q_max is
    checked before any cell, so a bad one fails on every grid.
    """
    _check_q_max(q_max)
    axes = grid_axes(x_spec, y_spec, z_spec)
    eta = by_weight_multiset(lambda weights: inflexion_report(weights, q_max).eta)
    return tuple((x, y, z, e) for x, y, lo, hi, etas in grid_results(axes, eta)
                 for z, e in zip(axes[2][lo:hi], etas))
