"""Separability classifiers for Bell-diagonal two-qubit states.

Three routes, deliberately independent of each other:

* ``ppt_classify`` is the exact oracle: partial transpose plus eigensolver.
  For two qubits, positivity of the partial transpose is necessary and
  sufficient for separability. ``classify_state(s, "ppt")`` runs it on a
  Bell-diagonal state without numpy: its weights are checked once, by
  ``physical_weights``, and the partial transpose is solved as its two 2x2
  blocks; ``_ppt_verdict`` turns the lowest eigenvalue into the verdict on
  both routes, so the two give one Classification bit for bit.
* ``ar_classify_asymptotic`` is the exact large-q limit of the conditional
  entropy criterion: separable iff no Bell weight exceeds 1/2, which carves
  the octahedron |x|, |y|, |z| bounded by the planes x + y + z = 1 and its
  symmetry images out of the physical tetrahedron.
* ``ar_classify_scan`` samples the conditional entropy over a q grid and
  flags entanglement when any sample is negative. Since S_q(B|A) falls in
  q, it evaluates the grid's largest q and the one below it; only when
  those two tie (a flat curve, or samples overflowing to -inf) does it
  binary-search where the minimum is first reached. The scan can only
  confirm an asymptotic "entangled" verdict, never override it.

Each input rule has one owner, and each public call checks its input once.
``CLASSIFIERS`` maps each method of ``classify_state`` to its core, a
function of checked Bell weights and a resolved band, and to its default
verdict band. ``classify_state`` is the one entry check: it resolves the
band with ``boundary_tol_for``, the one place that picks a default band or
rejects one, then checks the state with ``states.physical_weights`` and
hands the weights to the core. ``ar_classify_asymptotic``, and
``ar_classify_scan`` on the default grid, are ``classify_state`` calls; on
a custom grid the scan makes the same two checks, then checks and sorts
the grid. The max-weight test (``max_weight_verdict``: max w - 1/2, in a
given band) is written once, for the asymptotic core, the scan's
cross-check in the ar-asymptotic band, the test at the end of a
``threshold_x`` ray and the CLI's fig3 verdicts. ``threshold_x`` finds
where a parameter ray leaves the region with nonnegative conditional
entropy at fixed q, and ``region_scan`` sweeps a Cartesian grid with a
chosen classifier. ``secant_root`` is the one root
finder, used by ``threshold_x`` and by the inflexion search of
``criticality``; ``grid_axes`` makes the points of every grid, capped at
MAX_GRID_CELLS cells. ``physical_runs``, the one grid enumeration, gives
each of their (x, y) lines' physical cells as one run of z indices;
``grid_results``, the one grid-evaluation path, evaluates only those cells,
and ``by_weight_multiset`` is the one memo of a result per weight multiset.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import product

from .errors import BracketError
from .entropy import bell_log_pairs, entropy_kernel, log_residual, rescaled_power_sum
from .linalg import hermitian_eigenvalues, partial_transpose
from .records import Record
from .states import (
    BellDiagonalState,
    TwoQubitState,
    bell_blocks,
    nonnegative_weights,
    physical_weights,
    xyz_weights,
)

__all__ = ["Classification", "GridCell", "RegionGrid", "ar_classify_asymptotic",
           "ar_classify_scan", "ar_residual", "classify_state", "default_q_grid", "ppt_classify",
           "region_scan", "threshold_x"]

BOUNDARY_TOL_ANALYTIC = 1e-9
BOUNDARY_TOL_SCAN = 1e-7
NAMED_DIRECTIONS = {
    "diag": (1.0, 1.0, 1.0),
    "axis": (1.0, 0.0, 0.0),
    "edge": (1.0, 1.0, 0.0),
}
THRESHOLD_TOL_DEFAULT = 1e-12


class Classification(Record):
    """verdict in {separable, entangled, boundary}; witness is the signed
    margin of the deciding criterion (boundary iff |witness| <= the tolerance
    used). For scan verdicts witness_q records where the witness was seen."""

    __slots__ = __match_args__ = ("verdict", "criterion", "witness", "witness_q")

    def __init__(self, verdict: str, criterion: str, witness: float,
                 witness_q: float | None = None) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_q", witness_q)


class GridCell(Record):
    __slots__ = __match_args__ = ("x", "y", "z", "physical", "classification")

    def __init__(self, x: float, y: float, z: float, physical: bool,
                 classification: Classification | None) -> None:
        super().__init__(x, y, z, physical, classification)


class RegionGrid(Record):
    """Cartesian sweep result: all cells in x-major order; classifications
    are present exactly for the physical cells."""

    __slots__ = __match_args__ = ("xs", "ys", "zs", "cells")

    def __init__(self, xs: tuple[float, ...], ys: tuple[float, ...], zs: tuple[float, ...],
                 cells: tuple[GridCell, ...]) -> None:
        super().__init__(xs, ys, zs, cells)


def secant_root(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """Root of f in [lo, hi], given f_lo = f(lo) and f_hi = f(hi) of opposite
    signs, by secant steps through the last two points, each measured from
    the one of smaller |f|. The bracket's midpoint replaces a step that would
    leave the bracket, a step over 4 ulp that is not under half the step
    before last (Brent 1973), and a step from a non-finite value. Returns x
    where f(x) == 0, the secant's root once a step is at most 2 ulp, or the
    midpoint once the bracket is at most tol wide (so tol bounds the error)
    or rounds onto an end.
    """
    lo_positive = f_lo > 0.0
    x_prev, f_prev = hi, f_hi
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    if not lo < x < hi:  # also a NaN from a non-finite end
        x = 0.5 * (lo + hi)
    last, before_last = abs(x - x_prev), hi - lo
    while hi - lo > tol:
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == lo_positive:
            lo = x
        else:
            hi = x
        if math.isfinite(fx) and math.isfinite(f_prev) and fx != f_prev:
            step = fx * (x - x_prev) / (fx - f_prev)
            # from the better point: where f is noise, a step from x can look large
            moved = abs(step) if abs(fx) <= abs(f_prev) else abs(x - step - x_prev)
            if moved <= 2.0 * math.ulp(x):
                return x - step
            # a few-ulp step is taken even after a smaller one: Brent's rule
            # would spend midpoint steps there to halve a bracket near the root
            if lo < x - step < hi and (moved < 0.5 * before_last or moved <= 4.0 * math.ulp(x)):
                last, before_last = moved, last
                x_prev, f_prev, x = x, fx, x - step
                continue
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        last = before_last = abs(mid - x)
        x_prev, f_prev, x = x, fx, mid
    return 0.5 * (lo + hi)


def boundary_tol_for(method: str, boundary_tol: float | None = None) -> float:
    """The band ``method`` applies: its default band in CLASSIFIERS when
    boundary_tol is None. ValueError for an unknown method or a band that is
    not finite and nonnegative. Every classification resolves its band here."""
    if method not in CLASSIFIERS:
        raise ValueError(f"unknown classification method {method!r}")
    if boundary_tol is None:
        return CLASSIFIERS[method][1]
    if not (math.isfinite(boundary_tol) and boundary_tol >= 0.0):
        raise ValueError(f"boundary_tol must be finite and nonnegative, got {boundary_tol!r}")
    return boundary_tol


def _banded_verdict(witness: float, boundary_tol: float) -> str:
    # Positive witness means entangled for every criterion normalised here.
    if witness > boundary_tol:
        return "entangled"
    if witness < -boundary_tol:
        return "separable"
    return "boundary"


def max_weight_verdict(weights, boundary_tol: float) -> tuple[str, float]:
    """(verdict, max w - 1/2) of checked weights in the band boundary_tol:
    the paper's large-q rule, entangled iff some Bell weight exceeds 1/2.
    It reads the weights' multiset only."""
    margin = max(weights) - 0.5
    return _banded_verdict(margin, boundary_tol), margin


def ppt_classify(state: TwoQubitState | np.ndarray,
                 boundary_tol: float | None = None) -> Classification:
    """Exact Peres test: sign of the smallest partial-transpose eigenvalue,
    in the band ``boundary_tol_for("ppt", boundary_tol)``.

    The witness is the most negative eigenvalue of the partial transpose
    (negated margin when all are positive), so positive witness = entangled.
    """
    tol = boundary_tol_for("ppt", boundary_tol)
    state = state if isinstance(state, TwoQubitState) else TwoQubitState.from_matrix(state)
    partial_transposed = partial_transpose(state.matrix, on="B")
    return _ppt_verdict(hermitian_eigenvalues(partial_transposed).values[-1], tol)


def _ppt_core(weights, tol: float) -> Classification:
    # CLASSIFIERS' ppt core: ppt_classify(bell_diagonal_density(s)), bit for
    # bit, on the weights of s in canonical order. Transposing qubit B swaps
    # b and d: the partial transpose is the direct sum of [[a, d], [d, a]]
    # and [[c, b], [b, c]], each solved on its own.
    a, b, c, d = bell_blocks(weights)
    return _ppt_verdict(min(hermitian_eigenvalues([[a, d], [d, a]]).values[-1],
                            hermitian_eigenvalues([[c, b], [b, c]]).values[-1]), tol)


def _ppt_verdict(lowest: float, tol: float) -> Classification:
    # 0.0 - the smallest eigenvalue, not its negation: a zero witness is +0.0
    witness = 0.0 - lowest
    return Classification(_banded_verdict(witness, tol), "ppt", witness)


def ar_residual(s: BellDiagonalState, q: float) -> float:
    """sum_k (2 w_k)^q - 2: positive exactly when S_q(B|A) < 0, for q > 1."""
    if not q > 1.0:
        raise ValueError(f"residual is defined for q > 1, got q = {q!r}")
    return rescaled_power_sum(physical_weights(s), q) - 2.0


def ar_classify_asymptotic(s: BellDiagonalState,
                           boundary_tol: float | None = None) -> Classification:
    """Large-q limit of the entropic criterion: max Bell weight versus 1/2."""
    return classify_state(s, "ar-asymptotic", boundary_tol)


def _asymptotic_core(weights, tol: float) -> Classification:
    verdict, margin = max_weight_verdict(weights, tol)
    return Classification(verdict, "ar-asymptotic", margin)


def _linspace(lo: float, hi: float, count: int) -> tuple[float, ...]:
    # np.linspace's arithmetic, point for point: i * step + lo, then hi
    # itself as the last point; count >= 2.
    step = (hi - lo) / (count - 1)
    return tuple(i * step + lo for i in range(count - 1)) + (hi,)


# bounded: a sweep over many q_max values must not grow memory without limit
@lru_cache(maxsize=16)
def log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """count points from lo to hi, 0 < lo < hi and count >= 2, evenly spaced
    in log10, both ends exact.

    The recipe is ``np.geomspace(lo, hi, count)``'s: 10 ** e over the
    exponents e that ``np.linspace`` spaces from log10(lo) to log10(hi). The
    power is the C library's, not numpy's vectorised one. On every grid the
    package builds, the two differ at a few points, by 1 ulp, and this one
    is the correctly rounded value there. Grids are memoised, so each one
    the inflexion search takes (one per q_max) is built once.
    """
    exponents = _linspace(math.log10(lo), math.log10(hi), count)
    return (float(lo),) + tuple(10.0**e for e in exponents[1:-1]) + (float(hi),)


def default_q_grid() -> tuple[float, ...]:
    """Sixty log-spaced samples of q - 1 reaching q = 200, plus sub-1 probes."""
    return (0.25, 0.5, 0.75, 1.0) + tuple(1.0 + o for o in log_grid(1e-2, 199.0, 60))


_DEFAULT_Q_GRID = default_q_grid()


def ar_classify_scan(s: BellDiagonalState,
                     q_grid: tuple[float, ...] | None = None,
                     boundary_tol: float | None = None) -> Classification:
    """Scan S_q(B|A) over a q grid; entangled iff any sample is negative.

    S_q(B|A) decreases in q: S'(q) = -sum_k w_k L_k^2 phi_1((q-1) L_k) with
    phi_1 > 0, and it is flat only where every weight on the support is 1/2.
    So the smallest sample, the witness, is the one at the grid's largest q.
    witness_q is the smallest grid q whose sample is no larger than that.
    On a strictly falling curve the sample below the top is larger, so two
    kernel calls settle the cell (one on a one-sample grid). Only when that
    sample ties the minimum, on the flat curve or where the samples
    overflow to -inf (a Bell weight above about 0.71 at q in the
    thousands), does a binary search over the rest of the sorted grid find
    the first tie; for an ascending grid such as the default, witness_q is
    then the first minimal sample a linear scan would meet. Grid samples
    must be finite.

    When the scan sees nothing, the exact asymptotic test decides, in the
    ar-asymptotic band: an entangled or boundary verdict of it wins
    (reported under its own criterion).
    """
    if q_grid is None:
        return classify_state(s, "ar-scan", boundary_tol)
    tol = boundary_tol_for("ar-scan", boundary_tol)
    weights = physical_weights(s)
    grid = sorted(q_grid)
    if not grid:
        raise ValueError("q_grid must contain at least one sample")
    if not all(math.isfinite(q) for q in grid):
        raise ValueError("q_grid samples must be finite")
    return _scan_core(weights, tol, grid)


def _scan_core(weights, tol: float, grid=_DEFAULT_Q_GRID) -> Classification:
    # ar_classify_scan on checked weights and a sorted grid of finite samples
    pairs = bell_log_pairs(weights)
    min_value = entropy_kernel(pairs, grid[-1])
    if min_value == math.inf:
        # every sample diverges (only possible below q = 1): none is a minimum
        min_q = None
    elif len(grid) > 1 and entropy_kernel(pairs, grid[-2]) <= min_value:
        first = bisect_left(grid, True, hi=len(grid) - 2,
                            key=lambda q: entropy_kernel(pairs, q) <= min_value)
        min_q = grid[first]
    else:
        min_q = grid[-1]
    if min_value < -tol:
        return Classification("entangled", "ar-scan", min_value, min_q)
    verdict, margin = max_weight_verdict(weights, boundary_tol_for("ar-asymptotic"))
    if verdict != "separable":
        return Classification(verdict, "ar-asymptotic", margin)
    return Classification("separable", "ar-scan", min_value, min_q)


def _direction_vector(direction) -> tuple[float, float, float]:
    if isinstance(direction, str):
        try:
            return NAMED_DIRECTIONS[direction]
        except KeyError:
            raise ValueError(
                f"direction must be one of {sorted(NAMED_DIRECTIONS)} or a 3-vector, "
                f"got {direction!r}"
            ) from None
    d = tuple(float(v) for v in direction)
    if len(d) != 3 or not all(map(math.isfinite, d)) or all(v == 0.0 for v in d):
        raise ValueError(f"custom direction must be a finite nonzero 3-vector, got {direction!r}")
    return d


def _ray_extent(d: tuple[float, float, float]) -> float:
    # Largest t with all weights of t*d nonnegative: the walls are
    # t*d_i <= 1 per axis and t*(d_x+d_y+d_z) >= -1. d is finite and
    # nonzero, so with no positive component the sum is negative (a float
    # sum of nonpositive terms, one of them negative, cannot round to 0).
    bounds = [1.0 / v for v in d if v > 0.0]
    total = d[0] + d[1] + d[2]
    if total < 0.0:
        bounds.append(-1.0 / total)
    extent = min(bounds)
    if extent == math.inf:  # components so small that 1/v overflows
        raise ValueError(f"direction {d!r} is too short to reach the physical boundary")
    return extent


def threshold_x(q: float, direction="diag", tol: float = THRESHOLD_TOL_DEFAULT) -> float:
    """Ray parameter where S_q(B|A) first turns negative, for q > 1.

    ``secant_root`` finds it to within tol along t * direction, on
    ``log_residual``: the sign of -S_q(B|A) at the size of q ln(2 w). When
    the whole physical segment keeps nonnegative conditional entropy, the
    ray either grazes the critical surface at the physical boundary, where
    the largest weight is 1/2 within the ar-asymptotic band (the boundary
    parameter is returned), or never reaches it (BracketError).
    tol must be finite and positive.
    """
    if not q > 1.0:
        raise ValueError(f"threshold search needs q > 1, got q = {q!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    d = _direction_vector(direction)
    t_max = _ray_extent(d)

    def residual(t: float) -> float:
        return log_residual(xyz_weights(t * d[0], t * d[1], t * d[2]), q)

    # the ray starts at the maximally mixed state, where it is (1 - q) ln 2 < 0
    start, end = residual(0.0), residual(t_max)
    if not end > 0.0:
        # No crossing inside the physical segment. If the endpoint is not
        # separable in the ar-asymptotic band, it sits on the critical
        # surface, and the threshold is the physical boundary.
        edge = xyz_weights(t_max * d[0], t_max * d[1], t_max * d[2])
        if max_weight_verdict(edge, boundary_tol_for("ar-asymptotic"))[0] != "separable":
            return t_max
        raise BracketError("ray never crosses the q-threshold surface")
    return secant_root(residual, 0.0, t_max, start, end, tol)


AxisSpec = tuple[float, float, int]
# Largest grid grid_axes accepts: 2^22 = 4,194,304 cells, room for 161^3.
MAX_GRID_CELLS = 2**22


def _axis_count(spec: AxisSpec, name: str) -> int:
    # checked, never truncated: 2.9, inf, nan and "3" are not counts
    count = spec[2]
    whole = hasattr(count, "__index__") or isinstance(count, float) and count.is_integer()
    if not whole or count < 1:
        raise ValueError(f"{name} axis needs a whole number of points, at least one, "
                         f"got {count!r}")
    return int(count)


def grid_points(spec: AxisSpec, name: str) -> tuple[float, ...]:
    """count evenly spaced points from lo to hi, both included, for spec =
    (lo, hi, count); bit for bit the points of ``np.linspace(lo, hi, count)``.
    count must be a whole number of at least 1 (an int, or an integral float)."""
    lo, hi, count = float(spec[0]), float(spec[1]), _axis_count(spec, name)
    if not (-3.5 <= lo <= hi <= 1.5):
        raise ValueError(
            f"{name} axis range [{lo}, {hi}] must lie inside [-3.5, 1.5]"
        )
    if count == 1:
        return (lo,)
    return _linspace(lo, hi, count)


def grid_axes(x_spec: AxisSpec, y_spec: AxisSpec,
              z_spec: AxisSpec) -> tuple[tuple[float, ...], ...]:
    """The x, y and z points of a Cartesian grid of at most MAX_GRID_CELLS
    cells; a larger grid, or a count that is not a whole number of at least
    1, raises ValueError before any point is made."""
    cells = math.prod(_axis_count(spec, name) for spec, name in
                      ((x_spec, "x"), (y_spec, "y"), (z_spec, "z")))
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"grid of {cells} cells exceeds the cap of MAX_GRID_CELLS = {MAX_GRID_CELLS}"
        )
    return grid_points(x_spec, "x"), grid_points(y_spec, "y"), grid_points(z_spec, "z")


def physical_runs(axes):
    """Yield (x, y, lo, hi) for each (x, y) line of ``grid_axes`` output,
    x-major: x outermost, then y. The cells (x, y, z) of the line whose
    weights pass ``nonnegative_weights`` are exactly those with z in
    ``zs[lo:hi]``, and lo <= hi.

    They form one run because the axes ascend and, along a line,
    * the psi+ weight (1 - z)/4 falls as z rises,
    * the psi- weight (1 + x + y + z)/4 rises as z rises,
    * the phi+ and phi- weights depend on x and y only.
    So hi, the end of the psi+ prefix, is found once per grid, and lo, the
    start of the psi- suffix, once per line, each by bisection; a line whose
    phi weights fail is empty. Every test is ``nonnegative_weights`` on the
    entries of ``xyz_weights`` it concerns, so the result is the per-cell
    test's, bit for bit.
    """
    xs, ys, zs = axes
    # the psi+ weight does not depend on x or y
    hi = bisect_left(zs, True, key=lambda z: not nonnegative_weights(xyz_weights(0.0, 0.0, z)[2:3]))
    for x, y in product(xs, ys):
        if not nonnegative_weights(xyz_weights(x, y, zs[0])[:2]):
            yield x, y, hi, hi
            continue
        lo = bisect_left(zs, True, hi=hi,
                         key=lambda z: nonnegative_weights(xyz_weights(x, y, z)[3:]))
        yield x, y, lo, hi


def grid_results(axes, evaluate):
    """Yield (x, y, lo, hi, [evaluate(x, y, z) for z in zs[lo:hi]]) for each
    line of ``physical_runs(axes)``: the physical cells only, in row order."""
    for x, y, lo, hi in physical_runs(axes):
        yield x, y, lo, hi, [evaluate(x, y, z) for z in axes[2][lo:hi]]


def by_weight_multiset(evaluate):
    """Wrap ``evaluate(weights)`` into a function of a cell (x, y, z) that
    runs it once per Bell-weight multiset, on the sorted ``xyz_weights`` it
    keys on (a None result is not kept), handing later cells the first
    cell's result object. The caller must know evaluate depends on the
    weights only through their multiset, bit for bit; ``ppt`` does not. On
    the cells ``grid_results`` evaluates, the weights are the floats that
    ``physical_runs`` tested."""
    results = {}

    def memo(x, y, z):
        weights = tuple(sorted(xyz_weights(x, y, z)))
        result = results.get(weights)
        if result is None:
            result = results[weights] = evaluate(weights)
        return result

    return memo


# Each method: its core, core(weights, tol) on the checked Bell weights of a
# state in canonical order and the resolved band, and its default band.
CLASSIFIERS = {
    "ppt": (_ppt_core, BOUNDARY_TOL_ANALYTIC),
    "ar-asymptotic": (_asymptotic_core, BOUNDARY_TOL_ANALYTIC),
    "ar-scan": (_scan_core, BOUNDARY_TOL_SCAN),
}


def classify_state(s: BellDiagonalState, method: str,
                   boundary_tol: float | None = None) -> Classification:
    """Classify a physical Bell-diagonal state by ``method``: the band
    ``boundary_tol_for(method, boundary_tol)`` resolves (ValueError for an
    unknown method or a bad band, before the state is read), the one
    ``physical_weights`` check, then the method's core in CLASSIFIERS."""
    tol = boundary_tol_for(method, boundary_tol)
    return CLASSIFIERS[method][0](physical_weights(s), tol)


def region_scan(x_spec: AxisSpec, y_spec: AxisSpec, z_spec: AxisSpec,
                method: str = "ar-asymptotic",
                boundary_tol: float | None = None) -> RegionGrid:
    """Classify every physical cell of a Cartesian (x, y, z) grid.

    Cells are enumerated x-major (x outermost, then y, then z), and
    non-physical cells are kept in place with no classification. The method
    and band are checked by ``boundary_tol_for``, whatever the grid holds.
    """
    tol = boundary_tol_for(method, boundary_tol)
    xs, ys, zs = axes = grid_axes(x_spec, y_spec, z_spec)
    cells = []
    for x, y, lo, hi, results in grid_results(
            axes, lambda x, y, z: classify_state(BellDiagonalState(x, y, z), method, tol)):
        for k, z in enumerate(zs):
            c = results[k - lo] if lo <= k < hi else None
            cells.append(GridCell(x, y, z, c is not None, c))
    return RegionGrid(xs=xs, ys=ys, zs=zs, cells=tuple(cells))
