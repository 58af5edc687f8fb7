"""Reference answers the benchmark checks qsep's outputs against.

Nothing here imports qsep: every reference comes from the paper's identities,
written out again with numpy.

* Physicality: a state (x, y, z) has Bell weights
  ((1-x)/4, (1-y)/4, (1-z)/4, (1+x+y+z)/4), all nonnegative within 1e-12.
* Separability (Peres; Horodecki): a Bell-diagonal state is separable iff no
  weight exceeds 1/2, and the smallest partial-transpose eigenvalue is
  1/2 - max w, so the PPT witness is max w - 1/2. General 4x4 matrices are
  checked against numpy.linalg.eigvalsh of the partial transpose.
* Conditional entropy: with L_k = ln(2 w_k) on the support and u = q - 1,
  S_q(B|A) = -sum_k w_k L_k phi(u L_k), phi(x) = expm1(x)/x, and
  S''(q) = -sum_k w_k L_k^3 phi2(u L_k), phi2(x) = int_0^1 s^2 e^(sx) ds.
  Both forms stay exact through q = 1 and need no finite differences.
* Critical index: q_I is the smallest root of S'' in the searched range,
  found by a dense log-grid sign scan and bisection to float precision.
* Threshold: the ray parameter t where sum_k (2 w_k)^q - 2 changes sign.
"""

from __future__ import annotations

import numpy as np

SUPPORT_EPS = 1e-12
WEIGHT_TOL = 1e-12
VERTEX_TOL = 1e-12
# Verdict bands documented by qsep: 1e-9 on the max-weight and PPT witnesses.
BAND = 1e-9
# Search range of order_parameter: q_I is reported inside (Q_FLOOR, Q_MAX].
Q_FLOOR = 1e-3
Q_MAX = 200.0
# Roots this close (relatively) to either end of the search range may be
# reported or missed, so they do not count as an existence mismatch.
RANGE_MARGIN = 0.05
# Acceptance tolerances for measured outputs. The q_I bound leaves about 4x
# over the finite-difference bias of qsep's search on these workloads.
QI_RTOL = 1e-4
WITNESS_ATOL = 1e-12
GENERAL_WITNESS_ATOL = 1e-10
COND_RTOL = 1e-9
SCAN_TOL = 1e-7
_SCAN_GRID_POINTS = 400


def bell_weights(xyz) -> np.ndarray:
    """(n, 3) state parameters -> (n, 4) Bell weights."""
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    return np.stack([(1 - x) / 4, (1 - y) / 4, (1 - z) / 4, (1 + x + y + z) / 4], axis=1)


def is_physical(w: np.ndarray) -> np.ndarray:
    return (w >= -WEIGHT_TOL).all(axis=1)


def banded_verdict(witness: np.ndarray, band: float = BAND) -> np.ndarray:
    """Expected verdict for a positive-means-entangled witness.

    Inside band/2 the verdict must be "boundary", beyond 2*band it must
    follow the sign; in between any verdict is accepted (empty string).
    """
    witness = np.asarray(witness, dtype=float)
    out = np.full(witness.shape, "", dtype=object)
    out[witness > 2 * band] = "entangled"
    out[witness < -2 * band] = "separable"
    out[np.abs(witness) <= band / 2] = "boundary"
    return out


def max_weight_witness(w: np.ndarray) -> np.ndarray:
    return w.max(axis=1) - 0.5


def _support_logs(w: np.ndarray):
    support = w > SUPPORT_EPS
    logs = np.log(np.where(support, 2 * w, 1.0))
    return support, logs


def _phi(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.expm1(x) / x
    out[x == 0] = 1.0
    return out


def _phi2(x: np.ndarray) -> np.ndarray:
    """int_0^1 s^2 e^(sx) ds: closed form, or its series where that cancels.

    Below x = -60 the e^x term is under 1e-20 of the result; clamping it there
    keeps exp out of the slow subnormal range without changing a digit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / x
        poly = inv * (1 - 2 * inv + 2 * inv * inv)
        out = np.exp(np.maximum(x, -60.0)) * poly - 2 * inv * inv * inv
    small = np.abs(x) < 0.5
    if small.any():
        xs = x[small]
        term = np.ones_like(xs)
        acc = term / 3.0
        for n in range(1, 18):
            term = term * xs / n
            acc = acc + term / (n + 3)
        out[small] = acc
    return out


def conditional_entropy(w: np.ndarray, q) -> np.ndarray:
    """S_q(B|A) of Bell-diagonal states, one q per state."""
    support, logs = _support_logs(w)
    u = np.asarray(q, dtype=float).reshape(-1, 1) - 1.0
    terms = np.where(support, w * logs * _phi(logs * u), 0.0)
    return -terms.sum(axis=1)


def _d2(coef: np.ndarray, logs: np.ndarray, q) -> np.ndarray:
    u = np.asarray(q, dtype=float).reshape(-1, 1) - 1.0
    return -(coef * _phi2(logs * u)).sum(axis=1)


def inflexion_reference(w: np.ndarray, q_lo: float, q_hi: float) -> np.ndarray:
    """Smallest root of S''(q) in [q_lo, q_hi] per state, nan where none."""
    support, logs = _support_logs(w)
    coef = np.where(support, w * logs ** 3, 0.0)
    grid = np.geomspace(q_lo, q_hi, _SCAN_GRID_POINTS)
    values = np.stack([_d2(coef, logs, q) for q in grid], axis=1)
    change = values[:, :-1] * values[:, 1:] < 0
    found = change.any(axis=1)
    k = np.argmax(change, axis=1)
    lo, hi = grid[k], grid[k + 1]
    f_lo = values[np.arange(len(w)), k]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = _d2(coef, logs, mid)
        same = (f_mid < 0) == (f_lo < 0)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    return np.where(found, 0.5 * (lo + hi), np.nan)


def eta_problems(w: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check reported eta values of physical states against the q_I reference.

    Returns (bad, rel_err): bad marks states whose eta is wrong, rel_err the
    relative q_I error where both sides found an inflexion (nan elsewhere).
    """
    eta = np.asarray(eta, dtype=float)
    vertex = w.max(axis=1) >= 1.0 - VERTEX_TOL
    q_ref = inflexion_reference(w, Q_FLOOR / (1 + RANGE_MARGIN), Q_MAX * (1 + RANGE_MARGIN))
    none = np.isnan(q_ref)
    near_ends = ~none & ((q_ref < Q_FLOOR * (1 + RANGE_MARGIN))
                         | (q_ref > Q_MAX / (1 + RANGE_MARGIN)))
    inside = ~none & ~near_ends & ~vertex
    with np.errstate(divide="ignore"):
        q_got = 1.0 / eta - 1.0
    rel = np.full(len(w), np.nan)
    rel[inside] = np.abs(q_got[inside] - q_ref[inside]) / q_ref[inside]
    bad = np.zeros(len(w), dtype=bool)
    bad |= vertex & (eta != 1.0)
    bad |= none & ~vertex & (eta != 0.0)
    bad |= inside & ~(eta > 0.0)
    bad |= inside & ~(rel <= QI_RTOL)
    return bad, rel


def ar_residual(w: np.ndarray, q) -> np.ndarray:
    support = w > SUPPORT_EPS
    q = np.asarray(q, dtype=float).reshape(-1, 1)
    return np.where(support, np.abs(2 * w) ** q, 0.0).sum(axis=1) - 2.0


def ray_extent(d: np.ndarray) -> float:
    """Largest t keeping t * d inside the tetrahedron of physical states."""
    bounds = [1.0 / v for v in d if v > 0.0]
    if d.sum() < 0.0:
        bounds.append(-1.0 / d.sum())
    return min(bounds)


def threshold_problem(t: float, q: float, d: np.ndarray, tol: float) -> bool:
    """True unless the residual changes sign across [t - tol, t + tol]."""
    if not 0.0 < t <= ray_extent(d):
        return True
    ends = bell_weights(np.outer([t - tol, t + tol], d))
    r = ar_residual(ends, [q, q])
    return not (r[0] <= 0.0 < r[1])


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second qubit of a 4x4 operator (row index 2*a + b)."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_witness(rho: np.ndarray) -> float:
    """Negated smallest eigenvalue of the partial transpose."""
    return -float(np.linalg.eigvalsh(partial_transpose(rho))[0])
