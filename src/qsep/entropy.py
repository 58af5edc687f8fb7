"""Tsallis entropies and the quotient-form conditional entropy they induce.

The one-parameter family S_q = (1 - sum_i p_i^q) / (q - 1) recovers the von
Neumann entropy -sum p ln p as q -> 1 (natural logarithms throughout). For a
product state the family is pseudoadditive,

    S_q(A+B) = S_q(A) + S_q(B) + (1 - q) S_q(A) S_q(B),

and the conditional entropy is the matching quotient

    S_q(B|A) = (S_q(A+B) - S_q(A)) / (1 + (1 - q) S_q(A)),

whose denominator equals the power sum of the reduced spectrum. Both reduced
states of a Bell-diagonal state are maximally mixed, so S_q(B|A) = S_q(A|B)
there, with the closed form

    S_q(B|A) = (2 - sum_k (2 w_k)^q) / (2 (q - 1)).

Every entropy of this module, and its second q-derivative, is evaluated by
one kernel over pairs (p_k, L_k) on the support. With u = q - 1,

    S^(n)(q) = -sum_k p_k L_k^(n+1) phi_n(u L_k),  phi_n(x) = int_0^1 s^n e^(sx) ds,

where L_k = ln p_k for the Tsallis entropy and L_k = ln(2 w_k) for the
conditional entropy of Bell weights w_k. The form is exact through q = 1,
where phi_n(0) = 1/(n + 1), needs no finite differences, and stays finite
where the power sums would overflow or underflow: since phi_n > 0, a
divergent term saturates to an infinity of its own sign. Near x = 0, where
the closed form of phi_2,

    phi_2(x) = e^x (1/x - 2/x^2 + 2/x^3) - 2/x^3,

cancels, it is summed as a Taylor series. The kernel has one loop per order
n, which evaluates the series or closed form of phi_n inline for each term.

Power sums have two rules beside the kernel. ``trace_power`` and
``rescaled_power_sum`` add b**q, which saturates to +inf. Their logarithms,
in ``log_residual`` and ``conditional_entropy``, are a log-sum-exp over the
kernel's pairs, which forms no power that could overflow or underflow.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from .linalg import Spectrum
from .records import Record
from .states import BellDiagonalState, physical_weights

__all__ = ["EPS_SUPPORT", "ConditionalEntropyValue", "chain_rule_check", "conditional_entropy",
           "conditional_entropy_bell", "pseudoadditive_combine", "rescaled_power_sum",
           "trace_power", "tsallis_entropy"]

# Eigenvalues at or below this are treated as zero; power sums run over the
# support only, which keeps q <= 0 well defined for rank-deficient spectra.
EPS_SUPPORT = 1e-12
# Above this argument e^x overflows; phi_n saturates to +inf there.
_EXP_MAX = math.log(sys.float_info.max)
# Taylor coefficients 1 / (n! (n + 3)) of phi_2, highest order first; through
# x^15 they reach double precision for |x| < 1/2.
_PHI2_SERIES = tuple(1.0 / (math.factorial(n) * (n + 3)) for n in range(15, -1, -1))


def bell_log_pairs(weights: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """Kernel input (w_k, ln(2 w_k)) over the support of a Bell-weight tuple.

    Compute it once per state and reuse it for every q the state is
    evaluated at.
    """
    return tuple([(w, math.log(2.0 * w)) for w in weights if w > EPS_SUPPORT])


def entropy_kernel(pairs: Sequence[tuple[float, float]], q: float, n: int = 0) -> float:
    """S^(n)(q) = -sum_k p_k L_k^(n+1) phi_n((q - 1) L_k), for n in {0, 2}.

    With pairs (p, ln p) this is the Tsallis entropy and its second
    q-derivative; with ``bell_log_pairs`` it is the conditional entropy
    S_q(B|A) of a Bell-diagonal state. A divergent result is an infinity
    (-inf for q > 1 and +inf for q < 1); nothing raises. The terms are
    summed with math.fsum, so the result does not depend on the order of
    the pairs.
    """
    u = q - 1.0
    terms = []
    if n == 0:
        for p, L in pairs:
            x = u * L
            if x > _EXP_MAX:
                phi = math.inf
            elif x == 0.0:
                phi = 1.0
            else:
                phi = math.expm1(x) / x
            terms.append(p * L * phi)
    elif n == 2:
        for p, L in pairs:
            x = u * L
            if -0.5 < x < 0.5:
                # the closed form below cancels here
                phi = 0.0
                for c in _PHI2_SERIES:
                    phi = phi * x + c
            elif x > _EXP_MAX:
                phi = math.inf
            else:
                inv = 1.0 / x
                phi = math.exp(x) * inv * (1.0 - 2.0 * inv + 2.0 * inv * inv) - 2.0 * inv * inv * inv
            terms.append(p * L * L * L * phi)
    else:
        raise ValueError(f"derivative order must be 0 or 2, got {n!r}")
    # 0.0 - sum rather than -sum: a zero entropy is +0.0, never -0.0
    return 0.0 - math.fsum(terms)


def _support(s: Spectrum, q: float, name: str) -> list[float]:
    """The values of a probability spectrum above EPS_SUPPORT, once q is
    checked to be finite."""
    if not s.stochastic:
        raise ValueError(f"{name} requires a stochastic spectrum")
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    return [p for p in s.values if p > EPS_SUPPORT]


def _log_pairs(s: Spectrum, q: float, name: str) -> list[tuple[float, float]]:
    """Kernel input (p, ln p) over the support, divided by its own sum so
    that no probability exceeds 1 where a stochastic spectrum sums to just
    above 1."""
    support = _support(s, q, name)
    total = math.fsum(support)
    return [(p / total, math.log(p / total)) for p in support]


def _power_sum(bases: Sequence[float], q: float) -> float:
    """fsum of b**q over positive bases; a divergent sum is +inf rather than
    an error."""
    try:
        return math.fsum([b**q for b in bases])
    except OverflowError:  # a power, or the sum, does not fit a float
        return math.inf


def _log_power_sum(pairs: Sequence[tuple[float, float]], q: float) -> float:
    """ln sum_k p_k e^((q - 1) L_k) over kernel pairs whose L_k = ln(c p_k)
    for one constant c and whose p_k sum to 1: ln sum p^q for (p, ln p),
    ln(sum (2 w)^q / 2) for ``bell_log_pairs``.

    A log-sum-exp with expm1 and log1p: no power overflows, and it stays
    accurate as q -> 1. It is shifted by the exponent x_k = (q - 1) L_k of
    the dominant term p_k e^(x_k), the one with the largest q L_k: the
    smallest x_k for 0 < q < 1, else the largest.
    """
    xs = [(q - 1.0) * L for _, L in pairs]
    top = min(xs) if 0.0 < q < 1.0 else max(xs)
    if math.isinf(top):  # q = inf, or an overflow: the largest L_k's sign decides
        return top
    return top + math.log1p(math.fsum([p * math.expm1(x - top) for (p, _), x in zip(pairs, xs)]))


def trace_power(s: Spectrum, q: float) -> float:
    """Sum of lambda^q over the support (eigenvalues above EPS_SUPPORT)."""
    return _power_sum(_support(s, q, "trace_power"), q)


def tsallis_entropy(s: Spectrum, q: float) -> float:
    """Entropy of a probability spectrum at entropic index q.

    Rank-deficient spectra are evaluated on their support, which keeps
    q <= 0 finite. The support is divided by its own sum, so that no
    probability exceeds 1 where a stochastic spectrum sums to just above 1:
    the result is nonnegative for every q.
    """
    return entropy_kernel(_log_pairs(s, q, "tsallis_entropy"), q)


def pseudoadditive_combine(sa: float, sb: float, q: float) -> float:
    """Combine independent-subsystem entropies: sa + sb + (1-q) sa sb."""
    return sa + sb + (1.0 - q) * sa * sb


def conditional_entropy(joint: Spectrum, reduced: Spectrum, q: float) -> float:
    """Abe-Rajagopal conditional entropy from joint and reduced spectra.

    (S_q(A+B) - S_q(A)) / Tr rho_A^q equals
    -expm1(ln Tr rho^q - ln Tr rho_A^q) / (q - 1), and is evaluated so, with
    each logarithm a log-sum-exp over the normalised support: no power sum
    is formed or divided by. At q = 1 it is the entropy difference
    S(A+B) - S(A). A quotient that diverges is an infinity.
    """
    joint_pairs, reduced_pairs = (_log_pairs(s, q, "conditional_entropy") for s in (joint, reduced))
    if q == 1.0:
        return entropy_kernel(joint_pairs, q) - entropy_kernel(reduced_pairs, q)
    r = _log_power_sum(joint_pairs, q) - _log_power_sum(reduced_pairs, q)
    return -(math.inf if r > _EXP_MAX else math.expm1(r)) / (q - 1.0)


class ConditionalEntropyValue(Record):
    """A conditional-entropy sample; both directions agree for Bell-diagonal
    states because each reduced state is maximally mixed."""

    __slots__ = __match_args__ = ("value", "q", "direction")

    def __init__(self, value: float, q: float, direction: str = "B|A") -> None:
        super().__init__(value, q, direction)


def rescaled_power_sum(weights: Sequence[float], q: float) -> float:
    """sum_k (2 w_k)^q over the support of a Bell-weight tuple; a divergent
    sum is +inf rather than an error."""
    return _power_sum([2.0 * w for w in weights if w > EPS_SUPPORT], q)


def log_residual(weights: Sequence[float], q: float) -> float:
    """ln(sum_k (2 w_k)^q / 2) over the support of a Bell-weight tuple: for
    q > 1, > 0 exactly where S_q(B|A) < 0. No power overflows, and it stays
    accurate as q -> 1."""
    return _log_power_sum(bell_log_pairs(weights), q)


def conditional_entropy_bell(s: BellDiagonalState, q: float) -> ConditionalEntropyValue:
    """Closed-form conditional entropy of a physical Bell-diagonal state."""
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    return ConditionalEntropyValue(value=entropy_kernel(bell_log_pairs(physical_weights(s)), q), q=q)


def chain_rule_check(a: Spectrum, b_given_a: float, q: float) -> float:
    """Rebuild the joint entropy from S_q(A) and S_q(B|A).

    Returns S_q(A) + S_q(B|A) + (1-q) S_q(A) S_q(B|A), which must equal
    S_q(A+B) whenever b_given_a really is the conditional entropy.
    """
    return pseudoadditive_combine(tsallis_entropy(a, q), b_given_a, q)
