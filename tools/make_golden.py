"""Regenerate extended-precision golden data for the inflexion-point tests.

Run from the repository root:

    python tools/make_golden.py

The conditional entropy of a Bell-diagonal state with weights w_k is
S(q) = (2 - R(q)) / (2 (q - 1)) with R(q) = sum_k (2 w_k)^q over the
support. Writing u = q - 1, the second q-derivative is computed analytically,

    S''(q) = -R''/(2u) + R'/u^2 + (2 - R)/u^3,

at 60 decimal digits with mpmath from the power sums, so these numbers are
independent of the production kernel (which evaluates S'' in the form
-sum_k w_k L_k^3 phi_2((q - 1) L_k), L_k = ln(2 w_k)) and of its search.
Roots of S'' are located by a dense log-grid sign scan followed by interval
bisection to 1e-30.

Output: a table of q_I (all sign-change roots) per state, printed to stdout;
paste the frozen values into tests/test_criticality.py when they change.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 60

SUPPORT_EPS = mp.mpf("1e-18")


def bell_weights(x, y, z):
    x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
    return [(1 - x) / 4, (1 - y) / 4, (1 - z) / 4, (1 + x + y + z) / 4]


def second_derivative(weights, q):
    q = mp.mpf(q)
    u = q - 1
    logs = [mp.log(2 * w) for w in weights if w > SUPPORT_EPS]
    r0 = mp.fsum(mp.e ** (q * L) for L in logs)
    r1 = mp.fsum(mp.e ** (q * L) * L for L in logs)
    r2 = mp.fsum(mp.e ** (q * L) * L * L for L in logs)
    return -r2 / (2 * u) + r1 / u**2 + (2 - r0) / u**3


def find_roots(weights, q_lo="1e-3", q_hi="300", points=6000):
    qs = [mp.mpf(q_lo) * (mp.mpf(q_hi) / mp.mpf(q_lo)) ** (mp.mpf(k) / (points - 1))
          for k in range(points)]
    # stay off the removable singularity at q = 1
    qs = [q for q in qs if abs(q - 1) > mp.mpf("1e-6")]
    vals = [second_derivative(weights, q) for q in qs]
    roots = []
    for k in range(len(qs) - 1):
        if vals[k] * vals[k + 1] < 0:
            lo, hi = qs[k], qs[k + 1]
            f_lo = vals[k]
            while hi - lo > mp.mpf("1e-30"):
                mid = (lo + hi) / 2
                f_mid = second_derivative(weights, mid)
                if f_mid == 0:
                    lo = hi = mid
                    break
                if (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
    return roots


def main():
    diag_ts = ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]
    print("# symmetric line (t, t, t)")
    for t in diag_ts:
        roots = find_roots(bell_weights(t, t, t))
        if roots:
            shown = ", ".join(mp.nstr(r, 20) for r in roots)
            eta = 1 / (1 + roots[0])
            print(f"t = {t}: q_I roots = [{shown}]  eta = {mp.nstr(eta, 20)}")
        else:
            print(f"t = {t}: no inflexion in (1e-3, 300]")

    print()
    print("# asymmetric spot checks")
    for xyz in [("0.5", "0.7", "0.2"), ("0.9", "0.3", "0.1")]:
        roots = find_roots(bell_weights(*xyz))
        shown = ", ".join(mp.nstr(r, 20) for r in roots) if roots else "none"
        print(f"(x, y, z) = {xyz}: q_I roots = [{shown}]")

    print()
    print("# distance calibration above the critical plane, t = (1 + d)/3")
    for d in ["0.01", "0.02", "0.03", "0.05", "0.075", "0.1"]:
        t = (1 + mp.mpf(d)) / 3
        roots = find_roots(bell_weights(t, t, t), q_hi="5000", points=8000)
        shown = ", ".join(mp.nstr(r, 12) for r in roots) if roots else "none"
        print(f"d = {d} (t = {mp.nstr(t, 12)}): q_I = [{shown}]")


if __name__ == "__main__":
    main()
