"""Reference values for the benchmark's checks.

Nothing here calls the package's float code.  Charlier sums are done in
fixed-point integer arithmetic on the exact rational values of the
inputs; Hermite values, gamma functions and least-squares fits come from
mpmath at 40 digits.  mpmath is imported lazily so that it stays out of
the set-up and timed phases of a run.
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0 ** -52
PREC = 320  # fraction bits of the fixed-point Charlier sum

# Stated tolerances.
HERMITE_REL_TOL = 1e-10
FIT_TOL = 1e-9
# A failed Hermite value is put down to the two-Kummer cancellation
# (a known defect, ROADMAP item 3a) when eps times the cancellation
# ratio (|even| + |odd|) / |even - odd| reaches this level.
CANCELLATION_LOSS = 1e-12


def mp():
    import mpmath
    mpmath.mp.dps = 40
    return mpmath


def charlier_exact(n, a, nu):
    """c_n^a(nu) = sum_k C(n,k) (-nu)_k a^{-k} at the exact values of a, nu.

    Returns (value, weight): value as a Fraction, each term rounded at
    2^-320 (so exact far below double precision), and
    weight = sum_k (k+1)|t_k| as a float.  A float
    evaluation of the series by the term-ratio recurrence rounds each
    term t_k to within about 5k ulps, so its error is at most about
    5 eps * weight.
    """
    A, V = Fraction(a), Fraction(nu)
    ap, aq, vp, vq = A.numerator, A.denominator, V.numerator, V.denominator
    one = 1 << PREC
    t = total = weight = one
    for k in range(n):
        num = (n - k) * (k * vq - vp) * aq
        if num == 0:
            break  # the series terminates exactly
        den = (k + 1) * vq * ap
        q = abs(t) * abs(num) // den
        t = q if (t > 0) == (num > 0) else -q
        total += t
        weight += (k + 2) * abs(t)
        if t == 0 and k > V:
            # The ratio r_j = (n-j)(j-nu)/((j+1)a) is unimodal in j; once
            # it is falling and below 1, every later term is below one ulp
            # and the tail below n ulps.
            nxt = (n - k - 1) * ((k + 1) * vq - vp) * aq / ((k + 2) * vq * ap)
            if nxt <= num / den < 1.0:
                break
    return Fraction(total, one), float(Fraction(weight, one))


def float_sum_tol(scale, weight, value):
    """Allowed error of scale * c where c is a float series sum of the given
    weight (see charlier_exact) and value is the reference result."""
    return 8.0 * EPS * abs(scale) * weight + 8.0 * EPS * abs(value)


def hermite_ref(nu, x):
    """(H_nu(x), cancellation ratio of the two-Kummer form) from mpmath."""
    m = mp()
    nu_m, x_m = m.mpf(nu), m.mpf(x)
    x2 = x_m * x_m
    even = m.rgamma((1 - nu_m) / 2) * m.hyp1f1(-nu_m / 2, m.mpf(1) / 2, x2)
    odd = 2 * x_m * m.rgamma(-nu_m / 2) * m.hyp1f1((1 - nu_m) / 2, m.mpf(3) / 2, x2)
    h = m.hermite(nu_m, x_m)
    diff = abs(even - odd)
    ratio = math.inf if diff == 0 else float((abs(even) + abs(odd)) / diff)
    return float(h), ratio


def check_hermite(nu, x, got):
    """(ok, known_defect, note) for a hermite_fn value."""
    ref, ratio = hermite_ref(nu, x)
    if not math.isfinite(got):
        return False, False, f"H({nu!r}, {x!r}) not finite"
    err = abs(got - ref)
    if err <= HERMITE_REL_TOL * abs(ref) + 1e-300:
        return True, False, ""
    known = EPS * ratio >= CANCELLATION_LOSS
    return False, known, (f"H({nu!r}, {x!r}) = {got!r}, ref {ref!r}, "
                          f"rel err {err / max(abs(ref), 1e-300):.3g}, "
                          f"cancellation {ratio:.3g}")


def lsq_fit(points):
    """(slope, intercept) of the least-squares line through (ln a, ln e)."""
    m = mp()
    la = [m.log(m.mpf(a)) for a, _ in points]
    le = [m.log(m.mpf(e)) for _, e in points]
    ma, me = sum(la) / len(la), sum(le) / len(le)
    sxy = sum((u - ma) * (v - me) for u, v in zip(la, le))
    sxx = sum((u - ma) ** 2 for u in la)
    slope = sxy / sxx
    return float(slope), float(me - slope * ma)


def check_fit(points, outcome):
    """Check a fit_rate outcome against lsq_fit; err <= 0 must raise."""
    if any(e <= 0 for _, e in points):
        ok = outcome[0] == "raised" and outcome[1] == "DomainError"
        return ok, False, "" if ok else f"expected DomainError, got {outcome[:2]}"
    if outcome[0] != "ok":
        return False, False, f"fit_rate {outcome}"
    fit = outcome[1]
    slope, intercept = lsq_fit(points)
    ok = (abs(fit.slope - slope) <= FIT_TOL * (1 + abs(slope))
          and abs(fit.intercept - intercept) <= FIT_TOL * (1 + abs(intercept)))
    return ok, False, "" if ok else f"fit {fit.slope}, {fit.intercept} vs {slope}, {intercept}"


def close(got, ref, tol):
    return math.isfinite(got) and abs(got - ref) <= tol
