"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload turns a seed into one pass: a fixed list of ops, each a
(kind, params) pair.  The worker repeats the pass for the run's time
budget (a closed loop with one caller); `call` is the only code inside
the timed region.  `check` compares an op's outcome with the oracle after
timing has stopped.  An outcome is ("ok", value), ("raised", name,
message) for the package's documented DomainError / ConvergenceError, or
("crashed", repr) for anything else.

Draws are stratified (one jittered draw per equal slice of the range),
so that the cost of a pass, which is what the end-to-end metrics time,
moves little from seed to seed while every value is still seed-made.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

import oracle

# nu-zeros of H_nu(x) in (0, 8) for a few x, from mpmath.findroot at 30
# digits; zero-finding targets are drawn near them.
HERMITE_NU_ZEROS = {
    -1.0: (0.234233871733543, 1.69746283862915, 3.28019101427509, 4.92981357536363),
    -0.5: (0.530382895815287, 2.2527376201438, 4.04210253462005, 5.86615171781042),
    0.0: (1.0, 3.0, 5.0, 7.0),
    0.25: (1.30684111361814, 3.44840367769386, 5.55427613139543, 7.64245501141221),
    0.5: (1.66435532561832, 3.94794693137105, 6.15970823291796),
    1.0: (2.53719553080394, 5.10382341731707, 7.52664849170776),
    1.5: (3.62768350317802, 6.47360948234558),
}


def strata(rng, lo, hi, k):
    """One uniform draw in each of k equal slices of [lo, hi]."""
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def _fail(note):
    return False, False, note


def _pass():
    return True, False, ""


class Workload:
    name = ""

    def ops(self, rng):
        raise NotImplementedError

    def warm(self, api):
        """Cheap calls that load what the first timed op would load lazily."""

    def call(self, api, kind, params, done):
        """The timed work of one op; `done` holds this pass's earlier outcomes."""
        raise NotImplementedError

    def digest(self, kind, outcome):
        """Comparable form of an outcome, to check that passes agree."""
        return repr(outcome)

    def check(self, kind, params, outcome, done):
        """(ok, known_defect, note) against the oracle."""
        raise NotImplementedError


# ----------------------------------------------------------------- sweep

class Sweep(Workload):
    """scaled_y against hermite_fn at stratified (nu, x, a), a fit_rate
    verdict per (nu, x), and the sup-over-x uniform-error sweep."""

    name = "sweep"
    PAIRS, LADDER = 8, 16
    UNIFORM_A = (1e2, 1e3, 1e4, 1e5)
    UNIFORM_X = tuple(-1.0 + 0.1 * i for i in range(21))

    def ops(self, rng):
        nus = strata(rng, -4.0, 4.0, self.PAIRS)
        xs = strata(rng, -1.0, 1.0, self.PAIRS)
        rng.shuffle(xs)
        log_a = strata(rng, 2.0, 6.0, self.PAIRS * self.LADDER)
        rng.shuffle(log_a)
        ops = []
        for p in range(self.PAIRS):
            idx = []
            for j in range(self.LADDER):
                idx.append(len(ops))
                ops.append(("point", (nus[p], xs[p], 10.0 ** log_a[p * self.LADDER + j])))
            ops.append(("fit", tuple((i, ops[i][1][2]) for i in idx)))
        # At nu = 0 the scaled value equals H_0 = 1 exactly and there is no
        # rate to fit, so the uniform sweep draws |nu| >= 0.5.
        for nu in (rng.uniform(-4.0, -0.5), rng.uniform(0.5, 4.0)):
            idx = []
            for a in self.UNIFORM_A:
                for x in self.UNIFORM_X:
                    idx.append(len(ops))
                    ops.append(("point", (nu, x, a)))
            ops.append(("uniform", tuple((i, ops[i][1][2]) for i in idx)))
        return ops

    def warm(self, api):
        api.fit_rate([(a, api.scaled_y(api.ScaledPoint(0.5, a), 1.5)) for a in (1e2, 2e2, 4e2)])
        api.hermite_fn(1.5, 0.5)

    def call(self, api, kind, params, done):
        if kind == "point":
            nu, x, a = params
            point = api.ScaledPoint(x, a)
            return point.n, api.scaled_y(point, nu), api.hermite_fn(nu, x)
        return api.fit_rate(self._points(kind, params, done))

    @staticmethod
    def _points(kind, params, done):
        """(a, |y - H|) per point op of a fit; for the uniform sweep, the
        sup over x at each a."""
        errs = [(a, abs(done[i][1][1] - done[i][1][2])) for i, a in params]
        if kind == "fit":
            return errs
        sup = {}
        for a, e in errs:
            sup[a] = max(sup.get(a, 0.0), e)
        return sorted(sup.items())

    def check(self, kind, params, outcome, done):
        if outcome[0] != "ok":
            return _fail(f"{kind} {params}: {outcome}")
        if kind == "point":
            nu, x, a = params
            n, y, h = outcome[1]
            m = oracle.mp()
            s = m.mpf(a) - m.mpf(x) * m.sqrt(2 * m.mpf(a))
            if n != int(m.ceil(s)) and abs(s - m.nint(s)) > 1e-9:
                return _fail(f"degree {n} for a={a!r}, x={x!r}; expected ceil({s})")
            c, weight = oracle.charlier_exact(n, a, nu)
            scale = (2 * m.mpf(a)) ** (m.mpf(nu) / 2)
            y_ref = float(scale * m.mpf(c.numerator) / c.denominator)
            if not oracle.close(y, y_ref, oracle.float_sum_tol(float(scale), weight, y_ref)):
                return _fail(f"scaled_y({x!r}, {a!r}, {nu!r}) = {y!r}, ref {y_ref!r}")
            return oracle.check_hermite(nu, x, h)
        pts = self._points(kind, params, done)
        ok, known, note = oracle.check_fit(pts, outcome)
        if ok and kind == "uniform" and not -0.6 <= outcome[1].slope <= -0.4:
            return _fail(f"uniform-error slope {outcome[1].slope:.4f} outside [-0.6, -0.4]")
        return ok, known, note


# ----------------------------------------------------------------- trace

class Trace(Workload):
    """charlier_state_trace against euler_polygon on a ladder of a, with
    head_tail_split for nu <= -4 at the same a."""

    name = "trace"
    # 1e3 .. 2e4.  An odd number of rungs puts the median op inside a rung,
    # not on the cost gap between two rungs.
    LADDER = tuple(10.0 ** (3.0 + 1.3 * i / 16) for i in range(17))
    X_MAX = 1.0

    def ops(self, rng):
        return [("trace", (rng.uniform(-2.0, 3.0), a, direction, rng.uniform(-6.0, -4.0)))
                for a in self.LADDER for direction in (1, -1)]

    def warm(self, api):
        z = api.charlier_state_trace(1.0, 200.0, 0.2)
        api.trace_deviation(z, api.euler_polygon(1.0, z.states[0], 0.2, z.step))
        api.head_tail_split(api.SplitConfig(200.0, -4.0))

    def call(self, api, kind, params, done):
        nu, a, direction, nu_ht = params
        z = api.charlier_state_trace(nu, a, self.X_MAX, direction)
        u = api.euler_polygon(nu, z.states[0], self.X_MAX, z.step, direction)
        dev = api.trace_deviation(z, u)
        u0 = math.hypot(z.states[0, 0], z.states[0, 1])
        bound = api.apriori_deviation_bound(self.X_MAX, z.step, u0, 0.0, self.X_MAX, abs(nu))
        return z, u, dev, bound, api.head_tail_split(api.SplitConfig(a, nu_ht))

    def digest(self, kind, outcome):
        if outcome[0] != "ok":
            return repr(outcome)
        z, u, dev, bound, rep = outcome[1]
        return (z.xs.tobytes(), z.states.tobytes(), u.states.tobytes(), dev, bound, repr(rep))

    def check(self, kind, params, outcome, done):
        if outcome[0] != "ok":
            return _fail(f"trace {params}: {outcome}")
        nu, a, direction, nu_ht = params
        z, u, dev, bound, rep = outcome[1]
        m = oracle.mp()
        r = m.sqrt(2 * m.mpf(a))
        steps = len(z.xs) - 1
        if steps != int(m.floor(self.X_MAX * r + m.mpf(1e-12))):
            return _fail(f"{steps} steps at a={a!r}")
        top = math.ceil(a)
        for k in sorted({0, steps // 2, steps}):
            deg = top - direction * k
            c0, w0 = oracle.charlier_exact(deg, a, nu)
            c1, w1 = oracle.charlier_exact(deg + direction, a, nu)
            s0 = r ** m.mpf(nu)
            y_ref = float(s0 * m.mpf(c0.numerator) / c0.denominator)
            dy_ref = float(direction * s0 * r * (m.mpf((c0 - c1).numerator) / (c0 - c1).denominator))
            if not oracle.close(z.states[k, 0], y_ref, oracle.float_sum_tol(float(s0), w0, y_ref)):
                return _fail(f"trace y at node {k}, a={a!r}, nu={nu!r}: {z.states[k, 0]!r} vs {y_ref!r}")
            tol = oracle.float_sum_tol(float(s0 * r), w0 + w1, dy_ref)
            if not oracle.close(z.states[k, 1], dy_ref, tol):
                return _fail(f"trace dy at node {k}, a={a!r}, nu={nu!r}: {z.states[k, 1]!r} vs {dy_ref!r}")
        # Euler polygon recomputed at 40 digits from the same start and step
        h = direction * m.mpf(z.step)
        y, yp, x = m.mpf(u.states[0, 0]), m.mpf(u.states[0, 1]), m.mpf(0)
        worst = scale = m.mpf(0)
        dev_ref = m.mpf(0)
        for k in range(steps + 1):
            worst = max(worst, abs(y - u.states[k, 0]), abs(yp - u.states[k, 1]))
            scale = max(scale, abs(y), abs(yp))
            dev_ref = max(dev_ref, m.sqrt((m.mpf(z.states[k, 0]) - u.states[k, 0]) ** 2
                                          + (m.mpf(z.states[k, 1]) - u.states[k, 1]) ** 2))
            y, yp, x = y + h * yp, yp + h * (-2 * m.mpf(nu) * y + 2 * x * yp), x + h
        if tuple(u.states[0]) != tuple(z.states[0]) or worst > 1e-9 * max(1, scale):
            return _fail(f"euler_polygon off by {float(worst):.3g} at a={a!r}, nu={nu!r}")
        if not oracle.close(dev, float(dev_ref), 1e-12 * float(dev_ref) + 1e-300):
            return _fail(f"trace_deviation {dev!r} vs {float(dev_ref)!r}")
        lip = m.sqrt(1 + 4 * m.mpf(nu) ** 2 + 4 * m.mpf(self.X_MAX) ** 2)
        u0 = m.sqrt(m.mpf(z.states[0, 0]) ** 2 + m.mpf(z.states[0, 1]) ** 2)
        grow = m.exp(lip * self.X_MAX)
        bound_ref = float(m.mpf(z.step) * (2 * u0 * grow / lip + lip * u0 * grow) * (grow - 1))
        if not oracle.close(bound, bound_ref, 1e-12 * bound_ref):
            return _fail(f"apriori_deviation_bound {bound!r} vs {bound_ref!r}")
        if not dev <= bound:
            return _fail(f"deviation {dev!r} above the a-priori bound {bound!r}")
        return self._check_split(a, nu_ht, rep)

    @staticmethod
    def _check_split(a, nu, rep):
        m = oracle.mp()
        big_a = math.floor(a)
        c, w = oracle.charlier_exact(big_a, a, nu)
        scale = (2 * m.mpf(a)) ** (m.mpf(nu) / 2)
        y_ref = float(scale * m.mpf(c.numerator) / c.denominator)
        if not oracle.close(rep.y0_direct, y_ref, oracle.float_sum_tol(float(scale), w, y_ref)):
            return _fail(f"head_tail_split y0_direct {rep.y0_direct!r} vs {y_ref!r}")
        if not oracle.close(rep.y0_reconstructed, y_ref, 1e-9 * abs(y_ref)):
            return _fail(f"head_tail_split y0_reconstructed {rep.y0_reconstructed!r} vs {y_ref!r}")
        h0 = float(2 ** m.mpf(nu) * m.sqrt(m.pi) * m.rgamma((1 - m.mpf(nu)) / 2))
        if not oracle.close(rep.h_nu_0, h0, 1e-12 * abs(h0)):
            return _fail(f"head_tail_split h_nu_0 {rep.h_nu_0!r} vs {h0!r}")
        return _pass()


# ----------------------------------------------------------------- zeros

def _exact_charlier(n, a, nu):
    """sum_k C(n,k) (-nu)_k a^{-k} in Fractions: the rational-mode oracle."""
    a, nu = Fraction(a), Fraction(nu)
    total, rising = Fraction(0), Fraction(1)
    for k in range(n + 1):
        total += math.comb(n, k) * rising / a ** k
        rising *= -nu + k
    return total


class Zeros(Workload):
    """Many cheap calls: zero finding, the criterion-8 identity suite, a
    hermite_fn grid over [-8, 8]^2, factor_q, trapezoid_gamma_check and
    the exact-rational paths."""

    name = "zeros"
    ZTABLE_A = (100.0, 200.0, 400.0, 800.0)
    ZTABLE_SITES = ((0.0, 3.0), (0.5, HERMITE_NU_ZEROS[0.5][0]), (-0.5, HERMITE_NU_ZEROS[-0.5][1]))

    def ops(self, rng):
        ops = []
        xs = strata(rng, -8.0, 8.0, 20)
        for nu in strata(rng, -8.0, 8.0, 20):
            ops += [("hgrid", (nu, x)) for x in xs]
        for _ in range(100):
            nu = rng.uniform(-8.0, 8.0)
            ops.append(("ident", (rng.randint(1, 24), rng.uniform(0.5, 20.0),
                                  nu + 0.2 if abs(nu) < 0.1 else nu)))
        ops += [("hident", (rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0))) for _ in range(60)]
        # Fixed sites and jittered parameters: which zero a table tracks
        # sets its cost, and the pass cost should not depend on the seed.
        for x, z in self.ZTABLE_SITES:
            a_values = tuple(a * rng.uniform(0.95, 1.05) for a in self.ZTABLE_A)
            ops.append(("ztable", (x, z + rng.uniform(-0.1, 0.1), a_values, z)))
        ops.append(("ztable", (0.5, 3.0, self.ZTABLE_A, None)))  # no zero near: DomainError
        for x in sorted(HERMITE_NU_ZEROS):
            lo = rng.uniform(0.1, 1.0)
            ops.append(("hzeros", (x, lo, lo + 4.0)))
        # count_positive_zeros refines its grid in whole doublings, so its
        # cost jumps with a; fixed a keeps the pass cost seed-independent.
        ops += [("cpz", (n, 1.0 + n)) for n in range(1, 7)]
        ops += [("factor_q", (int(10.0 ** rng.uniform(0.0, 4.0)), rng.uniform(-6.0, 6.0)))
                for _ in range(60)]
        ops += [("kummer_m", (rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 4.0)))
                for _ in range(20)]
        ops += [("upper_incomplete_gamma", (rng.uniform(0.5, 5.0), rng.uniform(0.0, 10.0)))
                for _ in range(20)]
        ops += [("ln_gamma", (rng.uniform(-10.0, 10.0),)) for _ in range(20)]
        for _ in range(4):
            dt = rng.uniform(0.01, 0.05)
            ops.append(("trap", (rng.uniform(-6.0, -3.0), rng.randint(1, 20),
                                 int(rng.uniform(3.0, 8.0) / dt), dt)))
        pairs = [(Fraction(j, r), Fraction(r * r, 2)) for r in (2, 4, 6, 8) for j in range(r * r // 2 + 1)]
        rng.shuffle(pairs)
        ops += [("sharp", p) for p in pairs]
        a_dual = (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        ops += [("dual", (rng.randint(0, 20), rng.randint(0, 20), rng.choice(a_dual))) for _ in range(40)]
        return ops

    def warm(self, api):
        api.hermite_zeros_in_order(0.0, 0.5, 1.5, grid=16)
        api.count_positive_zeros(1, 2.0)
        api.trapezoid_gamma_check(-3.0, 1, 100, 0.05)
        api.sharpness_check(Fraction(1, 2), Fraction(2))

    def call(self, api, kind, params, done):
        if kind == "hgrid":
            return api.hermite_fn(*params)
        if kind == "ident":
            n, a, nu = params
            cm, c0, cp = (api.charlier_direct(k, a, nu) for k in (n - 1, n, n + 1))
            up, dn = api.charlier_direct(n, a, nu + 1.0), api.charlier_direct(n, a, nu - 1.0)
            return (cm, c0, cp, up, dn, api.charlier_order_shift(n, a, nu, c0, dn),
                    api.charlier_backward_step(n, a, nu, cm, c0), api.charlier_direct(n - 1, a, nu - 1.0))
        if kind == "hident":
            nu, x = params
            return (tuple(api.hermite_fn(nu + d, x) for d in (-1.0, 0.0, 1.0))
                    + (api.hermite_derivative(nu - 1.0, x), api.hermite_derivative(nu, x)))
        if kind == "ztable":
            return api.zero_convergence_table(params[0], params[1], params[2])
        if kind == "hzeros":
            return api.hermite_zeros_in_order(*params)
        if kind == "cpz":
            return api.count_positive_zeros(*params)
        if kind in ("factor_q", "kummer_m", "upper_incomplete_gamma", "ln_gamma"):
            return getattr(api, kind)(*params)
        if kind == "trap":
            return api.trapezoid_gamma_check(*params)
        if kind == "sharp":
            return api.sharpness_check(*params)
        m, n, a = params
        return (api.charlier_direct(n, a, m, mode="rational"),
                api.charlier_direct(m, a, n, mode="rational"))

    def check(self, kind, params, outcome, done):
        if kind == "ztable" and params[3] is None:
            if outcome[:2] == ("raised", "DomainError"):
                return _pass()
            return _fail(f"expected DomainError, got {outcome[:2]}")
        if outcome[0] != "ok":
            return _fail(f"{kind} {params}: {outcome}")
        v = outcome[1]
        m = oracle.mp()
        if kind == "hgrid":
            return oracle.check_hermite(params[0], params[1], v)
        if kind == "ident":
            n, a, nu = params
            cm, c0, cp, up, dn, shift, back, back_ref = v
            c_ref, w = oracle.charlier_exact(n, a, nu)
            if not oracle.close(c0, float(c_ref), oracle.float_sum_tol(1.0, w, float(c_ref))):
                return _fail(f"charlier_direct({n}, {a!r}, {nu!r}) = {c0!r}, ref {float(c_ref)!r}")
            r_deg = abs(a * cp - (n + a - nu) * c0 + n * cm) / max(1.0, abs(a * cp), abs((n + a - nu) * c0), abs(n * cm))
            r_ord = abs(shift - up) / max(1.0, abs(up), abs(c0), abs(dn))
            r_back = abs(back - back_ref) / max(1.0, (a / abs(nu)) * (abs(cm) + abs(c0)))
            if max(r_deg, r_ord, r_back) > 1e-10:
                return _fail(f"Charlier identity residual {max(r_deg, r_ord, r_back):.3g} at {params}")
            return _pass()
        if kind == "hident":
            nu, x = params
            hm, h0, hp, dm, d0 = v
            r_rec = abs(hp - 2.0 * x * h0 + 2.0 * nu * hm) / max(1.0, abs(hp), abs(2.0 * x * h0), abs(2.0 * nu * hm))
            ypp = 2.0 * nu * dm
            r_ode = abs(ypp - 2.0 * x * d0 + 2.0 * nu * h0) / max(1.0, abs(ypp), abs(2.0 * nu * h0))
            if max(r_rec, r_ode) > 1e-9:
                return _fail(f"Hermite identity residual {max(r_rec, r_ode):.3g} at {params}")
            return oracle.check_hermite(nu, x, h0)
        if kind == "ztable":
            return self._check_ztable(params, v)
        if kind == "hzeros":
            x, lo, hi = params
            want = [z for z in HERMITE_NU_ZEROS[x] if lo < z < hi]
            if len(v) != len(want):
                return _fail(f"hermite_zeros_in_order({params}) found {len(v)}, expected {len(want)}")
            for got, ref in zip(v, want):
                if not self._hermite_sign_change(x, got.root) or abs(got.root - ref) > 1e-9:
                    return _fail(f"Hermite zero {got.root!r} at x={x}, expected {ref!r}")
            return _pass()
        if kind == "cpz":
            return _pass() if v == params[0] else _fail(f"count_positive_zeros{params} = {v}")
        if kind == "factor_q":
            k, nu = params
            ref = m.gamma(k - m.mpf(nu)) / m.factorial(k)
            tol = 64 * oracle.EPS * float(abs(m.log(abs(m.gamma(k - m.mpf(nu))))) + m.loggamma(k + 1) + 1) * abs(ref)
            return _pass() if oracle.close(v, float(ref), float(tol)) else _fail(f"factor_q{params} = {v!r}, ref {float(ref)!r}")
        if kind == "kummer_m":
            alpha, beta, z = (m.mpf(p) for p in params)
            ref = m.hyp1f1(alpha, beta, z)
            # the series' absolute sum bounds the rounding of its partial sums
            term, size = m.mpf(1), m.mpf(1)
            for k in range(400):
                term *= abs((alpha + k) * z / ((beta + k) * (k + 1)))
                size += term
            return self._close(kind, params, v, ref, 64 * oracle.EPS * size)
        if kind == "upper_incomplete_gamma":
            s, z = (m.mpf(p) for p in params)
            ref = m.gammainc(s, z)
            return self._close(kind, params, v, ref, 1e-12 * abs(ref) + 64 * oracle.EPS * m.gamma(s))
        if kind == "ln_gamma":
            x = m.mpf(params[0])
            ref = m.log(abs(m.gamma(x)))
            if v.sign != (1 if m.gamma(x) > 0 else -1):
                return _fail(f"ln_gamma{params} sign {v.sign}")
            return self._close(kind, params, v.log, ref, 1e-12 * max(1, abs(ref)))
        if kind == "trap":
            nu, lo, hi, dt = params
            nu_m, dt_m = m.mpf(nu), m.mpf(dt)
            s = -nu_m / 2
            g_lo, g_hi = m.gammainc(s, (lo * dt_m) ** 2 / 2), m.gammainc(s, (hi * dt_m) ** 2 / 2)
            closed = 2 ** (-nu_m / 2 - 1) * (g_lo - g_hi)
            riemann = dt_m * m.fsum((k * dt_m) ** (-nu_m - 1) * m.exp(-(k * dt_m) ** 2 / 2) for k in range(lo, hi + 1))
            ok = (oracle.close(v.closed_form, float(closed), float(1e-12 * 2 ** (-nu_m / 2 - 1) * (g_lo + g_hi)))
                  and oracle.close(v.riemann_sum, float(riemann), float(1e-12 * riemann))
                  and v.abs_err == abs(v.riemann_sum - v.closed_form))
            return _pass() if ok else _fail(f"trapezoid_gamma_check{params} = {v}, ref {float(riemann)}, {float(closed)}")
        if kind == "sharp":
            x, a = params
            r = math.isqrt(int(2 * a))
            ok = v.equal and v.n == a - x * r and v.lhs == v.rhs == 4 * x / r
            return _pass() if ok else _fail(f"sharpness_check{params} = {v}")
        mm, n, a = params
        ref = _exact_charlier(n, a, mm)
        return _pass() if v[0] == v[1] == ref else _fail(f"duality at {params}: {v} vs {ref}")

    @staticmethod
    def _close(kind, params, got, ref, tol):
        if oracle.close(got, float(ref), float(tol)):
            return _pass()
        return _fail(f"{kind}{params} = {got!r}, ref {float(ref)!r}")

    @staticmethod
    def _hermite_sign_change(x, root):
        m = oracle.mp()
        d = 1e-9 * max(1.0, abs(root))
        return m.hermite(m.mpf(root) - d, x) * m.hermite(m.mpf(root) + d, x) <= 0

    @staticmethod
    def _check_ztable(params, rows):
        x, _, a_values, zero = params
        m = oracle.mp()
        target = m.findroot(lambda nu: m.hermite(nu, x), m.mpf(zero))
        if len(rows) != len(a_values):
            return _fail(f"zero_convergence_table gave {len(rows)} rows for {len(a_values)} a")
        for row, a in zip(rows, a_values):
            if row.error is not None:
                return _fail(f"zero_convergence_table row a={a!r}: {row.error}")
            if row.n != int(m.floor(m.mpf(a) - x * m.sqrt(2 * m.mpf(a)))):
                return _fail(f"zero_convergence_table degree {row.n} at a={a!r}")
            # A float zero of c_n is only as good as c_n's rounding bound
            # over its slope there; allow that, or 1e-9, on either side.
            _, weight = oracle.charlier_exact(row.n, a, row.nu_n)
            h = 1e-6 * max(1.0, abs(row.nu_n))
            slope = (oracle.charlier_exact(row.n, a, row.nu_n + h)[0]
                     - oracle.charlier_exact(row.n, a, row.nu_n - h)[0]) / (2 * h)
            d = max(1e-9 * max(1.0, abs(row.nu_n)),
                    2 * oracle.float_sum_tol(1.0, weight, 0.0) / max(abs(float(slope)), 1e-300))
            lo = oracle.charlier_exact(row.n, a, row.nu_n - d)[0]
            hi = oracle.charlier_exact(row.n, a, row.nu_n + d)[0]
            if lo * hi > 0:
                return _fail(f"no sign change of c_{row.n} near {row.nu_n!r} at a={a!r}")
            if abs(row.abs_err - abs(row.nu_n - float(target))) > 1e-9:
                return _fail(f"zero error {row.abs_err!r} at a={a!r}, target {float(target)!r}")
        return _pass()


# ------------------------------------------------------------------- cli

def _num(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "nan" if math.isnan(v) else format(v + 0.0, ".17g")
    return str(v)


class Cli(Workload):
    """Each op runs one README command in a fresh interpreter; stdout must
    match the library's values and be byte-identical across runs."""

    name = "cli"

    def __init__(self, root, env):
        self.root, self.env = root, env
        # For the traced pass, child(command name) returns the file where a
        # traced child process writes its spans.
        self.child = None

    def ops(self, rng):
        u = rng.uniform
        f3 = lambda v: f"{v:.3f}"
        x_z, zero = rng.choice([(x, z) for x, zs in HERMITE_NU_ZEROS.items() if abs(x) <= 0.5
                                for z in zs if 2.0 <= z <= 5.0])
        cmds = [
            ("eval-hermite", ["eval", "hermite", "--nu", f3(u(-3, 3)), "--x", f3(u(-1.5, 1.5))]),
            ("eval-charlier", ["eval", "charlier", "--n", str(rng.randint(100, 175)),
                               "--a", f3(u(200, 300)), "--nu", f3(u(0.2, 0.6))]),
            ("eval-charlier-rational", ["eval", "charlier", "--n", str(rng.randint(1, 4)),
                                        "--a", f"{rng.randint(1, 9)}/{rng.randint(1, 4)}",
                                        "--nu", f"{rng.randint(1, 7)}/{rng.randint(1, 4)}",
                                        "--mode", "rational"]),
            ("eval-scaled", ["eval", "scaled", "--x", f3(u(0.3, 0.7)), "--a", str(rng.randint(8000, 12000)),
                             "--nu", f3(u(1, 2))]),
            ("sweep-convergence", ["sweep", "convergence", "--nu", f3(u(1, 2)), "--x", f3(u(0.5, 0.9)),
                                   "--a-list", "100,1000,10000,100000"]),
            ("plot-fnu", ["plot", "fnu", "--nu", f3(u(-3.5, -2.5)), "--t-max", "3", "--dt", "0.01"]),
            ("zeros-convergence", ["zeros", "convergence", "--x", str(x_z), "--target-nu", f3(zero + u(-0.1, 0.1)),
                                   "--a-list", "100,400,1600,6400"]),
            ("polygon-compare", ["polygon", "compare", "--nu", f3(u(0.5, 1.5)), "--x-max", "1",
                                 "--a", str(rng.randint(8000, 12000))]),
            ("asymptotics-head-tail", ["asymptotics", "head-tail", "--a", str(rng.randint(8000, 12000)),
                                       "--nu", f3(u(-5, -4))]),
        ]
        return [("cmd", c) for c in cmds] * 2

    def run_child(self, argv, spans_file=None):
        if spans_file is None:
            cmd = [sys.executable, "-m", "charlier_hermite.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "clichild.py"), spans_file, *argv]
        p = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.root, timeout=60)
        return p.returncode, p.stdout

    def warm(self, api):
        self.run_child(["eval", "hermite", "--nu", "2", "--x", "0.5"])

    def call(self, api, kind, params, done):
        spans_file = self.child(params[0]) if self.child else None
        return self.run_child(params[1], spans_file)

    def check(self, kind, params, outcome, done):
        if outcome[0] != "ok":
            return _fail(f"{params[0]}: {outcome}")
        code, out = outcome[1]
        if code != 0:
            return _fail(f"{' '.join(params[1])} exited {code}")
        lines = out.decode().split("\n")
        if lines[-1] != "" or "\r" in out.decode():
            return _fail(f"{params[0]}: output not LF-terminated")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
        want = self._library_rows(params[1])
        if len(rows) != len(want):
            return _fail(f"{params[0]}: {len(rows)} rows, library {len(want)}")
        for got, exp in zip(rows, want):
            for key, val in exp.items():
                if got.get(key) != _num(val):
                    return _fail(f"{params[0]} column {key}: {got.get(key)!r} vs library {_num(val)!r}")
        return _pass()

    @staticmethod
    def _library_rows(argv):
        import charlier_hermite as api
        flags = dict(zip(argv[2::2], argv[3::2]))
        fl = lambda key: float(flags[key])
        what = f"{argv[0]}-{argv[1]}"
        if what == "eval-hermite":
            return [{"value": api.hermite_fn(fl("--nu"), fl("--x"))}]
        if what == "eval-charlier":
            if flags.get("--mode") == "rational":
                return [{"value": api.charlier_direct(int(flags["--n"]), Fraction(flags["--a"]),
                                                      Fraction(flags["--nu"]), mode="rational")}]
            return [{"value": api.charlier_direct(int(flags["--n"]), fl("--a"), fl("--nu"))}]
        if what == "eval-scaled":
            p = api.ScaledPoint(fl("--x"), fl("--a"))
            return [{"n": p.n, "theta": p.theta, "value": api.scaled_y(p, fl("--nu"))}]
        if what == "sweep-convergence":
            nu, x = fl("--nu"), fl("--x")
            h = api.hermite_fn(nu, x)
            rows = []
            for a in map(float, flags["--a-list"].split(",")):
                y = api.scaled_y(api.ScaledPoint(x, a), nu)
                rows.append({"a": a, "y": y, "hermite": h, "abs_err": abs(y - h)})
            slope = api.fit_rate([(r["a"], r["abs_err"]) for r in rows]).slope
            return [dict(r, slope=slope) for r in rows]
        if what == "plot-fnu":
            nu, dt = fl("--nu"), fl("--dt")
            count = int(math.floor(fl("--t-max") / dt + 1e-12)) + 1
            return [{"t": i * dt, "f": api.f_nu(i * dt, nu)} for i in range(count)]
        if what == "zeros-convergence":
            table = api.zero_convergence_table(fl("--x"), fl("--target-nu"),
                                               [float(a) for a in flags["--a-list"].split(",")])
            return [{"a": r.a, "n": r.n, "nu_n": r.nu_n, "abs_err": r.abs_err} for r in table]
        if what == "polygon-compare":
            nu, x_max = fl("--nu"), fl("--x-max")
            z = api.charlier_state_trace(nu, fl("--a"), x_max)
            u = api.euler_polygon(nu, z.states[0], x_max, z.step)
            return [{"x": float(z.xs[k]), "u_y": float(u.states[k, 0]), "z_y": float(z.states[k, 0]),
                     "z_dy": float(z.states[k, 1])} for k in range(len(z.xs))]
        rep = api.head_tail_split(api.SplitConfig(fl("--a"), fl("--nu")))
        return [{"r_head": rep.r_head, "r_tail": rep.r_tail, "y0_reconstructed": rep.y0_reconstructed,
                 "y0_direct": rep.y0_direct, "h_nu_0": rep.h_nu_0}]
