"""Randomized property suites for the derivative and integral laws.

Each suite draws (scale, function, point, order) tuples from a seeded
generator, evaluates both sides of the law it covers, and reports the
largest residual seen.  The algebraic rules are exercised at scattered
points, where the derivatives take the exact quotient path and the law
should hold to rounding error; dense-point behavior has its own suites
(symmetric-relation includes interval points, order-lowering mixes both)
with correspondingly looser tolerances, since those values come from limit
estimation.

Suites (names as accepted by the CLI `check` command):

* linearity        (f+g) and (lambda*f) rules, all three derivative kinds
* product          both nabla product forms and the symmetric product form
* quotient         reciprocal and quotient rules, nabla and symmetric
* reconstruction   f = f(rho) + nu^alpha * nabla at scattered points, and
                   f(sigma) = f(rho) + (sigma-rho)^alpha * symmetric
* integral-laws    linearity, orientation, additivity, vanishing at a=b,
                   and anchor independence of the Cauchy integrals
* symmetric-relation   symmetric = gamma1*delta + gamma2*nabla
* order-lowering   existence carries from higher to lower order; at dense
                   points the lower-order value vanishes
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .derivative import (
    FnOnScale,
    delta_frac,
    nabla_frac,
    order_lowering_check,
    symmetric_frac,
    symmetric_via_sides,
)
from .errors import TsfracError
from .integral import nabla_antiderivative, nabla_frac_integral, symmetric_frac_integral
from .order import LimitConfig, Order, signed_pow
from .timescale import FinitePoints, GeometricGrid, Interval, TimeScale, UniformGrid

__all__ = ["SUITE_NAMES", "SuiteReport", "run_suite"]

SUITE_NAMES = (
    "linearity",
    "product",
    "quotient",
    "reconstruction",
    "integral-laws",
    "symmetric-relation",
    "order-lowering",
)

_RULE_TOL = 1e-8
_RECON_TOL = 1e-12
_INTEGRAL_TOL = 1e-9
_EXACT_RELATION_TOL = 1e-12
_DENSE_RELATION_TOL = 1e-6
_LOWERED_VALUE_TOL = 1e-5

_ALPHAS = (Order(1, 3), Order(1, 2), Order(3, 4), Order(1, 1))
_BETAS = (Order(1, 4), Order(1, 2), Order(3, 4), Order(1, 1))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    seed: int
    max_residual: float
    failures: int
    messages: tuple

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Recorder:
    def __init__(self):
        self.max_residual = 0.0
        self.failures = 0
        self.messages = []

    def check(self, residual: float, tol: float, context: str) -> None:
        if not math.isfinite(residual):
            residual = math.inf
        self.max_residual = max(self.max_residual, residual)
        if residual > tol:
            self.failures += 1
            if len(self.messages) < 10:
                self.messages.append(f"{context}: residual {residual:.3e} > {tol:g}")

    def fail(self, context: str) -> None:
        self.failures += 1
        if len(self.messages) < 10:
            self.messages.append(context)


# generators
#
# Member magnitudes are kept below about 9 throughout.  The product and
# quotient rules form terms like f(sigma(t)) * g(t); with cubic test
# polynomials on wide scales those can reach 1e10, where double precision
# cannot hold an absolute residual of 1e-8.


def _rand_grid(rng: random.Random) -> UniformGrid:
    step = rng.choice((0.25, 0.5, 1.0, 2.0))
    start = rng.randint(-6, 2)
    most = min(14, int(6.0 / step) + 1)
    count = rng.randint(min(8, most), most)
    return UniformGrid(start, start + step * (count - 1), step)


def _rand_points(rng: random.Random) -> FinitePoints:
    t = rng.uniform(-5.0, -3.0)
    values = []
    for _ in range(rng.randint(6, 8)):
        t += rng.uniform(0.3, 1.2)
        values.append(round(t, 6))
    return FinitePoints(tuple(values))


_QGRID_TOPS = {1.5: 5, 2.0: 3, 3.0: 2}


def _rand_qgrid(rng: random.Random) -> GeometricGrid:
    q = rng.choice((1.5, 2.0, 3.0))
    return GeometricGrid(q, rng.randint(-3, 0), rng.randint(2, _QGRID_TOPS[q]))


def _discrete_scale(rng: random.Random) -> TimeScale:
    maker = rng.choice((_rand_grid, _rand_points, _rand_qgrid))
    return TimeScale([maker(rng)])


def _hybrid_scale(rng: random.Random) -> TimeScale:
    lo = rng.randint(-3, 0)
    hi = lo + rng.choice((1.0, 1.5, 2.0))
    grid_start = hi + rng.choice((0.5, 1.0))
    step = rng.choice((0.5, 1.0))
    count = rng.randint(4, 8)
    comps = [Interval(lo, hi), UniformGrid(grid_start, grid_start + step * (count - 1), step)]
    return TimeScale(comps)


def _members(T: TimeScale) -> list:
    """The members of T's discrete components, ascending."""
    return sorted({m for c in T.components if not isinstance(c, Interval) for m in c.iter_members()})


def _interior(T: TimeScale, where=None) -> list:
    """The members of T's discrete components that are interior to every
    derivative domain and whose PointClass satisfies ``where``, if given."""
    return [
        m
        for m in _members(T)
        if T.domain_membership(m).in_symmetric_domain and (where is None or where(T.classify(m)))
    ]


def _isolated_trials(rng: random.Random, trials: int, rec: "_Recorder"):
    """(k, T, t, alpha) per trial: a random discrete scale, a random interior
    member scattered on both sides, and an order.  A trial whose scale has
    no such member is a recorded failure."""
    for k in range(trials):
        T = _discrete_scale(rng)
        candidates = _interior(T, lambda cls: cls.isolated)
        if not candidates:
            rec.fail(f"trial {k}: no usable point in {T.describe()}")
            continue
        yield k, T, rng.choice(candidates), rng.choice(_ALPHAS)


def _poly_eval(coeffs: tuple):
    def ev(x: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    return ev


def _rand_poly(rng: random.Random, T: TimeScale, max_coeffs: int = 4) -> FnOnScale:
    coeffs = tuple(round(rng.uniform(-2.5, 2.5), 3) for _ in range(rng.randint(2, max_coeffs)))
    return FnOnScale(_poly_eval(coeffs), T)


def _rand_bounded_poly(rng: random.Random, T: TimeScale, points: tuple) -> FnOnScale:
    """A polynomial staying away from zero on the given points (for
    denominators)."""
    for _ in range(60):
        fn = _rand_poly(rng, T, max_coeffs=3)
        if all(abs(fn.eval(p)) >= 0.3 for p in points):
            return fn
    shift = 5.0
    coeffs_fn = fn.eval
    return FnOnScale(lambda x: coeffs_fn(x) + shift, T)


# suites


def _suite_linearity(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    for k, T, t, alpha in _isolated_trials(rng, trials, rec):
        lam = round(rng.uniform(-3.0, 3.0), 3)
        f = _rand_poly(rng, T)
        g = _rand_poly(rng, T)
        fg = FnOnScale(lambda x: f.eval(x) + g.eval(x), T)
        lf = FnOnScale(lambda x: lam * f.eval(x), T)
        for kind_name, deriv in (("nabla", nabla_frac), ("delta", delta_frac), ("symmetric", symmetric_frac)):
            df = deriv(f, t, alpha, cfg).value
            dg = deriv(g, t, alpha, cfg).value
            ctx = f"trial {k} {kind_name} alpha={alpha} t={t} on {T.describe()}"
            rec.check(abs(deriv(fg, t, alpha, cfg).value - (df + dg)), _RULE_TOL, f"sum {ctx}")
            rec.check(abs(deriv(lf, t, alpha, cfg).value - lam * df), _RULE_TOL, f"scalar {ctx}")
    return rec


def _suite_product(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    for k, T, t, alpha in _isolated_trials(rng, trials, rec):
        f = _rand_poly(rng, T, max_coeffs=3)
        g = _rand_poly(rng, T, max_coeffs=3)
        prod = FnOnScale(lambda x: f.eval(x) * g.eval(x), T)
        r = T.rho(t)
        s = T.sigma(t)
        ctx = f"trial {k} alpha={alpha} t={t} on {T.describe()}"

        nf = nabla_frac(f, t, alpha, cfg).value
        ng = nabla_frac(g, t, alpha, cfg).value
        nprod = nabla_frac(prod, t, alpha, cfg).value
        rec.check(abs(nprod - (nf * g.eval(t) + f.eval(r) * ng)), _RULE_TOL, f"nabla product form 1 {ctx}")
        rec.check(abs(nprod - (nf * g.eval(r) + f.eval(t) * ng)), _RULE_TOL, f"nabla product form 2 {ctx}")

        sf = symmetric_frac(f, t, alpha, cfg).value
        sg = symmetric_frac(g, t, alpha, cfg).value
        sprod = symmetric_frac(prod, t, alpha, cfg).value
        rec.check(abs(sprod - (sf * g.eval(s) + f.eval(r) * sg)), _RULE_TOL, f"symmetric product {ctx}")
    return rec


def _suite_quotient(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    for k, T, t, alpha in _isolated_trials(rng, trials, rec):
        r = T.rho(t)
        s = T.sigma(t)
        f = _rand_poly(rng, T, max_coeffs=3)
        g = _rand_bounded_poly(rng, T, (t, r, s))
        quot = FnOnScale(lambda x: f.eval(x) / g.eval(x), T)
        recip = FnOnScale(lambda x: 1.0 / g.eval(x), T)
        ctx = f"trial {k} alpha={alpha} t={t} on {T.describe()}"

        nf = nabla_frac(f, t, alpha, cfg).value
        ng = nabla_frac(g, t, alpha, cfg).value
        rec.check(
            abs(nabla_frac(recip, t, alpha, cfg).value + ng / (g.eval(r) * g.eval(t))),
            _RULE_TOL,
            f"nabla reciprocal {ctx}",
        )
        rec.check(
            abs(
                nabla_frac(quot, t, alpha, cfg).value
                - (nf * g.eval(t) - f.eval(t) * ng) / (g.eval(r) * g.eval(t))
            ),
            _RULE_TOL,
            f"nabla quotient {ctx}",
        )

        sf = symmetric_frac(f, t, alpha, cfg).value
        sg = symmetric_frac(g, t, alpha, cfg).value
        rec.check(
            abs(symmetric_frac(recip, t, alpha, cfg).value + sg / (g.eval(s) * g.eval(r))),
            _RULE_TOL,
            f"symmetric reciprocal {ctx}",
        )
        rec.check(
            abs(
                symmetric_frac(quot, t, alpha, cfg).value
                - (sf * g.eval(r) - f.eval(r) * sg) / (g.eval(s) * g.eval(r))
            ),
            _RULE_TOL,
            f"symmetric quotient {ctx}",
        )
    return rec


def _suite_reconstruction(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    for k in range(trials):
        T = rng.choice((_discrete_scale, _hybrid_scale))(rng)
        points = _interior(T, lambda cls: not cls.dense)
        if not points:
            rec.fail(f"trial {k}: no scattered interior point in {T.describe()}")
            continue
        t = rng.choice(points)
        alpha = rng.choice(_ALPHAS)
        f = _rand_poly(rng, T)
        r = T.rho(t)
        s = T.sigma(t)
        ctx = f"trial {k} alpha={alpha} t={t} on {T.describe()}"
        if T.classify(t).left_scattered:
            nab = nabla_frac(f, t, alpha, cfg).value
            rec.check(
                abs(f.eval(t) - (f.eval(r) + signed_pow(t - r, alpha) * nab)),
                _RECON_TOL,
                f"nabla reconstruction {ctx}",
            )
        sym = symmetric_frac(f, t, alpha, cfg).value
        rec.check(
            abs(f.eval(s) - (f.eval(r) + signed_pow(s - r, alpha) * sym)),
            _RECON_TOL,
            f"symmetric reconstruction {ctx}",
        )
    return rec


def _suite_integral_laws(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    for k in range(trials):
        interior: list[float] = []
        for _ in range(30):
            T = _discrete_scale(rng)
            interior = _interior(T)
            if len(interior) >= 3:
                break
        if len(interior) < 3:
            rec.fail(f"trial {k}: too few interior points in {T.describe()}")
            continue
        ia, ic, ib = sorted(rng.sample(range(len(interior)), 3))
        a, c, b = interior[ia], interior[ic], interior[ib]
        beta = rng.choice(_BETAS)
        lam = round(rng.uniform(-3.0, 3.0), 3)
        f = _rand_poly(rng, T)
        g = _rand_poly(rng, T)
        fg = FnOnScale(lambda x: f.eval(x) + g.eval(x), T)
        lf = FnOnScale(lambda x: lam * f.eval(x), T)
        for label, integ in (("nabla", nabla_frac_integral), ("symmetric", symmetric_frac_integral)):
            ctx = f"trial {k} {label} beta={beta} [{a}, {b}] on {T.describe()}"
            i_f = integ(f, a, b, beta, cfg)
            i_g = integ(g, a, b, beta, cfg)
            rec.check(abs(integ(fg, a, b, beta, cfg) - (i_f + i_g)), _INTEGRAL_TOL, f"sum {ctx}")
            rec.check(abs(integ(lf, a, b, beta, cfg) - lam * i_f), _INTEGRAL_TOL, f"scalar {ctx}")
            rec.check(abs(integ(f, b, a, beta, cfg) + i_f), _INTEGRAL_TOL, f"orientation {ctx}")
            rec.check(
                abs(integ(f, a, c, beta, cfg) + integ(f, c, b, beta, cfg) - i_f),
                _INTEGRAL_TOL,
                f"additivity {ctx}",
            )
            rec.check(abs(integ(f, a, a, beta, cfg)), 0.0, f"vanishing {ctx}")
        # anchor independence: the nabla Cauchy value computed through
        # antiderivatives anchored at two different points must agree
        if not beta.is_one:
            order = beta.one_minus()
            ctx = f"trial {k} anchors beta={beta} [{a}, {b}] on {T.describe()}"
            f1 = nabla_antiderivative(f, a).as_fn()
            f2 = nabla_antiderivative(f, c).as_fn()
            v1 = nabla_frac(f1, b, order, cfg).value - nabla_frac(f1, a, order, cfg).value
            v2 = nabla_frac(f2, b, order, cfg).value - nabla_frac(f2, a, order, cfg).value
            rec.check(abs(v1 - v2), _INTEGRAL_TOL, ctx)
    return rec


def _suite_symmetric_relation(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    dense_cfg = LimitConfig(h0=cfg.h0, ratio=cfg.ratio, tol=max(cfg.tol, 1e-7), max_samples=max(cfg.max_samples, 80))
    smooth = (
        ("sin(t)", math.sin),
        ("exp(t)", math.exp),
        ("t^3", lambda x: x**3),
    )
    for k in range(trials):
        T = rng.choice((_discrete_scale, _hybrid_scale))(rng)
        points = _interior(T, lambda cls: not cls.dense)
        if points:
            t = rng.choice(points)
            alpha = rng.choice(_ALPHAS)
            f = _rand_poly(rng, T)
            lhs = symmetric_frac(f, t, alpha, cfg).value
            rhs = symmetric_via_sides(f, t, alpha, cfg).value
            rec.check(
                abs(lhs - rhs),
                _EXACT_RELATION_TOL,
                f"trial {k} scattered alpha={alpha} t={t} on {T.describe()}",
            )
        # dense side: interval interior with a smooth function and an
        # odd-reciprocal order, so both one-sided derivatives exist
        iv = TimeScale([Interval(-1.0, 1.0)])
        name, fn = smooth[k % len(smooth)]
        t = round(rng.uniform(-0.6, 0.6), 3)
        alpha = rng.choice((Order(1, 3), Order(1, 1)))
        f = FnOnScale(fn, iv)
        lhs = symmetric_frac(f, t, alpha, dense_cfg).value
        rhs = symmetric_via_sides(f, t, alpha, dense_cfg).value
        rec.check(
            abs(lhs - rhs),
            _DENSE_RELATION_TOL,
            f"trial {k} dense {name} alpha={alpha} t={t}",
        )
    return rec


def _suite_order_lowering(rng: random.Random, trials: int, cfg: LimitConfig) -> _Recorder:
    rec = _Recorder()
    # Dense-limit quotients carry rounding noise of order eps/h**alpha, so
    # a sub-1e-6 target can push the sampling into that noise; floor it.
    low_cfg = LimitConfig(h0=cfg.h0, ratio=cfg.ratio, tol=max(cfg.tol, 1e-6), max_samples=max(cfg.max_samples, 80))
    scattered_pairs = (
        (Order(1, 4), Order(1, 2)),
        (Order(1, 3), Order(1, 1)),
        (Order(1, 2), Order(1, 1)),
        (Order(1, 2), Order(3, 4)),
    )
    # At dense points the quotient's rounding noise grows like
    # eps / h**alpha, so orders much above 1/2 cannot settle to a tight
    # tolerance in double precision; keep the dense branch to orders
    # that converge cleanly.
    dense_pairs = (
        (Order(1, 4), Order(1, 2)),
        (Order(1, 3), Order(1, 1)),
        (Order(1, 2), Order(1, 1)),
    )
    for k in range(trials):
        if k % 2 == 0:
            T = _discrete_scale(rng)
            members = [m for m in _members(T) if T.domain_membership(m).in_nabla_domain]
            if not members:
                rec.fail(f"trial {k}: no usable point in {T.describe()}")
                continue
            t = rng.choice(members)
            f = _rand_poly(rng, T)
            lower, higher = rng.choice(scattered_pairs)
        else:
            T = TimeScale([Interval(-1.0, 1.0)])
            t = round(rng.uniform(-0.6, 0.6), 3)
            f = _rand_poly(rng, T)
            lower, higher = rng.choice(dense_pairs)
        ctx = f"trial {k} {lower}<{higher} t={t} on {T.describe()}"
        try:
            ok = order_lowering_check(f, t, lower, higher, low_cfg)
        except TsfracError as exc:
            rec.fail(f"{ctx}: higher order failed ({exc})")
            continue
        if not ok:
            rec.fail(ctx)
            continue
        if T.classify(t).left_dense:
            low = nabla_frac(f, t, lower, low_cfg).value
            rec.check(abs(low), _LOWERED_VALUE_TOL, f"dense lowered value {ctx}")
    return rec


_SUITES = {
    "linearity": _suite_linearity,
    "product": _suite_product,
    "quotient": _suite_quotient,
    "reconstruction": _suite_reconstruction,
    "integral-laws": _suite_integral_laws,
    "symmetric-relation": _suite_symmetric_relation,
    "order-lowering": _suite_order_lowering,
}


def run_suite(
    suite: str, seed: int = 0, trials: int = 50, cfg: LimitConfig | None = None
) -> SuiteReport:
    """Run one named property suite; deterministic for a given seed."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if cfg is None:
        cfg = LimitConfig()
    rng = random.Random(seed)
    rec = _SUITES[suite](rng, trials, cfg)
    return SuiteReport(
        suite=suite,
        trials=trials,
        seed=seed,
        max_residual=rec.max_residual,
        failures=rec.failures,
        messages=tuple(rec.messages),
    )
