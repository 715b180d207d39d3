"""Randomized property suites for the derivative and integral laws.

Each suite draws (scale, function, point, order) tuples from a seeded
generator, evaluates both sides of the law it covers, and yields each check
as (residual, tol, context), or (None, None, context) for a trial that fails
outright; :func:`run_suite` judges them and reports the largest residual
seen.  The algebraic rules are exercised at scattered points, where every
kind's derivative is the exact quotient
``D = [f(hi) - f(lo)] / (hi - lo)**alpha``, with lo = rho(t) if the kind
looks left (else t) and hi = sigma(t) if it looks right (else t).  Each
rule is stated once in (D, lo, hi), should hold to rounding error, and is
checked for the nabla, delta and symmetric derivatives alike.  Dense-point
behavior has its own suites (symmetric-relation includes interval points,
order-lowering mixes both) with looser tolerances, since those values come
from limit estimation.  Each suite fixes its own limits: symmetric-relation's
interval trials take ``LimitConfig(tol=1e-7, max_samples=80)``, every
order-lowering trial ``LimitConfig(tol=1e-6, max_samples=80)``, and the
rest pass no config, as their quotients are exact.

Suites (names as accepted by the CLI `check` command):

* linearity        D(f+g) = Df + Dg and D(lambda*f) = lambda*Df
* product          D(fg) = Df*g(hi) + f(lo)*Dg = Df*g(lo) + f(hi)*Dg
* quotient         D(1/g) = -Dg / (g(lo)*g(hi)) and D(f/g) in both forms
* reconstruction   f(hi) = f(lo) + (hi-lo)^alpha * D wherever lo < hi
* integral-laws    linearity, orientation, additivity, vanishing at a=b,
                   and anchor independence of the Cauchy integrals
* symmetric-relation   symmetric = gamma1*delta + gamma2*nabla
* order-lowering   existence carries from higher to lower order; at dense
                   points the lower-order value vanishes
"""

from __future__ import annotations

import math
import random

from .derivative import (
    _DERIVS,
    _KINDS,
    DerivKind,
    FnOnScale,
    delta_frac,
    nabla_frac,
    symmetric_frac,
    symmetric_weights,
)
from .errors import TsfracError, _Record
from .integral import Antiderivative, nabla_frac_integral, symmetric_frac_integral
from .order import LimitConfig, Order, signed_pow
from .timescale import FinitePoints, GeometricGrid, Interval, TimeScale, UniformGrid

__all__ = ["SUITE_NAMES", "SuiteReport", "run_suite"]

_RULE_TOL = 1e-8
_RECON_TOL = 1e-12
_INTEGRAL_TOL = 1e-9
_EXACT_RELATION_TOL = 1e-12
_DENSE_RELATION_TOL = 1e-6
_LOWERED_VALUE_TOL = 1e-5

# At the default 1e-8, 2 to 5 of 50 interval trials of symmetric-relation
# do not settle (seeds 0, 1 and 17).
_DENSE_CFG = LimitConfig(tol=1e-7, max_samples=80)
# Dense-limit quotients carry rounding noise of order eps/h**alpha, so a
# sub-1e-6 target can push order-lowering's sampling into that noise.
_LOWERING_CFG = LimitConfig(tol=1e-6, max_samples=80)

_ALPHAS = (Order(1, 3), Order(1, 2), Order(3, 4), Order(1, 1))
_BETAS = (Order(1, 4), Order(1, 2), Order(3, 4), Order(1, 1))

_UNIT_INTERVAL = TimeScale([Interval(-1.0, 1.0)])


class SuiteReport(_Record):
    def __init__(self, suite: str, trials: int, seed: int, max_residual: float, failures: int, messages: tuple):
        vars(self).update(suite=suite, trials=trials, seed=seed, max_residual=max_residual, failures=failures, messages=messages)

    @property
    def passed(self) -> bool:
        return self.failures == 0


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


def _isolated_trials(rng: random.Random, trials: int):
    """(k, T, t, alpha) per trial: a random discrete scale, a random interior
    member scattered on both sides, and an order."""
    for k in range(trials):
        T = _discrete_scale(rng)
        yield k, T, rng.choice(_interior(T, lambda cls: cls.isolated)), rng.choice(_ALPHAS)


def _scattered_trials(rng: random.Random, trials: int):
    """(k, T, t, alpha, f) per trial: a random discrete or hybrid scale, a
    random interior member that is not dense, an order and a polynomial."""
    for k in range(trials):
        T = rng.choice((_discrete_scale, _hybrid_scale))(rng)
        t = rng.choice(_interior(T, lambda cls: not cls.dense))
        yield k, T, t, rng.choice(_ALPHAS), _rand_poly(rng, T)


def _kinds_at(T: TimeScale, t: float):
    """(name, derivative, lo, hi) per kind at t: the kind's exact quotient is
    [f(hi) - f(lo)] / (hi - lo)**alpha, with lo = rho(t) if the kind looks
    left (else t) and hi = sigma(t) if it looks right (else t)."""
    r, s = T.rho(t), T.sigma(t)
    for kind, deriv in _DERIVS.items():
        left, right = _KINDS[kind][:2]
        yield kind.value, deriv, r if left else t, s if right else t


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


def _linear(op, f: FnOnScale, g: FnOnScale, lam: float, tol: float, ctx: str):
    """Yield the sum and scalar checks op(f+g) = op(f) + op(g) and
    op(lam*f) = lam*op(f); return op(f)."""
    T = f.scale
    of, og = op(f), op(g)
    yield abs(op(FnOnScale(lambda x: f.eval(x) + g.eval(x), T)) - (of + og)), tol, f"sum {ctx}"
    yield abs(op(FnOnScale(lambda x: lam * f.eval(x), T)) - lam * of), tol, f"scalar {ctx}"
    return of


def _suite_linearity(rng: random.Random, trials: int):
    for k, T, t, alpha in _isolated_trials(rng, trials):
        lam = round(rng.uniform(-3.0, 3.0), 3)
        f = _rand_poly(rng, T)
        g = _rand_poly(rng, T)
        for kind, deriv in _DERIVS.items():
            ctx = f"trial {k} {kind.value} alpha={alpha} t={t} on {T.describe()}"
            yield from _linear(lambda h: deriv(h, t, alpha).value, f, g, lam, _RULE_TOL, ctx)


def _suite_product(rng: random.Random, trials: int):
    for k, T, t, alpha in _isolated_trials(rng, trials):
        f = _rand_poly(rng, T, max_coeffs=3)
        g = _rand_poly(rng, T, max_coeffs=3)
        prod = FnOnScale(lambda x: f.eval(x) * g.eval(x), T)
        for name, deriv, lo, hi in _kinds_at(T, t):
            df, dg, dprod = (deriv(h, t, alpha).value for h in (f, g, prod))
            ctx = f"trial {k} {name} alpha={alpha} t={t} on {T.describe()}"
            yield abs(dprod - (df * g.eval(hi) + f.eval(lo) * dg)), _RULE_TOL, f"product form 1 {ctx}"
            yield abs(dprod - (df * g.eval(lo) + f.eval(hi) * dg)), _RULE_TOL, f"product form 2 {ctx}"


def _suite_quotient(rng: random.Random, trials: int):
    for k, T, t, alpha in _isolated_trials(rng, trials):
        f = _rand_poly(rng, T, max_coeffs=3)
        g = _rand_bounded_poly(rng, T, (t, T.rho(t), T.sigma(t)))
        quot = FnOnScale(lambda x: f.eval(x) / g.eval(x), T)
        recip = FnOnScale(lambda x: 1.0 / g.eval(x), T)
        for name, deriv, lo, hi in _kinds_at(T, t):
            df, dg, drecip, dquot = (deriv(h, t, alpha).value for h in (f, g, recip, quot))
            glo, ghi = g.eval(lo), g.eval(hi)
            ctx = f"trial {k} {name} alpha={alpha} t={t} on {T.describe()}"
            yield abs(drecip + dg / (glo * ghi)), _RULE_TOL, f"reciprocal {ctx}"
            yield abs(dquot - (df * ghi - f.eval(hi) * dg) / (glo * ghi)), _RULE_TOL, f"quotient form 1 {ctx}"
            yield abs(dquot - (df * glo - f.eval(lo) * dg) / (glo * ghi)), _RULE_TOL, f"quotient form 2 {ctx}"


def _suite_reconstruction(rng: random.Random, trials: int):
    for k, T, t, alpha, f in _scattered_trials(rng, trials):
        for name, deriv, lo, hi in _kinds_at(T, t):
            if lo < hi:
                value = deriv(f, t, alpha).value
                yield (
                    abs(f.eval(hi) - (f.eval(lo) + signed_pow(hi - lo, alpha) * value)),
                    _RECON_TOL,
                    f"reconstruction trial {k} {name} alpha={alpha} t={t} on {T.describe()}",
                )


def _suite_integral_laws(rng: random.Random, trials: int):
    for k in range(trials):
        interior: list[float] = []
        for _ in range(30):
            T = _discrete_scale(rng)
            interior = _interior(T)
            if len(interior) >= 3:
                break
        if len(interior) < 3:
            yield None, None, f"trial {k}: too few interior points in {T.describe()}"
            continue
        ia, ic, ib = sorted(rng.sample(range(len(interior)), 3))
        a, c, b = interior[ia], interior[ic], interior[ib]
        beta = rng.choice(_BETAS)
        lam = round(rng.uniform(-3.0, 3.0), 3)
        f = _rand_poly(rng, T)
        g = _rand_poly(rng, T)
        for label, integ in (("nabla", nabla_frac_integral), ("symmetric", symmetric_frac_integral)):
            ctx = f"trial {k} {label} beta={beta} [{a}, {b}] on {T.describe()}"
            i_f = yield from _linear(lambda h: integ(h, a, b, beta), f, g, lam, _INTEGRAL_TOL, ctx)
            yield abs(integ(f, b, a, beta) + i_f), _INTEGRAL_TOL, f"orientation {ctx}"
            yield abs(integ(f, a, c, beta) + integ(f, c, b, beta) - i_f), _INTEGRAL_TOL, f"additivity {ctx}"
            yield abs(integ(f, a, a, beta)), 0.0, f"vanishing {ctx}"
        # anchor independence: the nabla Cauchy value computed through
        # antiderivatives anchored at two different points must agree
        if not beta.is_one:
            order = beta.one_minus()
            f1 = Antiderivative(f, a, DerivKind.NABLA).as_fn()
            f2 = Antiderivative(f, c, DerivKind.NABLA).as_fn()
            v1 = nabla_frac(f1, b, order).value - nabla_frac(f1, a, order).value
            v2 = nabla_frac(f2, b, order).value - nabla_frac(f2, a, order).value
            yield abs(v1 - v2), _INTEGRAL_TOL, f"trial {k} anchors beta={beta} [{a}, {b}] on {T.describe()}"


def _symmetric_via_sides(f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None) -> float:
    """The symmetric derivative assembled as gamma1*delta + gamma2*nabla, a
    cross-check of :func:`symmetric_frac`; both one-sided derivatives must
    succeed."""
    d = delta_frac(f, t, order, cfg)
    n = nabla_frac(f, t, order, cfg)
    w = symmetric_weights(f.scale, t, order)
    return w.gamma1 * d.value + w.gamma2 * n.value


def _suite_symmetric_relation(rng: random.Random, trials: int):
    smooth = (
        ("sin(t)", math.sin),
        ("exp(t)", math.exp),
        ("t^3", lambda x: x**3),
    )
    for k, T, t, alpha, f in _scattered_trials(rng, trials):
        lhs = symmetric_frac(f, t, alpha).value
        rhs = _symmetric_via_sides(f, t, alpha)
        yield abs(lhs - rhs), _EXACT_RELATION_TOL, f"trial {k} scattered alpha={alpha} t={t} on {T.describe()}"
        # dense side: interval interior with a smooth function and an
        # odd-reciprocal order, so both one-sided derivatives exist
        name, fn = smooth[k % len(smooth)]
        t = round(rng.uniform(-0.6, 0.6), 3)
        alpha = rng.choice((Order(1, 3), Order(1, 1)))
        f = FnOnScale(fn, _UNIT_INTERVAL)
        ctx = f"trial {k} dense {name} alpha={alpha} t={t}"
        try:
            lhs = symmetric_frac(f, t, alpha, _DENSE_CFG).value
            rhs = _symmetric_via_sides(f, t, alpha, _DENSE_CFG)
        except TsfracError as exc:
            yield None, None, f"{ctx}: {type(exc).__name__} ({exc})"
        else:
            yield abs(lhs - rhs), _DENSE_RELATION_TOL, ctx


def _suite_order_lowering(rng: random.Random, trials: int):
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
            t = rng.choice([m for m in _members(T) if T.domain_membership(m).in_nabla_domain])
            f = _rand_poly(rng, T)
            lower, higher = rng.choice(scattered_pairs)
        else:
            T = _UNIT_INTERVAL
            t = round(rng.uniform(-0.6, 0.6), 3)
            f = _rand_poly(rng, T)
            lower, higher = rng.choice(dense_pairs)
        ctx = f"trial {k} {lower}<{higher} t={t} on {T.describe()}"
        # existence carries down: the higher order first, as a precondition
        try:
            nabla_frac(f, t, higher, _LOWERING_CFG)
        except TsfracError as exc:
            yield None, None, f"{ctx}: higher order failed ({exc})"
            continue
        try:
            low = nabla_frac(f, t, lower, _LOWERING_CFG).value
        except TsfracError:
            yield None, None, ctx
            continue
        if T.classify(t).left_dense:
            yield abs(low), _LOWERED_VALUE_TOL, f"dense lowered value {ctx}"


_SUITES = {
    "linearity": _suite_linearity,
    "product": _suite_product,
    "quotient": _suite_quotient,
    "reconstruction": _suite_reconstruction,
    "integral-laws": _suite_integral_laws,
    "symmetric-relation": _suite_symmetric_relation,
    "order-lowering": _suite_order_lowering,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(suite: str, seed: int = 0, trials: int = 50) -> SuiteReport:
    """Run one named property suite; deterministic for a given seed."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {', '.join(SUITE_NAMES)}")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    max_residual, failures, messages = 0.0, 0, []
    for residual, tol, context in _SUITES[suite](random.Random(seed), trials):
        if residual is not None:
            if not math.isfinite(residual):
                residual = math.inf
            max_residual = max(max_residual, residual)
            if residual <= tol:
                continue
            context = f"{context}: residual {residual:.3e} > {tol:g}"
        failures += 1
        if len(messages) < 10:
            messages.append(context)
    return SuiteReport(suite, trials, seed, max_residual, failures, tuple(messages))
