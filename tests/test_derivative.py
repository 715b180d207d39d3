"""Behavior of the three fractional derivative operators.

Closed forms on discrete scales are exact quotients, so those tests pin
values to near machine precision.  Dense-point tests go through the limit
estimator and get tolerances matched to its configuration.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from tsfrac import (
    ApproachSide,
    ComputePath,
    DerivKind,
    ExprSyntaxError,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    LimitConfig,
    LimitDidNotConverge,
    NonFiniteSample,
    Order,
    PointNotInScale,
    PointOutsideDomain,
    SidedLimitsDisagree,
    TimeScale,
    UniformGrid,
    checks,
    delta_frac,
    estimate_limit,
    eval_expr,
    nabla_frac,
    parse_expr,
    parse_scale,
    signed_pow,
    symmetric_frac,
    symmetric_weights,
)

INTEGERS = TimeScale([UniformGrid(0.0, 10.0, 1.0)])
HALF = TimeScale([UniformGrid(0.0, 5.0, 0.5)])
QGRID = TimeScale([GeometricGrid(2.0, 0, 6)])

ALPHAS = (Order(1, 3), Order(1, 2), Order(1, 1))


def ident(T):
    return FnOnScale(lambda x: x, T)


# -- nabla on discrete scales --------------------------------------------


def test_constant_has_zero_derivative():
    f = FnOnScale(lambda x: 7.25, INTEGERS)
    for a in ALPHAS:
        assert nabla_frac(f, 4.0, a).value == 0.0
        assert delta_frac(f, 4.0, a).value == 0.0
        assert symmetric_frac(f, 4.0, a).value == 0.0


def test_identity_on_grids_gives_backward_graininess_power():
    for T in (INTEGERS, HALF, QGRID):
        f = ident(T)
        for a in ALPHAS:
            for t in list(T.components[0].iter_members())[1:]:
                nu = T.nu(t)
                r = nabla_frac(f, t, a)
                assert r.path is ComputePath.EXACT_SCATTERED
                assert r.value == pytest.approx(nu ** (1 - a.value), abs=1e-12)


def test_identity_alpha_one_is_classical():
    f = ident(INTEGERS)
    r = nabla_frac(f, 6.0, Order(1, 1))
    assert r.value == 1.0


def test_delta_identity_mirrors_with_forward_graininess():
    for T in (INTEGERS, HALF, QGRID):
        f = ident(T)
        for a in ALPHAS:
            for t in list(T.components[0].iter_members())[:-1]:
                mu = T.mu(t)
                r = delta_frac(f, t, a)
                assert r.path is ComputePath.EXACT_SCATTERED
                assert r.value == pytest.approx(mu ** (1 - a.value), abs=1e-12)


def test_square_on_integers():
    f = FnOnScale(lambda x: x * x, INTEGERS)
    # backward quotient (t^2 - (t-1)^2) / 1**a = 2t - 1
    for a in ALPHAS:
        assert nabla_frac(f, 5.0, a).value == pytest.approx(9.0, abs=1e-12)
    # forward quotient gives 2t + 1
    assert delta_frac(f, 5.0, Order(1, 2)).value == pytest.approx(11.0, abs=1e-12)


def test_domain_exclusions():
    f = ident(INTEGERS)
    with pytest.raises(PointOutsideDomain):
        nabla_frac(f, 0.0, Order(1, 2))
    with pytest.raises(PointOutsideDomain):
        delta_frac(f, 10.0, Order(1, 2))
    with pytest.raises(PointOutsideDomain):
        symmetric_frac(f, 0.0, Order(1, 2))
    with pytest.raises(PointNotInScale):
        nabla_frac(f, 3.5, Order(1, 2))
    # float() of the first overflows, and str() of the second exceeds
    # Python's digit limit: the message must not need it
    for big in (10**400, 10**5000):
        for call in (nabla_frac, delta_frac, symmetric_frac, checks._symmetric_via_sides):
            with pytest.raises(PointNotInScale):
                call(f, big, Order(1, 2))
        with pytest.raises(PointNotInScale):
            symmetric_weights(INTEGERS, big, Order(1, 2))
    # a Fraction is a point like its float, on the exact and the dense path
    assert nabla_frac(f, Fraction(3), Order(1, 2)) == nabla_frac(f, 3.0, Order(1, 2))
    g = ident(TimeScale([Interval(0.0, 1.0)]))
    assert nabla_frac(g, Fraction(1, 2), Order(1, 1)) == nabla_frac(g, 0.5, Order(1, 1))
    # the excluded endpoint is fine for the operator looking the other way
    assert delta_frac(f, 0.0, Order(1, 2)).value == 1.0
    assert nabla_frac(f, 10.0, Order(1, 2)).value == 1.0


def test_zero_order_rejected():
    f = ident(INTEGERS)
    with pytest.raises(ValueError):
        nabla_frac(f, 3.0, Order(0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda f, bad: nabla_frac(f, 3.0, bad),
        lambda f, bad: delta_frac(f, 3.0, bad),
        lambda f, bad: symmetric_frac(f, 3.0, bad),
        lambda f, bad: checks._symmetric_via_sides(f, 3.0, bad),
        lambda f, bad: symmetric_weights(f.scale, 3.0, bad),
    ],
)
@pytest.mark.parametrize("bad", [0.5, 1, Fraction(1, 2)])
def test_non_order_is_a_type_error(call, bad):
    # a float order used to end in AttributeError on .is_zero
    with pytest.raises(TypeError, match=f"order must be an Order, got {type(bad).__name__}"):
        call(ident(INTEGERS), bad)


# -- dense points ---------------------------------------------------------


def test_sqrt_at_zero_is_one():
    """f(t) = sqrt(t) at the left edge of [0, 4], order 1/2: the quotient
    sqrt(s)/sqrt(s) is exactly 1 on the way in."""
    T = TimeScale([Interval(0.0, 4.0)])
    f = FnOnScale(math.sqrt, T)
    r = nabla_frac(f, 0.0, Order(1, 2))
    assert r.path is ComputePath.DENSE_LIMIT
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_sqrt_interior_vanishes():
    T = TimeScale([Interval(0.0, 4.0)])
    f = FnOnScale(math.sqrt, T)
    cfg = LimitConfig(tol=1e-7, max_samples=80)
    for t in (0.25, 1.0, 2.0):
        r = nabla_frac(f, t, Order(1, 2), cfg)
        assert abs(r.value) <= 1e-6


def test_differentiable_function_has_zero_fractional_derivative():
    T = TimeScale([Interval(-2.0, 2.0)])
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    for fn in (math.sin, math.exp, lambda x: x**3):
        f = FnOnScale(fn, T)
        for a in (Order(1, 3), Order(1, 2)):
            r = nabla_frac(f, 0.5, a, cfg)
            assert abs(r.value) <= 1e-5


def test_alpha_one_dense_recovers_classical_derivative():
    T = TimeScale([Interval(-2.0, 2.0)])
    f = FnOnScale(lambda x: x * x, T)
    cfg = LimitConfig(tol=1e-7, max_samples=60)
    r = nabla_frac(f, 1.0, Order(1, 1), cfg)
    assert r.value == pytest.approx(2.0, abs=1e-5)
    # both one-sided limits exist and agree for an odd-reciprocal order
    assert r.side.value == "both"


def test_general_order_uses_one_side_only():
    # (s - t)**(1/2) is imaginary for s < t, so order 1/2 can only look right
    T = TimeScale([Interval(0.0, 4.0)])
    f = FnOnScale(math.sqrt, T)
    cfg = LimitConfig(tol=1e-7, max_samples=80)
    r = nabla_frac(f, 1.0, Order(1, 2), cfg)
    assert r.side.value == "right"
    rd = delta_frac(f, 1.0, Order(1, 2), cfg)
    assert rd.side.value == "left"


def test_dense_limit_unconverged_raises():
    T = TimeScale([Interval(0.0, 4.0)])
    f = FnOnScale(math.sqrt, T)
    # five samples cannot settle a t**(1/2) tail at tol 1e-8
    cfg = LimitConfig(tol=1e-8, max_samples=5)
    with pytest.raises(LimitDidNotConverge):
        nabla_frac(f, 1.0, Order(1, 2), cfg)


def test_short_discrete_side_is_sampled_in_full():
    # 10**-13 .. 1 and 0: the right side of 0 has 14 points, fewer than
    # max_samples, so the limit takes all 14 of them
    T = TimeScale([GeometricGrid(10.0, -13, 0, include_zero=True)])
    f = FnOnScale(lambda x: x, T)
    r = nabla_frac(f, 0.0, Order(1, 1))
    assert (r.value, r.side.value) == (1.0, "right")
    with pytest.raises(LimitDidNotConverge, match="after 14 samples"):
        nabla_frac(f, 0.0, Order(1, 2))


def test_a_dense_side_is_asked_for_its_points_once(monkeypatch):
    # the right side of 0 offers its 32 members, fewer than max_samples: the
    # limit takes them from one request and samples all 32
    T = TimeScale([GeometricGrid(2.0, -41, -10, include_zero=True)])
    asked = []
    ask = TimeScale.approach_sequence

    def counted(self, t, side, cfg=None):
        asked.append((t, side, cfg))
        return ask(self, t, side, cfg)

    monkeypatch.setattr(TimeScale, "approach_sequence", counted)
    with pytest.raises(LimitDidNotConverge, match="after 32 samples"):
        nabla_frac(ident(T), 0.0, Order(1, 2))
    assert asked == [(0.0, ApproachSide.RIGHT, LimitConfig())]


def _dense_from_public_pieces(f, t, order, kind, cfg):
    """(value, err_est) of a dense derivative rebuilt from the public scale
    queries, signed_pow and estimate_limit, as the definitions read: nabla's
    base s - t and delta's t - s, negative on one side of t, and the symmetric
    pair's distance."""
    T = f.scale
    if kind is DerivKind.SYMMETRIC:
        hs = T.symmetric_pairs(t, cfg)
        est = estimate_limit([(f.eval(t + h) - f.eval(t - h)) / signed_pow((t + h) - (t - h), order) for h in hs], cfg)
        return est.value, est.err_est
    sides = [ApproachSide.LEFT, ApproachSide.RIGHT]
    if not order.odd_reciprocal:
        sides = [ApproachSide.RIGHT if kind is DerivKind.NABLA else ApproachSide.LEFT]
    ests = []
    for side in sides:
        seq = T.approach_sequence(t, side, cfg)
        if len(seq) < 3:
            continue
        if kind is DerivKind.NABLA:
            quots = [(f.eval(s) - f.eval(t)) / signed_pow(s - t, order) for s in seq]
        else:
            quots = [(f.eval(t) - f.eval(s)) / signed_pow(t - s, order) for s in seq]
        est = estimate_limit(quots, cfg)
        ests.append((est.value, est.err_est))
    if len(ests) == 1:
        return ests[0]
    (lval, lerr), (rval, rerr) = ests
    return 0.5 * (lval + rval), max(lerr, rerr, abs(lval - rval))


_ORDERS4 = (Order(1, 3), Order(1, 2), Order(2, 3), Order(1, 1))
_FIVE = TimeScale([Interval(-5.0, 5.0)])
_QZERO = parse_scale("qgrid(2,-45,3,zero)")
_DENSE_CASES = (
    # interior points of an interval, left and right of 0, every kind and order
    [
        (_FIVE, src, t, kind, o)
        for src in ("sin(t) + t^3", "7.25")
        for t in (-2.7, 1.3)
        for kind in DerivKind
        for o in _ORDERS4
    ]
    # the interval's ends, where only the side inside is sampled
    + [(_FIVE, "3*t - 1", -5.0, DerivKind.NABLA, o) for o in _ORDERS4]
    + [(_FIVE, "3*t - 1", 5.0, DerivKind.DELTA, o) for o in _ORDERS4]
    # 0, dense by a geometric tail on its right only
    + [(_QZERO, "sin(t) + t^3", 0.0, DerivKind.NABLA, o) for o in _ORDERS4]
    + [(_QZERO, "sin(t) + t^3", 0.0, DerivKind.DELTA, o) for o in (Order(1, 3), Order(1, 1))]
)


@pytest.mark.parametrize("T, src, t, kind, order", _DENSE_CASES)
def test_dense_quotients_are_bit_identical_to_the_definition(T, src, t, kind, order):
    cfg = LimitConfig(tol=1e-4, max_samples=80)
    f = FnOnScale.from_expression(src, T)
    deriv = {DerivKind.NABLA: nabla_frac, DerivKind.DELTA: delta_frac, DerivKind.SYMMETRIC: symmetric_frac}[kind]
    r = deriv(f, t, order, cfg)
    assert r.path is ComputePath.DENSE_LIMIT
    # repr tells -0.0 from 0.0, which == does not
    assert repr((r.value, r.err_est)) == repr(_dense_from_public_pieces(f, t, order, kind, cfg))


_I10 = parse_scale("interval(0,10)")
_TOL4 = LimitConfig(tol=1e-4, max_samples=80)
_CUBIC, _QUAD = "t*t*t - 2*t", "t*t + 3*t"


@pytest.mark.parametrize(
    "kind, T, src, t, order, cfg, pinned, side",
    [
        # two-sided: odd-reciprocal orders at an interior point
        (DerivKind.NABLA, _I10, _CUBIC, 2.0, Order(1, 3), None, "(6.921008541756708e-09, 4.065407698108785e-09)", "both"),
        (DerivKind.DELTA, _I10, _CUBIC, 2.0, Order(1, 3), None, "(6.921008541756708e-09, 4.065407698108785e-09)", "both"),
        (DerivKind.NABLA, _I10, _CUBIC, 2.0, Order(1, 1), None, "(10.0, 0.0)", "both"),
        (DerivKind.DELTA, _I10, _CUBIC, 2.0, Order(1, 1), None, "(10.0, 0.0)", "both"),
        # one-sided: general orders sample their preferred side only
        (DerivKind.NABLA, _I10, _CUBIC, 2.0, Order(1, 2), _TOL4, "(0.0001220702542923252, 5.056328351220125e-05)", "right"),
        (DerivKind.DELTA, _I10, _CUBIC, 2.0, Order(2, 3), _TOL4, "(0.0002630780975633794, 6.837953532301945e-05)", "left"),
        (DerivKind.SYMMETRIC, _I10, _CUBIC, 2.0, Order(1, 1), None, "(10.000000000409273, 1.1027623258996755e-09)", "both"),
        (DerivKind.SYMMETRIC, _I10, _CUBIC, 2.0, Order(1, 2), _TOL4, "(0.0001220702542923252, 5.0563219201219415e-05)", "both"),
        # the interval's ends: nabla samples right of 0 and left of 10
        (DerivKind.NABLA, _I10, _CUBIC, 0.0, Order(1, 1), None, "(-1.9999999996185303, 1.1444092340440193e-09)", "right"),
        (DerivKind.NABLA, _I10, _CUBIC, 10.0, Order(1, 3), _TOL4, "(8.375877168996717e-05, 4.919965020167671e-05)", "left"),
        # a geometric tail right of 0: nabla's own side, delta's other one
        (DerivKind.NABLA, _QZERO, _QUAD, 0.0, Order(1, 1), None, "(3.0000000037252903, 3.725290298461914e-09)", "right"),
        (DerivKind.DELTA, _QZERO, _QUAD, 0.0, Order(1, 1), None, "(3.0000000037252903, 3.725290298461914e-09)", "right"),
    ],
)
def test_dense_results_are_pinned(kind, T, src, t, order, cfg, pinned, side):
    # the bits of whole results, steps, quotients and estimator together, where
    # the definition test above rebuilds them through the same estimator; f has
    # + - * only, so no libm routine of f can move them
    deriv = {DerivKind.NABLA: nabla_frac, DerivKind.DELTA: delta_frac, DerivKind.SYMMETRIC: symmetric_frac}[kind]
    r = deriv(FnOnScale.from_expression(src, T), t, order, cfg)
    assert (r.path, repr((r.value, r.err_est)), r.side.value) == (ComputePath.DENSE_LIMIT, pinned, side)


@pytest.mark.parametrize("order", [Order(1, 2), Order(2, 3)])
def test_delta_of_a_constant_is_positive_zero(order):
    # each difference -f(s) - (-f(t)) is +0.0 over a positive base
    r = delta_frac(FnOnScale.from_expression("7.25", _FIVE), 1.3, order)
    assert (r.path, r.value, math.copysign(1.0, r.value)) == (ComputePath.DENSE_LIMIT, 0.0, 1.0)


def test_too_few_symmetric_pairs_raise():
    # the interval around 0 lies within the snap tolerance of it and gives
    # no steps; the points give only two mirrored pairs
    T = TimeScale([FinitePoints((-0.002, -0.001, 0.001, 0.002)), Interval(-1e-13, 1e-13)])
    with pytest.raises(LimitDidNotConverge, match="only 2 symmetric pairs") as exc_info:
        symmetric_frac(FnOnScale(lambda x: x, T), 0.0, Order(1, 2))
    assert exc_info.value.samples_unavailable


def test_kink_makes_sides_disagree():
    T = TimeScale([Interval(-1.0, 1.0)])
    f = FnOnScale(abs, T)
    cfg = LimitConfig(tol=1e-7, max_samples=60)
    with pytest.raises(SidedLimitsDisagree) as exc_info:
        nabla_frac(f, 0.0, Order(1, 1), cfg)
    assert exc_info.value.left == pytest.approx(-1.0, abs=1e-5)
    assert exc_info.value.right == pytest.approx(1.0, abs=1e-5)


def test_edge_point_of_interval_uses_available_side():
    T = TimeScale([Interval(0.0, 4.0)])
    f = FnOnScale(lambda x: x * x, T)
    cfg = LimitConfig(tol=1e-7, max_samples=60)
    r = nabla_frac(f, 4.0, Order(1, 1), cfg)
    assert r.side.value == "left"
    assert r.value == pytest.approx(8.0, abs=1e-5)


@pytest.mark.parametrize(
    "T, t, cfg",
    [
        # float spacing at 1e4 leaves two approach points on either side
        (TimeScale([Interval(10000.0, 10000.000000000004)]), 10000.0, None),
        # and an end 1 ulp away one, however few samples are asked for
        (TimeScale([Interval(9999.999999999998, 10000.000000000002)]), 10000.0, LimitConfig(max_samples=3)),
    ],
)
@pytest.mark.parametrize("deriv", [nabla_frac, delta_frac])
@pytest.mark.parametrize("order", [Order(1, 2), Order(1, 1)])
def test_dense_side_with_under_three_samples_is_unavailable(T, t, cfg, deriv, order):
    with pytest.raises(LimitDidNotConverge) as exc_info:
        deriv(ident(T), t, order, cfg)
    assert exc_info.value.samples_unavailable


# -- symmetric ------------------------------------------------------------


def test_symmetric_exact_on_scattered_points():
    T = TimeScale([FinitePoints((-1.0, 0.0, 2.0))])
    f = FnOnScale(abs, T)
    r = symmetric_frac(f, 0.0, Order(1, 2))
    assert r.path is ComputePath.EXACT_SCATTERED
    assert r.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_symmetric_square_on_integers():
    f = FnOnScale(lambda x: x * x, INTEGERS)
    r = symmetric_frac(f, 3.0, Order(1, 2))
    assert r.value == pytest.approx(6.0 * math.sqrt(2.0), abs=1e-12)


def test_symmetric_reciprocal_on_integers():
    f = FnOnScale(lambda x: 1.0 / x, INTEGERS)
    r = symmetric_frac(f, 3.0, Order(1, 1))
    assert r.value == pytest.approx(-0.125, abs=1e-12)


def test_symmetric_dense_abs_vanishes():
    T = TimeScale([Interval(-1.0, 1.0)])
    f = FnOnScale(abs, T)
    r = symmetric_frac(f, 0.0, Order(1, 2), LimitConfig(tol=1e-7, max_samples=60))
    assert abs(r.value) <= 1e-6


def test_symmetric_dense_needs_pairs():
    # 2**k accumulates at 0 from the right, so 0 counts as dense, but every
    # mirror candidate -h is missing from the scale
    T = TimeScale([GeometricGrid(2.0, -50, 2, include_zero=True)])
    with pytest.raises(LimitDidNotConverge) as exc_info:
        symmetric_frac(ident(T), 0.0, Order(1, 2))
    assert exc_info.value.samples_unavailable


def test_symmetric_weights_dense():
    T = TimeScale([Interval(0.0, 2.0)])
    for a in ALPHAS:
        w = symmetric_weights(T, 1.0, a)
        assert w.gamma1 == pytest.approx(2.0**-a.value)
        assert w.gamma2 == pytest.approx(2.0**-a.value)


def test_symmetric_weights_scattered():
    w = symmetric_weights(INTEGERS, 3.0, Order(1, 2))
    # uniform grid: mu = nu = 1, span = 2
    assert w.gamma1 == pytest.approx(0.5**0.5)
    assert w.gamma2 == pytest.approx(0.5**0.5)
    T = TimeScale([FinitePoints((0.0, 1.0, 4.0))])
    w = symmetric_weights(T, 1.0, Order(1, 2))
    assert w.gamma1 == pytest.approx((3.0 / 4.0) ** 0.5)
    assert w.gamma2 == pytest.approx((1.0 / 4.0) ** 0.5)


def test_symmetric_matches_weighted_combination():
    """The symmetric value equals gamma1*delta + gamma2*nabla wherever all
    three operators are defined and exact."""
    rng = random.Random(3)
    for _ in range(25):
        vals = sorted({round(rng.uniform(-4, 4), 3) for _ in range(rng.randint(5, 9))})
        if len(vals) < 5:
            continue
        T = TimeScale([FinitePoints(tuple(vals))])
        coeffs = [rng.uniform(-2, 2) for _ in range(3)]
        f = FnOnScale(lambda x, c=coeffs: c[0] + c[1] * x + c[2] * x * x, T)
        t = rng.choice(vals[1:-1])
        a = rng.choice(ALPHAS)
        direct = symmetric_frac(f, t, a).value
        combo = checks._symmetric_via_sides(f, t, a)
        assert combo == pytest.approx(direct, abs=1e-12)


def test_symmetric_via_sides_dense():
    T = TimeScale([Interval(-1.0, 1.0)])
    f = FnOnScale(math.sin, T)
    cfg = LimitConfig(tol=1e-7, max_samples=80)
    direct = symmetric_frac(f, 0.25, Order(1, 1), cfg).value
    combo = checks._symmetric_via_sides(f, 0.25, Order(1, 1), cfg)
    assert combo == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize(
    "T, t, lo, hi",
    [
        # left-dense, right-scattered: the exact quotient spans [t, sigma(t)]
        (TimeScale([Interval(0.0, 1.0), FinitePoints((3.0,))]), 1.0, 1.0, 3.0),
        # right-dense, left-scattered: it spans [rho(t), t]
        (TimeScale([FinitePoints((-2.0,)), Interval(0.0, 1.0)]), 0.0, -2.0, 0.0),
    ],
)
def test_symmetric_at_hybrid_points_is_one_jump_quotient(T, t, lo, hi):
    f = FnOnScale(lambda x: x**3 + x, T)
    for a in ALPHAS + (Order(3, 4),):
        r = symmetric_frac(f, t, a)
        assert r.path is ComputePath.EXACT_SCATTERED
        assert r.side.value == "both"
        assert r.err_est == 0.0
        assert r.value == (f.eval(hi) - f.eval(lo)) / (hi - lo) ** a.value


def test_exact_values_are_one_signed_pow_quotient():
    """Every exact value of the three kinds is ``[f(hi) - f(lo)] /
    signed_pow(hi - lo, order)`` bit for bit, with lo = rho(t) or t and
    hi = t or sigma(t): the base is positive, where the float power the
    operators take is signed_pow's."""
    rng = random.Random(40)
    orders = (*ALPHAS, Order(2, 3), Order(3, 4), Order(1, 5), Order(5, 7))
    cases = 0
    for _ in range(30):
        vals = {rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-6, 0) for _ in range(rng.randint(3, 12))}
        T = TimeScale([FinitePoints(tuple(vals))])
        f = FnOnScale.from_expression("sin(t) + t^3", T)
        for t in vals:
            for kind, deriv in zip(DerivKind, (nabla_frac, delta_frac, symmetric_frac)):
                lo = t if kind is DerivKind.DELTA else T.rho(t)
                hi = t if kind is DerivKind.NABLA else T.sigma(t)
                for order in orders:
                    try:
                        r = deriv(f, t, order)
                    except PointOutsideDomain:
                        assert t in (min(vals), max(vals))
                        continue
                    assert r.path is ComputePath.EXACT_SCATTERED
                    want = (f.eval(hi) - f.eval(lo)) / signed_pow(hi - lo, order)
                    assert r.value.hex() == want.hex(), (kind, t, order)
                    cases += 1
    assert cases > 3000, cases


@pytest.mark.parametrize(
    "deriv, order, label",
    [
        (nabla_frac, Order(1, 2), "right-side"),
        (delta_frac, Order(1, 2), "left-side"),
        (nabla_frac, Order(1, 1), "left-side"),
        (symmetric_frac, Order(1, 2), "symmetric"),
    ],
)
def test_unconverged_message_names_point_and_samples(deriv, order, label):
    f = FnOnScale(lambda x: x * x, TimeScale([Interval(0.0, 10.0)]))
    cfg = LimitConfig(tol=1e-300, max_samples=3)
    with pytest.raises(LimitDidNotConverge) as exc_info:
        deriv(f, 2.0, order, cfg)
    msg = str(exc_info.value)
    assert msg.startswith(f"{label} quotients did not settle within tol=1e-300 ")
    assert "at t=2.0 after 3 samples (last difference " in msg


# -- reconstruction and order lowering ------------------------------------


def test_reconstruction_identities():
    """f(t) = f(rho) + nu^alpha * nabla-value at left-scattered points, and
    f(sigma) = f(rho) + span^alpha * symmetric value off dense points."""
    rng = random.Random(9)
    for _ in range(25):
        vals = sorted({round(rng.uniform(-5, 5), 3) for _ in range(rng.randint(5, 10))})
        if len(vals) < 5:
            continue
        T = TimeScale([FinitePoints(tuple(vals))])
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]
        f = FnOnScale(lambda x, c=coeffs: ((c[3] * x + c[2]) * x + c[1]) * x + c[0], T)
        a = rng.choice(ALPHAS)
        for t in vals[1:-1]:
            nu = T.nu(t)
            nab = nabla_frac(f, t, a).value
            assert f.eval(t) == pytest.approx(f.eval(T.rho(t)) + nu**a.value * nab, abs=1e-10)
            span = T.sigma(t) - T.rho(t)
            sym = symmetric_frac(f, t, a).value
            assert f.eval(T.sigma(t)) == pytest.approx(
                f.eval(T.rho(t)) + span**a.value * sym, abs=1e-10
            )


def test_order_lowering_scattered():
    # every order exists at a scattered point: over the unit step to rho(4) = 3
    # each is the quotient f(4) - f(3) = 6
    f = FnOnScale(lambda x: x * x - x, INTEGERS)
    assert [nabla_frac(f, 4.0, o).value for o in (Order(1, 4), Order(1, 2), Order(1, 1))] == [6.0] * 3


def test_order_lowering_dense():
    # order 1 exists at a left-dense point (f' = 2t), so every lower order
    # does and vanishes, within ten tolerances
    T = TimeScale([Interval(-1.0, 1.0)])
    f = FnOnScale(lambda x: x * x, T)
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    assert nabla_frac(f, 0.5, Order(1, 1), cfg).value == pytest.approx(1.0, abs=10 * cfg.tol)
    for lower in (Order(1, 4), Order(1, 2)):
        assert abs(nabla_frac(f, 0.5, lower, cfg).value) <= 10 * cfg.tol


def test_order_lowering_fails_when_only_the_lower_order_is_undefined():
    # at the right end of an interval order 1 takes its limit from the left,
    # while order 1/2 admits only the right side, where there are no points
    f = FnOnScale(lambda x: x * x, TimeScale([Interval(0.0, 1.0)]))
    assert nabla_frac(f, 1.0, Order(1, 1)).value == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(LimitDidNotConverge, match="no scale points"):
        nabla_frac(f, 1.0, Order(1, 2))


# -- FnOnScale ------------------------------------------------------------


def test_fn_from_expression():
    f = FnOnScale.from_expression("t^2 - 1", INTEGERS)
    assert f.eval(3.0) == 8.0
    with pytest.raises(TypeError):  # .eval is the one way to evaluate
        f(3.0)
    assert f.source == "t^2 - 1"
    r = nabla_frac(f, 3.0, Order(1, 2))
    assert r.value == pytest.approx(5.0)


def test_an_expression_function_calls_eval_expr_once_per_sample(monkeypatch):
    # the contract the benchmark's f_evals counter reads: one eval_expr call per
    # sample, with the function's own AST, and not the kernel called directly
    from tsfrac import derivative

    calls = []

    def counted(e, t):
        calls.append(e)
        return eval_expr(e, t)

    monkeypatch.setattr(derivative, "eval_expr", counted)
    text = "2*cos(t/3) + t^2"
    f = FnOnScale.from_expression(text, INTEGERS)
    points = [0.7, -3.0, 0.7, 1e6, 5.0]
    got = [f.eval(t) for t in points]
    assert len(calls) == len(points) and all(e is calls[0] for e in calls)
    assert calls[0] == parse_expr(text)
    assert [v.hex() for v in got] == [eval_expr(calls[0], t).hex() for t in points]


def test_fn_on_scale_checks_its_arguments():
    with pytest.raises(TypeError, match="^scale must be a TimeScale, got str$"):
        FnOnScale.from_expression("t", "grid(0,3,1)")
    with pytest.raises(TypeError, match="^scale must be a TimeScale, got NoneType$"):
        FnOnScale(abs, None)
    with pytest.raises(TypeError, match="^eval must be callable, got NoneType$"):
        FnOnScale(None, INTEGERS)
    with pytest.raises(TypeError, match="^eval must be callable, got str$"):
        FnOnScale("t", INTEGERS)


def test_fn_on_scale_with_two_bad_arguments_names_the_first():
    # the constructor checks eval before scale, and from_expression parses its
    # text before the scale is checked
    with pytest.raises(TypeError, match="^eval must be callable, got NoneType$"):
        FnOnScale(None, "grid(0,3,1)")
    with pytest.raises(ExprSyntaxError):
        FnOnScale.from_expression("t +", "grid(0,3,1)")
    with pytest.raises(TypeError, match="^expression text must be a str, got NoneType$"):
        FnOnScale.from_expression(None, "grid(0,3,1)")


# -- non-finite exact quotients ------------------------------------------


@pytest.mark.parametrize("frac, t", [(nabla_frac, 3.0), (delta_frac, 3.0), (symmetric_frac, 2.0)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_exact_quotient_raises(frac, t, bad):
    # every exact quotient at t reads f(3): nabla f(3) - f(2), delta
    # f(4) - f(3), symmetric at 2 f(3) - f(1)
    f = FnOnScale(lambda x: bad if x == 3.0 else x, TimeScale([UniformGrid(0.0, 10.0, 1.0)]))
    with pytest.raises(NonFiniteSample, match=f"at t={t}"):
        frac(f, t, Order(1, 2))


def test_overflowing_exact_quotient_raises():
    # finite values whose difference overflows
    f = FnOnScale(lambda x: 1.7e308 * (-1) ** int(x), TimeScale([UniformGrid(0.0, 10.0, 1.0)]))
    with pytest.raises(NonFiniteSample, match="is -inf"):
        nabla_frac(f, 3.0, Order(1, 1))


# -- the scattered path's calls ------------------------------------------

QUERIES = ("snap", "sigma", "rho", "mu", "nu", "classify", "domain_membership")


def _count_queries(monkeypatch) -> dict:
    """Counts, by name, the calls of the public TimeScale queries the benchmark
    counts; a query that snaps its point calls the counted snap."""
    counts = dict.fromkeys(QUERIES, 0)
    for name in QUERIES:

        def counted(self, t, _real=getattr(TimeScale, name), _name=name):
            counts[_name] += 1
            return _real(self, t)

        monkeypatch.setattr(TimeScale, name, counted)
    return counts


def _union200() -> TimeScale:
    """200 components, one per 50-unit block: point sets and grids in turn."""
    return TimeScale(
        FinitePoints([50.0 * i, 50.0 * i + 1.25, 50.0 * i + 7.5]) if i % 2 == 0 else UniformGrid(50.0 * i, 50.0 * i + 9.0, 0.5)
        for i in range(200)
    )


@pytest.mark.parametrize("deriv, jump", [(nabla_frac, "rho"), (delta_frac, "sigma")])
def test_a_one_sided_scattered_derivative_makes_seven_queries(monkeypatch, deriv, jump):
    # the counts bench/selftest.py pins: a faster path keeps these calls
    f = FnOnScale.from_expression("sin(t)", TimeScale([UniformGrid(0.0, 100000.0, 1.0)]))
    counts = _count_queries(monkeypatch)
    deriv(f, 500.0, Order(1, 2))
    assert {k: v for k, v in counts.items() if v} == {"snap": 4, "domain_membership": 1, "classify": 1, jump: 1}


def test_a_symmetric_scattered_derivative_makes_nine_queries(monkeypatch):
    T = _union200()
    assert len(T.components) == 200
    f = FnOnScale.from_expression("t^2 - 3*t", T)
    counts = _count_queries(monkeypatch)
    r = symmetric_frac(f, 5001.25, Order(3, 4))
    assert r.path is ComputePath.EXACT_SCATTERED
    assert {k: v for k, v in counts.items() if v} == {"snap": 5, "domain_membership": 1, "classify": 1, "sigma": 1, "rho": 1}


@pytest.mark.parametrize("member", [*DerivKind, *ComputePath, *ApproachSide], ids=repr)
def test_the_kinds_hash_by_identity(member):
    # Enum hashes a member by its name through a Python call; the members are
    # singletons, so the identity hash agrees with ==
    assert hash(member) == object.__hash__(member)
    assert type(member)(member.value) is member
    for same in (pickle.loads(pickle.dumps(member)), copy.copy(member), copy.deepcopy(member)):
        assert same is member and hash(same) == hash(member)


@pytest.mark.parametrize("kind", list(DerivKind))
def test_the_kind_tables_dispatch_by_member_and_by_value(kind):
    from tsfrac import derivative, integral

    for table in (derivative._DERIVS, derivative._KINDS, integral._CAUCHY):
        assert table[DerivKind(kind.value)] is table[kind] is table[pickle.loads(pickle.dumps(kind))]
    f = FnOnScale.from_expression("sin(t)", INTEGERS)
    assert derivative._DERIVS[DerivKind(kind.value)](f, 5.0, Order(1, 2)).kind is kind


@pytest.mark.parametrize("T, member", [(TimeScale([UniformGrid(0.0, 10.0, 1.0)]), 2.0), (_union200(), 1001.25)])
@pytest.mark.parametrize("deriv", [nabla_frac, delta_frac, symmetric_frac])
def test_a_point_within_the_tolerance_gives_the_member_s_result(T, member, deriv):
    # the last-lookup memo is keyed by the query, not by the member it snaps to:
    # a first query off the member must not leave the member's readers its bisection
    near = member + (1e-13 if member == 2.0 else 4e-13)
    assert near != member and T.snap(near) == member
    f = FnOnScale.from_expression("sin(t) + t^2", T)
    fresh = TimeScale(T.components)
    got, want = deriv(f, near, Order(1, 2)), deriv(FnOnScale(f.eval, fresh), member, Order(1, 2))
    assert got == want and got.value.hex() == want.value.hex() and got.t == member
    for query in ("sigma", "rho", "mu", "nu", "classify", "domain_membership"):
        assert getattr(TimeScale(T.components), query)(near) == getattr(fresh, query)(member)
