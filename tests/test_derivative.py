"""Behavior of the three fractional derivative operators.

Closed forms on discrete scales are exact quotients, so those tests pin
values to near machine precision.  Dense-point tests go through the limit
estimator and get tolerances matched to its configuration.
"""

import math
import random

import pytest

from tsfrac import (
    ComputePath,
    DerivKind,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    LimitConfig,
    LimitDidNotConverge,
    NonFiniteSample,
    NoSymmetricNeighborhood,
    Order,
    PointNotInScale,
    PointOutsideDomain,
    SidedLimitsDisagree,
    TimeScale,
    UniformGrid,
    delta_frac,
    nabla_frac,
    order_lowering_check,
    symmetric_frac,
    symmetric_via_sides,
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
    # the excluded endpoint is fine for the operator looking the other way
    assert delta_frac(f, 0.0, Order(1, 2)).value == 1.0
    assert nabla_frac(f, 10.0, Order(1, 2)).value == 1.0


def test_zero_order_rejected():
    f = ident(INTEGERS)
    with pytest.raises(ValueError):
        nabla_frac(f, 3.0, Order(0, 1))


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
        # a ratio this close to 1 repeats the first step at once
        (TimeScale([Interval(0.0, 10.0)]), 3.0, LimitConfig(ratio=0.9999999999999999)),
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
    with pytest.raises(NoSymmetricNeighborhood):
        symmetric_frac(ident(T), 0.0, Order(1, 2))


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
        combo = symmetric_via_sides(f, t, a)
        assert combo.value == pytest.approx(direct, abs=1e-12)


def test_symmetric_via_sides_dense():
    T = TimeScale([Interval(-1.0, 1.0)])
    f = FnOnScale(math.sin, T)
    cfg = LimitConfig(tol=1e-7, max_samples=80)
    direct = symmetric_frac(f, 0.25, Order(1, 1), cfg).value
    combo = symmetric_via_sides(f, 0.25, Order(1, 1), cfg).value
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
        assert r.value == (f(hi) - f(lo)) / (hi - lo) ** a.value


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
    f = FnOnScale(lambda x: x * x - x, INTEGERS)
    assert order_lowering_check(f, 4.0, Order(1, 4), Order(1, 2))
    assert order_lowering_check(f, 4.0, Order(1, 2), Order(1, 1))


def test_order_lowering_dense():
    T = TimeScale([Interval(-1.0, 1.0)])
    f = FnOnScale(lambda x: x * x, T)
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    assert order_lowering_check(f, 0.5, Order(1, 4), Order(1, 2), cfg)
    assert order_lowering_check(f, 0.5, Order(1, 2), Order(1, 1), cfg)


# -- FnOnScale ------------------------------------------------------------


def test_fn_from_expression():
    f = FnOnScale.from_expression("t^2 - 1", INTEGERS)
    assert f.eval(3.0) == 8.0
    assert f(3.0) == 8.0
    assert f.source == "t^2 - 1"
    r = nabla_frac(f, 3.0, Order(1, 2))
    assert r.value == pytest.approx(5.0)


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
