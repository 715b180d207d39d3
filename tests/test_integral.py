"""Classical and fractional Cauchy integrals.

The classical walks mix exact jump terms with adaptive quadrature over
interval stretches.  The fractional versions differentiate a memoized
antiderivative, so most checks here are against hand-computed values on
small scales.
"""

import inspect
import math
import threading
import warnings

import pytest

from tsfrac import (
    Antiderivative,
    DerivKind,
    EndpointAdjustedWarning,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    LimitConfig,
    LimitDidNotConverge,
    Order,
    PointNotInScale,
    PointOutsideDomain,
    QuadratureFailure,
    TimeScale,
    TsfracError,
    UniformGrid,
    delta_frac_integral,
    delta_integral,
    nabla_frac_integral,
    nabla_integral,
    parse_scale,
    symmetric_frac_integral,
)

ZERO = Order.parse("0", allow_zero=True)
ONE = Order(1, 1)


def grid(lo, hi, step=1.0):
    return TimeScale([UniformGrid(float(lo), float(hi), step)])


# -- classical walks ------------------------------------------------------


def test_nabla_integral_on_grid_is_right_riemann_sum():
    T = grid(0, 5)
    f = FnOnScale(lambda x: x, T)
    # sum of f(k) * 1 for k = 1..5
    assert nabla_integral(f, 0.0, 5.0) == pytest.approx(15.0, abs=1e-12)


def test_delta_integral_on_grid_is_left_riemann_sum():
    T = grid(0, 5)
    f = FnOnScale(lambda x: x, T)
    assert delta_integral(f, 0.0, 5.0) == pytest.approx(10.0, abs=1e-12)


def test_integral_on_interval_matches_calculus():
    T = TimeScale([Interval(0.0, 2.0)])
    f = FnOnScale(lambda x: x * x, T)
    assert nabla_integral(f, 0.0, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-9)
    assert delta_integral(f, 0.0, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-9)


def test_integral_on_hybrid_scale():
    # [0,1] then jumps 1 -> 2 -> 3; nabla takes f at the right end of jumps
    T = TimeScale([Interval(0.0, 1.0), FinitePoints((2.0, 3.0))])
    f = FnOnScale(lambda x: x, T)
    want_nabla = 0.5 + 2.0 * 1.0 + 3.0 * 1.0
    want_delta = 0.5 + 1.0 * 1.0 + 2.0 * 1.0
    assert nabla_integral(f, 0.0, 3.0) == pytest.approx(want_nabla, rel=1e-10)
    assert delta_integral(f, 0.0, 3.0) == pytest.approx(want_delta, rel=1e-10)


def test_orientation_and_empty_range():
    T = grid(0, 5)
    f = FnOnScale(lambda x: x * x, T)
    assert nabla_integral(f, 5.0, 0.0) == -nabla_integral(f, 0.0, 5.0)
    assert nabla_integral(f, 3.0, 3.0) == 0.0


def test_integral_endpoint_must_be_member():
    T = grid(0, 5)
    f = FnOnScale(lambda x: x, T)
    with pytest.raises(PointNotInScale):
        nabla_integral(f, 0.25, 4.0)
    # float() of an int past the float range overflows, and str() of 10**5000
    # exceeds Python's digit limit: the message must not need it
    for big in (10**400, 10**5000):
        for integral in (nabla_integral, delta_integral):
            with pytest.raises(PointNotInScale):
                integral(f, 0.0, big)
        for integral in (nabla_frac_integral, delta_frac_integral, symmetric_frac_integral):
            with pytest.raises(PointNotInScale):
                integral(f, -big, 4.0, Order(1, 2))
        with pytest.raises(PointNotInScale):
            Antiderivative(f, big, DerivKind.NABLA)
        with pytest.raises(PointNotInScale):
            Antiderivative(f, 0.0, DerivKind.NABLA).eval(big)


# -- antiderivative -------------------------------------------------------


def test_antiderivative_matches_integral():
    T = TimeScale([Interval(0.0, 1.0), FinitePoints((2.0, 3.0))])
    f = FnOnScale(math.exp, T)
    F = Antiderivative(f, 0.0, DerivKind.NABLA)
    for b in (0.5, 1.0, 2.0, 3.0):
        assert F.eval(b) == pytest.approx(nabla_integral(f, 0.0, b), rel=1e-10)
    assert F.eval(0.0) == 0.0


def test_delta_antiderivative_sums_left_riemann_terms():
    # on the integers the delta integral from 0 to b is f(0) + ... + f(b-1)
    F = Antiderivative(FnOnScale(lambda x: x, grid(0, 3)), 0.0, DerivKind.DELTA)
    assert [F.eval(b) for b in (0.0, 1.0, 2.0, 3.0)] == [0.0, 0.0, 1.0, 3.0]


@pytest.mark.parametrize("kind", [DerivKind.NABLA, DerivKind.DELTA])
def test_antiderivative_on_an_interval_is_the_quadrature(kind):
    # on an interval both kinds are the integral of x^2 from 0: x^3 / 3
    f = FnOnScale(lambda x: x * x, TimeScale([Interval(0.0, 1.0)]))
    assert Antiderivative(f, 0.0, kind).eval(0.5) == pytest.approx(0.125 / 3, rel=1e-12)


def test_antiderivative_takes_no_quadrature_config():
    # the quadrature accuracy is fixed: no field sets it
    assert list(inspect.signature(Antiderivative).parameters) == ["base", "anchor", "kind"]
    with pytest.raises(TypeError):
        Antiderivative(FnOnScale(lambda x: x, grid(0, 3)), 0.0, DerivKind.NABLA, None)


@pytest.mark.parametrize("field, value", [
    ("base", FnOnScale(lambda x: 2 * x, grid(0, 3))),
    ("anchor", 1.0),
    ("kind", DerivKind.DELTA),
])
def test_antiderivative_fields_are_frozen(field, value):
    # the memo holds the values of the base, anchor and kind it was built
    # for: none can change under it
    F = Antiderivative(FnOnScale(lambda x: x, grid(0, 3)), 0.0, DerivKind.NABLA)
    assert F.eval(3.0) == 6.0
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(F, field, value)
    assert (F.anchor, F.kind) == (0.0, DerivKind.NABLA)
    assert [F.eval(b) for b in (3.0, 2.0)] == [6.0, 3.0]


def test_antiderivative_is_nabla_or_delta():
    # a malformed argument, like a bad order or config field: ValueError
    for kind in (DerivKind.SYMMETRIC, "nabla"):
        with pytest.raises(ValueError, match=f"nabla or delta, got {kind!r}") as exc_info:
            Antiderivative(FnOnScale(lambda x: x, grid(0, 3)), 0.0, kind)
        assert not isinstance(exc_info.value, TsfracError)


def test_antiderivative_memoizes_requested_points():
    T = grid(0, 60)
    calls = []

    def probe(x):
        calls.append(x)
        return x * x

    F = Antiderivative(FnOnScale(probe, T), 0.0, DerivKind.NABLA)
    F.eval(60.0)
    first = len(calls)
    assert first > 0
    F.eval(60.0)  # answered from the memo
    assert len(calls) == first
    F.eval(30.0)
    mid = len(calls)
    F.eval(45.0)  # extends from the stored value at 30, not from the anchor
    assert len(calls) - mid <= 16
    after = len(calls)
    F.eval(30.0)
    assert len(calls) == after
    assert F.eval(45.0) == pytest.approx(nabla_integral(FnOnScale(lambda x: x * x, T), 0.0, 45.0))


def test_antiderivative_thread_safety():
    T = grid(0, 400)
    f = FnOnScale(lambda x: math.sin(x) + 2.0, T)
    F = Antiderivative(f, 0.0, DerivKind.NABLA)
    results = {}

    def worker(b):
        results[b] = F.eval(float(b))

    threads = [threading.Thread(target=worker, args=(b,)) for b in (400, 100, 250, 399)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for b, got in results.items():
        assert got == pytest.approx(nabla_integral(f, 0.0, float(b)), rel=1e-9)


# -- fractional: degenerate orders ----------------------------------------


def test_beta_zero_is_difference_of_endpoint_values():
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    assert nabla_frac_integral(f, 1.0, 10.0, ZERO) == pytest.approx(9.0, abs=1e-12)
    g = FnOnScale(lambda x: x * x, T)
    assert nabla_frac_integral(g, 1.0, 10.0, ZERO) == pytest.approx(99.0, abs=1e-12)


def test_beta_one_is_classical():
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EndpointAdjustedWarning)
        got = nabla_frac_integral(f, 1.0, 10.0, ONE)
    assert got == pytest.approx(nabla_integral(f, 1.0, 10.0), abs=1e-12)
    assert got == pytest.approx(54.0, abs=1e-12)


@pytest.mark.parametrize(
    "scale, a, b, outside",
    [
        ("grid(0,10,1)", 2.0, 7.0, 0.25),
        ("interval(0,3)", 0.5, 3.0, -0.25),
        ("union(interval(0,1),points(1.5,2,2.5,3))", 0.5, 3.0, 1.25),
    ],
)
@pytest.mark.parametrize(
    "classical, cauchy", [(nabla_integral, nabla_frac_integral), (delta_integral, delta_frac_integral)]
)
def test_classical_integral_is_the_cauchy_integral_at_beta_one(scale, a, b, outside, classical, cauchy):
    f = FnOnScale.from_expression("sin(t) + t^2", parse_scale(scale))
    for x, y in ((a, b), (b, a), (a, a)):
        want, got = cauchy(f, x, y, ONE), classical(f, x, y)
        assert got == want, (x, y, got.hex(), want.hex())
    messages = []
    for call in (lambda: classical(f, outside, b), lambda: cauchy(f, outside, b, ONE)):
        with pytest.raises(PointNotInScale) as exc:
            call()
        messages.append(str(exc.value))
    assert messages == [f"a={outside} is not in the scale"] * 2


def test_beta_must_be_order_instance():
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    with pytest.raises(TypeError, match="beta must be an Order, got float"):
        nabla_frac_integral(f, 1.0, 10.0, 0.5)


# -- fractional: identity on the integer grid -----------------------------


def test_identity_fractional_integral_on_integers():
    """The walk of f(t) = t from 1 to 10 gives 9 at every order below one:
    on a unit grid the inner quotients reduce to plain differences."""
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    for beta in (Order(1, 4), Order(1, 2), Order(3, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EndpointAdjustedWarning)
            got = nabla_frac_integral(f, 1.0, 10.0, beta)
        assert got == pytest.approx(9.0, abs=1e-12), str(beta)


def test_identity_fractional_integral_interior_endpoints():
    # interior endpoints dodge the virtual-extension warning entirely
    T = grid(0, 11)
    f = FnOnScale(lambda x: x, T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EndpointAdjustedWarning)
        got = nabla_frac_integral(f, 1.0, 10.0, Order(1, 2))
    assert got == pytest.approx(9.0, abs=1e-12)


def test_delta_identity_fractional_integral():
    T = grid(1, 11)
    f = FnOnScale(lambda x: x, T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EndpointAdjustedWarning)
        got = delta_frac_integral(f, 1.0, 10.0, Order(1, 2))
    assert got == pytest.approx(9.0, abs=1e-12)


def test_scattered_min_endpoint_warns():
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    with pytest.warns(EndpointAdjustedWarning):
        nabla_frac_integral(f, 1.0, 10.0, Order(1, 2))


def _assert_warned_here(caught, line):
    """Every EndpointAdjustedWarning caught names this file and line: the
    caller of the integral, not a frame inside tsfrac."""
    adjusted = [w for w in caught if w.category is EndpointAdjustedWarning]
    assert adjusted
    assert {(w.filename, w.lineno) for w in adjusted} == {(__file__, line)}


@pytest.mark.parametrize("integral", [nabla_frac_integral, delta_frac_integral])
def test_virtual_extension_warning_points_at_caller(integral):
    # grid(1, 1000) has a scattered minimum and maximum: the nabla integral
    # extends the scale below a=1, the delta integral above b=1000
    f = FnOnScale(lambda x: x, grid(1, 1000))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EndpointAdjustedWarning)
        line = inspect.currentframe().f_lineno + 1
        integral(f, 1.0, 1000.0, Order(1, 2))
    _assert_warned_here(caught, line)


def test_virtual_extension_exponent_is_beta_itself():
    # G(9.5) = 0, so the value is G(10) = f(10) * 0.5**beta: beta = 1/3 read
    # as 1 - 2/3 in floats would round to 0.33333333333333337
    f = FnOnScale(lambda x: x - 9.5, grid(0, 10, 0.5))
    with pytest.warns(EndpointAdjustedWarning, match="virtual extension"):
        assert delta_frac_integral(f, 9.5, 10.0, Order(1, 3)) == 0.5 * 0.5 ** (1 / 3)


@pytest.mark.parametrize(
    "integral", [nabla_frac_integral, delta_frac_integral, symmetric_frac_integral]
)
def test_nearest_admissible_warning_points_at_caller(integral):
    # at an end of an interval the side a general order samples is empty
    f = FnOnScale(math.cos, TimeScale([Interval(0.0, 1.0)]))
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EndpointAdjustedWarning)
        line = inspect.currentframe().f_lineno + 1
        integral(f, 0.0, 1.0, Order(1, 2), cfg)
    _assert_warned_here(caught, line)


def test_interval_fractional_integral_vanishes():
    """An antiderivative over an interval is differentiable, so fractional
    orders below one see (nearly) zero."""
    T = TimeScale([Interval(0.0, 1.0)])
    f = FnOnScale(lambda x: math.cos(x), T)
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EndpointAdjustedWarning)
        got = nabla_frac_integral(f, 0.0, 1.0, Order(1, 2), cfg)
    assert abs(got) <= 1e-4


# -- symmetric ------------------------------------------------------------


def test_symmetric_fractional_integral_on_integers():
    # gamma1 = gamma2 = 2**-beta on a uniform grid; the two one-sided walks
    # of the identity each contribute 9
    T = grid(0, 11)
    f = FnOnScale(lambda x: x, T)
    got = symmetric_frac_integral(f, 1.0, 10.0, Order(1, 2))
    assert got == pytest.approx(9.0 * math.sqrt(2.0), abs=1e-12)


def test_symmetric_beta_one_matches_weighted_classical():
    T = grid(0, 11)
    f = FnOnScale(lambda x: x * x, T)
    got = symmetric_frac_integral(f, 2.0, 9.0, ONE)
    want = 0.5 * (nabla_integral(f, 2.0, 9.0) + delta_integral(f, 2.0, 9.0))
    assert got == pytest.approx(want, abs=1e-12)


def test_symmetric_rejects_beta_zero():
    T = grid(0, 11)
    f = FnOnScale(lambda x: x, T)
    with pytest.raises(ValueError):
        symmetric_frac_integral(f, 1.0, 10.0, ZERO)


def test_symmetric_rejects_scattered_extremum_endpoint():
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    with pytest.raises(PointOutsideDomain):
        symmetric_frac_integral(f, 1.0, 9.0, Order(1, 2))


def test_symmetric_additivity():
    T = grid(0, 11)
    f = FnOnScale(lambda x: math.sin(x) + x, T)
    beta = Order(1, 2)
    whole = symmetric_frac_integral(f, 1.0, 10.0, beta)
    parts = symmetric_frac_integral(f, 1.0, 4.0, beta) + symmetric_frac_integral(
        f, 4.0, 10.0, beta
    )
    assert parts == pytest.approx(whole, abs=1e-10)


@pytest.mark.parametrize("beta", [Order(1, 2), ONE], ids=["half", "one"])
def test_symmetric_integral_on_a_left_unbounded_scale(beta):
    # the indefinite integrals used to be anchored at min(a, b) on a
    # left-unbounded scale, which broke additivity at beta = 1: I(1,8) +
    # I(8,21) - I(1,21) was 12.356 and I(1,21) 2636.8148.  Anchored at the
    # finite end of the unbounded interval, the value is the one on the same
    # scale cut off at -7
    points = "points(1,2,3,5,8,13,21,40)"
    T, cut = (parse_scale(f"union(interval({lo},0),{points})") for lo in ("-inf", "-7"))
    f = FnOnScale.from_expression("t^2+1", T)

    def integral(a, b):
        return symmetric_frac_integral(f, a, b, beta)

    whole = integral(1.0, 21.0)
    assert integral(1.0, 8.0) + integral(8.0, 21.0) == pytest.approx(whole, rel=1e-9, abs=0)
    assert integral(21.0, 1.0) == pytest.approx(-whole, rel=1e-9, abs=0)
    g = FnOnScale.from_expression("t^2+1", cut)
    assert whole == pytest.approx(symmetric_frac_integral(g, 1.0, 21.0, beta), rel=1e-9, abs=0)
    if beta.is_one:
        assert whole == pytest.approx(2636.611111111111, rel=1e-9, abs=0)
        # on the real line the anchor is 0
        R = FnOnScale.from_expression("t^2+1", parse_scale("interval(-inf,inf)"))
        assert symmetric_frac_integral(R, -1.0, 2.0, beta) == pytest.approx(6.0, rel=1e-9, abs=0)


# -- quadrature -----------------------------------------------------------


@pytest.mark.parametrize(
    "integral",
    [nabla_integral, delta_integral, nabla_frac_integral, delta_frac_integral, symmetric_frac_integral],
    ids=lambda integral: integral.__name__,
)
def test_integrals_take_no_quadrature_config(integral):
    # the quadrature accuracy is fixed: no argument sets it
    orders = () if integral in (nabla_integral, delta_integral) else (ONE, None)
    args = (FnOnScale(lambda x: x, TimeScale([Interval(0.0, 1.0)])), 0.0, 1.0, *orders)
    assert integral(*args) == 0.5
    for call in (lambda: integral(*args, None), lambda: integral(*args, qc=None)):
        with pytest.raises(TypeError):
            call()


def test_unreachable_tolerance_fails_along_one_path():
    # sqrt's slope is unbounded at 0, so the bisection toward 0 never meets
    # the target; a narrow interval used to return its coarse estimate while
    # the bisection went on, exploring an exponential tree: now one path
    # fails at depth 30
    T = TimeScale([Interval(0.0, 1.0)])
    points = []
    f = FnOnScale(lambda x: points.append(x) or math.sqrt(x), T)
    with pytest.raises(QuadratureFailure, match="failed to converge on"):
        nabla_integral(f, 0.0, 1.0)
    assert len(points) <= 2 * 30 + 5


def test_interval_too_narrow_to_bisect_raises():
    # around 1e8 the doubles are 1.5e-8 apart, so bisecting [1e8, 1e8 + 1]
    # toward sqrt's unbounded slope at its left end runs out of room before
    # depth 30, where it used to return an unchecked value; sin converges
    T = TimeScale([Interval(1e8, 1e8 + 1)])
    f = FnOnScale(lambda x: math.sqrt(x - 1e8), T)
    with pytest.raises(QuadratureFailure, match=r"on \[100000000\.\d*, 100000000\.\d*\] \(too narrow"):
        nabla_integral(f, 1e8, 1e8 + 1)
    smooth = nabla_integral(FnOnScale(math.sin, T), 1e8, 1e8 + 1)
    assert smooth == pytest.approx(math.cos(1e8) - math.cos(1e8 + 1), rel=1e-6)


def test_converged_estimate_on_an_unbisectable_interval_is_returned():
    # [1e4, 1e4 + 4 ulp] cannot be halved twice, yet the first Simpson
    # estimate of a constant is exact; it used to raise "too narrow"
    b = 10000.000000000004
    f = FnOnScale(lambda x: 1.0, TimeScale([Interval(10000.0, b)]))
    assert nabla_integral(f, 10000.0, b) == 3.637978807091713e-12 == b - 10000.0


def test_tight_quadrature_matches_loose():
    T = TimeScale([Interval(0.0, 3.0)])
    f = FnOnScale(lambda x: math.exp(-x * x), T)
    tight = nabla_integral(f, 0.0, 3.0)
    # a loose check by composite midpoint rule, then the tight one against erf
    h = 3.0 / 1000
    loose = h * math.fsum(f.eval((k + 0.5) * h) for k in range(1000))
    assert loose == pytest.approx(tight, rel=1e-5)
    assert tight == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(3.0), rel=1e-9)


# -- non-finite values on scattered paths ---------------------------------


def _grid_fn(bad_at, bad):
    """t on grid(0,10,1), except f(bad_at) = bad (every point when None)."""
    T = TimeScale([UniformGrid(0.0, 10.0, 1.0)])
    return FnOnScale(lambda x: bad if bad_at is None or x == bad_at else x, T)


@pytest.mark.parametrize("integral", [nabla_integral, delta_integral])
@pytest.mark.parametrize("bad_at", [3.0, None])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_jump_terms_raise(integral, bad_at, bad):
    f = _grid_fn(bad_at, bad)
    for a, b in ((0.0, 5.0), (5.0, 0.0)):
        with pytest.raises(QuadratureFailure, match=r"over \[0\.0, 5\.0\]"):
            integral(f, a, b)


def test_non_finite_jump_term_names_its_run():
    T = TimeScale([UniformGrid(0.0, 3.0, 1.0), Interval(3.0, 4.0), UniformGrid(4.0, 8.0, 1.0)])
    f = FnOnScale(lambda x: math.nan if x == 6.0 else x, T)
    with pytest.raises(QuadratureFailure, match=r"over \[4\.0, 8\.0\]"):
        nabla_integral(f, 0.0, 8.0)
    # the runs before the bad value sum as before
    assert nabla_integral(f, 0.0, 5.0) == 1 + 2 + 3 + 3.5 + 5


@pytest.mark.parametrize(
    "integral, a",
    [(nabla_frac_integral, 0.0), (delta_frac_integral, 0.0), (symmetric_frac_integral, 1.0)],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_values_raise_in_cauchy_integrals(integral, a, bad):
    f = _grid_fn(3.0, bad)
    with pytest.raises(QuadratureFailure):
        integral(f, a, 5.0, Order(1, 2))


@pytest.mark.parametrize("integral", [nabla_frac_integral, delta_frac_integral])
def test_non_finite_endpoint_value_raises_at_beta_zero(integral):
    with pytest.raises(QuadratureFailure, match="at t=5.0"):
        integral(_grid_fn(5.0, math.nan), 0.0, 5.0, ZERO)


def test_endpoint_with_no_admissible_neighbour_reraises():
    # 0 is right-dense only through 2**-41 and 2**-40, too few points for a
    # one-sided limit, and no nearby point admits one either
    T = TimeScale([GeometricGrid(2.0, -41, -40, include_zero=True)])
    with pytest.raises(LimitDidNotConverge, match="no scale points available on the right side"):
        nabla_frac_integral(FnOnScale(lambda x: x, T), 0.0, 2.0**-40, Order(1, 2))
    # at 1e21 the first step of an approach sequence is below the float
    # spacing, so the sequence on each side is empty
    f = FnOnScale(lambda x: x, TimeScale([Interval(1e20, 1e21)]))
    for integral, side in ((nabla_frac_integral, "right"), (delta_frac_integral, "left"), (symmetric_frac_integral, "left")):
        with pytest.raises(LimitDidNotConverge, match=f"no scale points available on the {side} side"):
            integral(f, 1e20, 1e21, Order(1, 2))


@pytest.mark.parametrize(
    "lo",
    [9999.999999999998, 9999.999999999996],
    ids=["one-step", "two-steps"],
)
@pytest.mark.parametrize("integral", [nabla_frac_integral, delta_frac_integral, symmetric_frac_integral])
def test_endpoint_whose_sides_offer_under_three_steps_reraises_unadjusted(integral, lo):
    # at 1e4 one side is empty and the other offers the interval steps the
    # float spacing leaves: an end 1 ulp below gives one step, an end 2 ulps
    # below halves once before it reaches 1e4; under three points is no
    # admissible neighbour, so nothing is adjusted
    f = FnOnScale(math.cos, TimeScale([Interval(lo, 10000.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", EndpointAdjustedWarning)
        with pytest.raises(LimitDidNotConverge, match=r"side of t=10000\.0 to sample") as info:
            integral(f, lo, 10000.0, Order(1, 2))
    assert info.value.samples_unavailable


def test_non_finite_value_raises_in_the_virtual_extension():
    # G at the scattered minimum is f(0) * step**beta, and f(0) is not finite
    with pytest.warns(EndpointAdjustedWarning), pytest.raises(QuadratureFailure, match="at t=0.0"):
        nabla_frac_integral(_grid_fn(0.0, math.nan), 0.0, 5.0, Order(1, 2))
