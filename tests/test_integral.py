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
    EndpointNotInScale,
    EndpointOutsideKappaSet,
    FinitePoints,
    FnOnScale,
    Interval,
    LimitConfig,
    Order,
    QuadratureConfig,
    QuadratureFailure,
    TimeScale,
    UniformGrid,
    ValidationError,
    delta_frac_integral,
    delta_integral,
    nabla_antiderivative,
    nabla_frac_integral,
    nabla_integral,
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
    with pytest.raises(EndpointNotInScale):
        nabla_integral(f, 0.25, 4.0)


# -- antiderivative -------------------------------------------------------


def test_antiderivative_matches_integral():
    T = TimeScale([Interval(0.0, 1.0), FinitePoints((2.0, 3.0))])
    f = FnOnScale(math.exp, T)
    F = nabla_antiderivative(f, 0.0)
    for b in (0.5, 1.0, 2.0, 3.0):
        assert F(b) == pytest.approx(nabla_integral(f, 0.0, b), rel=1e-10)
    assert F(0.0) == 0.0


def test_antiderivative_memoizes_requested_points():
    T = grid(0, 60)
    calls = []

    def probe(x):
        calls.append(x)
        return x * x

    F = Antiderivative(FnOnScale(probe, T), 0.0, DerivKind.NABLA)
    F(60.0)
    first = len(calls)
    assert first > 0
    F(60.0)  # answered from the memo
    assert len(calls) == first
    F(30.0)
    mid = len(calls)
    F(45.0)  # extends from the stored value at 30, not from the anchor
    assert len(calls) - mid <= 16
    after = len(calls)
    F(30.0)
    assert len(calls) == after
    assert F(45.0) == pytest.approx(nabla_integral(FnOnScale(lambda x: x * x, T), 0.0, 45.0))


def test_antiderivative_thread_safety():
    T = grid(0, 400)
    f = FnOnScale(lambda x: math.sin(x) + 2.0, T)
    F = nabla_antiderivative(f, 0.0)
    results = {}

    def worker(b):
        results[b] = F(float(b))

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


def test_beta_must_be_order_instance():
    T = grid(1, 10)
    f = FnOnScale(lambda x: x, T)
    with pytest.raises(TypeError):
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
    with pytest.raises(EndpointOutsideKappaSet):
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


# -- quadrature config ----------------------------------------------------


def test_quadrature_config_validation():
    with pytest.raises(ValidationError):
        QuadratureConfig(rel_tol=-1.0)
    with pytest.raises(ValidationError):
        QuadratureConfig(max_depth=0)


@pytest.mark.parametrize("bad", [30.5, 30.0, True, "30"])
def test_quadrature_max_depth_must_be_an_int(bad):
    with pytest.raises(ValidationError, match="max_depth must be an integer"):
        QuadratureConfig(max_depth=bad)


def test_tight_quadrature_matches_loose():
    T = TimeScale([Interval(0.0, 3.0)])
    f = FnOnScale(lambda x: math.exp(-x * x), T)
    loose = nabla_integral(f, 0.0, 3.0, QuadratureConfig(rel_tol=1e-6, abs_tol=1e-8))
    tight = nabla_integral(f, 0.0, 3.0)
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


def test_non_finite_value_raises_in_the_virtual_extension():
    # G at the scattered minimum is f(0) * step**beta, and f(0) is not finite
    with pytest.warns(EndpointAdjustedWarning), pytest.raises(QuadratureFailure, match="at t=0.0"):
        nabla_frac_integral(_grid_fn(0.0, math.nan), 0.0, 5.0, Order(1, 2))
