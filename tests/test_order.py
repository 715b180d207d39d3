"""Order arithmetic, signed powers, and the shrinking-step limit estimator."""

import math
import random
import time

import pytest

from tsfrac import (
    LimitConfig,
    NegativeBaseForGeneralOrder,
    NonFiniteSample,
    Order,
    OrderClass,
    classify_order,
    estimate_limit,
    signed_pow,
)


def test_order_reduces():
    a = Order(2, 4)
    assert (a.numerator, a.denominator) == (1, 2)
    assert str(a) == "1/2"
    assert Order(3, 3) == Order(1, 1)


def test_order_bounds():
    with pytest.raises(ValueError):
        Order(3, 2)
    with pytest.raises(ValueError):
        Order(1, 0)
    with pytest.raises(ValueError):
        Order(-1, 2)
    # zero is constructible (the integrals use it) but normalizes to 0/1
    z = Order(0, 2)
    assert z.is_zero and z.denominator == 1


def test_order_parse():
    assert Order.parse("1/2") == Order(1, 2)
    assert Order.parse(" 3 / 4 ") == Order(3, 4)
    assert Order.parse("1") == Order(1, 1)
    with pytest.raises(ValueError):
        Order.parse("0/1")
    z = Order.parse("0/1", allow_zero=True)
    assert z.is_zero
    with pytest.raises(ValueError):
        Order.parse("5/4")
    with pytest.raises(ValueError):
        Order.parse("a/b")


@pytest.mark.parametrize(
    "text", ["1e10000000", "1e-10000000", "-1e100000000", "2e0", "1e-400", "1" * 5000, "0.5e1"]
)
def test_order_parse_refuses_out_of_range_decimals_quickly(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        Order.parse(text)
    assert time.perf_counter() - start < 0.1


def test_order_parse_decimals():
    assert Order.parse("5e-1") == Order(1, 2)
    assert Order.parse("0.25") == Order(1, 4)
    assert Order.parse("0e-10000000", allow_zero=True).is_zero
    assert Order.parse("1e-300").denominator == 10**300


def test_order_value_and_complement():
    a = Order(1, 4)
    assert a.value == 0.25
    assert a.one_minus() == Order(3, 4)
    assert Order(1, 1).one_minus().is_zero
    assert Order(2, 5).one_minus() == Order(3, 5)


def test_order_comparisons():
    assert Order(1, 3) < Order(1, 2) < Order(3, 4) < Order(1, 1)
    assert Order(2, 6) <= Order(1, 3)
    assert Order(1, 1) > Order(2, 3) >= Order(4, 6)
    assert not Order(1, 3) > Order(1, 2)
    assert not Order(1, 3) >= Order(1, 2)
    assert not Order(1, 2) <= Order(1, 3)


def test_classify_order():
    assert classify_order(Order(1, 3)) is OrderClass.ODD_RECIPROCAL
    assert classify_order(Order(1, 1)) is OrderClass.ODD_RECIPROCAL
    assert classify_order(Order(1, 5)) is OrderClass.ODD_RECIPROCAL
    assert classify_order(Order(1, 2)) is OrderClass.GENERAL
    assert classify_order(Order(1, 4)) is OrderClass.GENERAL
    assert classify_order(Order(2, 3)) is OrderClass.GENERAL
    assert classify_order(Order(3, 4)) is OrderClass.GENERAL


def test_signed_pow_odd_reciprocal():
    # x**(1/3) keeps the sign of x
    assert signed_pow(8.0, Order(1, 3)) == pytest.approx(2.0)
    assert signed_pow(-8.0, Order(1, 3)) == pytest.approx(-2.0)
    assert signed_pow(-2.0, Order(1, 1)) == -2.0
    assert signed_pow(0.0, Order(1, 5)) == 0.0


def test_signed_pow_general():
    assert signed_pow(4.0, Order(1, 2)) == pytest.approx(2.0)
    assert signed_pow(2.0, Order(3, 4)) == pytest.approx(2.0**0.75)
    with pytest.raises(NegativeBaseForGeneralOrder):
        signed_pow(-4.0, Order(1, 2))


def test_signed_pow_matches_float_pow_on_positives():
    rng = random.Random(7)
    for _ in range(100):
        x = rng.uniform(1e-6, 50.0)
        p = rng.randint(1, 7)
        q = rng.randint(p, 9)
        assert signed_pow(x, Order(p, q)) == pytest.approx(x ** (p / q), rel=1e-14)


def test_limit_config_validation():
    with pytest.raises(ValueError):
        LimitConfig(h0=0.0)
    with pytest.raises(ValueError):
        LimitConfig(ratio=1.0)
    with pytest.raises(ValueError):
        LimitConfig(tol=-1e-9)
    with pytest.raises(ValueError):
        LimitConfig(max_samples=2)


@pytest.mark.parametrize("bad", [40.5, 40.0, True, "40", None])
def test_limit_config_max_samples_must_be_an_int(bad):
    # a float budget used to pass here and fail later as a bare TypeError
    with pytest.raises(ValueError, match="max_samples must be an integer"):
        LimitConfig(max_samples=bad)


def test_estimate_limit_constant_sequence():
    cfg = LimitConfig(tol=1e-10)
    res = estimate_limit([5.0, 5.0, 5.0, 5.0], cfg)
    assert res.converged
    assert res.value == 5.0
    assert res.samples_used == 3


def test_estimate_limit_geometric_decay():
    cfg = LimitConfig(tol=1e-9, max_samples=60)
    seq = [1.0 + 0.5**k for k in range(60)]
    res = estimate_limit(seq, cfg)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.err_est <= 1e-9


def test_estimate_limit_needs_two_small_diffs():
    """One accidental repeat must not count as convergence."""
    cfg = LimitConfig(tol=1e-8, max_samples=10)
    # samples 3 and 4 coincide, then the sequence wanders off again
    seq = [1.0, 0.5, 0.3, 0.3, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7]
    res = estimate_limit(seq, cfg)
    assert not res.converged
    assert res.samples_used == 10


def test_estimate_limit_unconverged():
    cfg = LimitConfig(tol=1e-15, max_samples=8)
    seq = [1.0 + 0.5**k for k in range(30)]
    res = estimate_limit(seq, cfg)
    assert not res.converged
    assert res.samples_used == 8
    assert res.value == seq[7]


def test_estimate_limit_rejects_nan():
    with pytest.raises(NonFiniteSample):
        estimate_limit([1.0, float("nan"), 1.0], LimitConfig())
    with pytest.raises(NonFiniteSample):
        estimate_limit([1.0, 2.0, math.inf, 3.0], LimitConfig())


def test_estimate_limit_too_few_samples():
    with pytest.raises(ValueError):
        estimate_limit([1.0, 2.0], LimitConfig())


def test_estimate_limit_is_lazy():
    """Samples past the convergence point must never be evaluated."""
    cfg = LimitConfig(tol=1e-6, max_samples=50)

    def gen():
        yield from (2.0, 2.0, 2.0)
        raise AssertionError("sampled past convergence")

    res = estimate_limit(gen(), cfg)
    assert res.converged and res.value == 2.0
