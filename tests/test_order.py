"""Order arithmetic, signed powers, and the shrinking-step limit estimator."""

import math
import operator
import random
import time
from fractions import Fraction

import pytest

from tsfrac import (
    LimitConfig,
    NegativeBaseForGeneralOrder,
    NonFiniteSample,
    Order,
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
    with pytest.raises(ValueError, match="integer numerator/denominator"):
        Order(1.5, 2)
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


@pytest.mark.parametrize("text", ["\u0661/\u0662", "1_0/20", "0.5_0", "1 0/20", "1/\u0662", "1.5/3", "1/-2", "1\u00a0/2"])
def test_order_parse_reads_numbers_by_the_grammar_rule(text):
    # ASCII digits, no separators, and only spaces, tabs, CRs and LFs around
    # each number; p/q takes two integers
    with pytest.raises(ValueError, match="cannot parse order"):
        Order.parse(text)


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
    assert float(Order(1, 4)) == 0.25
    o = Order(2, 6)
    assert Fraction(o.numerator, o.denominator) == 1 / Fraction(3) and (o.numerator, o.denominator) == (1, 3)


def test_order_comparisons():
    assert Order(1, 3) < Order(1, 2) < Order(3, 4) < Order(1, 1)
    assert Order(2, 6) <= Order(1, 3)
    assert Order(1, 1) > Order(2, 3) >= Order(4, 6)
    assert not Order(1, 3) > Order(1, 2)
    assert not Order(1, 3) >= Order(1, 2)
    assert not Order(1, 2) <= Order(1, 3)


@pytest.mark.parametrize("other", [0.5, 1, None], ids=["float", "int", "None"])
def test_an_order_compares_only_with_an_order(other):
    # an order equals no number (Order(1, 1) != 1), so it is not ordered
    # against one either: 1 < Order(1, 1) once read int.denominator
    assert Order(1, 1) != other and Order(1, 2) != other
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(Order(1, 1), other)
        with pytest.raises(TypeError):
            compare(other, Order(1, 2))


def test_odd_reciprocal():
    assert Order(1, 3).odd_reciprocal
    assert Order(1, 1).odd_reciprocal
    assert Order(1, 5).odd_reciprocal
    assert not Order(1, 2).odd_reciprocal
    assert not Order(1, 4).odd_reciprocal
    assert not Order(2, 3).odd_reciprocal
    assert not Order(3, 4).odd_reciprocal


def test_signed_pow_odd_reciprocal():
    # x**(1/3) keeps the sign of x
    assert signed_pow(8.0, Order(1, 3)) == pytest.approx(2.0)
    assert signed_pow(-8.0, Order(1, 3)) == pytest.approx(-2.0)
    assert signed_pow(-2.0, Order(1, 1)) == -2.0
    assert signed_pow(0.0, Order(1, 5)) == 0.0
    # a denominator past the float range: 1 / q is exact true division
    assert signed_pow(-8.0, Order(1, 10**400 + 1)) == -1.0


def test_signed_pow_general():
    assert signed_pow(4.0, Order(1, 2)) == pytest.approx(2.0)
    assert signed_pow(2.0, Order(3, 4)) == pytest.approx(2.0**0.75)
    with pytest.raises(NegativeBaseForGeneralOrder):
        signed_pow(-4.0, Order(1, 2))


@pytest.mark.parametrize("order", [0.5, "1/2", Fraction(1, 2)], ids=repr)
def test_signed_pow_takes_only_an_order(order):
    # these used to fail inside with AttributeError on .numerator or .odd_reciprocal
    with pytest.raises(TypeError, match=f"order must be an Order, got {type(order).__name__}"):
        signed_pow(2.0, order)


def test_signed_pow_matches_float_pow_on_positives():
    # the operators divide by (hi - lo) ** order.value with hi > lo: that is
    # signed_pow, and for an odd reciprocal signed_pow is odd
    rng = random.Random(7)
    for order in (*SIGNED_POW_ORDERS, Order(1, 10**400 + 1)):
        for _ in range(100):
            x = rng.uniform(1e-6, 50.0)
            assert signed_pow(x, order) == x**order.value
            if order.odd_reciprocal:
                assert signed_pow(-x, order) == -(x**order.value)


SIGNED_POW_ORDERS = sorted({Order(p, q) for q in range(1, 13) for p in range(1, q + 1)})
SIGNED_POW_BASES = [s * x for x in (0.0, 1e-300, 0.3, 1.0, 7.5, 1e300) for s in (1.0, -1.0)]


@pytest.mark.parametrize("order", SIGNED_POW_ORDERS, ids=str)
def test_signed_pow_table(order):
    # bit for bit the floats of the two closed forms, on the branch odd_reciprocal picks
    p, q = order.numerator, order.denominator
    odd = order.odd_reciprocal
    for x in SIGNED_POW_BASES:
        if x == 0:
            assert signed_pow(x, order).hex() == "0x0.0p+0"
        elif odd:
            assert signed_pow(x, order).hex() == math.copysign(abs(x) ** (1.0 / q), x).hex()
        elif x < 0:
            with pytest.raises(NegativeBaseForGeneralOrder):
                signed_pow(x, order)
        else:
            assert signed_pow(x, order).hex() == (x ** (p / q)).hex()


def test_signed_pow_table_covers_both_branches_and_the_zero_order():
    assert Order(1, 1) in SIGNED_POW_ORDERS and len(SIGNED_POW_ORDERS) == 46
    assert sum(o.odd_reciprocal for o in SIGNED_POW_ORDERS) == 6  # 1, 1/3, ..., 1/11
    zero = Order.parse("0", allow_zero=True)
    for x in SIGNED_POW_BASES:
        with pytest.raises(ValueError, match="zero order"):
            signed_pow(x, zero)
    assert not zero.odd_reciprocal


def test_limit_config_validation():
    with pytest.raises(ValueError):
        LimitConfig(tol=-1e-9)
    with pytest.raises(ValueError):
        LimitConfig(max_samples=2)


@pytest.mark.parametrize("field", ["tol"])
# a str or None would escape as a bare TypeError from "<", and True pass as 1.0
@pytest.mark.parametrize("bad", [math.inf, math.nan, "1e-3", None, True])
def test_limit_config_steps_and_tolerance_must_be_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        LimitConfig(**{field: bad})


def test_limit_config_has_no_step_fields_and_takes_keywords_only():
    # the approach steps are fixed, and a positional call written for the
    # four old fields (h0, ratio, tol, max_samples) cannot be misread
    assert list(vars(LimitConfig())) == ["tol", "max_samples"]
    for field in ("h0", "ratio"):
        with pytest.raises(TypeError, match=field):
            LimitConfig(**{field: 0.5})
    with pytest.raises(TypeError):
        LimitConfig(1e-3, 50)
    assert LimitConfig(tol=Fraction(1, 1000)).tol == Fraction(1, 1000)


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
    assert estimate_limit(seq) == estimate_limit(seq, LimitConfig())


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


class _Skewed(float):
    """A float whose own subtraction is wrong: float() drops it."""

    def __sub__(self, other):
        return 0.0


@pytest.mark.parametrize(
    "seq",
    [
        [3, 2, 2, 2, 2],
        [1, 2, 3, 4],
        [Fraction(1, 3) + Fraction(1, 3**k) for k in range(40)],
        [1, Fraction(1, 2), 0.25, True, Fraction(1, 8), 0.125, 0.125, 0.125],
        [_Skewed(1.0 + 0.5**k) for k in range(40)],
    ],
    ids=["ints", "ints-unconverged", "fractions", "mixed", "float-subclass"],
)
def test_estimate_limit_reads_samples_as_float_does(seq):
    cfg = LimitConfig(tol=1e-9, max_samples=30)
    res = estimate_limit(seq, cfg)
    assert res == estimate_limit([float(x) for x in seq], cfg)
    assert type(res.value) is float and type(res.err_est) is float


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
