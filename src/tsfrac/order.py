"""Exact rational differentiation orders and the limit machinery they share.

An order is a reduced fraction p/q with 0 < p/q <= 1.  The split that drives
every sign rule in the package: p/q is an *odd reciprocal*
(``Order.odd_reciprocal``) when p = 1 and q is odd (1, 1/3, 1/5, ...).  For
those orders x**(p/q) extends to negative x as the real odd root, so
two-sided limits make sense; for every other order the power is only
defined for x >= 0 and limits are one-sided.

``estimate_limit`` turns a shrinking-step sequence of difference quotients
into a limit estimate with a Cauchy-style stopping rule: once at least three
samples are in, the run converges when the last two successive quotients
agree within the tolerance.  No extrapolation is applied; the estimate is
the last quotient and the error estimate is that final difference.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from fractions import Fraction

from .errors import ExprSyntaxError, NegativeBaseForGeneralOrder, NonFiniteSample, _Record

__all__ = [
    "Order",
    "signed_pow",
    "LimitConfig",
    "estimate_limit",
]


@functools.total_ordering
class Order(_Record):
    """A differentiation or integration order, kept as an exact reduced
    fraction.

    The constructor reduces p/q and checks 0 <= p/q <= 1.  Zero is the
    distinguished degenerate value used only by the fractional integrals
    (an order-0 integral is the integrand itself); the derivative operators
    reject it.
    """

    def __init__(self, numerator: int, denominator: int):
        p, q = numerator, denominator
        if not isinstance(p, int) or not isinstance(q, int) or isinstance(p, bool) or isinstance(q, bool):
            raise ValueError(f"order needs integer numerator/denominator, got {p!r}/{q!r}")
        if q <= 0:
            raise ValueError(f"order denominator must be positive, got {q}")
        if p < 0:
            raise ValueError(f"order must be nonnegative, got {p}/{q}")
        if p > q:
            raise ValueError(f"order must not exceed 1, got {p}/{q}")
        g = math.gcd(p, q)  # gcd(0, q) is q: a zero order is 0/1
        vars(self).update(numerator=p // g, denominator=q // g)

    @classmethod
    def parse(cls, text: str, allow_zero: bool = False) -> "Order":
        """Parse 'p/q' or a decimal literal ('0.5' becomes 1/2 exactly), each
        number by the grammars' number rule (``exprlang``: ASCII digits).

        A decimal whose exponent takes it past the float range (1e400, or
        1e-400, whose float value is 0) is refused with ValueError.
        """
        from .exprlang import _number_text  # exprlang imports the scale module, which imports this one

        try:
            num, slash, den = str(text).partition("/")
            s = _number_text(num) + (slash + _number_text(den) if slash else "")
            # Fraction(s) first builds 10**exponent; float() reads any exponent
            # at once, and one that takes s past the float range is refused
            mantissa, e, _ = s.lower().partition("e")
            if e and abs(float(s)) in (0.0, math.inf):
                if float(mantissa):
                    raise ValueError("exponent out of range")
                s = mantissa  # zero at any exponent
            frac = Fraction(s)
        except (ValueError, ZeroDivisionError, ExprSyntaxError) as exc:
            raise ValueError(f"cannot parse order {text!r}: {exc}")
        if frac == 0 and allow_zero:
            return cls(0, 1)
        if not (0 < frac <= 1):
            raise ValueError(f"order must lie in (0, 1], got {text!r}")
        return cls(frac.numerator, frac.denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    @property
    def is_one(self) -> bool:
        return self.numerator == self.denominator

    @property
    def odd_reciprocal(self) -> bool:
        """1/q with q odd: x**(1/q) is the real odd root for every real x."""
        return self.numerator == 1 and self.denominator % 2 == 1

    def one_minus(self) -> "Order":
        """The complementary order 1 - p/q, reduced."""
        return Order(self.denominator - self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    def __lt__(self, other: "Order") -> bool:
        if not isinstance(other, Order):  # an order compares only with an order
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator


def _require_order_type(order, name: str = "order") -> None:
    """TypeError unless order is an Order: the operators take exact orders."""
    if not isinstance(order, Order):
        raise TypeError(f"{name} must be an Order, got {type(order).__name__}")


def signed_pow(x: float, order: Order) -> float:
    """x**(p/q) with the real-root convention.

    For odd reciprocals (``Order.odd_reciprocal``) this is
    sign(x) * |x|**(1/q) for every real x.  For every other order negative
    bases are rejected.  0**alpha is 0 for every positive alpha.

    Raises:
        TypeError: the order is not an ``Order``.
        NegativeBaseForGeneralOrder: x < 0 and the order is not an odd
            reciprocal.
    """
    _require_order_type(order)
    if order.is_zero:
        raise ValueError("signed_pow is undefined for the zero order")
    if x == 0:
        return 0.0
    if order.odd_reciprocal:
        return math.copysign(abs(x) ** order.value, x)
    if x < 0:
        raise NegativeBaseForGeneralOrder(
            f"({x})**({order}) is not real; only odd-reciprocal orders "
            "accept negative bases"
        )
    return x ** order.value


#: the fewest samples a limit is estimated from: two successive differences
_MIN_SAMPLES = 3
#: a dense point is approached along the steps _FIRST_STEP * _STEP_RATIO**k
_FIRST_STEP = 1e-2
_STEP_RATIO = 0.5


class LimitConfig(_Record):
    """When ``estimate_limit`` stops, and how many of the fixed steps
    (``TimeScale.approach_sequence``: 1e-2, then each half the last) it samples.

    ``tol``: two successive quotients this close stop the run.
    ``max_samples``: hard cap on evaluated quotients per side.
    """

    def __init__(self, *, tol: float = 1e-8, max_samples: int = 40):
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        if isinstance(max_samples, bool) or not isinstance(max_samples, int):
            raise ValueError(f"max_samples must be an integer, got {max_samples!r}")
        if max_samples < _MIN_SAMPLES:
            raise ValueError(f"max_samples must be at least {_MIN_SAMPLES}, got {max_samples}")
        vars(self).update(tol=tol, max_samples=max_samples)


#: the config a call given None uses; immutable, so every such call can share it
_DEFAULT_LIMITS = LimitConfig()


class LimitResult(_Record):
    """Outcome of one limit estimation run."""

    def __init__(self, value: float, err_est: float, converged: bool, samples_used: int):
        vars(self).update(value=value, err_est=err_est, converged=converged, samples_used=samples_used)


def estimate_limit(quotients, cfg: LimitConfig | None = None) -> LimitResult:
    """Estimate the limit of a quotient sequence taken along shrinking steps.

    Consumes at most ``cfg.max_samples`` values.  The run converges at the
    first sample (from the third on) where the last two successive
    differences are both at most ``cfg.tol``; the result value is that
    sample.  Demanding two small differences in a row keeps the estimator
    from latching onto a rounding plateau, where quotients of nearly equal
    function values repeat once the step approaches the float spacing.  If
    the sequence runs out or the cap is hit first, the result is marked
    unconverged and carries the last quotient and the last difference.
    A sample that is no float (an int, a float subclass) is read by ``float()``.

    Raises:
        NonFiniteSample: a quotient came out NaN or infinite.
        ValueError: fewer than ``_MIN_SAMPLES`` (three) samples were
            available.  The derivatives never pass such a sequence: they
            drop a side with fewer sample points before estimating.
    """
    if cfg is None:
        cfg = _DEFAULT_LIMITS
    tol, isfinite = cfg.tol, math.isfinite
    # value holds the previous sample; from inf, the first difference is inf,
    # so two finite differences at most tol need three samples
    value = diff = math.inf
    used = 0
    for q in itertools.islice(quotients, cfg.max_samples):
        used += 1
        q = q if type(q) is float else float(q)
        if not isfinite(q):
            raise NonFiniteSample(f"quotient sample {used} is {q!r}")
        prev_diff, diff, value = diff, abs(q - value), q
        if diff <= tol and prev_diff <= tol:
            return LimitResult(value, diff, True, used)
    if used < _MIN_SAMPLES:
        raise ValueError(f"estimate_limit needs at least {_MIN_SAMPLES} samples, got {used}")
    return LimitResult(value, diff, False, used)
