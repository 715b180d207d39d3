"""Exact rational differentiation orders and the limit machinery they share.

An order is a reduced fraction p/q with 0 < p/q <= 1.  The split that drives
every sign rule in the package: p/q is an *odd reciprocal* when p = 1 and q
is odd (1, 1/3, 1/5, ...).  For those orders x**(p/q) extends to negative x
as the real odd root, so two-sided limits make sense; for every other order
the power is only defined for x >= 0 and limits are one-sided.

``estimate_limit`` turns a shrinking-step sequence of difference quotients
into a limit estimate with a Cauchy-style stopping rule: once at least three
samples are in, the run converges when the last two successive quotients
agree within the tolerance.  No extrapolation is applied; the estimate is
the last quotient and the error estimate is that final difference.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeBaseForGeneralOrder, NonFiniteSample

__all__ = [
    "Order",
    "OrderClass",
    "classify_order",
    "signed_pow",
    "LimitConfig",
    "LimitResult",
    "estimate_limit",
]


@functools.total_ordering
@dataclass(frozen=True)
class Order:
    """A differentiation or integration order, kept as an exact reduced
    fraction.

    The constructor reduces p/q and checks 0 <= p/q <= 1.  Zero is the
    distinguished degenerate value used only by the fractional integrals
    (an order-0 integral is the integrand itself); the derivative operators
    reject it.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        p, q = self.numerator, self.denominator
        if not isinstance(p, int) or not isinstance(q, int) or isinstance(p, bool) or isinstance(q, bool):
            raise ValueError(f"order needs integer numerator/denominator, got {p!r}/{q!r}")
        if q <= 0:
            raise ValueError(f"order denominator must be positive, got {q}")
        if p < 0:
            raise ValueError(f"order must be nonnegative, got {p}/{q}")
        if p > q:
            raise ValueError(f"order must not exceed 1, got {p}/{q}")
        g = math.gcd(p, q) if p else 0
        if p == 0:
            p, q = 0, 1
        elif g > 1:
            p, q = p // g, q // g
        object.__setattr__(self, "numerator", p)
        object.__setattr__(self, "denominator", q)

    @classmethod
    def parse(cls, text: str, allow_zero: bool = False) -> "Order":
        """Parse 'p/q' or a decimal literal ('0.5' becomes 1/2 exactly).

        A decimal whose exponent takes it past the float range (1e400, or
        1e-400, whose float value is 0) is refused with ValueError.
        """
        s = str(text).replace(" ", "")
        try:
            # Fraction(s) first builds 10**exponent; float() reads any exponent
            # at once, and one that takes s past the float range is refused
            mantissa, e, _ = s.lower().partition("e")
            if e and abs(float(s)) in (0.0, math.inf):
                if float(mantissa):
                    raise ValueError("exponent out of range")
                s = mantissa  # zero at any exponent
            frac = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
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

    def one_minus(self) -> "Order":
        """The complementary order 1 - p/q, reduced."""
        return Order(self.denominator - self.numerator, self.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    def __lt__(self, other: "Order") -> bool:
        return self.numerator * other.denominator < other.numerator * self.denominator


class OrderClass(enum.Enum):
    """Sign behavior of x**alpha: odd reciprocals accept negative bases."""

    ODD_RECIPROCAL = "odd-reciprocal"
    GENERAL = "general"


def classify_order(order: Order) -> OrderClass:
    if order.is_zero:
        raise ValueError("the zero order has no sign class")
    if order.numerator == 1 and order.denominator % 2 == 1:
        return OrderClass.ODD_RECIPROCAL
    return OrderClass.GENERAL


def signed_pow(x: float, order: Order) -> float:
    """x**(p/q) with the real-root convention.

    For odd reciprocals this is sign(x) * |x|**(1/q) for every real x.  For
    general orders negative bases are rejected.  0**alpha is 0 for every
    positive alpha.

    Raises:
        NegativeBaseForGeneralOrder: x < 0 and the order is not an odd
            reciprocal.
    """
    if order.is_zero:
        raise ValueError("signed_pow is undefined for the zero order")
    if x == 0:
        return 0.0
    if classify_order(order) is OrderClass.ODD_RECIPROCAL:
        return math.copysign(abs(x) ** (1.0 / order.denominator), x)
    if x < 0:
        raise NegativeBaseForGeneralOrder(
            f"({x})**({order}) is not real; only odd-reciprocal orders "
            "accept negative bases"
        )
    return x**order.value


@dataclass(frozen=True)
class LimitConfig:
    """Knobs for dense-point limit estimation."""

    #: first step away from the point
    h0: float = 1e-2
    #: geometric shrink factor between successive steps
    ratio: float = 0.5
    #: two successive quotients this close stop the run
    tol: float = 1e-8
    #: hard cap on evaluated quotients per side
    max_samples: int = 40

    def __post_init__(self):
        if not self.h0 > 0:
            raise ValueError(f"h0 must be positive, got {self.h0}")
        if not (0 < self.ratio < 1):
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if isinstance(self.max_samples, bool) or not isinstance(self.max_samples, int):
            raise ValueError(f"max_samples must be an integer, got {self.max_samples!r}")
        if self.max_samples < 3:
            raise ValueError(f"max_samples must be at least 3, got {self.max_samples}")


@dataclass(frozen=True)
class LimitResult:
    """Outcome of one limit estimation run."""

    value: float
    err_est: float
    converged: bool
    samples_used: int


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

    Raises:
        NonFiniteSample: a quotient came out NaN or infinite.
        ValueError: fewer than three samples were available.  The
            derivatives never pass such a sequence: they drop a side with
            fewer than three sample points before estimating.
    """
    if cfg is None:
        cfg = LimitConfig()
    prev: float | None = None
    value = 0.0
    diff = math.inf
    prev_diff = math.inf
    used = 0
    for qv in itertools.islice(iter(quotients), cfg.max_samples):
        used += 1
        q = float(qv)
        if not math.isfinite(q):
            raise NonFiniteSample(f"quotient sample {used} is {q!r}")
        if prev is not None:
            prev_diff = diff
            diff = abs(q - prev)
        value = q
        if used >= 3 and diff <= cfg.tol and prev_diff <= cfg.tol:
            return LimitResult(value, diff, True, used)
        prev = q
    if used < 3:
        raise ValueError(f"estimate_limit needs at least 3 samples, got {used}")
    return LimitResult(value, diff, False, used)
