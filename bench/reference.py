"""Independent truth for every operation the benchmark generators emit.

Uses the standard library ``math`` module only and never imports tsfrac.
Scales are described the way the generators build them: sorted, disjoint
closed intervals plus a sorted list of discrete members outside them.  From
that description this module derives the jump operators, the dense/scattered
classification, exact difference quotients, the known limits of the dense
quotients, and the closed forms of the fractional integrals.

A reference value is a float, or ``RAISES`` where no finite value exists
(the quotient diverges, the point lies outside the operator's domain, or
the side the definition needs has no scale points).

Dense limits, for a function f smooth at t and an order a = p/q:

* 0 for a < 1 and f'(t) for a = 1 (nabla, delta and symmetric alike);
* ``sqrt`` at 0 from the right: 0 for a < 1/2, 1 for a = 1/2, divergent
  for a > 1/2;
* the nabla limit samples the right side for general orders (the base
  s - t must stay nonnegative), the delta limit the left side, odd
  reciprocals (1/3, 1) either side; the symmetric limit needs both sides.

Fractional Cauchy integrals of order b < 1 are G(b) - G(a) with G the
(1-b)-order derivative of the antiderivative F anchored at a.  At a
left-scattered point the nabla G is f(t) * nu(t)**b, at a right-scattered
point the delta G is f(t) * mu(t)**b, and at a dense point G is 0 because
F is smooth there.  At a scattered minimum (nabla) or maximum (delta) the
documented one-step virtual extension gives f(t) * step**b.  On a uniform
grid of step h this reduces to h**b * (f(b) - f(a)) for nabla and delta,
and 2**(1-b) * h**b * (f(b) - f(a)) for symmetric.  Order-1 integrals are
exact jump sums (``math.fsum``) plus closed-form antiderivatives on the
interval parts.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

TOL = 1e-12  # tsfrac's default snap tolerance: gaps at or below it are dense
LIMIT_TOL = 1e-8  # default LimitConfig.tol
EXACT_RTOL = 1e-9  # relative tolerance on exact (quotient and sum) paths


class _Raises:
    def __repr__(self):
        return "RAISES"


RAISES = _Raises()


class Fn:
    """A test function: its expression text, value, derivative and
    antiderivative."""

    def __init__(self, name, text, f, df, F=None):
        self.name = name
        self.text = text
        self.f = f
        self.df = df
        self.F = F


FUNCTIONS = {
    fn.name: fn
    for fn in (
        Fn("sin", "sin(t)", math.sin, math.cos, lambda t: -math.cos(t)),
        Fn("exp", "exp(t)", math.exp, math.exp, math.exp),
        Fn("sq", "t^2", lambda t: t * t, lambda t: 2.0 * t, lambda t: t**3 / 3.0),
        Fn(
            "sqrt",
            "sqrt(t)",
            math.sqrt,
            lambda t: 0.5 / math.sqrt(t),
            lambda t: 2.0 / 3.0 * t**1.5,
        ),
        Fn("lin", "t", lambda t: t, lambda t: 1.0, lambda t: 0.5 * t * t),
        Fn(
            "cos3",
            "2*cos(t/3)",
            lambda t: 2.0 * math.cos(t / 3.0),
            lambda t: -2.0 / 3.0 * math.sin(t / 3.0),
            lambda t: 6.0 * math.sin(t / 3.0),
        ),
        Fn(
            "poly",
            "t^2 - 3*t",
            lambda t: t * t - 3.0 * t,
            lambda t: 2.0 * t - 3.0,
            lambda t: t**3 / 3.0 - 1.5 * t * t,
        ),
        Fn(
            "sqrt1",
            "sqrt(t + 1)",
            lambda t: math.sqrt(t + 1.0),
            lambda t: 0.5 / math.sqrt(t + 1.0),
            lambda t: 2.0 / 3.0 * (t + 1.0) ** 1.5,
        ),
        Fn(
            "exp4",
            "exp(t/4)",
            lambda t: math.exp(t / 4.0),
            lambda t: 0.25 * math.exp(t / 4.0),
            lambda t: 4.0 * math.exp(t / 4.0),
        ),
    )
}


def is_odd_reciprocal(order: Fraction) -> bool:
    return order.numerator == 1 and order.denominator % 2 == 1


def _pow(x: float, order: Fraction) -> float:
    return x ** (order.numerator / order.denominator)


class RefScale:
    """A scale as the generator described it.

    ``intervals``: disjoint (lo, hi) pairs with lo < hi; ``points``: the
    discrete members, none inside an interval.
    """

    def __init__(self, intervals=(), points=()):
        self.intervals = sorted((float(lo), float(hi)) for lo, hi in intervals)
        self.points = sorted(float(p) for p in points)
        nodes = set(self.points)
        for lo, hi in self.intervals:
            nodes.update((lo, hi))
        self.nodes = sorted(nodes)  # every member that can border a gap
        self.lo = self.nodes[0]
        self.hi = self.nodes[-1]

    @functools.cached_property
    def left_gap(self) -> list:
        """nu at each node, 0.0 where the left side is dense."""
        return [t - self.rho(t) for t in self.nodes]

    @functools.cached_property
    def right_gap(self) -> list:
        """mu at each node, 0.0 where the right side is dense."""
        return [self.sigma(t) - t for t in self.nodes]

    def _interval_of(self, t: float):
        for lo, hi in self.intervals:
            if lo <= t <= hi:
                return lo, hi
        return None

    def is_member(self, t: float) -> bool:
        if self._interval_of(t) is not None:
            return True
        i = bisect.bisect_left(self.points, t)
        return i < len(self.points) and self.points[i] == t

    def rho(self, t: float) -> float:
        iv = self._interval_of(t)
        if iv is not None and t > iv[0]:
            return t
        i = bisect.bisect_left(self.nodes, t)
        return self.nodes[i - 1] if i > 0 else t

    def sigma(self, t: float) -> float:
        iv = self._interval_of(t)
        if iv is not None and t < iv[1]:
            return t
        i = bisect.bisect_right(self.nodes, t)
        return self.nodes[i] if i < len(self.nodes) else t

    def left_dense(self, t: float) -> bool:
        return t - self.rho(t) <= TOL

    def right_dense(self, t: float) -> bool:
        return self.sigma(t) - t <= TOL

    def left_points(self, t: float) -> bool:
        """Scale points exist arbitrarily close to t from the left."""
        iv = self._interval_of(t)
        return (iv is not None and t > iv[0]) or 0 < t - self.rho(t) <= TOL

    def right_points(self, t: float) -> bool:
        iv = self._interval_of(t)
        return (iv is not None and t < iv[1]) or 0 < self.sigma(t) - t <= TOL

    def min_scattered(self) -> bool:
        return self.sigma(self.lo) - self.lo > TOL

    def max_scattered(self) -> bool:
        return self.hi - self.rho(self.hi) > TOL

    def in_domain(self, kind: str, t: float) -> bool:
        nabla_ok = not (t == self.lo and self.min_scattered())
        delta_ok = not (t == self.hi and self.max_scattered())
        return {"nabla": nabla_ok, "delta": delta_ok, "symmetric": nabla_ok and delta_ok}[kind]

    def dense_path(self, kind: str, t: float) -> bool:
        """Whether the kind's derivative at t is a limit (not a quotient)."""
        if kind == "nabla":
            return self.left_dense(t)
        if kind == "delta":
            return self.right_dense(t)
        return self.left_dense(t) and self.right_dense(t)

    def classify(self, t: float) -> dict:
        return {
            "left_dense": self.left_dense(t),
            "right_dense": self.right_dense(t),
            "in_nabla_domain": self.in_domain("nabla", t),
            "in_delta_domain": self.in_domain("delta", t),
            "in_symmetric_domain": self.in_domain("symmetric", t),
        }

    def table_points(self, a: float, b: float, density: float) -> list:
        """The documented ``table`` enumeration: every discrete member in
        [a, b] plus ``max(2, ceil(len * density) + 1)`` evenly spaced samples
        of each interval piece."""
        pts = [p for p in self.points if a - TOL <= p <= b + TOL]
        for lo, hi in self.intervals:
            x, y = max(lo, a), min(hi, b)
            if x > y:
                continue
            if x == y:
                pts.append(x)
                continue
            n = max(2, int(math.ceil((y - x) * density)) + 1)
            pts.extend(x + j * (y - x) / (n - 1) for j in range(n))
        out = []
        for v in sorted(pts):
            if out and v - out[-1] <= TOL:
                continue
            out.append(v)
        return out


# -- derivatives -----------------------------------------------------------


def _dense_limit(fn: Fn, t: float, order: Fraction, sides: str):
    if fn.name == "sqrt" and t == 0.0:
        # only the right side exists; sqrt(s) / s**a = s**(1/2 - a)
        if sides != "right":
            return RAISES
        if order < Fraction(1, 2):
            return 0.0
        if order == Fraction(1, 2):
            return 1.0
        return RAISES
    return fn.df(t) if order == 1 else 0.0


def deriv(scale: RefScale, fn: Fn, kind: str, t: float, order: Fraction):
    """The nabla, delta or symmetric derivative of order ``order`` at t."""
    if not scale.is_member(t) or not scale.in_domain(kind, t):
        return RAISES
    f = fn.f
    if not scale.dense_path(kind, t):
        if kind == "nabla":
            r = scale.rho(t)
            return (f(t) - f(r)) / _pow(t - r, order)
        if kind == "delta":
            s = scale.sigma(t)
            return (f(s) - f(t)) / _pow(s - t, order)
        s, r = scale.sigma(t), scale.rho(t)
        return (f(s) - f(r)) / _pow(s - r, order)
    left, right = scale.left_points(t), scale.right_points(t)
    if kind == "symmetric":
        return _dense_limit(fn, t, order, "both") if left and right else RAISES
    if is_odd_reciprocal(order):
        if left and right:
            return _dense_limit(fn, t, order, "both")
        if left or right:
            return _dense_limit(fn, t, order, "right" if right else "left")
        return RAISES
    need = right if kind == "nabla" else left
    if not need:
        return RAISES
    return _dense_limit(fn, t, order, "right" if kind == "nabla" else "left")


def deriv_tolerance(ref: float, err_est: float, exact: bool) -> float:
    """Largest |value - ref| that still counts as correct."""
    if exact:
        return EXACT_RTOL * max(1.0, abs(ref))
    return max(err_est, LIMIT_TOL)


# -- integrals -------------------------------------------------------------


def _classical(scale: RefScale, fn: Fn, x: float, y: float, kind: str) -> float:
    """Order-1 nabla or delta integral from x to y (x <= y)."""
    terms = []
    for lo, hi in scale.intervals:
        u, v = max(lo, x), min(hi, y)
        if u < v:
            terms.append(fn.F(v) - fn.F(u))
    nodes = scale.nodes
    if kind == "nabla":  # jumps at t in (x, y]
        lo_i, hi_i, gaps = bisect.bisect_right(nodes, x), bisect.bisect_right(nodes, y), scale.left_gap
    else:  # jumps at t in [x, y)
        lo_i, hi_i, gaps = bisect.bisect_left(nodes, x), bisect.bisect_left(nodes, y), scale.right_gap
    f = fn.f
    terms.extend(f(nodes[i]) * gaps[i] for i in range(lo_i, hi_i) if gaps[i] > TOL)
    return math.fsum(terms)


def _g(scale: RefScale, fn: Fn, t: float, beta: Fraction, kind: str, anchor: float):
    """G(t): the (1-beta)-order derivative of the antiderivative anchored at
    ``anchor``; returns (value, whether a dense limit produced it)."""
    if beta == 1:
        return _classical(scale, fn, anchor, t, kind), False
    b = beta.numerator / beta.denominator
    if kind == "nabla":
        if t == scale.lo and scale.min_scattered():
            return fn.f(t) * (scale.sigma(t) - t) ** b, False
        if not scale.left_dense(t):
            return fn.f(t) * (t - scale.rho(t)) ** b, False
        return 0.0, True
    if t == scale.hi and scale.max_scattered():
        return fn.f(t) * (t - scale.rho(t)) ** b, False
    if not scale.right_dense(t):
        return fn.f(t) * (scale.sigma(t) - t) ** b, False
    return 0.0, True


def _weights(scale: RefScale, t: float, beta: Fraction):
    b = beta.numerator / beta.denominator
    if scale.left_dense(t) and scale.right_dense(t):
        g = 2.0 ** (-b)
        return g, g
    s, r = scale.sigma(t), scale.rho(t)
    return ((s - t) / (s - r)) ** b, ((t - r) / (s - r)) ** b


def integral(scale: RefScale, fn: Fn, kind: str, a: float, b: float, beta: Fraction):
    """The fractional Cauchy integral from a to b (a < b, both members) and
    the largest |value - ref| that still counts as correct, as (ref, tol).

    Each dense limit behind the value may be off by the estimator
    tolerance; sums and quadrature get the exact-path relative tolerance,
    taken of the largest term combined."""
    if kind in ("nabla", "delta"):
        gb, db = _g(scale, fn, b, beta, kind, a)
        ga, da = _g(scale, fn, a, beta, kind, a)
        return gb - ga, _integral_tol(db + da, (gb, ga))
    if not (scale.in_domain("symmetric", a) and scale.in_domain("symmetric", b)):
        return RAISES, 0.0
    anchor = scale.lo
    wa1, wa2 = _weights(scale, a, beta)
    wb1, wb2 = _weights(scale, b, beta)
    gd_b, n1 = _g(scale, fn, b, beta, "delta", anchor)
    gd_a, n2 = _g(scale, fn, a, beta, "delta", anchor)
    gn_b, n3 = _g(scale, fn, b, beta, "nabla", anchor)
    gn_a, n4 = _g(scale, fn, a, beta, "nabla", anchor)
    value = math.fsum((wb1 * gd_b, -wa1 * gd_a, wb2 * gn_b, -wa2 * gn_a))
    return value, _integral_tol(n1 + n2 + n3 + n4, (gd_b, gd_a, gn_b, gn_a))


def _integral_tol(n_limits: int, terms) -> float:
    return n_limits * LIMIT_TOL + EXACT_RTOL * max(1.0, *(abs(x) for x in terms))


def integral_dense(scale: RefScale, kind: str, a: float, b: float, beta: Fraction) -> bool:
    """Whether the integral needs a dense limit (some G at a dense side)."""
    if beta == 1:
        return False
    kinds = ("nabla", "delta") if kind == "symmetric" else (kind,)
    for k in kinds:
        for t in (a, b):
            scattered_edge = (k == "nabla" and t == scale.lo and scale.min_scattered()) or (
                k == "delta" and t == scale.hi and scale.max_scattered()
            )
            if scattered_edge:
                continue
            if (scale.left_dense(t) if k == "nabla" else scale.right_dense(t)):
                return True
    return False
