"""Classical and fractional integrals on a time scale.

Classical nabla/delta integrals walk the scale from a to b: every scattered
step contributes an exact jump term (f at the step's right endpoint times
the gap for nabla, f at the left endpoint for delta) and every interval
stretch is integrated by adaptive Simpson quadrature.  The walk goes run by
run: each maximal run of consecutive jumps is one loop straight over the
scale's packed index, adding its terms into the total one at a time from
the left, so the value is bit for bit the jump-by-jump sum.  A non-finite
value of f, at a quadrature sample, on a jump or as the total of the jump
terms, raises QuadratureFailure.

The fractional Cauchy integral of order beta in [0, 1] is built on top of a
classical antiderivative F anchored at a:

    integral = G(b) - G(a),  G = the (1-beta)-order fractional derivative
                             of F (nabla flavor for the nabla integral,
                             delta for delta)

with the degenerate ends beta=1 (G = F, the classical integral) and beta=0
(G = f, so the value is f(b) - f(a)).

The symmetric Cauchy integral of order beta in (0, 1] combines the two
one-sided indefinite integrals with the weights gamma1/gamma2 evaluated at
the endpoints:

    gamma1(b) G_delta(b) - gamma1(a) G_delta(a)
        + gamma2(b) G_nabla(b) - gamma2(a) G_nabla(a)

One routine computes all three kinds as a sum of such weighted G terms: a
single term with unit weights for nabla and delta, the two above for
symmetric.

Endpoint care: G is a fractional derivative and so can be undefined exactly
at a scattered extremum of the scale (no predecessor/successor) or can need
samples beyond the scale's edge at a dense endpoint.  Scattered extrema get
a one-step virtual extension (reproducing the closed forms that treat the
grid as if it continued uniformly); dense endpoints fall back to the
nearest point where the limit is samplable.  Both adjustments emit
EndpointAdjustedWarning rather than failing.
"""

from __future__ import annotations

import bisect
import math
import sys
import threading
import warnings
from dataclasses import dataclass, field

from .derivative import DerivKind, FnOnScale, delta_frac, nabla_frac, symmetric_weights
from .errors import (
    EndpointAdjustedWarning,
    EndpointNotInScale,
    EndpointOutsideKappaSet,
    InsufficientPoints,
    LimitDidNotConverge,
    PointOutsideDomain,
    QuadratureFailure,
    SideNotDense,
    ValidationError,
)
from .order import LimitConfig, Order
from .timescale import ApproachSide, TimeScale

__all__ = [
    "QuadratureConfig",
    "Antiderivative",
    "nabla_integral",
    "delta_integral",
    "nabla_antiderivative",
    "delta_antiderivative",
    "nabla_frac_integral",
    "delta_frac_integral",
    "symmetric_frac_integral",
]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 30

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("quadrature tolerances must be positive")
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, int):
            raise ValidationError(
                f"quadrature max_depth must be an integer, got {self.max_depth!r}"
            )
        if self.max_depth < 1:
            raise ValidationError("quadrature max_depth must be at least 1")


def _finite_sample(g, x: float) -> float:
    y = g(x)
    if not math.isfinite(y):
        raise QuadratureFailure(f"integrand returned non-finite value {y!r} at t={x}")
    return y


def _simpson_rec(g, lo, hi, fl, fm, fh, whole, eps, depth):
    m = 0.5 * (lo + hi)
    lm = 0.5 * (lo + m)
    rm = 0.5 * (m + hi)
    if lm <= lo or rm <= m or m >= hi:
        # interval too narrow for the arithmetic to refine further
        return whole
    flm = _finite_sample(g, lm)
    frm = _finite_sample(g, rm)
    left = (m - lo) * (fl + 4.0 * flm + fm) / 6.0
    right = (hi - m) * (fm + 4.0 * frm + fh) / 6.0
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"quadrature failed to converge on [{lo}, {hi}] "
            f"(remaining error estimate {abs(delta) / 15.0:.3e})"
        )
    return _simpson_rec(g, lo, m, fl, flm, fm, left, 0.5 * eps, depth - 1) + _simpson_rec(
        g, m, hi, fm, frm, fh, right, 0.5 * eps, depth - 1
    )


def _quad(g, lo: float, hi: float, qc: QuadratureConfig) -> float:
    """Adaptive Simpson integral of g over [lo, hi]."""
    if hi <= lo:
        return 0.0
    m = 0.5 * (lo + hi)
    fl = _finite_sample(g, lo)
    fm = _finite_sample(g, m)
    fh = _finite_sample(g, hi)
    whole = (hi - lo) * (fl + 4.0 * fm + fh) / 6.0
    eps = max(qc.abs_tol, qc.rel_tol * abs(whole))
    return _simpson_rec(g, lo, hi, fl, fm, fh, whole, eps, qc.max_depth)


def _snap_endpoint(T: TimeScale, t: float, name: str) -> float:
    ts = T.snap(t)
    if ts is None:
        raise EndpointNotInScale(f"endpoint {name}={t!r} is not in {T.describe()}")
    return ts


def _walk(f: FnOnScale, a: float, b: float, qc: QuadratureConfig, kind: DerivKind) -> float:
    """The classical integral of the kind from a to b (both scale members),
    walked upwards; a > b flips the sign.  Each interval stretch is one
    quadrature, and each maximal run of jumps one loop over the scale index
    that adds the terms f(s)*(s - t) (nabla) or f(t)*(s - t) (delta) into the
    total from the left, jump by jump.  A run that leaves the total
    non-finite raises QuadratureFailure."""
    if a > b:
        return -_walk(f, b, a, qc, kind)
    g = f.eval
    nabla = kind is DerivKind.NABLA
    total = 0.0
    for t, s, run in f.scale._runs(a, b):
        if run is None:
            total += _quad(g, t, s, qc)
            continue
        start = t
        if nabla:
            for u in run:
                total += g(u) * (u - t)
                t = u
        else:
            for u in run:
                total += g(t) * (u - t)
                t = u
        if not math.isfinite(total):
            raise QuadratureFailure(
                f"jump terms over [{start}, {s}] made the integral non-finite ({total!r})"
            )
    return total


def _integral(
    f: FnOnScale, a: float, b: float, qc: QuadratureConfig | None, kind: DerivKind
) -> float:
    """The classical integral of the kind from a to b, snapped onto the scale."""
    T = f.scale
    sa = _snap_endpoint(T, a, "a")
    sb = _snap_endpoint(T, b, "b")
    return _walk(f, sa, sb, qc or QuadratureConfig(), kind)


def nabla_integral(
    f: FnOnScale, a: float, b: float, qc: QuadratureConfig | None = None
) -> float:
    """Classical nabla integral of f from a to b.

    Jumps in (a, b] contribute f(t) * (t - rho(t)); interval stretches are
    integrated numerically.  Orientation flips the sign.
    """
    return _integral(f, a, b, qc, DerivKind.NABLA)


def delta_integral(
    f: FnOnScale, a: float, b: float, qc: QuadratureConfig | None = None
) -> float:
    """Classical delta integral of f from a to b (jumps in [a, b) weighted
    by f at their left endpoint)."""
    return _integral(f, a, b, qc, DerivKind.DELTA)


@dataclass
class Antiderivative:
    """F(t) = integral of f from the anchor to t, memoized per queried point.

    Queries are answered incrementally from the nearest already-known point
    (the walk is additive over adjacent ranges), which keeps repeated
    evaluations along an approach sequence cheap.  Safe under concurrent
    use: the memo is guarded by a lock.
    """

    base: FnOnScale
    anchor: float
    kind: DerivKind
    qc: QuadratureConfig = field(default_factory=QuadratureConfig)
    _lock: threading.Lock = field(init=False, repr=False, compare=False)
    _known: dict = field(init=False, repr=False, compare=False)
    _keys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (DerivKind.NABLA, DerivKind.DELTA):
            raise ValidationError("antiderivative kind must be nabla or delta")
        anchor = _snap_endpoint(self.base.scale, self.anchor, "t0")
        object.__setattr__(self, "anchor", anchor)
        self._lock = threading.Lock()
        self._known = {anchor: 0.0}
        self._keys = [anchor]

    def eval(self, t: float) -> float:
        ts = _snap_endpoint(self.base.scale, t, "t")
        with self._lock:
            got = self._known.get(ts)
            if got is not None:
                return got
            i = bisect.bisect_left(self._keys, ts)
            candidates = self._keys[max(0, i - 1) : i + 1]
            start = min(candidates, key=lambda k: abs(k - ts))
            value = self._known[start] + _walk(self.base, start, ts, self.qc, self.kind)
            self._known[ts] = value
            bisect.insort(self._keys, ts)
            return value

    __call__ = eval

    def as_fn(self) -> FnOnScale:
        return FnOnScale(eval=self.eval, scale=self.base.scale)


def nabla_antiderivative(
    f: FnOnScale, t0: float, qc: QuadratureConfig | None = None
) -> Antiderivative:
    """F with F(t0) = 0 and nabla derivative f on the scale."""
    return Antiderivative(f, t0, DerivKind.NABLA, qc or QuadratureConfig())


def delta_antiderivative(
    f: FnOnScale, t0: float, qc: QuadratureConfig | None = None
) -> Antiderivative:
    return Antiderivative(f, t0, DerivKind.DELTA, qc or QuadratureConfig())


def _nearest_admissible(T: TimeScale, ts: float, cfg: LimitConfig):
    for side in (ApproachSide.LEFT, ApproachSide.RIGHT):
        try:
            seq = T.approach_sequence(ts, side, 3, h0=cfg.h0, ratio=cfg.ratio)
        except (SideNotDense, InsufficientPoints):
            continue
        return seq[-1]
    return None


def _warn_adjusted(message: str) -> None:
    """Issue an EndpointAdjustedWarning attributed to the first frame
    outside this module: the line that called the integral."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, EndpointAdjustedWarning, stacklevel=level)


def _frac_deriv_at(
    integrand: FnOnScale,
    F: FnOnScale,
    ts: float,
    order: Order,
    cfg: LimitConfig,
    kind: DerivKind,
) -> float:
    """G(ts) where G is the order-(1-beta) derivative of F, with the two
    endpoint fallbacks described in the module docstring."""
    deriv = nabla_frac if kind is DerivKind.NABLA else delta_frac
    T = F.scale
    try:
        return deriv(F, ts, order, cfg).value
    except PointOutsideDomain:
        # scattered extremum: pretend the scale continues one uniform step
        # past the edge, so G(edge) = f(edge) * step**beta
        step = T.mu(ts) if kind is DerivKind.NABLA else T.nu(ts)
        if step <= T.snap_tol:
            raise
        beta_value = 1.0 - order.value
        _warn_adjusted(
            f"{kind.value} fractional integral endpoint t={ts} has no "
            f"{'predecessor' if kind is DerivKind.NABLA else 'successor'} in the "
            f"scale; used a one-step virtual extension (step {step})"
        )
        return _finite_sample(integrand.eval, ts) * step**beta_value
    except LimitDidNotConverge as exc:
        if not exc.samples_unavailable:
            raise
        adj = _nearest_admissible(T, ts, cfg)
        if adj is None:
            raise
        _warn_adjusted(
            f"one-sided limit at endpoint t={ts} has no scale points to sample; "
            f"evaluated at the nearest admissible point t={adj}"
        )
        return deriv(F, adj, order, cfg).value


def _require_beta(beta: Order) -> None:
    if not isinstance(beta, Order):
        raise TypeError(f"beta must be an Order, got {type(beta).__name__}")


def _cauchy(
    f: FnOnScale, a: float, b: float, beta: Order, cfg: LimitConfig | None,
    qc: QuadratureConfig | None, kind: DerivKind
) -> float:
    """The Cauchy integral of any kind: the sum of ``w_b*G(b) - w_a*G(a)``
    over its terms (kind of G, w_a, w_b).  Nabla and delta have the one
    term (kind, 1, 1) anchored at a; symmetric has (delta, gamma1(a),
    gamma1(b)) and (nabla, gamma2(a), gamma2(b)) anchored at the scale
    minimum."""
    _require_beta(beta)
    symmetric = kind is DerivKind.SYMMETRIC
    if symmetric and beta.is_zero:
        raise ValueError("symmetric fractional integral requires beta > 0")
    if cfg is None:
        cfg = LimitConfig()
    if qc is None:
        qc = QuadratureConfig()
    T = f.scale
    sa = _snap_endpoint(T, a, "a")
    sb = _snap_endpoint(T, b, "b")
    if symmetric:
        for name, e in (("a", sa), ("b", sb)):
            if not T.domain_membership(e).in_symmetric_domain:
                raise EndpointOutsideKappaSet(
                    f"endpoint {name}={e} is a scattered extremum of the scale; "
                    "the symmetric integral needs neighbors on both sides"
                )
    if sa == sb:
        return 0.0
    if beta.is_zero:
        return _finite_sample(f.eval, sb) - _finite_sample(f.eval, sa)
    if symmetric:
        anchor = T.inf_value if math.isfinite(T.inf_value) else min(sa, sb)
        wa = symmetric_weights(T, sa, beta)
        wb = symmetric_weights(T, sb, beta)
        terms = [(DerivKind.DELTA, wa.gamma1, wb.gamma1), (DerivKind.NABLA, wa.gamma2, wb.gamma2)]
    elif beta.is_one:
        return (nabla_integral if kind is DerivKind.NABLA else delta_integral)(f, sa, sb, qc)
    else:
        anchor = sa
        terms = [(kind, 1.0, 1.0)]
    # build (and snap the anchor of) every antiderivative before evaluating
    # any, so a failing term does not change which scale queries ran
    Gs = [Antiderivative(f, anchor, k, qc).as_fn() for k, _, _ in terms]
    order = beta.one_minus()
    total = 0.0
    for (k, w_a, w_b), G in zip(terms, Gs):
        if order.is_zero:
            gb, ga = G.eval(sb), G.eval(sa)
        else:
            gb = _frac_deriv_at(f, G, sb, order, cfg, k)
            ga = _frac_deriv_at(f, G, sa, order, cfg, k)
        total = total + w_b * gb - w_a * ga
    return total


def nabla_frac_integral(
    f: FnOnScale,
    a: float,
    b: float,
    beta: Order,
    cfg: LimitConfig | None = None,
    qc: QuadratureConfig | None = None,
) -> float:
    """Cauchy nabla fractional integral of f from a to b at order beta.

    beta=1 is the classical nabla integral; beta=0 degenerates to
    f(b) - f(a); in between the value is G(b) - G(a) for G the
    (1-beta)-order nabla derivative of the antiderivative anchored at a.
    """
    return _cauchy(f, a, b, beta, cfg, qc, DerivKind.NABLA)


def delta_frac_integral(
    f: FnOnScale,
    a: float,
    b: float,
    beta: Order,
    cfg: LimitConfig | None = None,
    qc: QuadratureConfig | None = None,
) -> float:
    """Cauchy delta fractional integral, forward mirror of
    :func:`nabla_frac_integral`."""
    return _cauchy(f, a, b, beta, cfg, qc, DerivKind.DELTA)


def symmetric_frac_integral(
    f: FnOnScale,
    a: float,
    b: float,
    beta: Order,
    cfg: LimitConfig | None = None,
    qc: QuadratureConfig | None = None,
) -> float:
    """Cauchy symmetric fractional integral of f from a to b at order beta.

    Combines the delta and nabla indefinite fractional integrals with the
    endpoint weights gamma1/gamma2 taken at order beta.  Both endpoints must
    admit two-sided neighbors (no scattered extrema).  beta=0 is not
    defined for this kind.

    The indefinite integrals are anchored at the scale minimum (falling
    back to min(a, b) on a left-unbounded scale) so that one fixed pair of
    G functions serves every endpoint; with per-call anchors the weighted
    combination would lose orientation antisymmetry and additivity at
    beta=1 on scales whose graininess ratio varies.
    """
    return _cauchy(f, a, b, beta, cfg, qc, DerivKind.SYMMETRIC)
