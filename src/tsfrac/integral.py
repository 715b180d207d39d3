"""Classical and fractional integrals on a time scale.

Classical nabla/delta integrals walk the scale from a to b: every scattered
step contributes an exact jump term (f at the step's right endpoint times
the gap for nabla, f at the left endpoint for delta) and every interval
stretch is integrated by adaptive Simpson quadrature to a fixed accuracy: an
error estimate within max(1e-12, 1e-10 * |first Simpson estimate|), halved
at each of at most 30 bisections.  The walk goes run by run: each maximal
run of consecutive jumps is one loop straight over the scale's packed index,
adding its terms into the total one at a time from the left, so the value
is bit for bit the jump-by-jump sum.  A non-finite value of f, at a
quadrature sample, on a jump or as the total of the jump terms, raises
QuadratureFailure.

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
grid as if it continued uniformly); a dense endpoint with no side to
sample falls back to the nearest of the three points a side of it offers,
and re-raises when no side offers three.  Both adjustments emit
EndpointAdjustedWarning rather than failing.
"""

from __future__ import annotations

import bisect
import math
import threading
import warnings

from .derivative import _DERIVS, DerivKind, FnOnScale, _side_samples, symmetric_weights
from .errors import (
    EndpointAdjustedWarning,
    LimitDidNotConverge,
    PointOutsideDomain,
    QuadratureFailure,
    _Record,
)
from .order import _DEFAULT_LIMITS, _MIN_SAMPLES, LimitConfig, Order, _require_order_type
from .timescale import ApproachSide, TimeScale

__all__ = [
    "Antiderivative",
    "nabla_integral",
    "delta_integral",
    "nabla_frac_integral",
    "delta_frac_integral",
    "symmetric_frac_integral",
]


#: adaptive Simpson's error target: max(_ABS_TOL, _REL_TOL * |first estimate|)
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
#: deepest bisection of an adaptive Simpson quadrature
_QUADRATURE_DEPTH = 30
#: the config of an endpoint's nearest admissible point; approach_sequence reads only max_samples
_FEWEST = LimitConfig(max_samples=_MIN_SAMPLES)


def _finite_sample(g, x: float) -> float:
    y = g(x)
    if not math.isfinite(y):
        raise QuadratureFailure(f"integrand returned non-finite value {y!r} at t={x}")
    return y


def _simpson_rec(g, lo, hi, fl, fm, fh, whole, eps, depth):
    m = 0.5 * (lo + hi)
    lm = 0.5 * (lo + m)
    rm = 0.5 * (m + hi)
    flm = _finite_sample(g, lm)
    frm = _finite_sample(g, rm)
    left = (m - lo) * (fl + 4.0 * flm + fm) / 6.0
    right = (hi - m) * (fm + 4.0 * frm + fh) / 6.0
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    # a converged estimate stands even where the halves can no longer be split
    if lm <= lo or rm <= m or m >= hi:
        raise QuadratureFailure(
            f"quadrature failed to converge on [{lo}, {hi}] (too narrow to bisect further)"
        )
    if depth <= 0:
        raise QuadratureFailure(
            f"quadrature failed to converge on [{lo}, {hi}] "
            f"(remaining error estimate {abs(delta) / 15.0:.3e})"
        )
    return _simpson_rec(g, lo, m, fl, flm, fm, left, 0.5 * eps, depth - 1) + _simpson_rec(
        g, m, hi, fm, frm, fh, right, 0.5 * eps, depth - 1
    )


def _quad(g, lo: float, hi: float) -> float:
    """Adaptive Simpson integral of g over [lo, hi], lo < hi."""
    m = 0.5 * (lo + hi)
    fl = _finite_sample(g, lo)
    fm = _finite_sample(g, m)
    fh = _finite_sample(g, hi)
    whole = (hi - lo) * (fl + 4.0 * fm + fh) / 6.0
    eps = max(_ABS_TOL, _REL_TOL * abs(whole))
    return _simpson_rec(g, lo, hi, fl, fm, fh, whole, eps, _QUADRATURE_DEPTH)


def _walk(f: FnOnScale, a: float, b: float, kind: DerivKind) -> float:
    """The classical integral of the kind from a to b (both scale members),
    walked upwards; a > b flips the sign.  Each interval stretch is one
    quadrature, and each maximal run of jumps one loop over the scale index
    that adds the terms f(s)*(s - t) (nabla) or f(t)*(s - t) (delta) into the
    total from the left, jump by jump.  A run that leaves the total
    non-finite raises QuadratureFailure."""
    if a > b:
        return -_walk(f, b, a, kind)
    g = f.eval
    nabla = kind is DerivKind.NABLA
    total = 0.0
    for t, s, run in f.scale._runs(a, b):
        if run is None:
            total += _quad(g, t, s)
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


def nabla_integral(f: FnOnScale, a: float, b: float) -> float:
    """Classical nabla integral of f from a to b: the nabla Cauchy integral
    at beta = 1.

    Jumps in (a, b] contribute f(t) * (t - rho(t)); interval stretches are
    integrated numerically.  Orientation flips the sign.
    """
    return _cauchy(f, a, b, Order(1, 1), None, DerivKind.NABLA)


def delta_integral(f: FnOnScale, a: float, b: float) -> float:
    """Classical delta integral of f from a to b (jumps in [a, b) weighted
    by f at their left endpoint): the delta Cauchy integral at beta = 1."""
    return _cauchy(f, a, b, Order(1, 1), None, DerivKind.DELTA)


class Antiderivative(_Record):
    """F(t) = integral of f from the anchor to t, memoized per queried point.

    Queries are answered incrementally from the nearest already-known point
    (the walk is additive over adjacent ranges), which keeps repeated
    evaluations along an approach sequence cheap.  Safe under concurrent
    use: the memo is guarded by a lock.  Immutable, so the memo always belongs
    to the base, anchor and kind it was built for.
    """

    def __init__(self, base: FnOnScale, anchor: float, kind: DerivKind):
        if kind not in (DerivKind.NABLA, DerivKind.DELTA):
            raise ValueError(f"antiderivative kind must be nabla or delta, got {kind!r}")
        anchor = base.scale._require_member(anchor, "t0")
        vars(self).update(base=base, anchor=anchor, kind=kind, _lock=threading.Lock(), _known={anchor: 0.0}, _keys=[anchor])

    def eval(self, t: float) -> float:
        ts = self.base.scale._require_member(t)
        with self._lock:
            got = self._known.get(ts)
            if got is not None:
                return got
            keys = self._keys
            i = bisect.bisect_left(keys, ts)
            # keys[i - 1] < ts < keys[i]: start from the nearer, the lower one on a tie
            if i == len(keys) or i and ts - keys[i - 1] <= keys[i] - ts:
                start = keys[i - 1]
            else:
                start = keys[i]
            value = self._known[start] + _walk(self.base, start, ts, self.kind)
            self._known[ts] = value
            keys.insert(i, ts)
            return value

    def as_fn(self) -> FnOnScale:
        return FnOnScale(eval=self.eval, scale=self.base.scale)

    def __reduce__(self):  # pickle and copy rebuild through __init__: a fresh lock, an empty memo
        return (Antiderivative, (self.base, self.anchor, self.kind))


def _nearest_admissible(T: TimeScale, ts: float):
    """The nearest of the ``_MIN_SAMPLES`` points a side of ts offers a
    limit, the left side first; None when neither side offers that many."""
    for side in (ApproachSide.LEFT, ApproachSide.RIGHT):
        seq = _side_samples(T, ts, side, _FEWEST)
        if seq is not None:
            return seq[-1]
    return None


def _frac_deriv_at(
    integrand: FnOnScale,
    F: FnOnScale,
    ts: float,
    order: Order,
    cfg: LimitConfig,
    kind: DerivKind,
) -> float:
    """G(ts) where G is the order-(1-beta) derivative of F, with the two
    endpoint fallbacks described in the module docstring.  A fallback warns
    at stack level 4, the integral's caller: only _cauchy calls this, and
    only the public integrals call _cauchy."""
    deriv = _DERIVS[kind]
    T = F.scale
    try:
        return deriv(F, ts, order, cfg).value
    except PointOutsideDomain:
        # scattered extremum: pretend the scale continues one uniform step
        # past the edge, so G(edge) = f(edge) * step**beta
        step = T.mu(ts) if kind is DerivKind.NABLA else T.nu(ts)
        beta_value = order.one_minus().value
        warnings.warn(
            f"{kind.value} fractional integral endpoint t={ts} has no "
            f"{'predecessor' if kind is DerivKind.NABLA else 'successor'} in the "
            f"scale; used a one-step virtual extension (step {step})",
            EndpointAdjustedWarning,
            stacklevel=4,
        )
        return _finite_sample(integrand.eval, ts) * step**beta_value
    except LimitDidNotConverge as exc:
        if not exc.samples_unavailable:
            raise
        adj = _nearest_admissible(T, ts)
        if adj is None:
            raise
        warnings.warn(
            f"one-sided limit at endpoint t={ts} has no scale points to sample; "
            f"evaluated at the nearest admissible point t={adj}",
            EndpointAdjustedWarning,
            stacklevel=4,
        )
        return deriv(F, adj, order, cfg).value


def _cauchy(
    f: FnOnScale, a: float, b: float, beta: Order, cfg: LimitConfig | None, kind: DerivKind
) -> float:
    """The Cauchy integral of any kind: the sum of ``w_b*G(b) - w_a*G(a)``
    over its terms (kind of G, w_a, w_b).  Nabla and delta have the one
    term (kind, 1, 1) anchored at a; symmetric has (delta, gamma1(a),
    gamma1(b)) and (nabla, gamma2(a), gamma2(b)) anchored at the scale
    minimum, or on a left-unbounded scale at the finite end of its unbounded
    interval (0 on the real line)."""
    _require_order_type(beta, "beta")
    symmetric = kind is DerivKind.SYMMETRIC
    if symmetric and beta.is_zero:
        raise ValueError("symmetric fractional integral requires beta > 0")
    if cfg is None:
        cfg = _DEFAULT_LIMITS
    T = f.scale
    sa = T._require_member(a, "a")
    sb = T._require_member(b, "b")
    if symmetric:
        for name, e in (("a", sa), ("b", sb)):
            if not T.domain_membership(e).in_symmetric_domain:
                raise PointOutsideDomain(
                    f"endpoint {name}={e} is a scattered extremum of the scale; "
                    "the symmetric integral needs neighbors on both sides"
                )
    if sa == sb:
        return 0.0
    if beta.is_zero:
        return _finite_sample(f.eval, sb) - _finite_sample(f.eval, sa)
    if symmetric:
        # the first index entry: the minimum, or the finite end of a left-unbounded interval
        anchor = T._pts[0] if T._pts else 0.0
        wa = symmetric_weights(T, sa, beta)
        wb = symmetric_weights(T, sb, beta)
        terms = [(DerivKind.DELTA, wa.gamma1, wb.gamma1), (DerivKind.NABLA, wa.gamma2, wb.gamma2)]
    elif beta.is_one:
        return _walk(f, sa, sb, kind)
    else:
        anchor = sa
        terms = [(kind, 1.0, 1.0)]
    order = beta.one_minus()
    total = 0.0
    for k, w_a, w_b in terms:
        G = Antiderivative(f, anchor, k).as_fn()
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
) -> float:
    """Cauchy nabla fractional integral of f from a to b at order beta.

    beta=1 is the classical nabla integral; beta=0 degenerates to
    f(b) - f(a); in between the value is G(b) - G(a) for G the
    (1-beta)-order nabla derivative of the antiderivative anchored at a.
    """
    return _cauchy(f, a, b, beta, cfg, DerivKind.NABLA)


def delta_frac_integral(
    f: FnOnScale,
    a: float,
    b: float,
    beta: Order,
    cfg: LimitConfig | None = None,
) -> float:
    """Cauchy delta fractional integral, forward mirror of
    :func:`nabla_frac_integral`."""
    return _cauchy(f, a, b, beta, cfg, DerivKind.DELTA)


def symmetric_frac_integral(
    f: FnOnScale,
    a: float,
    b: float,
    beta: Order,
    cfg: LimitConfig | None = None,
) -> float:
    """Cauchy symmetric fractional integral of f from a to b at order beta.

    Combines the delta and nabla indefinite fractional integrals with the
    endpoint weights gamma1/gamma2 taken at order beta.  Both endpoints must
    admit two-sided neighbors (no scattered extrema).  beta=0 is not
    defined for this kind.

    The indefinite integrals are anchored at the scale minimum, or on a
    left-unbounded scale at the finite end of its unbounded interval (0 when
    the scale is the real line), so that one fixed pair of G functions serves
    every endpoint; with per-call anchors the weighted combination would
    lose orientation antisymmetry and additivity at beta=1 on scales whose
    graininess ratio varies.
    """
    return _cauchy(f, a, b, beta, cfg, DerivKind.SYMMETRIC)


#: the Cauchy integral of each kind; a dict, so that a wrapper put in its
#: values reaches every caller that dispatches by kind
_CAUCHY = {
    DerivKind.NABLA: nabla_frac_integral,
    DerivKind.DELTA: delta_frac_integral,
    DerivKind.SYMMETRIC: symmetric_frac_integral,
}
