"""Fractional derivatives of the three directional kinds on a time scale.

For order alpha in (0, 1] the three operators are, at a point t of the
scale T with f continuous there:

* nabla: ``[f(t) - f(rho(t))] / (t - rho(t))**alpha`` when t is
  left-scattered, and the limit of ``[f(s) - f(t)] / (s - t)**alpha`` as
  s -> t when t is left-dense,
* delta: the forward mirror, ``[f(sigma(t)) - f(t)] / (sigma(t) - t)**alpha``
  at right-scattered t,
* symmetric: ``[f(sigma(t)) - f(rho(t))] / (sigma(t) - rho(t))**alpha`` when
  t is not dense, and the limit of ``[f(t+h) - f(t-h)] / (2h)**alpha`` at
  dense t.

One routine serves all three kinds.  A kind looks left (nabla), right
(delta) or both ways (symmetric); when a side it looks at is scattered the
value is the exact quotient over rho(t) and/or sigma(t) (zero error
estimate), and otherwise the routine samples the dense neighborhood and
estimates the limit.  The symmetric kind samples mirrored pairs; nabla and
delta sample approach sequences.  Odd-reciprocal orders (1, 1/3, 1/5, ...)
take the limit over both sides of t and require the two one-sided
estimates to agree; every other order admits only the side where the
power's base stays nonnegative (right for nabla, left for delta).  When
only one side of a dense point has scale points to sample, the limit over
the neighborhood degenerates to that side and is used alone.

The symmetric derivative relates to the one-sided ones through the weights
``gamma1 = [(sigma(t)-t)/(sigma(t)-rho(t))]**alpha`` and
``gamma2 = [(t-rho(t))/(sigma(t)-rho(t))]**alpha`` (both ``2**-alpha`` at
dense points): ``symmetric = gamma1 * delta + gamma2 * nabla``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    InsufficientPoints,
    LimitDidNotConverge,
    NonFiniteSample,
    NoSymmetricNeighborhood,
    PointNotInScale,
    PointOutsideDomain,
    SideNotDense,
    SidedLimitsDisagree,
    TsfracError,
)
from .order import (
    LimitConfig,
    Order,
    OrderClass,
    classify_order,
    estimate_limit,
    signed_pow,
)
from .timescale import ApproachSide, TimeScale

__all__ = [
    "FnOnScale",
    "DerivKind",
    "ComputePath",
    "DerivResult",
    "SymmetricWeights",
    "nabla_frac",
    "delta_frac",
    "symmetric_frac",
    "symmetric_weights",
    "symmetric_via_sides",
    "order_lowering_check",
]

# Two one-sided estimates each stop within a few tolerances of the limit, so
# exact agreement at cfg.tol is not achievable; this factor bounds the
# legitimate spread (and matches the documented differentiable-implies-zero
# bound of 10 * tol).
_AGREE_FACTOR = 10.0


@dataclass(frozen=True)
class FnOnScale:
    """A real function paired with the time scale it lives on."""

    eval: Callable[[float], float]
    scale: TimeScale
    source: object | None = None

    def __call__(self, t: float) -> float:
        return self.eval(t)

    @classmethod
    def from_expression(cls, text: str, scale: TimeScale) -> "FnOnScale":
        """Build from expression-language source, e.g. ``"t^2 - 1"``."""
        from .exprlang import eval_expr, parse_expr

        ast = parse_expr(text)
        return cls(eval=lambda t: eval_expr(ast, t), scale=scale, source=text)


class DerivKind(enum.Enum):
    NABLA = "nabla"
    DELTA = "delta"
    SYMMETRIC = "symmetric"


class ComputePath(enum.Enum):
    """How a derivative value was obtained."""

    EXACT_SCATTERED = "exact-scattered"
    DENSE_LIMIT = "dense-limit"


@dataclass(frozen=True)
class DerivResult:
    """A derivative evaluation with its provenance.

    ``err_est`` is 0 on the exact scattered path and the limit estimator's
    final difference on the dense path.
    """

    value: float
    path: ComputePath
    side: ApproachSide
    err_est: float
    order: Order
    kind: DerivKind


@dataclass(frozen=True)
class SymmetricWeights:
    gamma1: float
    gamma2: float


def _require_order(order: Order) -> None:
    if order.is_zero:
        raise ValueError("derivatives require a positive order")


def _side_samples(T: TimeScale, ts: float, side: ApproachSide, cfg: LimitConfig):
    """Approach points on one side, or None when that side cannot supply a
    usable sequence: scattered, or fewer than three points, whether the side
    is discrete or an interval whose steps reach the float spacing at ts."""
    try:
        seq = T.approach_sequence(ts, side, cfg.max_samples, h0=cfg.h0, ratio=cfg.ratio)
    except SideNotDense:
        return None
    except InsufficientPoints as exc:
        if exc.available < 3:
            return None
        seq = T.approach_sequence(ts, side, exc.available, h0=cfg.h0, ratio=cfg.ratio)
    return seq if len(seq) >= 3 else None


def _settle(quots, cfg: LimitConfig, side: ApproachSide, ts: float) -> "tuple[float, float]":
    """The limit of one side's quotient sequence and its error estimate, or
    LimitDidNotConverge."""
    est = estimate_limit(quots, cfg)
    if not est.converged:
        label = "symmetric" if side is ApproachSide.BOTH else f"{side.value}-side"
        raise LimitDidNotConverge(
            f"{label} quotients did not settle within tol={cfg.tol} at t={ts} "
            f"after {est.samples_used} samples (last difference {est.err_est:.3e})"
        )
    return est.value, est.err_est


def _dense_limit(f: FnOnScale, ts: float, order: Order, cfg: LimitConfig, kind: DerivKind):
    """(value, err_est, side) of the derivative of this kind at dense ts:
    mirrored pairs for symmetric, approach sequences on the sides the order
    admits for nabla (base ``s - t``) and delta (base ``t - s``)."""
    T = f.scale
    if kind is DerivKind.SYMMETRIC:
        pairs = T.symmetric_pairs(ts, cfg.max_samples, h0=cfg.h0, ratio=cfg.ratio)
        if len(pairs) < 3:
            raise NoSymmetricNeighborhood(
                f"only {len(pairs)} symmetric pairs available near t={ts}"
            )
        quots = ((f.eval(ts + h) - f.eval(ts - h)) / signed_pow(2.0 * h, order) for h in pairs)
        return (*_settle(quots, cfg, ApproachSide.BOTH, ts), ApproachSide.BOTH)
    ft = f.eval(ts)
    if kind is DerivKind.NABLA:
        preferred = ApproachSide.RIGHT

        def quot(s: float) -> float:
            return (f.eval(s) - ft) / signed_pow(s - ts, order)

    else:
        preferred = ApproachSide.LEFT

        def quot(s: float) -> float:
            return (ft - f.eval(s)) / signed_pow(ts - s, order)

    if classify_order(order) is OrderClass.GENERAL:
        sides = (preferred,)
    else:
        sides = (ApproachSide.LEFT, ApproachSide.RIGHT)
    found = [(side, seq) for side in sides if (seq := _side_samples(T, ts, side, cfg)) is not None]
    if not found:
        where = (
            f"the {preferred.value} side of t={ts} to sample the one-sided limit"
            if len(sides) == 1
            else f"either side of t={ts}"
        )
        raise LimitDidNotConverge(f"no scale points available on {where}", samples_unavailable=True)
    ests = [(*_settle(map(quot, seq), cfg, side, ts), side) for side, seq in found]
    if len(ests) == 1:
        return ests[0]
    (lval, lerr, _), (rval, rerr, _) = ests
    gap = abs(lval - rval)
    if gap > _AGREE_FACTOR * cfg.tol:
        raise SidedLimitsDisagree(
            f"one-sided limits differ at t={ts}: left {lval!r}, right {rval!r}",
            left=lval,
            right=rval,
        )
    return 0.5 * (lval + rval), max(lerr, rerr, gap), ApproachSide.BOTH


#: per kind: whether it looks left (to rho), whether it looks right (to
#: sigma), the side its exact quotient reports, and the points of a scale
#: outside its domain
_KINDS = {
    DerivKind.NABLA: (True, False, ApproachSide.LEFT, "the scattered minimum"),
    DerivKind.DELTA: (False, True, ApproachSide.RIGHT, "the scattered maximum"),
    DerivKind.SYMMETRIC: (True, True, ApproachSide.BOTH, "a scattered extremum"),
}


def _domain_point(T: TimeScale, t: float, order: Order, kind: DerivKind) -> float:
    """t snapped onto T, once the order is positive and the snapped point
    lies in the domain of the derivative of this kind: it has a predecessor
    if the kind looks left and a successor if it looks right."""
    _require_order(order)
    ts = T.snap(t)
    if ts is None:
        raise PointNotInScale(f"t={t!r} is not in {T.describe()}")
    left, right, _, outside = _KINDS[kind]
    dm = T.domain_membership(ts)
    if (left and not dm.in_nabla_domain) or (right and not dm.in_delta_domain):
        raise PointOutsideDomain(
            f"t={ts} is {outside} of the scale; the {kind.value} "
            "derivative is undefined there"
        )
    return ts


def _frac(f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None, kind: DerivKind) -> DerivResult:
    """The derivative of any kind: one body for all three.

    When a side the kind looks at is scattered, the value is the exact
    quotient ``[f(hi) - f(lo)] / (hi - lo)**alpha`` with lo = rho(t) if the
    kind looks left (else t) and hi = sigma(t) if it looks right (else t);
    otherwise the point is dense on every side the kind looks at and the
    value is a limit.  A non-finite exact quotient raises NonFiniteSample,
    as a non-finite sample of a limit does.
    """
    T = f.scale
    ts = _domain_point(T, t, order, kind)
    cls = T.classify(ts)
    left, right, side, _ = _KINDS[kind]
    if (left and cls.left_scattered) or (right and cls.right_scattered):
        hi = T.sigma(ts) if right else ts
        lo = T.rho(ts) if left else ts
        value = (f.eval(hi) - f.eval(lo)) / signed_pow(hi - lo, order)
        if not math.isfinite(value):
            raise NonFiniteSample(f"exact {kind.value} quotient at t={ts} is {value!r}")
        return DerivResult(value, ComputePath.EXACT_SCATTERED, side, 0.0, order, kind)
    value, err, side = _dense_limit(f, ts, order, cfg or LimitConfig(), kind)
    return DerivResult(value, ComputePath.DENSE_LIMIT, side, err, order, kind)


def nabla_frac(
    f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None
) -> DerivResult:
    """Nabla (backward) fractional derivative of f at t.

    Raises:
        PointNotInScale: t is not a member of the scale.
        PointOutsideDomain: t is the scale's scattered minimum.
        LimitDidNotConverge, SidedLimitsDisagree: dense-point estimation
            failures.
    """
    return _frac(f, t, order, cfg, DerivKind.NABLA)


def delta_frac(
    f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None
) -> DerivResult:
    """Delta (forward) fractional derivative of f at t, mirror of
    :func:`nabla_frac`."""
    return _frac(f, t, order, cfg, DerivKind.DELTA)


def symmetric_frac(
    f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None
) -> DerivResult:
    """Symmetric fractional derivative of f at t.

    Not-dense points use the exact two-neighbor quotient; dense points take
    the limit over mirrored pairs t +/- h.
    """
    return _frac(f, t, order, cfg, DerivKind.SYMMETRIC)


def symmetric_weights(T: TimeScale, t: float, order: Order) -> SymmetricWeights:
    """The pair (gamma1, gamma2) combining delta and nabla derivatives into
    the symmetric one at t."""
    ts = _domain_point(T, t, order, DerivKind.SYMMETRIC)
    cls = T.classify(ts)
    if cls.dense:
        g = 2.0 ** (-order.value)
        return SymmetricWeights(g, g)
    s = T.sigma(ts)
    r = T.rho(ts)
    span = s - r
    return SymmetricWeights(
        ((s - ts) / span) ** order.value,
        ((ts - r) / span) ** order.value,
    )


def symmetric_via_sides(
    f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None
) -> DerivResult:
    """The symmetric derivative assembled as gamma1*delta + gamma2*nabla.

    Exists as an independent cross-check of :func:`symmetric_frac`; both
    one-sided derivatives must succeed.
    """
    d = delta_frac(f, t, order, cfg)
    n = nabla_frac(f, t, order, cfg)
    w = symmetric_weights(f.scale, t, order)
    value = w.gamma1 * d.value + w.gamma2 * n.value
    exact = d.path is ComputePath.EXACT_SCATTERED and n.path is ComputePath.EXACT_SCATTERED
    return DerivResult(
        value,
        ComputePath.EXACT_SCATTERED if exact else ComputePath.DENSE_LIMIT,
        ApproachSide.BOTH,
        w.gamma1 * d.err_est + w.gamma2 * n.err_est,
        order,
        DerivKind.SYMMETRIC,
    )


def order_lowering_check(
    f: FnOnScale,
    t: float,
    lower: Order,
    higher: Order,
    cfg: LimitConfig | None = None,
) -> bool:
    """Check that existence of the higher-order nabla derivative carries down.

    Evaluates the higher order first (failures propagate: that is a
    precondition), then the lower order.  Returns False if the lower order
    fails.  At a left-dense point with higher > lower the lower-order value
    must additionally vanish, within ten tolerances; scattered points need
    no value relation.
    """
    _require_order(lower)
    _require_order(higher)
    if cfg is None:
        cfg = LimitConfig()
    nabla_frac(f, t, higher, cfg)
    try:
        low = nabla_frac(f, t, lower, cfg)
    except TsfracError:
        return False
    ts = f.scale.snap(t)
    if higher > lower and f.scale.classify(ts).left_dense:
        return abs(low.value) <= _AGREE_FACTOR * cfg.tol
    return True
