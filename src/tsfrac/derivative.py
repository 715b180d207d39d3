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

Scattered points therefore evaluate exactly (a single quotient, zero error
estimate).  Dense points sample an approach sequence and estimate the limit.
Odd-reciprocal orders (1, 1/3, 1/5, ...) take the limit over both sides of t
and require the two one-sided estimates to agree; every other order admits
only the side where the power's base stays nonnegative (right for nabla,
left for delta).  When only one side of a dense point has scale points to
sample, the limit over the neighborhood degenerates to that side and is used
alone.

The symmetric derivative relates to the one-sided ones through the weights
``gamma1 = [(sigma(t)-t)/(sigma(t)-rho(t))]**alpha`` and
``gamma2 = [(t-rho(t))/(sigma(t)-rho(t))]**alpha`` (both ``2**-alpha`` at
dense points): ``symmetric = gamma1 * delta + gamma2 * nabla``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .errors import (
    InsufficientPoints,
    LimitDidNotConverge,
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
    usable sequence (scattered, empty, or fewer than three points)."""
    try:
        return T.approach_sequence(ts, side, cfg.max_samples, h0=cfg.h0, ratio=cfg.ratio)
    except SideNotDense:
        return None
    except InsufficientPoints as exc:
        if exc.available < 3:
            return None
        return T.approach_sequence(ts, side, exc.available, h0=cfg.h0, ratio=cfg.ratio)


def _one_sided(quot, samples, side, cfg) -> "tuple[float, float]":
    est = estimate_limit((quot(s) for s in samples), cfg, side)
    if not est.converged:
        raise LimitDidNotConverge(
            f"{side.value}-side quotients did not settle within tol={cfg.tol} "
            f"after {est.samples_used} samples (last difference {est.err_est:.3e})"
        )
    return est.value, est.err_est


def _dense_limit(quot, T, ts, order, cfg, *, preferred: ApproachSide):
    """Shared dense-point flow for nabla and delta.

    ``preferred`` is the side where the power's base is positive (right for
    nabla, left for delta); general orders use it exclusively, odd
    reciprocals take both sides when available.
    """
    if classify_order(order) is OrderClass.GENERAL:
        samples = _side_samples(T, ts, preferred, cfg)
        if samples is None:
            raise LimitDidNotConverge(
                f"no scale points available on the {preferred.value} side of t={ts} "
                f"to sample the one-sided limit",
                samples_unavailable=True,
            )
        value, err = _one_sided(quot, samples, preferred, cfg)
        return value, err, preferred

    left = _side_samples(T, ts, ApproachSide.LEFT, cfg)
    right = _side_samples(T, ts, ApproachSide.RIGHT, cfg)
    if left is None and right is None:
        raise LimitDidNotConverge(
            f"no scale points available on either side of t={ts}",
            samples_unavailable=True,
        )
    if left is not None and right is not None:
        lval, lerr = _one_sided(quot, left, ApproachSide.LEFT, cfg)
        rval, rerr = _one_sided(quot, right, ApproachSide.RIGHT, cfg)
        gap = abs(lval - rval)
        if gap > _AGREE_FACTOR * cfg.tol:
            raise SidedLimitsDisagree(
                f"one-sided limits differ at t={ts}: left {lval!r}, right {rval!r}",
                left=lval,
                right=rval,
            )
        return 0.5 * (lval + rval), max(lerr, rerr, gap), ApproachSide.BOTH
    if left is not None:
        value, err = _one_sided(quot, left, ApproachSide.LEFT, cfg)
        return value, err, ApproachSide.LEFT
    value, err = _one_sided(quot, right, ApproachSide.RIGHT, cfg)
    return value, err, ApproachSide.RIGHT


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
    _require_order(order)
    if cfg is None:
        cfg = LimitConfig()
    T = f.scale
    ts = T.snap(t)
    if ts is None:
        raise PointNotInScale(f"t={t!r} is not in {T.describe()}")
    if not T.domain_membership(ts).in_nabla_domain:
        raise PointOutsideDomain(
            f"t={ts} is the scattered minimum of the scale; the nabla "
            "derivative is undefined there"
        )
    cls = T.classify(ts)
    if cls.left_scattered:
        r = T.rho(ts)
        value = (f.eval(ts) - f.eval(r)) / signed_pow(ts - r, order)
        return DerivResult(
            value, ComputePath.EXACT_SCATTERED, ApproachSide.LEFT, 0.0, order, DerivKind.NABLA
        )
    ft = f.eval(ts)

    def quot(s: float) -> float:
        return (f.eval(s) - ft) / signed_pow(s - ts, order)

    value, err, side = _dense_limit(quot, T, ts, order, cfg, preferred=ApproachSide.RIGHT)
    return DerivResult(value, ComputePath.DENSE_LIMIT, side, err, order, DerivKind.NABLA)


def delta_frac(
    f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None
) -> DerivResult:
    """Delta (forward) fractional derivative of f at t, mirror of
    :func:`nabla_frac`."""
    _require_order(order)
    if cfg is None:
        cfg = LimitConfig()
    T = f.scale
    ts = T.snap(t)
    if ts is None:
        raise PointNotInScale(f"t={t!r} is not in {T.describe()}")
    if not T.domain_membership(ts).in_delta_domain:
        raise PointOutsideDomain(
            f"t={ts} is the scattered maximum of the scale; the delta "
            "derivative is undefined there"
        )
    cls = T.classify(ts)
    if cls.right_scattered:
        s = T.sigma(ts)
        value = (f.eval(s) - f.eval(ts)) / signed_pow(s - ts, order)
        return DerivResult(
            value, ComputePath.EXACT_SCATTERED, ApproachSide.RIGHT, 0.0, order, DerivKind.DELTA
        )
    ft = f.eval(ts)

    def quot(s: float) -> float:
        return (ft - f.eval(s)) / signed_pow(ts - s, order)

    value, err, side = _dense_limit(quot, T, ts, order, cfg, preferred=ApproachSide.LEFT)
    return DerivResult(value, ComputePath.DENSE_LIMIT, side, err, order, DerivKind.DELTA)


def symmetric_frac(
    f: FnOnScale, t: float, order: Order, cfg: LimitConfig | None = None
) -> DerivResult:
    """Symmetric fractional derivative of f at t.

    Not-dense points use the exact two-neighbor quotient; dense points take
    the limit over mirrored pairs t +/- h.
    """
    _require_order(order)
    if cfg is None:
        cfg = LimitConfig()
    T = f.scale
    ts = T.snap(t)
    if ts is None:
        raise PointNotInScale(f"t={t!r} is not in {T.describe()}")
    if not T.domain_membership(ts).in_symmetric_domain:
        raise PointOutsideDomain(
            f"t={ts} is a scattered extremum of the scale; the symmetric "
            "derivative is undefined there"
        )
    cls = T.classify(ts)
    if not cls.dense:
        s = T.sigma(ts)
        r = T.rho(ts)
        value = (f.eval(s) - f.eval(r)) / signed_pow(s - r, order)
        return DerivResult(
            value, ComputePath.EXACT_SCATTERED, ApproachSide.BOTH, 0.0, order, DerivKind.SYMMETRIC
        )
    pairs = T.symmetric_pairs(ts, cfg.max_samples, h0=cfg.h0, ratio=cfg.ratio)
    if len(pairs) < 3:
        raise NoSymmetricNeighborhood(
            f"only {len(pairs)} symmetric pairs available near t={ts}"
        )

    def quot(h: float) -> float:
        return (f.eval(ts + h) - f.eval(ts - h)) / signed_pow(2.0 * h, order)

    est = estimate_limit((quot(h) for h in pairs), cfg, ApproachSide.BOTH)
    if not est.converged:
        raise LimitDidNotConverge(
            f"symmetric quotients did not settle within tol={cfg.tol} at t={ts} "
            f"(last difference {est.err_est:.3e})"
        )
    return DerivResult(
        est.value, ComputePath.DENSE_LIMIT, ApproachSide.BOTH, est.err_est, order, DerivKind.SYMMETRIC
    )


def symmetric_weights(T: TimeScale, t: float, order: Order) -> SymmetricWeights:
    """The pair (gamma1, gamma2) combining delta and nabla derivatives into
    the symmetric one at t."""
    _require_order(order)
    ts = T.snap(t)
    if ts is None:
        raise PointNotInScale(f"t={t!r} is not in {T.describe()}")
    if not T.domain_membership(ts).in_symmetric_domain:
        raise PointOutsideDomain(f"t={ts} is a scattered extremum of the scale")
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
