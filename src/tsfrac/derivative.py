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

One routine serves all three kinds, and every value is one quotient
``[f(hi) - f(lo)] / (hi - lo)**alpha`` over points lo < hi of the scale.  A
kind looks left (nabla), right (delta) or both ways (symmetric); when a side
it looks at is scattered the value is the exact quotient over rho(t) and/or
sigma(t) (zero error estimate), and otherwise the limit of quotients over
t -/+ h (symmetric) or over t and the points s of an approach sequence
(nabla and delta).  Odd-reciprocal orders (1, 1/3, 1/5, ...) take the limit
over both sides of t and require the two one-sided estimates to agree; every
other order samples only the side its kind's definition reads (right for
nabla, left for delta).  When only one side of a dense point has scale
points to sample, the limit degenerates to that side and is used alone.

The symmetric derivative relates to the one-sided ones through the weights
``gamma1 = [(sigma(t)-t)/(sigma(t)-rho(t))]**alpha`` and
``gamma2 = [(t-rho(t))/(sigma(t)-rho(t))]**alpha`` (both ``2**-alpha`` at
dense points): ``symmetric = gamma1 * delta + gamma2 * nabla``.
``symmetric_weights`` gives the pair, and the ``symmetric-relation``
property suite of :mod:`tsfrac.checks` checks the relation.
"""

from __future__ import annotations

import enum
import math
from types import MethodType

from .errors import (
    LimitDidNotConverge,
    NonFiniteSample,
    PointOutsideDomain,
    SidedLimitsDisagree,
    _Record,
)
from .exprlang import eval_expr, parse_expr
from .order import (
    _DEFAULT_LIMITS,
    _MIN_SAMPLES,
    LimitConfig,
    Order,
    _require_order_type,
    estimate_limit,
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
]

# Two one-sided estimates each stop within a few tolerances of the limit, so
# exact agreement at cfg.tol is not achievable; this factor bounds the
# legitimate spread.
_AGREE_FACTOR = 10.0


class FnOnScale(_Record):
    """A real function ``eval`` of t paired with the time scale it lives on."""

    def __init__(self, eval, scale: TimeScale, source: object | None = None):
        if not callable(eval):
            raise TypeError(f"eval must be callable, got {type(eval).__name__}")
        if not isinstance(scale, TimeScale):
            raise TypeError(f"scale must be a TimeScale, got {type(scale).__name__}")
        vars(self).update(eval=eval, scale=scale, source=source)

    @classmethod
    def from_expression(cls, text: str, scale: TimeScale) -> "FnOnScale":
        """Build from expression-language source, e.g. ``"t^2 - 1"``.  Its ``eval``
        is ``eval_expr`` bound to the parsed AST as a method, so each sample is one
        call of ``eval_expr``; pickling and copying carry the AST.  The text is
        parsed first, so a text that does not parse is the error even when
        ``scale`` is not a TimeScale too."""
        return cls._from_ast(parse_expr(text), scale, text)

    @classmethod
    def _from_ast(cls, ast, scale: TimeScale, source: object | None) -> "FnOnScale":
        return cls(eval=MethodType(eval_expr, ast), scale=scale, source=source)

    def __reduce__(self):  # a bound eval_expr is not found again by name: rebuild from its AST
        ev = self.eval
        if type(ev) is MethodType and ev.__func__ is eval_expr:
            return (type(self)._from_ast, (ev.__self__, self.scale, self.source))
        return (type(self), (ev, self.scale, self.source))


class DerivKind(enum.Enum):
    NABLA = "nabla"
    DELTA = "delta"
    SYMMETRIC = "symmetric"

    __hash__ = object.__hash__  # as ApproachSide's: members are singletons


class ComputePath(enum.Enum):
    """How a derivative value was obtained."""

    EXACT_SCATTERED = "exact-scattered"
    DENSE_LIMIT = "dense-limit"

    __hash__ = object.__hash__


class DerivResult(_Record):
    """A derivative evaluation with its provenance, at the member ``t`` the
    queried point snapped to.

    ``err_est`` is 0 on the exact scattered path and the limit estimator's
    final difference on the dense path.
    """

    def __init__(
        self, value: float, path: ComputePath, side: ApproachSide, err_est: float, order: Order, kind: DerivKind, t: float
    ):
        d = vars(self)  # item by item: a keyword dict would cost ~0.1 us a result
        d["value"], d["path"], d["side"], d["err_est"] = value, path, side, err_est
        d["order"], d["kind"], d["t"] = order, kind, t


class SymmetricWeights(_Record):
    def __init__(self, gamma1: float, gamma2: float):
        vars(self).update(gamma1=gamma1, gamma2=gamma2)


def _side_samples(T: TimeScale, ts: float, side: ApproachSide, cfg: LimitConfig):
    """The points ``T.approach_sequence(ts, side, cfg)`` offers a limit, or
    None when it cannot supply the ``_MIN_SAMPLES`` a limit needs: the side
    is scattered, or offers fewer points, whether it is discrete or an
    interval whose steps reach the float spacing at ts."""
    seq = T.approach_sequence(ts, side, cfg)
    return seq if len(seq) >= _MIN_SAMPLES else None


def _settle(quots, cfg: LimitConfig, side: ApproachSide, ts: float) -> "tuple[float, float]":
    """The limit of one side's quotient sequence and its error estimate, or
    LimitDidNotConverge.  A zero limit is +0.0 whatever the signs of f's own
    zeros: for ``-t*0`` at 0, f(h) - f(-h) is -0.0."""
    est = estimate_limit(quots, cfg)
    if not est.converged:
        label = "symmetric" if side is ApproachSide.BOTH else f"{side.value}-side"
        raise LimitDidNotConverge(
            f"{label} quotients did not settle within tol={cfg.tol} at t={ts} "
            f"after {est.samples_used} samples (last difference {est.err_est:.3e})"
        )
    return est.value + 0.0, est.err_est


def _dense_limit(f: FnOnScale, ts: float, order: Order, cfg: LimitConfig, kind: DerivKind):
    """(value, err_est, side) of the derivative of this kind at dense ts, each
    sample the quotient ``[f(hi) - f(lo)] / (hi - lo)**alpha`` over lo < hi:
    the mirrored pair ts -/+ h for symmetric, and ts with a point s of an
    approach sequence for nabla and delta, f(ts) evaluated once.  The two
    differ only in the side a general order samples: right for nabla, left
    for delta."""
    T, ev, e = f.scale, f.eval, order.value
    if kind is DerivKind.SYMMETRIC:
        pairs = T.symmetric_pairs(ts, cfg)
        if len(pairs) < _MIN_SAMPLES:
            raise LimitDidNotConverge(
                f"only {len(pairs)} symmetric pairs available near t={ts}", samples_unavailable=True
            )
        found = [(ApproachSide.BOTH, pairs)]

        def quots(hs, side):  # ts + h and ts - h round: 2h is not their distance
            return ((ev(hi := ts + h) - ev(lo := ts - h)) / (hi - lo) ** e for h in hs)

    else:
        preferred = ApproachSide.RIGHT if kind is DerivKind.NABLA else ApproachSide.LEFT
        ft = ev(ts)

        def quots(seq, side):
            if side is ApproachSide.RIGHT:
                return ((ev(s) - ft) / (s - ts) ** e for s in seq)
            return ((ft - ev(s)) / (ts - s) ** e for s in seq)

        sides = (ApproachSide.LEFT, ApproachSide.RIGHT)
        if not order.odd_reciprocal:
            sides = (preferred,)
        found = [(side, seq) for side in sides if (seq := _side_samples(T, ts, side, cfg)) is not None]
        if not found:
            where = f"the {preferred.value} side of t={ts} to sample the one-sided limit"
            if len(sides) > 1:
                where = f"either side of t={ts}"
            raise LimitDidNotConverge(f"no scale points available on {where}", samples_unavailable=True)
    ests = [(*_settle(quots(seq, side), cfg, side, ts), side) for side, seq in found]
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


def _domain_point(T: TimeScale, t: float, order: Order, kind: DerivKind):
    """(ts, row): t snapped onto T and the kind's row of _KINDS, once the
    order is a positive Order (else TypeError or ValueError) and the snapped
    point lies in the domain of the derivative of this kind: it has a
    predecessor if the kind looks left and a successor if it looks right."""
    if not isinstance(order, Order):
        _require_order_type(order)  # raises
    if not order.numerator:
        raise ValueError("derivatives require a positive order")
    ts = T._require_member(t)
    row = _KINDS[kind]
    left, right, _, outside = row
    dm = T.domain_membership(ts)
    if (left and not dm.in_nabla_domain) or (right and not dm.in_delta_domain):
        raise PointOutsideDomain(
            f"t={ts} is {outside} of the scale; the {kind.value} "
            "derivative is undefined there"
        )
    return ts, row


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
    ts, (left, right, side, _) = _domain_point(T, t, order, kind)
    cls = T.classify(ts)
    if (left and not cls.left_dense) or (right and not cls.right_dense):
        hi = T.sigma(ts) if right else ts
        lo = T.rho(ts) if left else ts
        value = (f.eval(hi) - f.eval(lo)) / (hi - lo) ** order.value
        if not math.isfinite(value):
            raise NonFiniteSample(f"exact {kind.value} quotient at t={ts} is {value!r}")
        return DerivResult(value, ComputePath.EXACT_SCATTERED, side, 0.0, order, kind, ts)
    value, err, side = _dense_limit(f, ts, order, cfg or _DEFAULT_LIMITS, kind)
    return DerivResult(value, ComputePath.DENSE_LIMIT, side, err, order, kind, ts)


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

    Raises:
        PointNotInScale: t is not a member of the scale.
        PointOutsideDomain: t is a scattered extremum of the scale.
        NonFiniteSample: a quotient is NaN or infinite.
        LimitDidNotConverge: the quotients did not settle, or, with
            ``samples_unavailable`` set, fewer than three pairs t +/- h lie
            in the scale.
    """
    return _frac(f, t, order, cfg, DerivKind.SYMMETRIC)


#: the derivative of each kind; a dict, so that a wrapper put in its values
#: reaches every caller that dispatches by kind
_DERIVS = {DerivKind.NABLA: nabla_frac, DerivKind.DELTA: delta_frac, DerivKind.SYMMETRIC: symmetric_frac}


def symmetric_weights(T: TimeScale, t: float, order: Order) -> SymmetricWeights:
    """The pair (gamma1, gamma2) combining delta and nabla derivatives into
    the symmetric one at t."""
    ts, _ = _domain_point(T, t, order, DerivKind.SYMMETRIC)
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
