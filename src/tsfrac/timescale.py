"""Finitely described time scales (nonempty closed subsets of the reals).

A time scale here is a finite union of four component kinds:

* ``Interval(lo, hi)``: the closed interval [lo, hi] (endpoints may be
  infinite when built through the API, though not through the text form),
* ``FinitePoints(values)``: an explicit finite set,
* ``UniformGrid(start, stop, step)``: ``start + k*step`` for
  ``k = 0 .. floor((stop - start)/step)``,
* ``GeometricGrid(q, k_min, k_max, include_zero, sign)``:
  ``sign * q**k`` for ``k = k_min .. k_max``, optionally together with 0.

The jump operators are the usual ones: ``sigma(t)`` is the next scale point
at or after ``t`` (``inf {s in T : s > t}``, with ``sigma(max T) = max T``)
and ``rho(t)`` the previous one.  All geometric decisions snap the queried
real to the nearest scale member first, within an absolute tolerance that is
stored on the scale (default ``1e-12``).  Gaps at or below that tolerance are
classified as dense; this is what lets a geometric grid whose tail drops
below the tolerance stand in for a genuine accumulation point.

Scales are immutable.  Construction normalizes the component list: adjacent
or overlapping intervals are merged, discrete points covered by an interval
are absorbed, discrete components with members within the snap tolerance of
each other are fused into one point set, and the members of a point set
closer together than the snap tolerance are coalesced (the representation
cannot tell them apart at the documented tolerance).  The result does not
depend on the order of the components, and normalizing a normalized scale
is the identity.

Every query is answered from one flat index built at construction: the
sorted ``array('d')`` of all discrete members and finite interval endpoints,
and one flag per gap between neighboring entries (plus the two unbounded ends)
saying whether the gap lies inside an interval.  An interval's endpoints
are always neighbors in the index, since normalization leaves no member
inside or within the tolerance of an interval.  Snapping, the jump
operators, classification and the enumerations behind the limit
scaffolding are one or two bisections of the index; the component list is
kept for ``describe()``, JSON and equality only.
"""

from __future__ import annotations

import bisect
import enum
import json
import math
from array import array
from dataclasses import dataclass

from .errors import (
    InsufficientPoints,
    NoSymmetricNeighborhood,
    PointNotInScale,
    SideNotDense,
    ValidationError,
)

__all__ = [
    "DEFAULT_SNAP_TOL",
    "ApproachSide",
    "PointClass",
    "DomainMembership",
    "Interval",
    "FinitePoints",
    "UniformGrid",
    "GeometricGrid",
    "TimeScale",
]

#: Absolute tolerance used to snap queried reals onto scale members and to
#: separate "dense" from "scattered" gaps.  Configurable per scale.
DEFAULT_SNAP_TOL = 1e-12

# Guard for uniform grids: a step this close to the snap tolerance would make
# membership ambiguous.
_MIN_STEP_FACTOR = 4.0

# Most members of a scale, summed over its discrete components, and most
# points_in samples (a 10**6 grid takes seconds).
_MAX_POINTS = 1_000_000


class ApproachSide(enum.Enum):
    """Which side of a point a limit is taken from."""

    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


@dataclass(frozen=True)
class PointClass:
    """Density classification of a scale point on each side."""

    left_dense: bool
    right_dense: bool

    @property
    def left_scattered(self) -> bool:
        return not self.left_dense

    @property
    def right_scattered(self) -> bool:
        return not self.right_dense

    @property
    def dense(self) -> bool:
        return self.left_dense and self.right_dense

    @property
    def isolated(self) -> bool:
        return not (self.left_dense or self.right_dense)

    def __str__(self) -> str:
        left = "dense" if self.left_dense else "scattered"
        right = "dense" if self.right_dense else "scattered"
        return f"left-{left}, right-{right}"


@dataclass(frozen=True)
class DomainMembership:
    """Whether a point belongs to the domains of the three derivative kinds.

    The nabla derivative is undefined at a finite scattered minimum, the
    delta derivative at a finite scattered maximum, and the symmetric
    derivative requires both.
    """

    in_scale: bool
    in_nabla_domain: bool
    in_delta_domain: bool

    @property
    def in_symmetric_domain(self) -> bool:
        return self.in_nabla_domain and self.in_delta_domain


def _require_finite_number(name: str, x) -> float:
    if isinstance(x, (str, bytes, bool)):  # float() would accept "2" and True
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    try:
        xf = float(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    if math.isnan(xf):
        raise ValidationError(f"{name} must not be NaN")
    return xf


def _fmt_num(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


@dataclass(frozen=True)
class Interval:
    """The closed interval [lo, hi].  lo == hi is allowed and degenerates to
    a single point during normalization."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = _require_finite_number("interval lo", self.lo)
        hi = _require_finite_number("interval hi", self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValidationError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        if math.isinf(lo) and lo > 0 or math.isinf(hi) and hi < 0:
            raise ValidationError("interval bounds out of order at infinity")

    def to_json_dict(self) -> dict:
        def enc(x):
            return _fmt_num(x) if math.isinf(x) else x

        return {"kind": "interval", "lo": enc(self.lo), "hi": enc(self.hi)}

    def describe(self) -> str:
        return f"interval({_fmt_num(self.lo)},{_fmt_num(self.hi)})"


@dataclass(frozen=True)
class FinitePoints:
    """An explicit finite point set, stored sorted with exact duplicates
    removed."""

    values: tuple

    def __init__(self, values):
        if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
            raise ValidationError(f"points must be a collection of numbers, got {values!r}")
        vals = sorted({_require_finite_number("point", v) for v in values})
        if not vals:
            raise ValidationError("points component requires at least one point")
        for v in vals:
            if math.isinf(v):
                raise ValidationError("points must be finite")
        object.__setattr__(self, "values", tuple(vals))

    def iter_members(self):
        return iter(self.values)

    def to_json_dict(self) -> dict:
        return {"kind": "points", "points": list(self.values)}

    def describe(self) -> str:
        return "points(" + ",".join(_fmt_num(v) for v in self.values) + ")"


@dataclass(frozen=True)
class UniformGrid:
    """start + k*step for k = 0 .. floor((stop - start)/step).

    The stored stop is canonicalized to the last actual member, so two grids
    describing the same point set compare equal.
    """

    start: float
    stop: float
    step: float

    def __post_init__(self):
        start = _require_finite_number("grid start", self.start)
        stop = _require_finite_number("grid stop", self.stop)
        step = _require_finite_number("grid step", self.step)
        if math.isinf(start) or math.isinf(stop) or math.isinf(step):
            raise ValidationError("grid parameters must be finite")
        if step <= 0:
            raise ValidationError(f"grid step must be positive, got {step}")
        if step <= _MIN_STEP_FACTOR * DEFAULT_SNAP_TOL:
            raise ValidationError(
                f"grid step {step} is too close to the membership tolerance"
            )
        if stop < start:
            raise ValidationError(f"grid requires start <= stop, got {start} > {stop}")
        span = (stop - start + DEFAULT_SNAP_TOL) / step
        if not span < _MAX_POINTS:
            raise ValidationError(f"grid would have more than {_MAX_POINTS} members")
        count = int(math.floor(span)) + 1
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "stop", start + (count - 1) * step)
        object.__setattr__(self, "_count", count)

    @property
    def count(self) -> int:
        return self._count  # type: ignore[attr-defined]

    def iter_members(self):
        return (self.start + k * self.step for k in range(self.count))

    def to_json_dict(self) -> dict:
        return {
            "kind": "grid",
            "start": self.start,
            "stop": self.stop,
            "step": self.step,
        }

    def describe(self) -> str:
        return (
            f"grid({_fmt_num(self.start)},{_fmt_num(self.stop)},{_fmt_num(self.step)})"
        )


@dataclass(frozen=True)
class GeometricGrid:
    """sign * q**k for k = k_min .. k_max, plus 0 when include_zero is set.

    q must exceed 1.  With include_zero and a tail q**k_min at or below the
    snap tolerance, the origin behaves as a dense (accumulation) point.
    """

    q: float
    k_min: int
    k_max: int
    include_zero: bool = False
    sign: int = 1

    def __post_init__(self):
        q = _require_finite_number("qgrid q", self.q)
        if q <= 1:
            raise ValidationError(f"qgrid requires q > 1, got {q}")
        if not all(type(k) is int for k in (self.k_min, self.k_max)):
            raise ValidationError("qgrid exponent bounds must be integers")
        if not isinstance(self.include_zero, bool):
            raise ValidationError(f"qgrid zero flag must be a bool, got {self.include_zero!r}")
        if self.k_min > self.k_max:
            raise ValidationError(
                f"qgrid requires k_min <= k_max, got {self.k_min} > {self.k_max}"
            )
        if self.k_max - self.k_min > 100_000:
            raise ValidationError("qgrid exponent range is unreasonably large")
        if self.sign not in (1, -1):
            raise ValidationError(f"qgrid sign must be +1 or -1, got {self.sign}")
        try:
            top = q ** float(self.k_max)
        except OverflowError:
            top = math.inf
        if math.isinf(top):
            raise ValidationError("qgrid largest member overflows")
        object.__setattr__(self, "q", q)
        members = {self.sign * q**k for k in range(self.k_min, self.k_max + 1)}
        if self.include_zero:
            # q**k can underflow to 0.0 for very negative k, so build through
            # a set to keep members strictly increasing.
            members.add(0.0)
        object.__setattr__(self, "_members", tuple(sorted(members)))

    def iter_members(self):
        return iter(self._members)  # type: ignore[attr-defined]

    def to_json_dict(self) -> dict:
        return {
            "kind": "qgrid",
            "q": self.q,
            "kmin": self.k_min,
            "kmax": self.k_max,
            "zero": self.include_zero,
            "sign": self.sign,
        }

    def describe(self) -> str:
        if self.sign < 0:
            # no text form for mirrored geometric grids; fall back to points
            return "points(" + ",".join(_fmt_num(v) for v in self.iter_members()) + ")"
        zero = ",zero" if self.include_zero else ""
        return f"qgrid({_fmt_num(self.q)},{self.k_min},{self.k_max}{zero})"


Component = Interval | FinitePoints | UniformGrid | GeometricGrid


def _check_steps(n: int, h0: float | None, ratio: float) -> None:
    """The checks shared by the step sequences of the limit scaffolding."""
    if n < 1:
        raise ValueError("n must be positive")
    if not (0 < ratio < 1):
        raise ValueError("ratio must lie in (0, 1)")
    if h0 is not None and not h0 > 0:
        raise ValueError("h0 must be positive")


def _coalesce(values: list[float], tol: float) -> list[float]:
    """Sort and merge runs of values closer together than tol, keeping the
    smallest of each run."""
    out: list[float] = []
    for v in sorted(values):
        if out and v - out[-1] <= tol:
            continue
        out.append(v)
    return out


def _normalize(comps: list, tol: float):
    """The merged intervals, sorted and disjoint, and the surviving discrete
    components as (component, sorted members) pairs."""
    intervals: list[Interval] = []
    discretes: list = []
    for c in comps:
        if isinstance(c, Interval):
            if c.lo == c.hi:
                discretes.append(FinitePoints([c.lo]))
            else:
                intervals.append(c)
        else:
            discretes.append(c)

    # merge overlapping or touching intervals
    merged: list[Interval] = []
    for iv in sorted(intervals, key=lambda i: (i.lo, i.hi)):
        if merged and iv.lo <= merged[-1].hi + tol:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)

    # absorb discrete members covered by an interval
    reach = [iv.lo - tol for iv in merged]

    def covered(v: float) -> bool:
        i = bisect.bisect_right(reach, v) - 1
        return i >= 0 and v <= merged[i].hi + tol

    parts: list = []
    for c in discretes:
        members = list(c.iter_members())
        kept = [m for m in members if not covered(m)]
        if kept:
            parts.append((c if len(kept) == len(members) else FinitePoints(kept), kept))

    # fuse the components linked by members within tol of each other (one
    # sorted merge of all members), then coalesce every point set
    group = list(range(len(parts)))
    if len(parts) > 1:
        tagged = sorted((m, i) for i, (_, ms) in enumerate(parts) for m in ms)
        for (a, i), (b, j) in zip(tagged, tagged[1:]):
            if b - a <= tol and group[i] != group[j]:
                old, new = group[j], group[i]
                group = [new if g == old else g for g in group]
    fused: dict = {}
    for g, part in zip(group, parts):
        fused.setdefault(g, []).append(part)
    survivors = []
    for members_of in fused.values():
        c = members_of[0][0]
        if len(members_of) > 1 or isinstance(c, FinitePoints):
            values = _coalesce([m for _, ms in members_of for m in ms], tol)
            survivors.append((FinitePoints(values), values))
        else:
            survivors.append(members_of[0])
    return merged, survivors


class TimeScale:
    """An immutable, normalized time scale.

    Args:
        components: any iterable of components (order does not matter).
        snap_tol: absolute tolerance for membership snapping and for the
            dense/scattered decision.

    Raises:
        ValidationError: if a component is invalid or the list is empty.
    """

    __slots__ = (
        "components",
        "snap_tol",
        "inf_value",
        "sup_value",
        "_pts",
        "_inside",
        "_above",
        "_below",
        "_inf_scattered",
        "_sup_scattered",
    )

    def __init__(self, components, snap_tol: float = DEFAULT_SNAP_TOL):
        comps = list(components)
        if not comps:
            raise ValidationError("a time scale needs at least one component")
        if not (0 < _require_finite_number("snap tolerance", snap_tol) < 1):
            raise ValidationError(f"snap tolerance out of range: {snap_tol}")
        for c in comps:
            if not isinstance(c, (Interval, FinitePoints, UniformGrid, GeometricGrid)):
                raise ValidationError(f"not a scale component: {c!r}")
        # count the members _normalize would materialize before it does, since
        # the per-grid bound alone lets a union of large grids through
        total = sum(
            c.count if isinstance(c, UniformGrid)
            else len(c.values) if isinstance(c, FinitePoints)
            else len(c._members) if isinstance(c, GeometricGrid)
            else int(c.lo == c.hi)
            for c in comps
        )
        if total > _MAX_POINTS:
            raise ValidationError(f"scale would have {total} members, more than {_MAX_POINTS}")
        tol = float(snap_tol)
        intervals, survivors = _normalize(comps, tol)
        ordered = [((iv.lo, iv.hi), iv) for iv in intervals]
        ordered += [((ms[0], ms[-1]), c) for c, ms in survivors]
        ordered.sort(key=lambda kc: kc[0])

        # the flat index: _inside[i] tells whether the gap between _pts[i-1]
        # and _pts[i] (unbounded at i == 0 and i == len(_pts)) is an interval;
        # packed arrays hold a large grid in a quarter of the memory of floats
        ends = [x for iv in intervals for x in (iv.lo, iv.hi) if math.isfinite(x)]
        pts = array("d", sorted([m for _, ms in survivors for m in ms] + ends))
        inside = bytearray(len(pts) + 1)
        for iv in intervals:
            inside[bisect.bisect_left(pts, iv.hi) if math.isfinite(iv.hi) else len(pts)] = 1
        # enumeration skips the points inside an interval, so from below it
        # sees only an interval's left end and from above only its right end
        above, below = pts, pts
        if intervals:
            above = array("d", (p for p, gap_before in zip(pts, inside) if not gap_before))
            below = array("d", (p for p, gap_after in zip(pts, inside[1:]) if not gap_after))

        for name, value in (
            ("snap_tol", tol),
            ("components", tuple(c for _, c in ordered)),
            ("inf_value", -math.inf if inside[0] else pts[0]),
            ("sup_value", math.inf if inside[-1] else pts[-1]),
            ("_pts", pts),
            ("_inside", bytes(inside)),
            ("_above", above),
            ("_below", below),
        ):
            object.__setattr__(self, name, value)
        inf, sup = self.inf_value, self.sup_value
        object.__setattr__(
            self, "_inf_scattered", math.isfinite(inf) and (self._sigma_raw(inf) - inf) > tol
        )
        object.__setattr__(
            self, "_sup_scattered", math.isfinite(sup) and (sup - self._rho_raw(sup)) > tol
        )

    def __setattr__(self, name, value):
        raise AttributeError("TimeScale is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TimeScale)
            and self.components == other.components
            and self.snap_tol == other.snap_tol
        )

    def __hash__(self):
        return hash((self.components, self.snap_tol))

    def __repr__(self):
        return f"TimeScale({self.describe()})"

    # -- membership -------------------------------------------------------

    def snap(self, t: float):
        """The exact member nearest to t if one lies within the snap
        tolerance, else None.  Ties go to the lower member."""
        if not isinstance(t, (int, float)) or not math.isfinite(t):
            return None
        t = float(t)
        pts = self._pts
        i = bisect.bisect_left(pts, t)
        if self._inside[i]:  # t lies in an interval, right end included
            return t
        if i == len(pts) or (i > 0 and t - pts[i - 1] <= pts[i] - t):
            i -= 1
        m = pts[i]
        return m if abs(m - t) <= self.snap_tol else None

    def contains(self, t: float) -> bool:
        return self.snap(t) is not None

    def _require_member(self, t: float) -> float:
        ts = self.snap(t)
        if ts is None:
            raise PointNotInScale(f"{t!r} is not a point of {self.describe()}")
        return ts

    # -- jump operators ---------------------------------------------------

    def _sigma_raw(self, ts: float) -> float:
        j = bisect.bisect_right(self._pts, ts)
        if self._inside[j] or j == len(self._pts):
            return ts
        return self._pts[j]

    def _rho_raw(self, ts: float) -> float:
        i = bisect.bisect_left(self._pts, ts)
        if self._inside[i] or i == 0:
            return ts
        return self._pts[i - 1]

    def sigma(self, t: float) -> float:
        """Forward jump: the infimum of scale points after t (t itself at the
        maximum, and at right-dense points)."""
        return self._sigma_raw(self._require_member(t))

    def rho(self, t: float) -> float:
        """Backward jump, mirror of :meth:`sigma`."""
        return self._rho_raw(self._require_member(t))

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t."""
        ts = self._require_member(t)
        return self._sigma_raw(ts) - ts

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t)."""
        ts = self._require_member(t)
        return ts - self._rho_raw(ts)

    # -- classification ---------------------------------------------------

    def classify(self, t: float) -> PointClass:
        """Dense/scattered classification of each side of t.

        A gap at or below the snap tolerance counts as dense, so the
        convention sigma(max) = max makes the maximum right-dense and the
        minimum left-dense.
        """
        ts = self._require_member(t)
        right = (self._sigma_raw(ts) - ts) <= self.snap_tol
        left = (ts - self._rho_raw(ts)) <= self.snap_tol
        return PointClass(left_dense=left, right_dense=right)

    def domain_membership(self, t: float) -> DomainMembership:
        """Domain flags for the derivative operators at t (see
        :class:`DomainMembership`)."""
        ts = self.snap(t)
        if ts is None:
            return DomainMembership(False, False, False)
        in_nabla = not (self._inf_scattered and ts == self.inf_value)
        in_delta = not (self._sup_scattered and ts == self.sup_value)
        return DomainMembership(True, in_nabla, in_delta)

    # -- limit scaffolding ------------------------------------------------

    def _interval_at(self, ts: float):
        """(lo, hi) of the interval holding the member ts, or None."""
        pts, inside = self._pts, self._inside
        i = bisect.bisect_left(pts, ts)
        if not inside[i]:
            # a member outside the open gaps is an entry of the index, and an
            # interval's left end when the gap after it is inside
            i += 1
            if not inside[i]:
                return None
        return (
            pts[i - 1] if i > 0 else -math.inf,
            pts[i] if i < len(pts) else math.inf,
        )

    def _members_near(self, ts: float, side: ApproachSide, limit: int) -> list[float]:
        """Up to limit enumerable members strictly on one side of ts,
        ascending; the points inside an interval are skipped."""
        if side is ApproachSide.RIGHT:
            ms = self._above
            i = bisect.bisect_right(ms, ts)
            return list(ms[i : i + limit])
        ms = self._below
        i = bisect.bisect_left(ms, ts)
        return list(ms[max(0, i - limit) : i])

    def approach_sequence(
        self,
        t: float,
        side: ApproachSide,
        n: int,
        h0: float | None = None,
        ratio: float = 0.5,
    ) -> list[float]:
        """n scale points approaching t monotonically from one side.

        Inside an interval the sequence is geometric, t +/- h*ratio**k with
        h = min(h0, room to the component boundary); the default h0 is
        min(0.1, room)/2.  The sequence is cut short of n once the step
        underflows the float spacing at t, so every returned point is
        distinct from t and from its neighbors.  Where the dense side is
        carried by discrete points (a geometric-grid tail), the actual
        grid members nearest t are returned.  The list is ordered farthest
        first.

        Raises:
            SideNotDense: the requested side of t is scattered.
            InsufficientPoints: the side is dense by convention only, or is
                discrete with fewer than n points (``available`` says how
                many it has).
        """
        if side not in (ApproachSide.LEFT, ApproachSide.RIGHT):
            raise ValueError("side must be LEFT or RIGHT")
        _check_steps(n, h0, ratio)
        ts = self._require_member(t)
        cls = self.classify(ts)
        dense = cls.right_dense if side is ApproachSide.RIGHT else cls.left_dense
        if not dense:
            raise SideNotDense(f"t={ts} is scattered on the {side.value} side")

        iv = self._interval_at(ts)
        if iv is not None:
            lo, hi = iv
            room = (hi - ts) if side is ApproachSide.RIGHT else (ts - lo)
            if room > self.snap_tol:
                h = min(min(0.1, room) / 2 if h0 is None else h0, room)
                sign = 1.0 if side is ApproachSide.RIGHT else -1.0
                out: list[float] = []
                prev = ts
                for k in range(n):
                    s = ts + sign * h * ratio**k
                    if s == ts or s == prev:
                        break
                    out.append(s)
                    prev = s
                return out

        members = self._members_near(ts, side, n)
        if len(members) < n:
            raise InsufficientPoints(
                f"only {len(members)} scale points on the {side.value} side of {ts}",
                available=len(members),
            )
        if side is ApproachSide.RIGHT:
            members.reverse()  # farthest first, decreasing toward t
        return members

    def symmetric_pairs(
        self,
        t: float,
        n: int,
        h0: float | None = None,
        ratio: float = 0.5,
    ) -> list[float]:
        """Up to n values h > 0 with both t+h and t-h in the scale,
        decreasing.

        Inside an interval these are geometric steps h*ratio**k; in discrete
        neighborhoods they are the realizable pair distances strictly below
        h0 (so a uniform grid yields its minimal pair).  Fewer than n values
        are returned when the neighborhood runs out of pairs.

        Raises:
            NoSymmetricNeighborhood: no pair exists below the step bound.
        """
        _check_steps(n, h0, ratio)
        ts = self._require_member(t)

        iv = self._interval_at(ts)
        if iv is not None:
            lo, hi = iv
            room = min(ts - lo, hi - ts)
            if room > self.snap_tol:
                h = min(min(0.1, room) / 2 if h0 is None else h0, room)
                hs: list[float] = []
                prev_hi = ts
                for k in range(n):
                    step = h * ratio**k
                    hi = ts + step
                    if hi == ts or ts - step == ts or (hs and hi == prev_hi):
                        break
                    hs.append(step)
                    prev_hi = hi
                return hs

        bound = h0 if h0 is not None else 1e-2
        limit = max(8 * n, 64)
        cand: list[float] = []
        for side, sign in ((ApproachSide.RIGHT, 1.0), (ApproachSide.LEFT, -1.0)):
            for m in self._members_near(ts, side, limit):
                h = sign * (m - ts)  # exactly ts - m on the left
                if self.snap_tol < h < bound and self.snap(ts - sign * h) is not None:
                    cand.append(h)
        hs: list[float] = []
        for h in sorted(cand, reverse=True):
            if hs and hs[-1] - h <= self.snap_tol:
                continue
            hs.append(h)
        if not hs:
            raise NoSymmetricNeighborhood(
                f"no h with t+h and t-h both in the scale below h0={bound} at t={ts}"
            )
        return hs[:n]

    # -- enumeration ------------------------------------------------------

    def _runs(self, lo: float, hi: float):
        """The pieces (t, s, run) that cover [lo, hi] in order, for members
        lo <= hi: a stretch [t, s] of an interval with run None, or a maximal
        run of consecutive jumps from t through the index entries in the
        memoryview run, the last of which is s."""
        pts, inside = self._pts, self._inside
        view = memoryview(pts)
        k = bisect.bisect_right(pts, lo)
        # the gaps before index e end at entries <= hi, so no run passes hi
        e = bisect.bisect_right(pts, hi)
        t = lo
        while t < hi:
            if inside[k]:
                # past the last entry only an unbounded interval remains
                s = min(pts[k], hi) if k < len(pts) else hi
                yield t, s, None
                k += 1
            else:
                j = inside.find(1, k, e)
                if j < 0:
                    j = e
                s = pts[j - 1]
                yield t, s, view[k:j]
                k = j
            t = s

    def points_in(self, a: float, b: float, density: float = 33.0) -> list[float]:
        """Representative scale points in [a, b]: all discrete members plus
        interval samples at the given points-per-unit density.

        Raises:
            ValueError: the density is not finite and positive, or the
                result would hold more than a million points.
        """
        if not (0 < density < math.inf):
            raise ValueError(f"density must be finite and positive, got {density!r}")
        if b < a:
            a, b = b, a
        pts, inside = self._pts, self._inside
        tol = self.snap_tol
        out = [
            pts[k]
            for k in range(bisect.bisect_left(pts, a - tol), bisect.bisect_right(pts, b + tol))
            if not (inside[k] or inside[k + 1])
        ]
        for g in range(bisect.bisect_left(pts, a), bisect.bisect_right(pts, b) + 1):
            if not inside[g]:
                continue
            x = max(pts[g - 1], a) if g > 0 else a
            y = min(pts[g], b) if g < len(pts) else b
            if x > y:
                continue
            if x == y:
                out.append(x)
                continue
            npts = max(2, int(math.ceil(min((y - x) * density, _MAX_POINTS))) + 1)
            if len(out) + npts > _MAX_POINTS:
                raise ValueError(f"[{a}, {b}] at density {density} needs over {_MAX_POINTS} samples")
            out.extend(x + j * (y - x) / (npts - 1) for j in range(npts))
        return _coalesce(out, tol)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {"components": [c.to_json_dict() for c in self.components]}
        if self.snap_tol != DEFAULT_SNAP_TOL:
            d["snap_tol"] = self.snap_tol
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TimeScale":
        if not isinstance(d, dict) or not isinstance(d.get("components"), list):
            raise ValidationError("scale JSON must be an object with 'components'")
        comps = []
        for cd in d["components"]:
            if not isinstance(cd, dict) or "kind" not in cd:
                raise ValidationError(f"bad component entry: {cd!r}")
            kind = cd["kind"]
            try:
                if kind == "interval":
                    comps.append(Interval(_dec_inf(cd["lo"]), _dec_inf(cd["hi"])))
                elif kind == "points":
                    comps.append(FinitePoints(cd["points"]))
                elif kind == "grid":
                    comps.append(UniformGrid(cd["start"], cd["stop"], cd["step"]))
                elif kind == "qgrid":
                    comps.append(
                        GeometricGrid(
                            cd["q"], cd["kmin"], cd["kmax"], cd.get("zero", False), cd.get("sign", 1)
                        )
                    )
                else:
                    raise ValidationError(f"unknown component kind {kind!r}")
            except KeyError as exc:
                raise ValidationError(f"component {kind!r} missing field {exc}")
        return cls(comps, snap_tol=d.get("snap_tol", DEFAULT_SNAP_TOL))

    @classmethod
    def from_json(cls, text: str) -> "TimeScale":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid scale JSON: {exc}")
        return cls.from_json_dict(d)

    def describe(self) -> str:
        """Canonical text form (the scale mini-language where expressible)."""
        parts = [c.describe() for c in self.components]
        if len(parts) == 1:
            return parts[0]
        return "union(" + ",".join(parts) + ")"


def _dec_inf(x):
    if isinstance(x, str):
        if x == "inf":
            return math.inf
        if x == "-inf":
            return -math.inf
        raise ValidationError(f"bad numeric string {x!r} in scale JSON")
    return x
