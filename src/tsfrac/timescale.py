"""Finitely described time scales (nonempty closed subsets of the reals).

A time scale here is a finite union of four component kinds:

* ``Interval(lo, hi)``: the closed interval [lo, hi] (endpoints may be
  infinite),
* ``FinitePoints(values)``: an explicit finite set,
* ``UniformGrid(start, stop, step)``: ``start + k*step`` for
  ``k = 0 .. floor((stop - start)/step)``,
* ``GeometricGrid(q, k_min, k_max, include_zero)``: ``q**k`` for
  ``k = k_min .. k_max``, optionally together with 0.

The jump operators are the usual ones: ``sigma(t)`` is the next scale point
at or after ``t`` (``inf {s in T : s > t}``, with ``sigma(max T) = max T``)
and ``rho(t)`` the previous one.  All geometric decisions snap the queried
real to the nearest scale member first, within one fixed absolute
tolerance, ``DEFAULT_SNAP_TOL`` = 1e-12.  Gaps at or below it are
classified as dense; this is what lets a geometric grid whose tail drops
below the tolerance stand in for a genuine accumulation point.

Scales are immutable.  A scale is the set of its members, and the snap
tolerance never decides which members exist: construction merges adjacent
or overlapping intervals and absorbs the discrete members within the
tolerance of an interval, and keeps every other distinct member once, so
two members closer than the tolerance both stay and the gap between them
is dense.  The result does not depend on the order of the components, and
normalizing a normalized scale is the identity.

Every query is answered from one flat index built at construction: the
sorted ``array('d')`` of all discrete members and finite interval endpoints,
and one flag per gap between neighboring entries (plus the two unbounded ends)
saying whether the gap lies inside an interval.  An interval's endpoints
are always neighbors in the index, since normalization leaves no member
inside or within the tolerance of an interval.  A scale remembers its last
lookup as one pair (t, bisect_left(index, t)), read and replaced whole, so
an operator's queries at one point bisect once and a concurrent reader never
mixes two lookups.  ``snap`` and the jump readers under ``sigma``, ``rho``,
``mu``, ``nu``, ``classify`` and ``domain_membership`` read it in place; the
pair is keyed by the query, so a query within the tolerance of a member
bisects again for the member.  Enumerations read a window of the index,
keeping no derived copy.  Equality and hashing compare the index, so two
descriptions of one set are equal; the component list serves ``describe()``,
the text that ``parse_scale`` reads back to an equal scale.
"""

from __future__ import annotations

import bisect
import enum
import math
import reprlib
from array import array
from itertools import chain

from .errors import PointNotInScale, ValidationError, _Record
from .order import _DEFAULT_LIMITS, _FIRST_STEP, _STEP_RATIO, LimitConfig

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
#: separate "dense" from "scattered" gaps.
DEFAULT_SNAP_TOL = 1e-12

#: the approach-step factors _STEP_RATIO**k, each a power (halving differs among the
#: subnormals); the last, k = 1075, is 0.0, so every step loop ends inside the table
_STEP_FACTORS = tuple(_STEP_RATIO**k for k in range(1076))

# Guard for uniform grids: a step at most this many snap tolerances would make
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

    # members are singletons compared by identity: Enum's own hash of the name is a Python call
    __hash__ = object.__hash__


class PointClass(_Record):
    """Density classification of a scale point on each side."""

    def __init__(self, left_dense: bool, right_dense: bool):
        vars(self).update(left_dense=left_dense, right_dense=right_dense)

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


class DomainMembership(_Record):
    """Whether a point belongs to the domains of the three derivative kinds.

    The nabla derivative is undefined at a finite scattered minimum, the
    delta derivative at a finite scattered maximum, and the symmetric
    derivative requires both.
    """

    def __init__(self, in_nabla_domain: bool, in_delta_domain: bool):
        vars(self).update(in_nabla_domain=in_nabla_domain, in_delta_domain=in_delta_domain)

    @property
    def in_symmetric_domain(self) -> bool:
        return self.in_nabla_domain and self.in_delta_domain


# shared results of classify and domain_membership: building a record costs ~0.3 us (Python 3.11)
_POINT_CLASSES = tuple(tuple(PointClass(left, right) for right in (False, True)) for left in (False, True))
_MEMBERSHIPS = tuple(tuple(DomainMembership(n, d) for d in (False, True)) for n in (False, True))


def _require_finite_number(name: str, x) -> float:
    if type(x) is not float:  # a float, what the parsers read, needs no conversion
        if isinstance(x, (str, bytes, bool)):  # float() would accept "2" and True
            raise ValidationError(f"{name} must be a real number, got {x!r}")
        try:
            x = float(x)
        except (TypeError, ValueError):
            raise ValidationError(f"{name} must be a real number, got {x!r}")
        except OverflowError:  # an int past the float range
            raise ValidationError(f"{name} is past the float range")
    if x != x:
        raise ValidationError(f"{name} must not be NaN")
    return x + 0.0  # -0.0 is stored as 0.0, as the text form reads '-0'


def _not_in_scale(t, name: str = "t") -> PointNotInScale:
    """The error for the non-member t.  Its message, "<name>=<t> is not in the
    scale", names the argument, never the scale, and shows t in at most about
    40 characters (an int past the float range by its size), so it is short
    and cannot fail to build."""
    big = isinstance(t, int) and t.bit_length() > 1024
    shown = f"<int of {t.bit_length()} bits>" if big else reprlib.repr(t)
    return PointNotInScale(f"{name}={shown} is not in the scale")


def _fmt_num(x: float) -> str:
    """x as both text languages print it, integral floats below 1e16 bare."""
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


class Interval(_Record):
    """The closed interval [lo, hi].  lo == hi is allowed and degenerates to
    a single point during normalization."""

    def __init__(self, lo: float, hi: float):
        lo = _require_finite_number("interval lo", lo)
        hi = _require_finite_number("interval hi", hi)
        if lo > hi:
            raise ValidationError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        if math.isinf(lo) and lo > 0 or math.isinf(hi) and hi < 0:
            raise ValidationError("interval bounds out of order at infinity")
        vars(self).update(lo=lo, hi=hi)

    def describe(self) -> str:
        return f"interval({_fmt_num(self.lo)},{_fmt_num(self.hi)})"


class FinitePoints(_Record):
    """An explicit finite point set, stored sorted with exact duplicates
    removed."""

    def __init__(self, values):
        if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
            raise ValidationError(f"points must be a collection of numbers, got {values!r}")
        vals = sorted({_require_finite_number("point", v) for v in values})
        if not vals:
            raise ValidationError("points component requires at least one point")
        if math.isinf(vals[0]) or math.isinf(vals[-1]):  # sorted: an infinity is at an end
            raise ValidationError("points must be finite")
        vars(self).update(values=tuple(vals))

    def iter_members(self):
        return iter(self.values)

    def describe(self) -> str:
        return "points(" + ",".join(_fmt_num(v) for v in self.values) + ")"


class UniformGrid(_Record):
    """start + k*step for k = 0 .. floor((stop - start)/step).

    The stored stop is canonicalized to the last actual member, so two grids
    describing the same point set compare equal.
    """

    def __init__(self, start: float, stop: float, step: float):
        start = _require_finite_number("grid start", start)
        stop = _require_finite_number("grid stop", stop)
        step = _require_finite_number("grid step", step)
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
        vars(self).update(start=start, stop=start + (count - 1) * step, step=step, _count=count)

    @property
    def count(self) -> int:
        return self._count

    def iter_members(self):
        start, step = self.start, self.step
        return iter([start + k * step for k in range(self.count)])

    def describe(self) -> str:
        return (
            f"grid({_fmt_num(self.start)},{_fmt_num(self.stop)},{_fmt_num(self.step)})"
        )


class GeometricGrid(_Record):
    """q**k for k = k_min .. k_max, plus 0 when include_zero is set.

    q must exceed 1.  With include_zero and a tail q**k_min at or below the
    snap tolerance, the origin behaves as a dense (accumulation) point, in a
    union as alone, since no member is ever merged into another.
    """

    def __init__(self, q: float, k_min: int, k_max: int, include_zero: bool = False):
        q = _require_finite_number("qgrid q", q)
        if q <= 1:
            raise ValidationError(f"qgrid requires q > 1, got {q}")
        if not all(type(k) is int for k in (k_min, k_max)):
            raise ValidationError("qgrid exponent bounds must be integers")
        if not isinstance(include_zero, bool):
            raise ValidationError(f"qgrid zero flag must be a bool, got {include_zero!r}")
        if k_min > k_max:
            raise ValidationError(f"qgrid requires k_min <= k_max, got {k_min} > {k_max}")
        if k_max - k_min > 100_000:
            raise ValidationError("qgrid exponent range is unreasonably large")
        try:
            top = q ** float(k_max)
        except OverflowError:
            top = math.inf
        if math.isinf(top):
            raise ValidationError("qgrid largest member overflows")
        members = {q**k for k in range(k_min, k_max + 1)}
        if include_zero:
            # q**k can underflow to 0.0 for very negative k, so build through
            # a set to keep members strictly increasing.
            members.add(0.0)
        vars(self).update(q=q, k_min=k_min, k_max=k_max, include_zero=include_zero, _members=tuple(sorted(members)))

    def iter_members(self):
        return iter(self._members)

    def describe(self) -> str:
        zero = ",zero" if self.include_zero else ""
        return f"qgrid({_fmt_num(self.q)},{self.k_min},{self.k_max}{zero})"


def _coalesce(values: list[float], tol: float) -> list[float]:
    """Sort and merge runs of values closer together than tol, keeping the
    smallest of each run."""
    out: list[float] = []
    for v in sorted(values):
        if out and v - out[-1] <= tol:
            continue
        out.append(v)
    return out


def _normalize(comps: list):
    """The merged intervals, sorted and disjoint, and the discrete components
    as (component, sorted members) pairs, less the members within the snap
    tolerance tol of an interval (a component that loses some becomes the
    point set of the rest).  Every other member stays, however close to
    another.  A grid with consecutive members within tol of each other is a
    ValidationError."""
    tol = DEFAULT_SNAP_TOL
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

    # absorb discrete members covered by an interval, testing them one by one
    # only where the component's hull [first, last] meets an interval's reach
    reach = [iv.lo - tol for iv in merged]

    def covered(v: float) -> bool:
        i = bisect.bisect_right(reach, v) - 1
        return i >= 0 and v <= merged[i].hi + tol

    parts: list = []
    for c in discretes:
        members = list(c.iter_members())
        # a grid member is two roundings, each within ulp(w)/2 for w = |start| + |stop| + step,
        # off start + k*step, so members of a step over tol + 4 ulp(w) cannot come within tol
        if isinstance(c, UniformGrid) and c.step - 4 * math.ulp(abs(c.start) + abs(c.stop) + c.step) <= tol:
            for a, b in zip(members, members[1:]):
                if b - a <= tol:
                    raise ValidationError(
                        f"{c.describe()} has members {a!r} and {b!r} within the membership tolerance {tol}"
                    )
        i = bisect.bisect_right(reach, members[-1]) - 1  # the last interval reaching below the hull's top
        if i >= 0 and members[0] <= merged[i].hi + tol:
            kept = [m for m in members if not covered(m)]
            if not kept:
                continue
            if len(kept) < len(members):
                c, members = FinitePoints(kept), kept
        parts.append((c, members))

    return merged, parts


class TimeScale:
    """An immutable, normalized time scale.

    Args:
        components: any iterable of components (order does not matter).

    Raises:
        ValidationError: if a component is invalid or the list is empty.
    """

    __slots__ = (
        "components",
        "inf_value",
        "sup_value",
        "_pts",
        "_inside",
        "_last",
    )

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise ValidationError("a time scale needs at least one component")
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
        intervals, parts = _normalize(comps)
        ordered = [((iv.lo, iv.hi), iv) for iv in intervals]
        ordered += [((ms[0], ms[-1]), c) for c, ms in parts]
        ordered.sort(key=lambda kc: kc[0])

        # the flat index: each distinct member once, and _inside[i] telling whether the gap
        # between _pts[i-1] and _pts[i] (unbounded at i == 0 and i == len(_pts)) is an
        # interval; packed arrays hold a large grid in a quarter of the memory of floats
        ends = [x for iv in intervals for x in (iv.lo, iv.hi) if math.isfinite(x)]
        members = chain(ends, *(ms for _, ms in parts))
        # only components whose hulls overlap can share a member (2.0 in grid(1.5,3,0.5) and
        # points(2,4)), and then two consecutive hulls in the order of their low ends overlap
        hulls = sorted((ms[0], ms[-1]) for _, ms in parts)
        if any(lo <= hi for (_, hi), (lo, _) in zip(hulls, hulls[1:])):
            members = set(members)
        pts = array("d", sorted(members))
        inside = bytearray(len(pts) + 1)
        for iv in intervals:
            inside[bisect.bisect_left(pts, iv.hi) if math.isfinite(iv.hi) else len(pts)] = 1
        for name, value in (
            ("components", tuple(c for _, c in ordered)),
            ("inf_value", -math.inf if inside[0] else pts[0]),
            ("sup_value", math.inf if inside[-1] else pts[-1]),
            ("_pts", pts),
            ("_inside", bytes(inside)),
            ("_last", [(math.nan, 0)]),  # the last lookup; NaN matches no query
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TimeScale is immutable")

    def __delattr__(self, name):
        raise AttributeError("TimeScale is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not by setting slots
        return (TimeScale, (self.components,))

    def __eq__(self, other):  # the set itself, however it was described
        return isinstance(other, TimeScale) and (self._pts, self._inside) == (other._pts, other._inside)

    def __hash__(self):  # over the floats, not their bytes, so -0.0 hashes as 0.0
        return hash((tuple(self._pts), self._inside))

    def __repr__(self):
        return f"TimeScale({self.describe()})"

    # -- membership -------------------------------------------------------

    def snap(self, t: float):
        """The exact member nearest to t if one lies within the snap
        tolerance, else None.  Ties go to the lower member.  A t that a
        component would refuse (a ``str``, a bool, an int past the float
        range) is no member."""
        if type(t) is not float:  # a float, the common case, needs no check
            try:
                t = _require_finite_number("t", t)
            except ValidationError:
                return None
        if not math.isfinite(t):
            return None
        pts = self._pts
        last, i = self._last[0]  # _index inlined: an integral's snaps nearly all miss
        if last != t:
            i = bisect.bisect_left(pts, t)
            self._last[0] = (t, i)
        if self._inside[i]:  # t lies in an interval, right end included
            return t
        if i == len(pts) or (i > 0 and t - pts[i - 1] <= pts[i] - t):
            i -= 1
        m = pts[i]
        return m if abs(m - t) <= DEFAULT_SNAP_TOL else None

    def contains(self, t: float) -> bool:
        return self.snap(t) is not None

    def _require_member(self, t: float, name: str = "t") -> float:
        """t snapped onto the scale, else PointNotInScale (see _not_in_scale)."""
        ts = self.snap(t)
        if ts is None:
            raise _not_in_scale(t, name)
        return ts

    def _index(self, t: float) -> int:
        """bisect_left(_pts, t), read from the last lookup when that was of t."""
        last, i = self._last[0]
        if last != t:
            i = bisect.bisect_left(self._pts, t)
            self._last[0] = (t, i)
        return i

    # -- jump operators ---------------------------------------------------
    # Each public query snaps its t itself, one call of snap, and raises
    # PointNotInScale for a non-member; the readers below take the member
    # and read the last lookup in place, as _index does.

    def _sigma_raw(self, ts: float) -> float:
        pts = self._pts
        last, j = self._last[0]
        if last != ts:
            j = bisect.bisect_left(pts, ts)
            self._last[0] = (ts, j)
        if j < len(pts) and pts[j] == ts:  # bisect_right, as entries are distinct
            j += 1
        if self._inside[j] or j == len(pts):
            return ts
        return pts[j]

    def _rho_raw(self, ts: float) -> float:
        last, i = self._last[0]
        if last != ts:
            i = bisect.bisect_left(self._pts, ts)
            self._last[0] = (ts, i)
        if self._inside[i] or i == 0:
            return ts
        return self._pts[i - 1]

    def sigma(self, t: float) -> float:
        """Forward jump: the infimum of scale points after t (t itself at the
        maximum, and at right-dense points).  PointNotInScale unless t is a
        member."""
        if (ts := self.snap(t)) is None:
            raise _not_in_scale(t)
        return self._sigma_raw(ts)

    def rho(self, t: float) -> float:
        """Backward jump, mirror of :meth:`sigma`."""
        if (ts := self.snap(t)) is None:
            raise _not_in_scale(t)
        return self._rho_raw(ts)

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t."""
        if (ts := self.snap(t)) is None:
            raise _not_in_scale(t)
        return self._sigma_raw(ts) - ts

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t)."""
        if (ts := self.snap(t)) is None:
            raise _not_in_scale(t)
        return ts - self._rho_raw(ts)

    # -- classification ---------------------------------------------------

    def classify(self, t: float) -> PointClass:
        """Dense/scattered classification of each side of t.

        A gap at or below the snap tolerance counts as dense, so the
        convention sigma(max) = max makes the maximum right-dense and the
        minimum left-dense.  PointNotInScale unless t is a member.
        """
        if (ts := self.snap(t)) is None:
            raise _not_in_scale(t)
        right = (self._sigma_raw(ts) - ts) <= DEFAULT_SNAP_TOL
        left = (ts - self._rho_raw(ts)) <= DEFAULT_SNAP_TOL
        return _POINT_CLASSES[left][right]

    def domain_membership(self, t: float) -> DomainMembership:
        """Domain flags for the derivative operators at the member t (see
        :class:`DomainMembership`); PointNotInScale unless t is a member."""
        if (ts := self.snap(t)) is None:
            raise _not_in_scale(t)
        in_nabla = not (ts == self.inf_value and self._sigma_raw(ts) - ts > DEFAULT_SNAP_TOL)
        in_delta = not (ts == self.sup_value and ts - self._rho_raw(ts) > DEFAULT_SNAP_TOL)
        return _MEMBERSHIPS[in_nabla][in_delta]

    # -- limit scaffolding ------------------------------------------------

    def _interval_steps(self, ts: float, side: ApproachSide, limit: int):
        """Up to limit steps h*_STEP_RATIO**k into the interval holding the
        member ts, h = min(_FIRST_STEP, room) with room the distance to its
        end on the side (to the nearer end for BOTH); None if room is
        within the snap tolerance.  Each factor _STEP_RATIO**k is read from
        the table _STEP_FACTORS.  They stop where ts +/- step reaches ts or
        repeats, and with BOTH also where ts - step reaches ts.  BOTH returns
        the steps, a side the points ts +/- step themselves."""
        pts, inside = self._pts, self._inside
        i = self._index(ts)
        if not inside[i]:
            # a member outside the open gaps is an entry of the index, and an
            # interval's left end when the gap after it is inside
            i += 1
            if not inside[i]:
                return None
        lo = pts[i - 1] if i > 0 else -math.inf
        hi = pts[i] if i < len(pts) else math.inf
        if side is ApproachSide.BOTH:
            room = min(ts - lo, hi - ts)
        else:
            room = hi - ts if side is ApproachSide.RIGHT else ts - lo
        if room <= DEFAULT_SNAP_TOL:
            return None
        h = min(_FIRST_STEP, room)
        out: list[float] = []
        prev = ts
        if side is ApproachSide.BOTH:
            for r in _STEP_FACTORS[:limit]:
                s = ts + (step := h * r)
                if s == ts or s == prev or ts - step == ts:
                    break
                out.append(step)
                prev = s
            return out
        d = -h if side is ApproachSide.LEFT else h
        for r in _STEP_FACTORS[:limit]:
            s = ts + d * r  # exactly ts - h*r on the left
            if s == ts or s == prev:
                break
            out.append(s)
            prev = s
        return out

    def _members_near(self, ts: float, side: ApproachSide, limit: int) -> list[float]:
        """The up to limit members nearest ts strictly on one side, farthest
        first: index entries less each interval's far end from ts, which is
        at most every other entry, so a window of 2*limit entries suffices."""
        pts, inside = self._pts, self._inside
        i = self._index(ts)
        if side is ApproachSide.RIGHT:
            if i < len(pts) and pts[i] == ts:  # bisect_right
                i += 1
            nearest = [pts[k] for k in range(i, min(i + 2 * limit, len(pts))) if not inside[k]]
            return nearest[:limit][::-1]
        return [pts[k] for k in range(max(0, i - 2 * limit), i) if not inside[k + 1]][-limit:]

    def approach_sequence(self, t: float, side: ApproachSide, cfg: LimitConfig | None = None) -> list[float]:
        """Up to cfg.max_samples scale points approaching t monotonically
        from one side, farthest first: the points a dense side offers; cfg
        None is the default :class:`LimitConfig`.

        Inside an interval the sequence is geometric, t +/- h*r**k with
        h = min(s, room to the component boundary), s = 1e-2 and r = 1/2 the
        fixed first step and ratio (``order._FIRST_STEP`` and
        ``order._STEP_RATIO``).  The sequence is cut short once the step
        underflows the float spacing at t, so every returned point is
        distinct from t and from its neighbors.
        Where the dense side is carried by discrete points (a geometric-grid
        tail), the up to cfg.max_samples grid members nearest t are
        returned.  A scattered side, and a side dense by convention only
        (left of the minimum, right of the maximum), offers no points: the
        list is empty.

        Raises:
            PointNotInScale: t is not a member of the scale.
            ValueError: side is not LEFT or RIGHT.
        """
        if side not in (ApproachSide.LEFT, ApproachSide.RIGHT):
            raise ValueError("side must be LEFT or RIGHT")
        cfg = cfg or _DEFAULT_LIMITS
        ts = self._require_member(t)
        cls = self.classify(ts)
        if not (cls.right_dense if side is ApproachSide.RIGHT else cls.left_dense):
            return []

        pts = self._interval_steps(ts, side, cfg.max_samples)
        return pts if pts is not None else self._members_near(ts, side, cfg.max_samples)

    def symmetric_pairs(self, t: float, cfg: LimitConfig | None = None) -> list[float]:
        """Up to cfg.max_samples values h > 0 with both t+h and t-h in the
        scale, decreasing; cfg None is the default :class:`LimitConfig`.

        Inside an interval these are the steps h*r**k of
        :meth:`approach_sequence`; in discrete neighborhoods they are the
        realizable pair distances strictly below its first step s (so a
        uniform grid finer than s yields its minimal pair), fewer or none
        where the neighborhood runs out of pairs.

        Raises:
            PointNotInScale: t is not a member of the scale.
        """
        cfg = cfg or _DEFAULT_LIMITS
        ts = self._require_member(t)

        hs = self._interval_steps(ts, ApproachSide.BOTH, cfg.max_samples)
        if hs is not None:
            return hs

        limit = max(8 * cfg.max_samples, 64)
        cand: list[float] = []
        for side, sign in ((ApproachSide.RIGHT, 1.0), (ApproachSide.LEFT, -1.0)):
            for m in self._members_near(ts, side, limit):
                h = sign * (m - ts)  # exactly ts - m on the left
                if DEFAULT_SNAP_TOL < h < _FIRST_STEP and self.snap(ts - sign * h) is not None:
                    cand.append(h)
        hs = []
        for h in sorted(cand, reverse=True):
            if hs and hs[-1] - h <= DEFAULT_SNAP_TOL:
                continue
            hs.append(h)
        return hs[:cfg.max_samples]

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
        """Representative scale points in [a, b], ascending: every discrete
        member within the snap tolerance of [a, b], plus samples of each
        interval at the given points-per-unit density, those within the
        tolerance of each other merged.

        Raises:
            ValueError: a bound or the density is one a component would
                refuse (NaN, a ``str``, a bool, an int past the float range),
                the density is not finite and positive, or over 1e6 points result.
        """
        try:
            a, b = _require_finite_number("bound", a), _require_finite_number("bound", b)
            density = _require_finite_number("density", density)
        except ValidationError as e:
            raise ValueError(f"points_in bounds: {e}") from None
        if not (0 < density < math.inf):
            raise ValueError(f"density must be finite and positive, got {density!r}")
        if b < a:
            a, b = b, a
        pts, inside = self._pts, self._inside
        tol = DEFAULT_SNAP_TOL
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
            if x == y:
                out.append(x)
                continue
            npts = max(2, int(math.ceil(min((y - x) * density, _MAX_POINTS))) + 1)
            if len(out) + npts > _MAX_POINTS:
                raise ValueError(f"[{a}, {b}] at density {density} needs over {_MAX_POINTS} samples")
            out += _coalesce([x + j * (y - x) / (npts - 1) for j in range(npts)], tol)
        return sorted(out)

    # -- text form --------------------------------------------------------

    def describe(self) -> str:
        """Canonical text form, which ``parse_scale`` reads back to an equal scale."""
        parts = [c.describe() for c in self.components]
        if len(parts) == 1:
            return parts[0]
        return "union(" + ",".join(parts) + ")"

