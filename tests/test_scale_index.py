"""Differential test of the scale queries against a brute-force oracle.

The oracle reads only ``T.components``: it materializes every discrete
member and every interval, and answers each query by a linear scan of
them, straight from the definitions (sigma(t) = inf {s in T : s > t},
nearest member with ties to the lower one, enumeration that sees only the
near endpoint of an interval).  The scales are seeded random unions of
intervals (some touching or overlapping, some unbounded), point sets,
uniform grids and geometric grids of both signs, with and without 0.
"""

import math
import random

import pytest

from tsfrac import (
    ApproachSide,
    FinitePoints,
    GeometricGrid,
    Interval,
    TimeScale,
    TsfracError,
    UniformGrid,
)

LEFT, RIGHT = ApproachSide.LEFT, ApproachSide.RIGHT


class Oracle:
    def __init__(self, T: TimeScale):
        self.tol = T.snap_tol
        self.intervals = [(c.lo, c.hi) for c in T.components if isinstance(c, Interval)]
        self.discrete = sorted(
            m for c in T.components if not isinstance(c, Interval) for m in c.iter_members()
        )
        ends = [x for iv in self.intervals for x in iv if math.isfinite(x)]
        self.points = sorted(self.discrete + ends)
        lows = [lo for lo, _ in self.intervals] + self.discrete
        highs = [hi for _, hi in self.intervals] + self.discrete
        self.inf, self.sup = min(lows), max(highs)

    def snap(self, t):
        if not math.isfinite(t):
            return None
        if any(lo <= t <= hi for lo, hi in self.intervals):
            return t
        best = min(self.points, key=lambda m: (abs(m - t), m))
        return best if abs(best - t) <= self.tol else None

    def member(self, t):
        ts = self.snap(t)
        if ts is None:
            raise LookupError(t)
        return ts

    def sigma_raw(self, ts):
        if any(lo <= ts < hi for lo, hi in self.intervals):
            return ts
        return min((p for p in self.points if p > ts), default=ts)

    def rho_raw(self, ts):
        if any(lo < ts <= hi for lo, hi in self.intervals):
            return ts
        return max((p for p in self.points if p < ts), default=ts)

    def sigma(self, t):
        return self.sigma_raw(self.member(t))

    def rho(self, t):
        return self.rho_raw(self.member(t))

    def mu(self, t):
        ts = self.member(t)
        return self.sigma_raw(ts) - ts

    def nu(self, t):
        ts = self.member(t)
        return ts - self.rho_raw(ts)

    def classify(self, t):
        ts = self.member(t)
        left = ts - self.rho_raw(ts) <= self.tol
        right = self.sigma_raw(ts) - ts <= self.tol
        return left, right

    def domain_membership(self, t):
        ts = self.snap(t)
        if ts is None:
            return False, False, False
        inf_scattered = math.isfinite(self.inf) and self.sigma_raw(self.inf) - self.inf > self.tol
        sup_scattered = math.isfinite(self.sup) and self.sup - self.rho_raw(self.sup) > self.tol
        return True, not (inf_scattered and ts == self.inf), not (sup_scattered and ts == self.sup)

    def interval_at(self, ts):
        return next(((lo, hi) for lo, hi in self.intervals if lo <= ts <= hi), None)

    def enumerate(self, ts, side, limit):
        if side is RIGHT:
            above = [m for m in self.discrete if m > ts] + [lo for lo, _ in self.intervals if lo > ts]
            return sorted(above)[:limit]
        below = [m for m in self.discrete if m < ts] + [hi for _, hi in self.intervals if hi < ts]
        return sorted(below)[-limit:] if limit else []

    def approach_sequence(self, t, side, n, h0):
        ts = self.member(t)
        left, right = self.classify(ts)
        if not (right if side is RIGHT else left):
            return "SideNotDense"
        iv = self.interval_at(ts)
        if iv is not None:
            room = iv[1] - ts if side is RIGHT else ts - iv[0]
            if room > self.tol:
                h = min(min(0.1, room) / 2 if h0 is None else h0, room)
                sign = 1.0 if side is RIGHT else -1.0
                out = []
                for k in range(n):
                    s = ts + sign * h * 0.5**k
                    if s == ts or (out and s == out[-1]):
                        break
                    out.append(s)
                return out
        members = self.enumerate(ts, side, n)
        if len(members) < n:
            return "InsufficientPoints"
        return members[::-1] if side is RIGHT else members

    def symmetric_pairs(self, t, n, h0):
        ts = self.member(t)
        iv = self.interval_at(ts)
        if iv is not None:
            room = min(ts - iv[0], iv[1] - ts)
            if room > self.tol:
                h = min(min(0.1, room) / 2 if h0 is None else h0, room)
                hs = []
                for k in range(n):
                    step = h * 0.5**k
                    if ts + step == ts or ts - step == ts or (hs and ts + step == ts + hs[-1]):
                        break
                    hs.append(step)
                return hs
        bound = 1e-2 if h0 is None else h0
        limit = max(8 * n, 64)
        cand = [m - ts for m in self.enumerate(ts, RIGHT, limit)]
        cand = [h for h in cand if self.tol < h < bound and self.snap(ts - h) is not None]
        mirrored = [ts - m for m in self.enumerate(ts, LEFT, limit)]
        cand += [h for h in mirrored if self.tol < h < bound and self.snap(ts + h) is not None]
        hs = []
        for h in sorted(cand, reverse=True):
            if not (hs and hs[-1] - h <= self.tol):
                hs.append(h)
        return hs[:n] if hs else "NoSymmetricNeighborhood"

    def points_in(self, a, b, density):
        a, b = min(a, b), max(a, b)
        out = [m for m in self.discrete if a - self.tol <= m <= b + self.tol]
        for lo, hi in self.intervals:
            x, y = max(lo, a), min(hi, b)
            if x == y:
                out.append(x)
            elif x < y:
                npts = max(2, int(math.ceil((y - x) * density)) + 1)
                out.extend(x + j * (y - x) / (npts - 1) for j in range(npts))
        kept = []
        for v in sorted(out):
            if not (kept and v - kept[-1] <= self.tol):
                kept.append(v)
        return kept


def _outcome(call):
    """A query's value, or the name of the TsfracError it raised."""
    try:
        return call()
    except TsfracError as exc:
        return type(exc).__name__


def _oracle_outcome(call):
    try:
        return call()
    except LookupError:
        return "PointNotInScale"


def _random_component(rng: random.Random):
    kind = rng.choice(("interval", "interval", "points", "grid", "qgrid", "qgrid-neg", "unbounded"))
    base = rng.randint(-12, 12)
    if kind == "interval":
        return Interval(base + rng.choice((0, 0.25, 0.5)), base + rng.choice((0.5, 1, 2, 3.5)))
    if kind == "points":
        return FinitePoints([base + rng.randint(0, 40) / 8 for _ in range(rng.randint(1, 6))])
    if kind == "grid":
        step = rng.choice((0.125, 0.25, 0.5, 1.0))
        return UniformGrid(base, base + step * rng.randint(0, 12), step)
    if kind == "qgrid":
        return GeometricGrid(rng.choice((1.5, 2.0, 3.0)), rng.choice((-45, -6, -2)), rng.randint(0, 2), include_zero=rng.random() < 0.7)
    if kind == "qgrid-neg":
        return GeometricGrid(2.0, rng.randint(-4, 0), rng.randint(1, 3), sign=-1)
    if rng.random() < 0.5:
        return Interval(-math.inf, base - 20)
    return Interval(base + 20, math.inf)


def _random_scale(rng: random.Random) -> TimeScale:
    return TimeScale([_random_component(rng) for _ in range(rng.randint(1, 6))])


def _queries(O: Oracle, rng: random.Random):
    tol = O.tol
    pts = O.points
    qs = list(pts)
    qs += [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
    qs += [p + d for p in rng.sample(pts, min(len(pts), 12)) for d in (-0.4 * tol, 0.4 * tol, -3 * tol, 3 * tol)]
    qs += [lo + 0.3 * (hi - lo) for lo, hi in O.intervals if math.isfinite(lo) and math.isfinite(hi)]
    qs += [rng.uniform(-40.0, 40.0) for _ in range(10)]
    return qs


@pytest.mark.parametrize("seed", range(40))
def test_queries_match_brute_force_oracle(seed):
    rng = random.Random(seed)
    T = _random_scale(rng)
    O = Oracle(T)
    assert (T.inf_value, T.sup_value) == (O.inf, O.sup)
    for t in _queries(O, rng):
        assert T.snap(t) == O.snap(t), t
        for name in ("sigma", "rho", "mu", "nu"):
            assert _outcome(lambda: getattr(T, name)(t)) == _oracle_outcome(lambda: getattr(O, name)(t)), (name, t)
        got = _outcome(lambda: T.classify(t))
        want = _oracle_outcome(lambda: O.classify(t))
        assert (got if isinstance(got, str) else (got.left_dense, got.right_dense)) == want, t
        dm = T.domain_membership(t)
        assert (dm.in_scale, dm.in_nabla_domain, dm.in_delta_domain) == O.domain_membership(t), t
        if O.snap(t) is None:
            continue
        for side in (LEFT, RIGHT):
            for n in (3, 40):
                for h0 in (None, 0.3):
                    got = _outcome(lambda: T.approach_sequence(t, side, n, h0=h0))
                    assert got == O.approach_sequence(t, side, n, h0), (t, side, n, h0)
        for n in (3, 40):
            for h0 in (None, 2.5):
                got = _outcome(lambda: T.symmetric_pairs(t, n, h0=h0))
                assert got == O.symmetric_pairs(t, n, h0), (t, n, h0)
    for _ in range(5):
        a, b = rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)
        assert T.points_in(a, b, density=3.0) == O.points_in(a, b, 3.0), (a, b)
