"""Differential test of the scale queries against a brute-force oracle.

The oracle reads only ``T.components``: it materializes every discrete
member and every interval, and answers each query by a linear scan of
them, straight from the definitions (sigma(t) = inf {s in T : s > t},
nearest member with ties to the lower one, enumeration that sees only the
near endpoint of an interval).  The scales are seeded random unions of
intervals (some touching or overlapping, some unbounded), point sets
(mirrored geometric grids among them), uniform grids and geometric grids,
with and without 0.  The queries run grouped by point, shuffled, and from
four threads at once.
Each union is also rebuilt from its text form, with and without whitespace
between the tokens, and must give the same index.  Two seeded properties
check that the index is the set of members: merging the discrete components
into one point set, or adding a point outside [rho(t), sigma(t)], changes
neither the index nor what the scale answers at t.
"""

import math
import random
import re
import sys
import threading

import pytest

from tsfrac import (
    DEFAULT_SNAP_TOL,
    ApproachSide,
    DomainMembership,
    ExprSyntaxError,
    FinitePoints,
    GeometricGrid,
    Interval,
    LimitConfig,
    PointClass,
    TimeScale,
    TsfracError,
    UniformGrid,
    parse_scale,
)

LEFT, RIGHT = ApproachSide.LEFT, ApproachSide.RIGHT
#: the documented approach steps at a dense point: 1e-2, then each half the last
FIRST_STEP, RATIO = 1e-2, 0.5


class Oracle:
    def __init__(self, T: TimeScale):
        self.tol = DEFAULT_SNAP_TOL
        self.intervals = [(c.lo, c.hi) for c in T.components if isinstance(c, Interval)]
        # each distinct member once, however many components hold it
        self.discrete = sorted({m for c in T.components if not isinstance(c, Interval) for m in c.iter_members()})
        ends = [x for iv in self.intervals for x in iv if math.isfinite(x)]
        self.points = sorted(self.discrete + ends)
        lows = [lo for lo, _ in self.intervals] + self.discrete
        highs = [hi for _, hi in self.intervals] + self.discrete
        self.inf, self.sup = min(lows), max(highs)
        self.discrete_pairs = 0  # non-empty symmetric_pairs answers from discrete neighborhoods

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
        ts = self.member(t)
        inf_scattered = math.isfinite(self.inf) and self.sigma_raw(self.inf) - self.inf > self.tol
        sup_scattered = math.isfinite(self.sup) and self.sup - self.rho_raw(self.sup) > self.tol
        return not (inf_scattered and ts == self.inf), not (sup_scattered and ts == self.sup)

    def interval_at(self, ts):
        return next(((lo, hi) for lo, hi in self.intervals if lo <= ts <= hi), None)

    def enumerate(self, ts, side, limit):
        if side is RIGHT:
            above = [m for m in self.discrete if m > ts] + [lo for lo, _ in self.intervals if lo > ts]
            return sorted(above)[:limit]
        below = [m for m in self.discrete if m < ts] + [hi for _, hi in self.intervals if hi < ts]
        return sorted(below)[-limit:] if limit else []

    def approach_sequence(self, t, side, cfg):
        n = cfg.max_samples
        ts = self.member(t)
        left, right = self.classify(ts)
        if not (right if side is RIGHT else left):
            return []
        iv = self.interval_at(ts)
        if iv is not None:
            room = iv[1] - ts if side is RIGHT else ts - iv[0]
            if room > self.tol:
                h = min(FIRST_STEP, room)
                sign = 1.0 if side is RIGHT else -1.0
                out = []
                for k in range(n):
                    s = ts + sign * h * RATIO**k
                    if s == ts or (out and s == out[-1]):
                        break
                    out.append(s)
                return out
        members = self.enumerate(ts, side, n)
        return members[::-1] if side is RIGHT else members

    def symmetric_pairs(self, t, cfg):
        n = cfg.max_samples
        ts = self.member(t)
        iv = self.interval_at(ts)
        if iv is not None:
            room = min(ts - iv[0], iv[1] - ts)
            if room > self.tol:
                h = min(FIRST_STEP, room)
                hs = []
                for k in range(n):
                    step = h * RATIO**k
                    if ts + step == ts or ts - step == ts or (hs and ts + step == ts + hs[-1]):
                        break
                    hs.append(step)
                return hs
        limit = max(8 * n, 64)
        cand = [m - ts for m in self.enumerate(ts, RIGHT, limit)]
        cand = [h for h in cand if self.tol < h < FIRST_STEP and self.snap(ts - h) is not None]
        mirrored = [ts - m for m in self.enumerate(ts, LEFT, limit)]
        cand += [h for h in mirrored if self.tol < h < FIRST_STEP and self.snap(ts + h) is not None]
        hs = []
        for h in sorted(cand, reverse=True):
            if not (hs and hs[-1] - h <= self.tol):
                hs.append(h)
        self.discrete_pairs += bool(hs)
        return hs[:n]

    def points_in(self, a, b, density):
        a, b = min(a, b), max(a, b)
        out = [m for m in self.discrete if a - self.tol <= m <= b + self.tol]
        for lo, hi in self.intervals:
            x, y = max(lo, a), min(hi, b)
            if x == y:
                out.append(x)
            elif x < y:
                npts = max(2, int(math.ceil((y - x) * density)) + 1)
                kept = []  # an interval's samples within the tolerance of each other merge
                for v in (x + j * (y - x) / (npts - 1) for j in range(npts)):
                    if not (kept and v - kept[-1] <= self.tol):
                        kept.append(v)
                out += kept
        return sorted(out)


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
        return FinitePoints([-(2.0**k) for k in range(rng.randint(-4, 0), rng.randint(1, 3) + 1)])
    if rng.random() < 0.5:
        return Interval(-math.inf, base - 20)
    return Interval(base + 20, math.inf)


def _random_components(rng: random.Random) -> list:
    return [_random_component(rng) for _ in range(rng.randint(1, 6))]


def _random_scale(rng: random.Random) -> tuple[TimeScale, UniformGrid]:
    """Random components and a grid of 3 to 9 members 2**-7 apart, clear of
    their intervals; its members pair below the first approach step, so they
    reach the discrete branch of symmetric_pairs.  Returns the scale and
    that grid."""
    comps = _random_components(rng)
    spans = [(c.lo, c.hi) for c in comps if isinstance(c, Interval)]
    bases = [k + f for k in range(-12, 13) for f in (0.25, 0.75)]
    base = rng.choice([x for x in bases if not any(lo < x + 0.1 and x - 0.1 < hi for lo, hi in spans)])
    fine = UniformGrid(base, base + 2.0**-7 * rng.randint(2, 8), 2.0**-7)
    return TimeScale(comps + [fine]), fine


#: geometric grids whose tails lie within the snap tolerance: one with 0 adjoined, one mirrored as points
_DEEP_GRIDS = (GeometricGrid(2.0, -60, 0, include_zero=True), FinitePoints([-(2.0**k) for k in range(-60, 1)]))


def _random_components_with_deep_grids(rng: random.Random) -> list:
    return _random_components(rng) + [g for g in _DEEP_GRIDS if rng.random() < 0.5]


def _queries(O: Oracle, rng: random.Random):
    tol = O.tol
    pts = O.points
    qs = list(pts)
    qs += [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
    qs += [p + d for p in rng.sample(pts, min(len(pts), 12)) for d in (-0.4 * tol, 0.4 * tol, -3 * tol, 3 * tol)]
    qs += [lo + 0.3 * (hi - lo) for lo, hi in O.intervals if math.isfinite(lo) and math.isfinite(hi)]
    qs += [rng.uniform(-40.0, 40.0) for _ in range(10)]
    return qs


#: the configs a query is asked with: the fewest samples and the default cap
_CFGS = [LimitConfig(max_samples=n) for n in (3, 40)]


def _asks(O: Oracle, t):
    """(method, args) of every query at t; the oracle's methods take the
    same positional arguments as the scale's."""
    asks = [(name, (t,)) for name in ("snap", "sigma", "rho", "mu", "nu", "classify", "domain_membership")]
    if O.snap(t) is not None:
        asks += [("approach_sequence", (t, s, cfg)) for s in (LEFT, RIGHT) for cfg in _CFGS]
        asks += [("symmetric_pairs", (t, cfg)) for cfg in _CFGS]
    return asks


def _answer(T: TimeScale, name, args):
    """The scale's answer to one query, in the oracle's terms."""
    got = _outcome(lambda: getattr(T, name)(*args))
    if isinstance(got, PointClass):
        return got.left_dense, got.right_dense
    if isinstance(got, DomainMembership):
        return got.in_nabla_domain, got.in_delta_domain
    return got


def _check(T: TimeScale, O: Oracle, asks):
    for name, args in asks:
        assert _answer(T, name, args) == _oracle_outcome(lambda: getattr(O, name)(*args)), (name, args)


@pytest.mark.parametrize("seed", range(40))
def test_queries_match_brute_force_oracle(seed):
    rng = random.Random(seed)
    T, _ = _random_scale(rng)
    O = Oracle(T)
    assert (T.inf_value, T.sup_value) == (O.inf, O.sup)
    for t in _queries(O, rng):
        _check(T, O, _asks(O, t))
    # the fine grid's members were compared on symmetric_pairs' discrete branch
    assert O.discrete_pairs > 0
    for _ in range(5):
        a, b = rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)
        assert T.points_in(a, b, density=3.0) == O.points_in(a, b, 3.0), (a, b)


@pytest.mark.parametrize("seed", range(40))
def test_shuffled_queries_match_brute_force_oracle(seed):
    # a scale remembers only its last lookup: here consecutive queries name
    # different points, so nearly every query finds another t remembered
    rng = random.Random(seed)
    T, fine = _random_scale(rng)
    O = Oracle(T)
    asks = [ask for t in _queries(O, rng) for ask in _asks(O, t)]
    rng.shuffle(asks)
    _check(T, O, asks)
    tol = O.tol
    inner = [p for p in O.points if fine.start < p < fine.stop]
    paired = O.discrete_pairs
    for m in rng.sample(O.points, min(len(O.points), 6)) + [rng.choice(inner)]:
        # a point just off a member, then the member; and a lookup at m with
        # symmetric_pairs at m between, whose snaps of m +/- h replace it
        for name in ("sigma", "rho", "classify"):
            _check(T, O, [ask for d in (-0.4, 0.4) for ask in ((name, (m + d * tol,)), (name, (m,)))])
        _check(T, O, [("classify", (m,)), ("symmetric_pairs", (m, LimitConfig())), ("mu", (m,)), ("nu", (m,))])
    # at least the fine grid's inner member paired, so its snaps replaced the lookup
    assert O.discrete_pairs > paired
    # -0.0 and 0.0 compare equal and bisect to one index
    _check(T, O, [(name, (z,)) for name in ("snap", "sigma", "rho", "classify") for z in (-0.0, 0.0)])


def test_threads_sharing_a_scale_get_the_serial_answers():
    # four threads ask one scale the same queries three times over, point by
    # point as an operator asks them, meeting at a barrier before each point;
    # with a short switch interval one thread can run while another is
    # between reading and replacing the scale's last lookup of the same t
    rng = random.Random(11)
    T = TimeScale([UniformGrid(0.0, 20.0, 0.5), Interval(30.0, 40.0), GeometricGrid(2.0, -45, 2, include_zero=True)])
    O = Oracle(T)
    groups = [_asks(O, t) for t in _queries(O, rng)]
    serial = [[_answer(T, name, args) for name, args in asks] for asks in groups]
    barrier = threading.Barrier(4, timeout=60)
    answers = [[] for _ in range(4)]

    def work(k):
        for asks in groups * 3:
            barrier.wait()
            answers[k].append([_answer(T, name, args) for name, args in asks])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert answers == [serial * 3] * 4


#: the tokens of a scale text: numbers (signs apart), names and punctuation
_SCALE_TOKEN = re.compile(r"[0-9.]+(?:e[-+]?[0-9]+)?|[a-z]+|[-+(),]")


@pytest.mark.parametrize("seed", range(40))
def test_scale_text_rebuilds_the_same_index(seed):
    # a random union's describe() text, and that text with random runs of the four
    # whitespace characters around its tokens, parse to an equal scale with the same
    # index; the text writes an unbounded interval's end as inf, and keeps every
    # point of a mirrored geometric grid where its tail lies within the tolerance
    # (seeds 1 and 3 mod 4 add the deep grid with 0 adjoined, 2 and 3 mod 4 the
    # mirrored one)
    rng = random.Random(seed)
    comps = _random_components(rng) + [g for k, g in enumerate(_DEEP_GRIDS) if seed >> k & 1]
    T = TimeScale(comps)
    text = T.describe()
    tokens = _SCALE_TOKEN.findall(text)
    assert "".join(tokens) == text

    def blanks():
        return "".join(rng.choice(" \t\r\n") for _ in range(rng.randint(0, 3)))

    spaced = blanks() + "".join(tok + blanks() for tok in tokens)
    for src in (text, spaced):
        U = parse_scale(src)
        assert bytes(U._pts) == bytes(T._pts) and U._inside == T._inside, src
        assert U == T and hash(U) == hash(T) and U.describe() == text, src
        assert (U.inf_value, U.sup_value) == (T.inf_value, T.sup_value), src


@pytest.mark.parametrize("seed", range(40))
def test_merging_the_discrete_components_keeps_the_scale(seed):
    # a scale is the set of its members: one point set holding every discrete
    # member gives the same index, an equal scale and the same hash
    rng = random.Random(seed)
    comps = _random_components_with_deep_grids(rng)
    T = TimeScale(comps)
    intervals = [c for c in comps if isinstance(c, Interval)]
    members = [m for c in comps if not isinstance(c, Interval) for m in c.iter_members()]
    M = TimeScale(intervals + ([FinitePoints(members)] if members else []))
    assert bytes(M._pts) == bytes(T._pts) and M._inside == T._inside
    assert M == T and hash(M) == hash(T)


@pytest.mark.parametrize("seed", range(40))
def test_a_point_outside_the_jumps_of_t_leaves_t_alone(seed):
    # at a t that is neither end of the scale, adding a point p outside
    # [rho(t), sigma(t)] changes neither sigma(t), rho(t) nor the class of t,
    # however close p lies to a member
    rng = random.Random(seed)
    comps = _random_components_with_deep_grids(rng)
    T = TimeScale(comps)
    pts = list(T._pts)
    for t in rng.sample(pts, min(len(pts), 4)):
        if not T.inf_value < t < T.sup_value:
            continue
        before = (T.rho(t), T.sigma(t), T.classify(t))
        near = [m + d * DEFAULT_SNAP_TOL for m in rng.sample(pts, min(len(pts), 3)) for d in (-0.6, -0.3, 0.3, 0.6)]
        for p in near + [rng.uniform(-40.0, 40.0) for _ in range(2)]:
            if not before[0] <= p <= before[1]:
                U = TimeScale(comps + [FinitePoints([p])])
                assert (U.rho(t), U.sigma(t), U.classify(t)) == before, (t, p)


@pytest.mark.parametrize(
    "text, column",
    [
        ("points(1,\f2)", 10),
        ("grid(0,\v3,1)", 8),
        ("interval(0,\xa01)", 12),
        ("union(points(1),points(\u0661))", 24),
    ],
    ids=["form-feed", "vertical-tab", "no-break-space", "arabic-indic-digit"],
)
def test_characters_the_scanner_does_not_read_fail_at_their_column(text, column):
    # only space, tab, CR and LF separate tokens, and digits are ASCII
    with pytest.raises(ExprSyntaxError, match="unexpected character") as e:
        parse_scale(text)
    assert e.value.position == column
