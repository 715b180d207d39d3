"""The classical integrals against a walk summed one jump at a time.

The integrals walk a scale run by run: each maximal run of consecutive jumps
is summed in one loop.  The oracle here walks the same scale one step at a
time through public queries only (sigma for the next jump, the interval
components for a dense stretch), adding each jump term into the total from
the left exactly as the integral is defined, and integrating each interval
stretch with the same quadrature.  The two must agree bit for bit, so every
comparison is by ``float.hex``.
"""

import bisect
import math
import random

import pytest

from tsfrac import (
    Antiderivative,
    DerivKind,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    TimeScale,
    UniformGrid,
    delta_integral,
    nabla_integral,
)
from tsfrac.integral import _quad

SEEDS = range(48)
INTEGRALS = {DerivKind.NABLA: nabla_integral, DerivKind.DELTA: delta_integral}


def oracle(f: FnOnScale, a: float, b: float, kind: DerivKind) -> float:
    """The classical integral from a to b, one piece at a time."""
    if a > b:
        return -oracle(f, b, a, kind)
    T = f.scale
    intervals = [c for c in T.components if isinstance(c, Interval)]
    total, t = 0.0, a
    while t < b:
        s = T.sigma(t)
        if s > t:
            total += (f.eval(s) if kind is DerivKind.NABLA else f.eval(t)) * (s - t)
        else:
            s = min(next(iv.hi for iv in intervals if iv.lo <= t < iv.hi), b)
            total += _quad(f.eval, t, s)
        t = s
    return total


def oracle_chain(f: FnOnScale, anchor: float, queries, kind: DerivKind) -> list:
    """Antiderivative values at the queries in order, each walked from the
    nearest point already known, the lower one on a tie (``min`` keeps the
    first), as Antiderivative.eval does."""
    known, keys, out = {anchor: 0.0}, [anchor], []
    for t in queries:
        if t not in known:
            i = bisect.bisect_left(keys, t)
            start = min(keys[max(0, i - 1) : i + 1], key=lambda k: abs(k - t))
            known[t] = known[start] + oracle(f, start, t, kind)
            bisect.insort(keys, t)
        out.append(known[t])
    return out


def random_components(rng: random.Random) -> list:
    """The pieces of a hybrid scale: grids, point sets, a geometric grid with
    zero and bounded or unbounded intervals, laid left to right, each piece
    touching the last or separated from it by a gap."""
    comps = []
    x = 0.0
    if rng.random() < 0.4:
        k_min = rng.choice((-45, -6, -3))
        comps.append(GeometricGrid(2.0, k_min, rng.randint(0, 2), include_zero=True))
        x = max(comps[-1].iter_members())
    if rng.random() < 0.25:
        comps.append(Interval(-math.inf, rng.choice((0.0, -rng.uniform(0.5, 2.0)))))
    for _ in range(rng.randint(2, 6)):
        x += rng.choice((0.0, 0.0, rng.uniform(0.2, 2.0)))
        piece = rng.choice(("interval", "grid", "grid", "points"))
        if piece == "interval":
            length = rng.uniform(0.3, 3.0)
            comps.append(Interval(x, x + length))
            x += length
        elif piece == "grid":
            step = rng.choice((1.0, 0.5, 0.25, rng.uniform(0.05, 1.0)))
            n = rng.randint(1, 30)
            comps.append(UniformGrid(x, x + n * step, step))
            x += n * step
        else:
            values = sorted(x + rng.uniform(0.0, 3.0) for _ in range(rng.randint(1, 8)))
            comps.append(FinitePoints([x, *values]))
            x = values[-1]
    if rng.random() < 0.25:
        comps.append(Interval(x + rng.choice((0.0, rng.uniform(0.2, 1.0))), math.inf))
    return comps


def endpoints(T: TimeScale, rng: random.Random) -> list:
    """Members to integrate between: every discrete member and interval end,
    interval samples, the finite extrema and points of unbounded ends."""
    finite = [
        v
        for c in T.components
        for v in ((c.lo, c.hi) if isinstance(c, Interval) else c.iter_members())
        if math.isfinite(v)
    ]
    lo, hi = min(finite) - 2.5, max(finite) + 2.5
    members = T.points_in(lo, hi, density=rng.uniform(0.5, 2.0))
    return sorted({T.snap(t) for t in members} - {None})


def cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        comps = random_components(rng)
        T = TimeScale(comps)
        pts = endpoints(T, rng)
        pairs = [(pts[0], pts[-1])] + [tuple(rng.sample(pts, 2)) for _ in range(6)]
        yield seed, comps, T, pts, pairs, rng


def fn(T: TimeScale, calls: list) -> FnOnScale:
    """A smooth function on T that logs every point it is evaluated at."""

    def f(x):
        calls.append(x.hex())
        return math.sin(x) + 0.25 * x

    return FnOnScale(f, T)


@pytest.mark.parametrize("kind", list(INTEGRALS))
def test_integrals_match_the_per_jump_walk(kind):
    compared = 0
    for seed, _, T, _, pairs, _ in cases():
        calls = []
        f = fn(T, calls)
        for a, b in pairs:
            for lo, hi in ((a, b), (b, a)):
                got = INTEGRALS[kind](f, lo, hi)
                got_calls = calls[:]
                calls.clear()
                want = oracle(f, lo, hi, kind)
                assert got.hex() == want.hex(), (seed, T.describe(), lo, hi)
                # f is evaluated at the same points, in the same order
                assert got_calls == calls, (seed, T.describe(), lo, hi)
                calls.clear()
                compared += 1
    assert compared >= 40 * 7 * 2


@pytest.mark.parametrize("kind", list(INTEGRALS))
def test_antiderivative_chains_match_the_per_jump_walk(kind):
    ties = decided = 0
    for seed, _, T, pts, _, rng in cases():
        f = fn(T, [])
        anchor = rng.choice(pts)
        queries = [rng.choice(pts) for _ in range(10)]
        # then each member exactly midway between two neighbouring known points:
        # a tie of the start rule, which the lower point wins
        known = sorted({anchor, *queries})
        mids = [(lo, m, hi) for lo, hi in zip(known, known[1:])
                if T.snap(m := 0.5 * (lo + hi)) == m and m - lo == hi - m]
        queries += [m for _, m, _ in mids]
        F = Antiderivative(f, anchor, kind)
        got = [F.eval(t).hex() for t in queries]
        want = oracle_chain(f, anchor, queries, kind)
        assert got == [v.hex() for v in want], (seed, T.describe(), anchor, queries)
        value = {anchor: 0.0, **dict(zip(queries, want))}
        for lo, m, hi in mids:  # would a start from the upper point give other bits?
            decided += (value[hi] + oracle(f, hi, m, kind)).hex() != value[m].hex()
        ties += len(mids)
    assert ties >= 80 and decided >= 20, (ties, decided)


def test_scales_cover_the_shapes():
    """The seeds reach every shape the walk distinguishes."""
    seen = set()
    for _, comps, T, _, _, _ in cases():
        seen |= {type(c).__name__ for c in comps}
        if not (math.isfinite(T.inf_value) and math.isfinite(T.sup_value)):
            seen.add("unbounded")
        ends = [(min(c.iter_members()), max(c.iter_members())) if not isinstance(c, Interval)
                else (c.lo, c.hi) for c in comps]
        for (_, prev_hi), (lo, _) in zip(ends, ends[1:]):
            seen.add("touching" if lo == prev_hi else "separated")
    assert {
        "Interval", "UniformGrid", "FinitePoints", "GeometricGrid", "unbounded", "touching",
        "separated",
    } <= seen
