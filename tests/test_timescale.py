"""Structure tests for scale construction and the point operators."""

import itertools
import json
import math
import random
import time

import pytest

from tsfrac import (
    ApproachSide,
    FinitePoints,
    GeometricGrid,
    InsufficientPoints,
    Interval,
    PointNotInScale,
    SideNotDense,
    TimeScale,
    UniformGrid,
    ValidationError,
)


def make_hybrid():
    # [0,1] with an isolated tail {1.5, 2, 2.5, 3}
    return TimeScale([Interval(0.0, 1.0), UniformGrid(1.5, 3.0, 0.5)])


def test_interval_rejects_reversed_bounds():
    with pytest.raises(ValidationError):
        Interval(3.0, 1.0)
    # a zero-length interval is fine: it collapses to a single point
    T = TimeScale([Interval(2.0, 2.0)])
    assert T.contains(2.0)
    assert T.sigma(2.0) == 2.0


def test_uniform_grid_members():
    g = UniformGrid(0.0, 2.0, 0.5)
    assert list(g.iter_members()) == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_uniform_grid_canonicalizes_stop():
    # stop is pulled back to the last reachable member
    g = UniformGrid(0.0, 1.0, 0.3)
    assert g.stop == pytest.approx(0.9)
    assert g.count == 4
    with pytest.raises(ValidationError):
        UniformGrid(0.0, 1.0, -0.5)


def test_finite_points_sorted_and_deduped():
    p = FinitePoints((3.0, 1.0, 2.0, 1.0))
    assert list(p.iter_members()) == [1.0, 2.0, 3.0]


def test_geometric_grid_members():
    g = GeometricGrid(2.0, -1, 3)
    assert list(g.iter_members()) == [0.5, 1.0, 2.0, 4.0, 8.0]
    neg = GeometricGrid(2.0, 0, 2, sign=-1)
    assert list(neg.iter_members()) == [-4.0, -2.0, -1.0]


def test_geometric_grid_with_zero():
    g = GeometricGrid(2.0, 0, 2, include_zero=True)
    assert list(g.iter_members()) == [0.0, 1.0, 2.0, 4.0]
    # deep negative exponents can underflow to 0.0; members must stay distinct
    deep = GeometricGrid(10.0, -400, 0, include_zero=True)
    ms = list(deep.iter_members())
    assert ms == sorted(set(ms))


def test_geometric_grid_rejects_bad_ratio():
    with pytest.raises(ValidationError):
        GeometricGrid(1.0, 0, 3)
    with pytest.raises(ValidationError):
        GeometricGrid(0.5, 0, 3)


def test_scale_needs_a_component():
    with pytest.raises(ValidationError):
        TimeScale([])


def test_overlapping_components_merge():
    T = TimeScale([Interval(0.0, 2.0), Interval(1.0, 3.0)])
    assert len(T.components) == 1
    assert T.contains(2.5)


def test_normalization_does_not_depend_on_component_order():
    # b shares a member with a and with c within the tolerance, but a and c
    # share none: the three fuse into one point set in every order
    a = FinitePoints([0.0, 5.0])
    b = FinitePoints([0.9e-12, 6.0])
    c = FinitePoints([1.8e-12, 7.0])
    scales = {TimeScale(perm) for perm in itertools.permutations([a, b, c])}
    assert len(scales) == 1
    assert scales.pop().describe() == "points(0,1.8e-12,5,6,7)"


def test_adjacent_interval_and_point_merge():
    # a point sitting exactly on an interval edge disappears into it
    T = TimeScale([Interval(0.0, 1.0), FinitePoints((1.0, 2.0))])
    assert T.contains(1.0)
    assert T.sigma(1.0) == 2.0


def test_snap_and_contains():
    T = make_hybrid()
    assert T.snap(0.5) == 0.5
    assert T.snap(1.5 + 1e-13) == 1.5
    assert T.snap(1.2) is None
    assert T.contains(3.0)
    assert not T.contains(3.1)


def test_sigma_rho_on_hybrid():
    T = make_hybrid()
    assert T.sigma(0.5) == 0.5  # interior of interval
    assert T.sigma(1.0) == 1.5  # right edge jumps to grid
    assert T.rho(1.5) == 1.0
    assert T.sigma(3.0) == 3.0  # max is its own successor
    assert T.rho(0.0) == 0.0


def test_graininess():
    T = make_hybrid()
    assert T.mu(1.0) == 0.5
    assert T.nu(2.0) == 0.5
    assert T.mu(0.25) == 0.0
    assert T.nu(0.0) == 0.0


def test_point_ops_reject_outsiders():
    T = make_hybrid()
    with pytest.raises(PointNotInScale):
        T.sigma(1.2)
    with pytest.raises(PointNotInScale):
        T.classify(7.0)


def test_classification():
    T = make_hybrid()
    c = T.classify(0.5)
    assert c.left_dense and c.right_dense
    c = T.classify(1.0)
    assert c.left_dense and not c.right_dense
    c = T.classify(2.0)
    assert not c.left_dense and not c.right_dense
    # extrema are dense on the outward side by the sigma/rho convention
    assert T.classify(0.0).left_dense
    assert T.classify(3.0).right_dense


def test_domain_membership():
    T = TimeScale([FinitePoints((0.0, 1.0, 2.0, 3.0))])
    dm = T.domain_membership(0.0)
    assert not dm.in_nabla_domain and dm.in_delta_domain and not dm.in_symmetric_domain
    dm = T.domain_membership(3.0)
    assert dm.in_nabla_domain and not dm.in_delta_domain and not dm.in_symmetric_domain
    dm = T.domain_membership(1.0)
    assert dm.in_nabla_domain and dm.in_delta_domain and dm.in_symmetric_domain

    # an interval minimum is left-dense by convention, so nothing is excluded
    I = TimeScale([Interval(0.0, 1.0)])
    dm = I.domain_membership(0.0)
    assert dm.in_nabla_domain and dm.in_delta_domain and dm.in_symmetric_domain


def test_approach_sequence_interval():
    T = TimeScale([Interval(0.0, 4.0)])
    seq = T.approach_sequence(2.0, ApproachSide.LEFT, 5, h0=0.5, ratio=0.5)
    assert seq == [1.5, 1.75, 1.875, 1.9375, 1.96875]
    seq = T.approach_sequence(2.0, ApproachSide.RIGHT, 3, h0=0.5, ratio=0.5)
    assert seq == [2.5, 2.25, 2.125]


def test_approach_sequence_respects_room():
    T = TimeScale([Interval(0.0, 4.0)])
    seq = T.approach_sequence(0.25, ApproachSide.LEFT, 4, h0=10.0, ratio=0.5)
    # h0 is clipped to the room available inside the component
    assert seq[0] >= 0.0
    assert all(0.0 <= s < 0.25 for s in seq)


def test_approach_sequence_truncates_at_float_resolution():
    T = TimeScale([Interval(0.0, 4.0)])
    seq = T.approach_sequence(2.0, ApproachSide.LEFT, 200, h0=1e-2, ratio=0.5)
    assert len(seq) < 200
    assert len(seq) == len(set(seq))
    assert all(s != 2.0 for s in seq)


def test_approach_sequence_scattered_side():
    T = make_hybrid()
    with pytest.raises(SideNotDense):
        T.approach_sequence(2.0, ApproachSide.LEFT, 3)
    # left of 1.0 is dense, right is scattered
    with pytest.raises(SideNotDense):
        T.approach_sequence(1.0, ApproachSide.RIGHT, 3)
    assert len(T.approach_sequence(1.0, ApproachSide.LEFT, 6)) == 6


def test_approach_sequence_convention_only_side():
    # the minimum of an interval is left-dense by convention, but there are
    # no scale points below it to sample
    T = TimeScale([Interval(0.0, 1.0)])
    with pytest.raises(InsufficientPoints):
        T.approach_sequence(0.0, ApproachSide.LEFT, 3)


def test_insufficient_points_reports_available_count():
    # 2**k for k in -45..3 accumulates at 0: 49 members on the right
    T = TimeScale([GeometricGrid(2.0, -45, 3, include_zero=True)])
    with pytest.raises(InsufficientPoints) as info:
        T.approach_sequence(0.0, ApproachSide.RIGHT, 100)
    assert info.value.available == 49
    assert len(T.approach_sequence(0.0, ApproachSide.RIGHT, 49)) == 49


def test_approach_sequence_geometric_tail():
    # 2**k for k in -40..3 accumulates at 0 from the right
    T = TimeScale([GeometricGrid(2.0, -40, 3, include_zero=True)])
    seq = T.approach_sequence(0.0, ApproachSide.RIGHT, 5)
    assert seq[0] > seq[1] > seq[2] > seq[3] > seq[4] > 0.0
    assert seq[-1] == 2.0**-40


def test_symmetric_pairs_interval():
    T = TimeScale([Interval(0.0, 2.0)])
    hs = T.symmetric_pairs(1.0, 4, h0=0.4, ratio=0.5)
    assert hs == [0.4, 0.2, 0.1, 0.05]


def test_symmetric_pairs_grid():
    T = TimeScale([UniformGrid(0.0, 6.0, 1.0)])
    hs = T.symmetric_pairs(3.0, 5, h0=2.5)
    assert hs == [2.0, 1.0]


def test_points_in_hybrid():
    T = make_hybrid()
    pts = T.points_in(0.0, 3.0, density=4.0)
    assert 1.5 in pts and 2.0 in pts and 3.0 in pts
    assert pts == sorted(pts)
    inside = [p for p in pts if 0.0 <= p <= 1.0]
    assert len(inside) >= 4


@pytest.mark.parametrize("density", [math.inf, math.nan, 0.0, -1.0])
def test_points_in_rejects_bad_density(density):
    # a discrete-only range must reject it too, not only an interval stretch
    for T in (make_hybrid(), TimeScale([UniformGrid(0.0, 3.0, 1.0)])):
        with pytest.raises(ValueError, match="density"):
            T.points_in(0.0, 3.0, density=density)


def test_json_round_trip():
    T = make_hybrid()
    blob = json.dumps(T.to_json())
    back = TimeScale.from_json(json.loads(blob))
    assert back.describe() == T.describe()
    rng = random.Random(4)
    for _ in range(50):
        x = rng.uniform(-0.5, 3.5)
        assert back.contains(x) == T.contains(x)


@pytest.mark.parametrize(
    "components, snap_tol",
    [
        (
            [
                Interval(-math.inf, -100.0),
                GeometricGrid(2.0, 0, 3, sign=-1),
                GeometricGrid(2.0, -3, 2, include_zero=True),
                FinitePoints([10.0, 10.5, 11.0]),
                UniformGrid(20.0, 30.0, 2.0),
                Interval(100.0, math.inf),
            ],
            1e-9,
        ),
        ([Interval(-math.inf, math.inf)], 1e-6),
        ([GeometricGrid(1.5, -2, 4, include_zero=True, sign=-1), Interval(0.5, 2.5)], 1e-12),
    ],
    ids=["every-kind", "real-line", "mirrored-qgrid-with-zero"],
)
def test_json_round_trip_of_every_component_kind(components, snap_tol):
    T = TimeScale(components, snap_tol=snap_tol)
    assert {type(c) for c in T.components} == {type(c) for c in components}
    d = T.to_json_dict()
    assert ("snap_tol" in d) == (snap_tol != 1e-12)
    back = TimeScale.from_json(T.to_json())
    assert back == T
    assert back.snap_tol == snap_tol
    assert back.describe() == T.describe()
    assert back.to_json() == T.to_json()
    bounds = [(c["lo"], c["hi"]) for c in json.loads(T.to_json())["components"] if c["kind"] == "interval"]
    assert all(isinstance(x, float) or x in ("inf", "-inf") for pair in bounds for x in pair)


QGRID_JSON = {"kind": "qgrid", "q": 2.0, "kmin": -3, "kmax": 3, "zero": True, "sign": 1}


@pytest.mark.parametrize(
    "d",
    [
        {"components": [dict(QGRID_JSON, kmin=1.7)]},
        {"components": [dict(QGRID_JSON, zero="false")]},
        {"components": [dict(QGRID_JSON, kmin="x")]},
        {"components": [QGRID_JSON], "snap_tol": "abc"},
        {"components": [{"kind": "points", "points": None}]},
        {"components": [dict(QGRID_JSON, q="2")]},
        {"components": [QGRID_JSON], "snap_tol": "1e-10"},
        {"components": [{"kind": "points", "points": [0, "1"]}]},
        {"components": [{"kind": "points", "points": [0, True]}]},
        {"components": [{"kind": "interval", "lo": False, "hi": 1}]},
    ],
    ids=[
        "kmin-float",
        "zero-string",
        "kmin-string",
        "snap_tol-string",
        "points-null",
        "q-numeric-string",
        "snap_tol-numeric-string",
        "point-numeric-string",
        "point-bool",
        "interval-bool",
    ],
)
def test_json_rejects_ill_typed_fields(d):
    # each used to be truncated, coerced, or to raise a bare ValueError/TypeError
    TimeScale.from_json_dict({"components": [QGRID_JSON]})
    with pytest.raises(ValidationError):
        TimeScale.from_json_dict(d)


def test_uniform_grid_member_bound():
    assert UniformGrid(0.0, 999_999.0, 1.0).count == 1_000_000
    with pytest.raises(ValidationError, match="members"):
        UniformGrid(0.0, 1_000_000.0, 1.0)
    with pytest.raises(ValidationError, match="members"):
        UniformGrid(-1e308, 1e308, 1e-9)


def test_scale_member_bound_is_summed_over_components(monkeypatch):
    from tsfrac import timescale

    monkeypatch.setattr(timescale, "_MAX_POINTS", 10)
    base = [UniformGrid(0.0, 4.0, 1.0), FinitePoints([10, 11, 12, 13]), Interval(-3.0, -2.0)]
    T = TimeScale(base + [Interval(-1.0, -1.0)])  # 5 + 4 + 0 + 1 members
    assert len(T.points_in(-1.0, 13.0)) == 10
    monkeypatch.setattr(timescale, "_normalize", None)  # the count comes first
    for extra in (
        [GeometricGrid(2.0, 4, 5)],
        [FinitePoints([20, 21])],
        [Interval(-1.0, -1.0), Interval(-5.0, -5.0)],
    ):
        with pytest.raises(ValidationError, match="11 members, more than 10"):
            TimeScale(base + extra)


def test_union_of_large_grids_fails_fast():
    from tsfrac import parse_scale

    start = time.perf_counter()
    with pytest.raises(ValidationError, match="2000000 members"):
        parse_scale("union(grid(0,999999,1),grid(1000000.5,1999999.5,1))")
    assert time.perf_counter() - start < 1.0


def test_huge_grid_fails_fast():
    from tsfrac import parse_scale

    start = time.perf_counter()
    with pytest.raises(ValidationError):
        parse_scale("grid(0,1e12,1)")
    assert time.perf_counter() - start < 1.0


def test_points_in_sample_bound():
    T = TimeScale([Interval(0.0, 1e9)])
    with pytest.raises(ValueError, match="1000000 samples"):
        T.points_in(0.0, 1e9)
    # 1,000,001 samples of [0, 1]: one past the bound, refused before building
    with pytest.raises(ValueError, match="1000000 samples"):
        T.points_in(0.0, 1.0, density=1e6)


def test_describe_round_trips_through_parser():
    from tsfrac import parse_scale

    T = make_hybrid()
    again = parse_scale(T.describe())
    assert again.describe() == T.describe()


def test_random_discrete_scales_sigma_rho_inverse():
    """rho(sigma(t)) = t for interior points of any discrete scale."""
    rng = random.Random(11)
    for _ in range(30):
        vals = sorted({round(rng.uniform(-10, 10), 4) for _ in range(rng.randint(4, 12))})
        if len(vals) < 4:
            continue
        T = TimeScale([FinitePoints(tuple(vals))])
        for t in vals[1:-1]:
            assert T.rho(T.sigma(t)) == pytest.approx(t)
            assert T.sigma(T.rho(t)) == pytest.approx(t)
            assert T.mu(t) > 0 and T.nu(t) > 0


def test_unbounded_interval_api():
    T = TimeScale([Interval(0.0, math.inf)])
    assert T.contains(1e9)
    assert T.sigma(5.0) == 5.0
    assert not math.isfinite(T.sup_value)
