"""Structure tests for scale construction and the point operators."""

import itertools
import json
import math
import random

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


def test_json_round_trip():
    T = make_hybrid()
    blob = json.dumps(T.to_json())
    back = TimeScale.from_json(json.loads(blob))
    assert back.describe() == T.describe()
    rng = random.Random(4)
    for _ in range(50):
        x = rng.uniform(-0.5, 3.5)
        assert back.contains(x) == T.contains(x)


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
