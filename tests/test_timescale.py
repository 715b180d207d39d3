"""Structure tests for scale construction and the point operators."""

import copy
import itertools
import math
import pickle
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from tsfrac import (
    Antiderivative,
    ApproachSide,
    DerivKind,
    DomainMembership,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    LimitConfig,
    Order,
    PointClass,
    PointNotInScale,
    TimeScale,
    UniformGrid,
    ValidationError,
    checks,
    delta_frac,
    delta_frac_integral,
    delta_integral,
    nabla_frac,
    nabla_frac_integral,
    nabla_integral,
    symmetric_frac,
    symmetric_frac_integral,
    symmetric_weights,
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
    neg = FinitePoints([-(2.0**k) for k in range(0, 3)])
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


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Interval(None, 1.0), "lo must be a real number"),
        (lambda: Interval(math.nan, 1.0), "lo must not be NaN"),
        (lambda: Interval(math.inf, math.inf), "out of order at infinity"),
        (lambda: FinitePoints([]), "at least one point"),
        (lambda: FinitePoints([math.inf]), "points must be finite"),
        (lambda: FinitePoints([1.0, -math.inf, 2.0]), "points must be finite"),
        (lambda: UniformGrid(0.0, math.inf, 1.0), "grid parameters must be finite"),
        (lambda: UniformGrid(0.0, 1.0, 4e-12), "too close to the membership tolerance"),
        (lambda: UniformGrid(1.0, 0.0, 0.5), "start <= stop"),
        (lambda: GeometricGrid(2.0, 3, 1), "k_min <= k_max"),
        (lambda: GeometricGrid(1.5, 0, 100_001), "exponent range is unreasonably large"),
        (lambda: GeometricGrid(2.0, 0, 2000), "largest member overflows"),
        (lambda: TimeScale([object()]), "not a scale component"),
        # float() would overflow on an int past the float range, and accept a
        # numeric string or a bool
        (lambda: FinitePoints([10**400]), "point is past the float range"),
        (lambda: Interval(0, 10**400), "interval hi is past the float range"),
        (lambda: UniformGrid(0, 10**400, 1), "grid stop is past the float range"),
        (lambda: FinitePoints([0, "1"]), "point must be a real number"),
        (lambda: GeometricGrid("2", 0, 3), "qgrid q must be a real number"),
        (lambda: FinitePoints([0, True]), "point must be a real number"),
        (lambda: Interval(False, 1), "interval lo must be a real number"),
        (lambda: FinitePoints(None), "collection of numbers"),
        (lambda: GeometricGrid(2.0, 1.7, 3), "exponent bounds must be integers"),
        (lambda: GeometricGrid(2.0, 0, 3, include_zero="false"), "zero flag must be a bool"),
    ],
    ids=[
        "interval-none", "interval-nan", "interval-inf-inf", "points-empty", "points-inf", "points-minus-inf",
        "grid-inf", "grid-step-near-tol", "grid-reversed", "qgrid-reversed", "qgrid-range",
        "qgrid-overflow", "not-a-component", "points-past-float", "interval-past-float", "grid-past-float",
        "points-numeric-string", "qgrid-numeric-string", "points-bool", "interval-bool", "points-null",
        "qgrid-kmin-float", "qgrid-zero-string",
    ],
)
def test_components_reject_bad_input(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_scale_is_immutable_and_snaps_only_numbers():
    T = make_hybrid()
    with pytest.raises(AttributeError, match="immutable"):
        T.inf_value = 1.0
    assert T.snap("1") is None


def test_scale_refuses_del():
    T = make_hybrid()
    T.sigma(1.5)  # fills the last-lookup slot
    for name in (*TimeScale.__slots__, "not_a_slot"):
        with pytest.raises(AttributeError, match="^TimeScale is immutable$"):
            delattr(T, name)
    assert T.sigma(1.5) == 2.0 and T.sigma(2.0) == 2.5
    assert T == copy.deepcopy(T) == pickle.loads(pickle.dumps(T))


def test_a_point_is_any_real_number():
    # a point reads as a component value does: a Fraction or a Decimal names
    # the member 1/2, as FinitePoints accepts either, and a Decimal density
    # is its float; a str or a bool, which every component refuses, names no
    # member and bounds no range
    T = TimeScale([Interval(0.0, 1.0)])
    for half in (Fraction(1, 2), Decimal("0.5")):
        assert T.snap(half) == 0.5 and T.classify(half) == PointClass(True, True)
        assert TimeScale([FinitePoints([half])]).snap(half) == 0.5
    assert T.points_in(Fraction(0), Decimal("0.5"), Decimal("2")) == T.points_in(0.0, 0.5, 2.0)
    for bad in ("0.5", True):
        assert T.snap(bad) is None
        with pytest.raises(PointNotInScale):
            T.classify(bad)
        with pytest.raises(ValidationError, match="real number"):
            FinitePoints([bad])
        for bounds in ((bad, 1.0), (0.0, bad)):
            with pytest.raises(ValueError, match="bounds: bound must be a real number"):
                T.points_in(*bounds)
    with pytest.raises(ValueError, match="bounds: bound must be a real number"):
        T.points_in("0", "1")  # not 34 points of float("0") to float("1")


def test_int_past_the_float_range_is_no_point():
    # float() of such an int overflows: snap reports no member, as its
    # docstring says, and points_in rejects the bound as it does NaN
    T = TimeScale([Interval(0.0, math.inf)])
    assert T.snap(10**400) is None and not T.contains(-(10**400))
    # str() of 10**5000 exceeds Python's digit limit: the message must not need it
    for big in (10**400, 10**5000):
        for query in (
            T.sigma, T.rho, T.mu, T.nu, T.classify, T.domain_membership,
            lambda t: T.approach_sequence(t, ApproachSide.LEFT),
            lambda t: T.symmetric_pairs(t),
        ):
            with pytest.raises(PointNotInScale, match=f"^t=<int of {big.bit_length()} bits> is not in the scale$"):
                query(big)
    with pytest.raises(ValueError, match="float range"):
        T.points_in(0, 10**400, 1)


def test_a_non_member_error_names_the_argument_not_the_scale(monkeypatch):
    # describe() of this scale runs to 1.5 MB: no error message may build it
    T = TimeScale([FinitePoints([k * 0.5 for k in range(200_000)])])
    monkeypatch.setattr(TimeScale, "describe", lambda self: pytest.fail("describe() called"))
    f = FnOnScale(lambda x: x, T)
    half = Order(1, 2)
    points = [
        T.sigma, T.rho, T.mu, T.nu, T.classify, T.domain_membership,
        lambda t: T.approach_sequence(t, ApproachSide.LEFT),
        lambda t: T.symmetric_pairs(t),
        lambda t: symmetric_weights(T, t, half),
        *(lambda t, d=d: d(f, t, half) for d in (nabla_frac, delta_frac, symmetric_frac, checks._symmetric_via_sides)),
    ]
    endpoints = [
        lambda t: nabla_integral(f, 0.0, t),
        lambda t: delta_integral(f, 0.0, t),
        *(lambda t, i=i: i(f, 0.0, t, half) for i in (nabla_frac_integral, delta_frac_integral, symmetric_frac_integral)),
        lambda t: Antiderivative(f, t, DerivKind.NABLA),
        Antiderivative(f, 0.0, DerivKind.NABLA).eval,
    ]
    for call in points + endpoints:
        with pytest.raises(PointNotInScale) as exc:
            call(0.25)
        assert str(exc.value).endswith("=0.25 is not in the scale") and len(str(exc.value)) < 100


def test_overlapping_components_merge():
    T = TimeScale([Interval(0.0, 2.0), Interval(1.0, 3.0)])
    assert len(T.components) == 1
    assert T.contains(2.5)


def test_normalization_does_not_depend_on_component_order():
    # b has a member within the tolerance of one of a and of one of c, but a
    # and c have none: every member stays, and all six orders give one scale
    a = FinitePoints([0.0, 5.0])
    b = FinitePoints([0.9e-12, 6.0])
    c = FinitePoints([1.8e-12, 7.0])
    scales = [TimeScale(perm) for perm in itertools.permutations([a, b, c])]
    first = scales[0]
    assert all(T == first and hash(T) == hash(first) for T in scales) and len(set(scales)) == 1
    assert tuple(first._pts) == (0.0, 0.9e-12, 1.8e-12, 5.0, 6.0, 7.0)


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


@pytest.mark.parametrize("text", ["grid(0,10,1)", "interval(0,inf)"])
def test_snap_finds_no_member_at_infinity_or_nan(text):
    # on interval(0,inf) a bisect alone would return inf as a member
    from tsfrac import parse_scale

    T = parse_scale(text)
    assert [T.snap(x) for x in (math.inf, -math.inf, math.nan)] == [None, None, None]


def test_a_negative_zero_point_is_the_member_zero():
    # the text form reads '-0' as 0.0, and so does every component: the index
    # bytes tell -0.0 and 0.0 apart
    from tsfrac import parse_scale

    assert bytes(TimeScale([FinitePoints([-0.0, 1.0])])._pts) == bytes(parse_scale("points(0,1)")._pts)


def test_points_in_returns_a_negative_zero_point_as_zero():
    zero, one = TimeScale([FinitePoints([-0.0, 1.0])]).points_in(-1, 2)
    assert (math.copysign(1.0, zero), one) == (1.0, 1.0)


@pytest.mark.parametrize(
    "T, lowest",
    [
        (TimeScale([Interval(-0.0, 1.0)]), lambda T: T.inf_value),
        (TimeScale([UniformGrid(-0.0, 1.0, 1.0)]), lambda T: T.components[0].start),
    ],
    ids=["interval", "grid"],
)
def test_a_component_starting_at_negative_zero_starts_at_zero(T, lowest):
    assert math.copysign(1.0, lowest(T)) == 1.0


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


def test_classify_and_domain_membership_records_are_shared_and_frozen():
    # -1 and 3 are scattered extrema, 0 and 1 the ends of [0, 1]
    T = TimeScale([FinitePoints((-1.0,)), Interval(0.0, 1.0), UniformGrid(1.5, 3.0, 0.5)])
    got = [T.classify(t) for t in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    want = [PointClass(True, False), PointClass(False, True), PointClass(True, True), PointClass(True, False), PointClass(False, False)]
    assert got == want and [hash(c) for c in got] == [hash(c) for c in want]
    got = [T.domain_membership(t) for t in (-1.0, 0.5, 3.0)]
    want = [DomainMembership(False, True), DomainMembership(True, True), DomainMembership(True, False)]
    assert got == want and [hash(d) for d in got] == [hash(d) for d in want]
    assert list(vars(T.domain_membership(0.5))) == ["in_nabla_domain", "in_delta_domain"]
    assert list(vars(T.classify(0.5))) == ["left_dense", "right_dense"]
    for record, field in ((T.classify(0.0), "left_dense"), (T.domain_membership(3.0), "in_delta_domain")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, True)
    assert T.classify(0.0) == PointClass(False, True) and not T.domain_membership(3.0).in_delta_domain
    # a non-member has no domain flags, as it has no class
    for query in (T.classify, T.domain_membership):
        with pytest.raises(PointNotInScale, match=r"^t=5\.0 is not in the scale$"):
            query(5.0)


def test_approach_sequence_interval():
    T = TimeScale([Interval(0.0, 4.0)])
    seq = T.approach_sequence(2.0, ApproachSide.LEFT, LimitConfig(max_samples=5))
    assert seq == [1.99, 1.995, 1.9975, 1.99875, 1.999375]
    seq = T.approach_sequence(2.0, ApproachSide.RIGHT, LimitConfig(max_samples=3))
    assert seq == [2.01, 2.005, 2.0025]


def test_the_steps_are_the_configs():
    # the cap reaches the sampler; the steps, 1e-2 halved each sample, are
    # the same under every config
    T = TimeScale([Interval(0.0, 4.0)])
    for cfg in (LimitConfig(max_samples=4), LimitConfig(tol=1e-3, max_samples=4)):
        assert T.approach_sequence(2.0, ApproachSide.LEFT, cfg) == [2 - 1e-2 * 0.5**k for k in range(4)]
        assert T.symmetric_pairs(2.0, cfg) == [1e-2 * 0.5**k for k in range(4)]


def test_approach_sequence_respects_room():
    T = TimeScale([Interval(0.0, 4.0)])
    seq = T.approach_sequence(0.005, ApproachSide.LEFT, LimitConfig(max_samples=4))
    # the first step 1e-2 is clipped to the room available inside the component
    assert seq == [0.0, 0.0025, 0.00375, 0.004375]


def test_approach_sequence_truncates_at_float_resolution():
    T = TimeScale([Interval(0.0, 4.0)])
    seq = T.approach_sequence(2.0, ApproachSide.LEFT, LimitConfig(max_samples=200))
    assert len(seq) < 200
    assert len(seq) == len(set(seq))
    assert all(s != 2.0 for s in seq)
    # at 1e3 the default cap of 40 outlasts the float spacing: 1e-2/2**36 is
    # the last step above half an ulp there
    T = TimeScale([Interval(0.0, 4e3)])
    assert len(T.approach_sequence(1e3, ApproachSide.LEFT)) == len(T.symmetric_pairs(1e3)) == 37


def test_approach_sequence_scattered_side():
    # a scattered side offers no points, as a side dense by convention does
    T = make_hybrid()
    assert T.approach_sequence(2.0, ApproachSide.LEFT) == []
    # left of 1.0 is dense, right is scattered
    assert T.approach_sequence(1.0, ApproachSide.RIGHT) == []
    assert len(T.approach_sequence(1.0, ApproachSide.LEFT, LimitConfig(max_samples=6))) == 6


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda T: T.approach_sequence(0.5, ApproachSide.BOTH), "LEFT or RIGHT"),
        # the steps come from a LimitConfig, which refuses bad values itself
        (lambda T: T.approach_sequence(0.5, ApproachSide.LEFT, LimitConfig(max_samples=0)), "max_samples must be at least 3"),
    ],
    ids=["both-sides", "n-zero"],
)
def test_limit_scaffolding_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call(TimeScale([Interval(0.0, 1.0)]))


def test_approach_sequence_convention_only_side():
    # the minimum of an interval, or of a point set, is left-dense by
    # convention, but there are no scale points below it to offer
    for T in (TimeScale([Interval(0.0, 1.0)]), TimeScale([FinitePoints((0.0, 1.0))])):
        assert T.approach_sequence(0.0, ApproachSide.LEFT) == []
        assert T.approach_sequence(1.0, ApproachSide.RIGHT) == []


def test_short_discrete_side_offers_all_its_members():
    # 2**k for k in -45..3 accumulates at 0: 49 members on the right, all of
    # which a request for more returns, nearest last
    T = TimeScale([GeometricGrid(2.0, -45, 3, include_zero=True)])
    seq = T.approach_sequence(0.0, ApproachSide.RIGHT, LimitConfig(max_samples=100))
    assert seq == [2.0**k for k in range(3, -46, -1)]
    assert T.approach_sequence(0.0, ApproachSide.RIGHT, LimitConfig(max_samples=49)) == seq
    assert T.approach_sequence(0.0, ApproachSide.RIGHT, LimitConfig(max_samples=3)) == seq[-3:]


def test_default_steps_are_the_limit_configs():
    # one first step and one ratio: what LimitConfig() samples
    cfg, five = LimitConfig(), LimitConfig(max_samples=5)
    T = TimeScale([Interval(0.0, 4.0)])
    for side, sign in ((ApproachSide.LEFT, -1.0), (ApproachSide.RIGHT, 1.0)):
        seq = T.approach_sequence(2.0, side)
        assert seq == T.approach_sequence(2.0, side, cfg) and len(seq) == cfg.max_samples
        assert T.approach_sequence(2.0, side, five) == [2.0 + sign * 1e-2 * 0.5**k for k in range(5)]
    assert T.symmetric_pairs(2.0) == T.symmetric_pairs(2.0, cfg)
    assert T.symmetric_pairs(2.0, five) == [1e-2 * 0.5**k for k in range(5)]
    # near an end the first step is the room left
    assert T.approach_sequence(0.004, ApproachSide.LEFT, LimitConfig(max_samples=3)) == [0.0, 0.002, 0.003]
    # a discrete neighborhood pairs only below the first step
    G = TimeScale([UniformGrid(0.0, 1.0, 0.004)])
    hs = G.symmetric_pairs(0.4)
    assert hs == G.symmetric_pairs(0.4, cfg) and hs == pytest.approx([0.008, 0.004])


def test_interval_steps_run_into_the_subnormals():
    # each step is 1e-2 * 0.5**k as such, down to the smallest subnormal:
    # halving the last step instead rounds differently there
    T = TimeScale([Interval(-1.0, 1.0)])
    cfg = LimitConfig(max_samples=1100)
    steps = [1e-2 * 0.5**k for k in range(1068)]
    assert steps[-1] == 5e-324
    assert T.approach_sequence(0.0, ApproachSide.RIGHT, cfg) == steps
    assert T.approach_sequence(0.0, ApproachSide.LEFT, cfg) == [-h for h in steps]
    assert T.symmetric_pairs(0.0, cfg) == steps


def test_approach_sequence_geometric_tail():
    # 2**k for k in -40..3 accumulates at 0 from the right
    T = TimeScale([GeometricGrid(2.0, -40, 3, include_zero=True)])
    seq = T.approach_sequence(0.0, ApproachSide.RIGHT, LimitConfig(max_samples=5))
    assert seq[0] > seq[1] > seq[2] > seq[3] > seq[4] > 0.0
    assert seq[-1] == 2.0**-40


def test_symmetric_pairs_interval():
    T = TimeScale([Interval(0.0, 2.0)])
    assert T.symmetric_pairs(1.0, LimitConfig(max_samples=4)) == [0.01, 0.005, 0.0025, 0.00125]
    # in an interval narrower than 2e-2 the first step is the room to the nearer end
    T = TimeScale([Interval(0.0, 0.008)])
    assert T.symmetric_pairs(0.003, LimitConfig(max_samples=4)) == [0.003, 0.0015, 0.00075, 0.000375]


def test_symmetric_pairs_grid():
    # pairs at 1, 2 and 3 steps of 2**-8 (0.0117), only the first two below 1e-2
    T = TimeScale([UniformGrid(0.0, 6 * 2.0**-8, 2.0**-8)])
    hs = T.symmetric_pairs(3 * 2.0**-8, LimitConfig(max_samples=5))
    assert hs == [2.0**-7, 2.0**-8]


def test_symmetric_pairs_without_a_pair_are_empty():
    # 2**k accumulates at 0 from the right, but no -h is in the scale; and
    # the pairs all lie at or above the first step 1e-2, the points' exactly
    assert TimeScale([GeometricGrid(2.0, -50, 2, include_zero=True)]).symmetric_pairs(0.0) == []
    assert TimeScale([UniformGrid(0.0, 6.0, 1.0)]).symmetric_pairs(3.0, LimitConfig(max_samples=5)) == []
    assert TimeScale([FinitePoints((-0.01, 0.0, 0.01))]).symmetric_pairs(0.0) == []


def test_points_in_hybrid():
    T = make_hybrid()
    pts = T.points_in(0.0, 3.0, density=4.0)
    assert 1.5 in pts and 2.0 in pts and 3.0 in pts
    assert pts == sorted(pts)
    inside = [p for p in pts if 0.0 <= p <= 1.0]
    assert len(inside) >= 4


@pytest.mark.parametrize("density", [math.inf, math.nan, 0.0, -1.0, "33", None, True])
def test_points_in_rejects_bad_density(density):
    # a discrete-only range must reject it too, not only an interval stretch;
    # a str or a bool is no density, as no component reads one as a number
    for T in (make_hybrid(), TimeScale([UniformGrid(0.0, 3.0, 1.0)])):
        with pytest.raises(ValueError, match="density"):
            T.points_in(0.0, 3.0, density=density)


@pytest.mark.parametrize("a, b", [(math.nan, 3.0), (0.0, math.nan), (math.nan, math.nan)])
def test_points_in_rejects_nan_bounds(a, b):
    T = TimeScale([Interval(0.0, 1.0), FinitePoints((2.0, 3.0))])
    with pytest.raises(ValueError, match="bounds"):
        T.points_in(a, b)


def test_points_in_bound_on_an_interval_end_gives_the_member():
    # the range meets [0, 1] in its one end point: the member itself, a float
    T = TimeScale([Interval(0.0, 1.0), FinitePoints((2.0, 3.0))])
    for a, b, want in ((1, 3, [1.0, 2.0, 3.0]), (-1, 0, [0.0]), (3, 1, [1.0, 2.0, 3.0]), (0, 0, [0.0])):
        pts = T.points_in(a, b)
        assert pts == want and all(type(p) is float for p in pts), (a, b, pts)


@pytest.mark.parametrize(
    "components",
    [
        [
            Interval(-math.inf, -100.0),
            FinitePoints([-(2.0**k) for k in range(0, 4)]),
            GeometricGrid(2.0, -3, 2, include_zero=True),
            FinitePoints([10.0, 10.5, 11.0]),
            UniformGrid(20.0, 30.0, 2.0),
            Interval(100.0, math.inf),
        ],
        [Interval(-math.inf, math.inf)],
        [FinitePoints([0.0] + [-(1.5**k) for k in range(-2, 5)]), Interval(0.5, 2.5)],
    ],
    ids=["every-kind", "real-line", "mirrored-qgrid-with-zero"],
)
def test_text_round_trip_of_every_component_kind(components):
    # the text form writes infinite interval bounds as inf, and reads every
    # scale back to the same index
    from tsfrac import parse_scale

    T = TimeScale(components)
    assert {type(c) for c in T.components} == {type(c) for c in components}
    back = parse_scale(T.describe())
    assert bytes(back._pts) == bytes(T._pts) and back._inside == T._inside
    assert back == T and hash(back) == hash(T) and back.describe() == T.describe()
    assert (back.inf_value, back.sup_value) == (T.inf_value, T.sup_value)


@pytest.mark.parametrize(
    "start, stop", [(1e16, 1.000000000000001e16), (1e17, 1.0000000000000001e17)], ids=["1e16", "1e17"]
)
def test_grid_whose_members_collide_is_rejected(start, stop):
    # a step below the float spacing put equal entries in the index (11 entries, 6
    # distinct, at 1e16; 17 entries, 2 distinct, at 1e17), and classify called 1e17
    # dense on both sides of a discrete grid
    from tsfrac import parse_scale

    grid = UniformGrid(start, stop, 1.0)
    builds = [
        lambda: parse_scale(grid.describe()),
        lambda: TimeScale([grid]),
    ]
    for build in builds:
        with pytest.raises(ValidationError, match=re.escape(f"members {start!r} and {start!r} within the membership")):
            build()


def test_grid_near_the_float_spacing_is_kept_while_its_members_stay_apart():
    # at 1e4 floats are 1.8e-12 apart, so a step of 5e-12 leaves members 3.6e-12 or
    # 5.5e-12 apart: every member is checked, and none comes within the tolerance
    from tsfrac import parse_scale

    T = parse_scale("grid(10000,10000.000000001,5e-12)")
    pts = T._pts
    assert len(pts) == 201 and min(b - a for a, b in zip(pts, pts[1:])) == 2 * math.ulp(1e4)
    assert T.classify(pts[100]).isolated and T.sigma(pts[100]) == pts[101]


def test_a_lone_geometric_grid_is_kept_and_a_fused_one_coalesces():
    # the tail of qgrid(2,-60,0,zero) below the tolerance makes 0 dense, alone and
    # beside a point among the tail's members: every member stays, so the union's
    # index is the grid's and the point
    from tsfrac import parse_scale

    lone = parse_scale("qgrid(2,-60,0,zero)")
    union = parse_scale("union(qgrid(2,-60,0,zero),points(7.5e-13))")
    for T in (lone, union):
        assert T.sigma(0.0) == 2.0**-60 == 8.673617379884035e-19 and T.classify(0.0).dense
        assert T.domain_membership(0.0).in_nabla_domain
    assert list(union._pts) == sorted([*lone._pts, 7.5e-13]) and len(union._pts) == 63


def test_a_lone_point_set_coalesces_and_one_left_unchanged_is_kept():
    # members within the tolerance of each other all stay, with the gap between
    # them dense; a point set no interval covers is kept as the same object
    T = TimeScale([FinitePoints([0.0, 5e-13, 1.0])])
    assert tuple(T._pts) == (0.0, 5e-13, 1.0)
    assert T.sigma(0.0) == 5e-13 and T.classify(0.0).right_dense
    P = FinitePoints([0.0, 1.0])
    assert TimeScale([P]).components[0] is P


def test_points_in_lists_every_member_and_merges_interval_samples():
    # a member within the tolerance of another is listed too; the samples of
    # an interval narrower than the tolerance merge into its low end
    T = TimeScale([FinitePoints([0.0, 5e-13, 1.0]), Interval(2.0, 3.0)])
    assert T.points_in(0.0, 1.0) == [0.0, 5e-13, 1.0]
    assert T.points_in(0.0, 2.5, density=2.0) == [0.0, 5e-13, 1.0, 2.0, 2.5]
    assert T.points_in(2.5, 2.5 + 1e-13) == [2.5]


def test_negative_zero_and_zero_give_one_scale():
    # -0.0 == 0.0, so the two sets are one; a hash over the index's bytes would
    # tell them apart
    P, Z = (TimeScale([FinitePoints([z, 1.0])]) for z in (-0.0, 0.0))
    assert P == Z and hash(P) == hash(Z)


def test_two_descriptions_of_one_set_are_equal():
    # 2.0 is a member of both components and is indexed once
    from tsfrac import parse_scale

    U = parse_scale("union(grid(1.5,3,0.5),points(2,4))")
    P = parse_scale("points(1.5,2,2.5,3,4)")
    assert U == P and hash(U) == hash(P) and U.describe() != P.describe()
    assert tuple(U._pts) == (1.5, 2.0, 2.5, 3.0, 4.0) and U.sigma(2.0) == 2.5 and U.rho(2.0) == 1.5


@pytest.mark.parametrize(
    "clone", [lambda T: pickle.loads(pickle.dumps(T)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_scale_pickles_and_copies(clone):
    # each of these used to raise "TimeScale is immutable" while restoring
    # slots; a scale already queried remembers its last lookup, which neither
    # the copy nor equality and hashing see
    def build():
        return TimeScale(
            [Interval(0.0, 1.0), UniformGrid(1.5, 3.0, 0.5), GeometricGrid(2.0, -3, 2), FinitePoints((4.0, 4.25))]
        )

    T = build()
    assert T.sigma(2.0) == 2.5
    back = clone(T)
    assert back == T == build() and hash(back) == hash(T) == hash(build())
    assert back.describe() == T.describe()
    for t in (0.5, 1.0, 2.0, 4.0, 4.25):
        assert (back.sigma(t), back.rho(t), back.classify(t)) == (T.sigma(t), T.rho(t), T.classify(t))


def test_expression_function_pickles():
    T = make_hybrid()
    f = FnOnScale.from_expression("2*cos(t/3) + t^2", T)
    before = f.eval(0.7)
    for clone in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        back = clone(f)
        assert type(back) is FnOnScale and back.source == f.source and back.scale == T
        assert back.eval(0.7).hex() == before.hex()


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


def test_chained_points_fuse_in_linear_time():
    # 20,000 one-point components, each within the snap tolerance of the next,
    # keep every member and build in linear time
    comps = [FinitePoints([i * 0.5e-12]) for i in range(20_000)]
    start = time.perf_counter()
    T = TimeScale(comps)
    assert time.perf_counter() - start < 1.0
    assert len(T.components) == len(T._pts) == 20_000
    assert T._pts[0] == 0.0 and T._pts[-1] == 19_999 * 0.5e-12


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
    assert repr(again) == repr(T) == f"TimeScale({T.describe()})"


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
