"""The reflection law that ties the two directions together.

Reflect a scale T to M = -T (each interval [lo, hi] becomes [-hi, -lo], the
discrete members are negated) and a function f to g(x) = f(-x).  Backward
steps of T become forward steps of M, so

    delta_frac(f, t)     = -nabla_frac(g, -t)
    nabla_frac(f, t)     = -delta_frac(g, -t)
    symmetric_frac(f, t) = -symmetric_frac(g, -t)

and, for the integrals from a to b,

    delta_integral(f, a, b)          = nabla_integral(g, -b, -a)
    delta_frac_integral(f, a, b, b') = -nabla_frac_integral(g, -b, -a, b')

for 0 <= b' < 1 (the (1-b')-order derivative flips sign), with + at b' = 1
(the classical integral).  Negation is exact in floating point, so the
derivatives agree bit for bit, on mirrored sides; where one side raises, the other raises the
same error.  The integrals agree to rounding (1e-12) wherever the
fractional ones are exact quotients; at a dense endpoint they are limit
estimates, equal only to the estimator's tolerance.  The nabla and delta
operators share their code paths, so this guards the direction parameter
that selects between them.
"""

import math
import warnings

import pytest

from tsfrac import (
    ApproachSide,
    EndpointAdjustedWarning,
    FinitePoints,
    FnOnScale,
    Interval,
    LimitConfig,
    Order,
    TimeScale,
    TsfracError,
    delta_frac,
    delta_frac_integral,
    delta_integral,
    nabla_frac,
    nabla_frac_integral,
    nabla_integral,
    parse_scale,
    symmetric_frac,
)

SCALES = {
    "grid": "grid(0,6,0.5)",
    "points": "points(-1,0.25,0.5,2,3.5,7)",
    "qgrid": "qgrid(2,-4,3,zero)",
    "interval": "interval(0,2)",
    "hybrid": "union(interval(0,1),grid(1.5,3,0.5),points(4,4.25))",
}
ORDERS = [Order(1, 3), Order(1, 2), Order(3, 4), Order(1, 1)]
BETAS = [Order.parse("0", allow_zero=True), Order(1, 4), Order(1, 2), Order(3, 4), Order(1, 1)]
FUNCTIONS = [math.sin, lambda x: x * x - 3.0 * x, lambda x: math.exp(x) / 3.0]


def reflect(T: TimeScale) -> TimeScale:
    comps = []
    for c in T.components:
        if isinstance(c, Interval):
            comps.append(Interval(-c.hi, -c.lo))
        else:
            comps.append(FinitePoints([-v for v in c.iter_members()]))
    return TimeScale(comps)


def pair(text, fn):
    T = parse_scale(text)
    M = reflect(T)
    return T, FnOnScale(fn, T), FnOnScale(lambda x: fn(-x), M)


def outcome(call):
    """The value, or the type of the TsfracError raised."""
    try:
        return call()
    except TsfracError as exc:
        return type(exc)


MIRRORED = {ApproachSide.LEFT: ApproachSide.RIGHT, ApproachSide.RIGHT: ApproachSide.LEFT}


def described(res, sign):
    """A derivative result as (value, path, side), reflected when sign < 0."""
    if sign > 0:
        return res.value, res.path, res.side
    return -res.value, res.path, MIRRORED.get(res.side, res.side)


def test_reflect_negates_the_members():
    for text in SCALES.values():
        T = parse_scale(text)
        M = reflect(T)
        assert (M.inf_value, M.sup_value) == (-T.sup_value, -T.inf_value)
        for t in T.points_in(T.inf_value, T.sup_value, density=3):
            assert M.snap(-t) == -t
            assert (M.sigma(-t), M.rho(-t)) == (-T.rho(t), -T.sigma(t))


@pytest.mark.parametrize("name", SCALES)
def test_derivatives_reflect_exactly(name):
    cases = 0
    for fn in FUNCTIONS:
        T, f, g = pair(SCALES[name], fn)
        for t in T.points_in(T.inf_value, T.sup_value, density=3):
            for order in ORDERS:
                for op, mirror in (
                    (delta_frac, nabla_frac),
                    (nabla_frac, delta_frac),
                    (symmetric_frac, symmetric_frac),
                ):
                    here = outcome(lambda: described(op(f, t, order), 1.0))
                    there = outcome(lambda: described(mirror(g, -t, order), -1.0))
                    assert here == there, (op.__name__, t, str(order), here, there)
                    cases += 1
    assert cases > 100


def _close(x, y, tol=1e-12):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _endpoint_pairs(T, isolated):
    """Three (a, b) pairs of members, one of them reversed, drawn from the
    isolated members or from all of them."""
    members = [
        t
        for t in T.points_in(T.inf_value, T.sup_value, density=3)
        if T.classify(t).isolated or not isolated
    ]
    return [(members[0], members[-1]), (members[1], members[-2]), (members[-2], members[2])]


def _cauchy_pairs(f, g, a, b):
    """(case, here, there) for both directions at every beta, where here
    and there are each side's value or the type of the error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EndpointAdjustedWarning)
        for beta in BETAS:
            sign = 1.0 if beta.is_one else -1.0
            for op, mirror in (
                (delta_frac_integral, nabla_frac_integral),
                (nabla_frac_integral, delta_frac_integral),
            ):
                here = outcome(lambda: op(f, a, b, beta))
                there = outcome(lambda: sign * mirror(g, -b, -a, beta))
                yield f"{op.__name__} a={a} b={b} beta={beta}", here, there


@pytest.mark.parametrize("name", SCALES)
def test_classical_integrals_reflect(name):
    T, f, g = pair(SCALES[name], math.sin)
    for a, b in _endpoint_pairs(T, isolated=False):
        for op, mirror in ((delta_integral, nabla_integral), (nabla_integral, delta_integral)):
            assert _close(op(f, a, b), mirror(g, -b, -a)), (op.__name__, a, b)


@pytest.mark.parametrize("name", ["grid", "points", "qgrid", "hybrid"])
def test_cauchy_integrals_reflect_between_isolated_points(name):
    # every (1-beta)-order derivative at such an endpoint is an exact quotient
    T, f, g = pair(SCALES[name], math.sin)
    for a, b in _endpoint_pairs(T, isolated=True):
        for case, here, there in _cauchy_pairs(f, g, a, b):
            assert isinstance(here, float), (case, here)
            assert _close(here, there), (case, here, there)


@pytest.mark.parametrize("name", ["interval", "hybrid"])
def test_cauchy_integrals_reflect_within_tolerance_at_dense_endpoints(name):
    # at a dense endpoint the value is a limit estimate of the derivative of
    # an antiderivative anchored at a on T but at -b on the mirror, so the
    # two sides agree only to the estimator's tolerance
    T, f, g = pair(SCALES[name], math.sin)
    compared = 0
    for a, b in _endpoint_pairs(T, isolated=False):
        for case, here, there in _cauchy_pairs(f, g, a, b):
            if isinstance(here, float) and isinstance(there, float):
                assert _close(here, there, 10 * LimitConfig().tol), (case, here, there)
                compared += 1
    assert compared >= 10


