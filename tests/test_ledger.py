"""The correctness ledger: one case per known defect, each against a truth
computed without tsfrac.

A derivative case passes when it returns and |value - truth| <= err_est
+ 4 ulp of the truth (a zero value must also carry the truth's sign); an
integral case passes when it returns within 1e-9 of the truth, relative
to max(1, |truth|).  Truths come from ``math``, ``fractions`` and
``decimal``, or from the benchmark's ``bench/reference.py``, which never
imports tsfrac and is only read here.

A case that fails today is ``xfail(strict=True)`` and names the ROADMAP
item that should mend it, so a fix shows up as XPASS(strict), a failure,
until its mark is removed: the marks left are the ledger.  Read it with
``pytest tests/test_ledger.py -rxX``.
"""

import decimal
import importlib.util
import math
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from tsfrac import (
    EndpointAdjustedWarning,
    FnOnScale,
    LimitConfig,
    Order,
    TsfracError,
    delta_frac,
    delta_frac_integral,
    nabla_frac,
    nabla_frac_integral,
    parse_scale,
    symmetric_frac,
    symmetric_frac_integral,
)

_spec = importlib.util.spec_from_file_location(
    "bench_reference", Path(__file__).resolve().parent.parent / "bench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

_DERIVS = {"nabla": nabla_frac, "delta": delta_frac, "symmetric": symmetric_frac}
_INTEGRALS = {"nabla": nabla_frac_integral, "delta": delta_frac_integral, "symmetric": symmetric_frac_integral}

_BIG_A, _BIG_B = 1e8, 1e8 + 1e-4
_EXP_A, _EXP_B = 30.0, 30.0 + 1e-9


def _quotient(f, a: float, b: float) -> float:
    """(f(b) - f(a)) / (b - a) in exact rationals at the floats a, b."""
    x, y = Fraction(a), Fraction(b)
    return float((f(y) - f(x)) / (y - x))


def _exp_quotient(a: float, b: float) -> float:
    """(exp(b) - exp(a)) / (b - a) at the floats a, b, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x, y = decimal.Decimal(a), decimal.Decimal(b)
        return float((y.exp() - x.exp()) / (y - x))


def _xfail(item: str, why: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


#: the dense sweep: every derivative at the default LimitConfig on interval(0,10)
_SWEEP_SCALE = reference.RefScale(intervals=[(0.0, 10.0)])
_SWEEP_ORDERS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(1)]


def _sweep_marks(name, kind, order, t):
    """The sweep's failures today: every row below order 1, and eight at order 1.
    The ``cli`` workload's wrong ``table`` value is the delta sin row at
    order 1/3, t=2."""
    if order == Fraction(1, 3):
        if (name == "exp" and t == 5.0) or (name, kind, t) == ("sq", "symmetric", 5.0):
            return _xfail("1", "raises LimitDidNotConverge: the quotients do not settle in 40 samples")
        return _xfail("1", "outside err_est, which is the last difference, not the error")
    if order < 1:
        return _xfail("1", "raises LimitDidNotConverge: the quotients converge like h^(1-alpha), too slowly")
    if name == "exp" and t != 2.0 and kind != "symmetric":
        return _xfail("1/12", "raises SidedLimitsDisagree: the sides settle on different rounding plateaus")
    return ()


#: scale, function, kind, order, t, LimitConfig or None, truth
DERIVATIVE_CASES = [
    pytest.param(
        "interval(0,0.5)", "exp(t)", "nabla", "1", 0.5, None, math.exp(0.5),
        marks=_xfail("1/12", "the order-1 quotients latch onto the rounding plateau, err_est 0"),
        id="nabla-exp-order1-t0.5-interval(0,0.5)",
    ),
    *(
        pytest.param(
            "interval(0,10)", "exp(t)", kind, "1", 2.0, None, math.exp(2.0),
            marks=_xfail("1/12", "3.8e-9 off with err_est 0"),
            id=f"{kind}-exp-order1-t2-interval(0,10)",
        )
        for kind in ("nabla", "delta")
    ),
    *(
        pytest.param(
            f"points({_BIG_A!r},{_BIG_B!r})", text, "nabla", "1", _BIG_B, None, _quotient(f, _BIG_A, _BIG_B),
            marks=_xfail("9/12", "the exact quotient cancels digits, err_est 0"),
            id=f"nabla-{text}-order1-points(1e8,1e8+1e-4)",
        )
        for text, f in (("t^2", lambda x: x * x), ("t^3", lambda x: x * x * x))
    ),
    pytest.param(
        f"points({_EXP_A!r},{_EXP_B!r})", "exp(t)", "nabla", "1", _EXP_B, None, _exp_quotient(_EXP_A, _EXP_B),
        marks=_xfail("9/12", "the exact quotient cancels digits, err_est 0"),
        id="nabla-exp-order1-points(30,30+1e-9)",
    ),
    *(
        pytest.param(
            "interval(-1,1)", "t^3", kind, "1/3", 0.006, LimitConfig(tol=1e-7, max_samples=80), 0.0,
            marks=_xfail("1", "the estimator stops short of the limit (symmetric-relation, seed 17)"),
            id=f"{kind}-t^3-order1/3-t0.006-interval(-1,1)",
        )
        for kind in ("nabla", "delta", "symmetric")
    ),
    # mended: a zero limit over the side where the definition's base is negative is +0.0
    pytest.param("interval(-5,5)", "7.25", "delta", "1/3", -5.0, None, 0.0, id="delta-constant-order1/3-t-5"),
    pytest.param("interval(-5,5)", "7.25", "nabla", "1", 5.0, None, 0.0, id="nabla-constant-order1-t5"),
    # mended: a symmetric sample divides by the distance between t + h and t - h, not 2h
    *(
        pytest.param(
            f"interval(0,{2 * t:g})", "sin(t)", "symmetric", "1", t, None, math.cos(t),
            id=f"symmetric-sin-order1-t{t:g}-interval(0,{2 * t:g})",
        )
        for t in (3e4, 1e5)
    ),
    *(
        pytest.param(
            "interval(0,10)", fn.text, kind, str(order), t, None,
            reference.deriv(_SWEEP_SCALE, fn, kind, t, order),
            marks=_sweep_marks(fn.name, kind, order, t),
            id=f"{kind}-{fn.text.removesuffix('(t)')}-order{order}-t{t:g}-interval(0,10)",
        )
        for order in _SWEEP_ORDERS
        for fn in (reference.FUNCTIONS[name] for name in ("sin", "exp", "sq", "sqrt"))
        for t in (0.5, 1.0, 2.0, 5.0)
        for kind in ("nabla", "delta", "symmetric")
        # the two rows above
        if not (fn.name == "exp" and t == 2.0 and order == 1 and kind != "symmetric")
    ),
]


@pytest.mark.parametrize("scale, fn, kind, order, t, cfg, truth", DERIVATIVE_CASES)
def test_derivative_case(scale, fn, kind, order, t, cfg, truth):
    f = FnOnScale.from_expression(fn, parse_scale(scale))
    try:
        r = _DERIVS[kind](f, t, Order.parse(order), cfg)
    except TsfracError as exc:
        pytest.fail(f"raised {type(exc).__name__}: {exc}")
    assert abs(r.value - truth) <= r.err_est + 4 * math.ulp(truth), (r.value, r.err_est, truth)
    if r.value == 0 == truth:
        assert math.copysign(1.0, r.value) == math.copysign(1.0, truth), r.value


def _interval_truth(kind, beta):
    value, _ = reference.integral(
        reference.RefScale(intervals=[(0.0, 10.0)]), reference.FUNCTIONS["sin"], kind, 0.5, 3.0, beta
    )
    return value


_REFLECTION_SCALE = reference.RefScale(intervals=[(0.0, 1.0)], points=[1.5, 2.0, 2.5, 3.0, 4.0, 4.25])

#: scale, function, kind, beta, a, b, truth
INTEGRAL_CASES = [
    *(
        pytest.param(
            "interval(0,10)", "sin(t)", kind, str(beta), 0.5, 3.0, _interval_truth(kind, beta),
            marks=_xfail("2", "G at a dense endpoint is a limit of quotients of a quadrature sum"),
            id=f"{kind}-sin-beta{beta}-[0.5,3]-interval(0,10)",
        )
        for beta in (Fraction(1, 4), Fraction(1, 2))
        for kind in ("nabla", "delta", "symmetric")
    ),
    pytest.param(
        "union(interval(0,1),grid(1.5,3,0.5),points(4,4.25))", "sin(t)", "delta", "1/4", 0.0, 4.25,
        reference.integral(_REFLECTION_SCALE, reference.FUNCTIONS["sin"], "delta", 0.0, 4.25, Fraction(1, 4))[0],
        marks=_xfail("2", "the mirrored nabla integral returns, this one does not settle"),
        id="delta-sin-beta1/4-[0,4.25]-reflection",
    ),
    # mended: the virtual extension's exponent is beta itself, not 1 - (1 - beta)
    pytest.param(
        "grid(0,10,0.5)", "t - 9.5", "delta", "1/3", 9.5, 10.0, 0.5 * 0.5 ** (1 / 3),
        id="delta-virtual-extension-beta1/3",
    ),
]


@pytest.mark.parametrize("scale, fn, kind, beta, a, b, truth", INTEGRAL_CASES)
def test_integral_case(scale, fn, kind, beta, a, b, truth):
    f = FnOnScale.from_expression(fn, parse_scale(scale))
    try:
        with warnings.catch_warnings():
            # the ledger judges values; the endpoint fallbacks' warnings have their own tests
            warnings.simplefilter("ignore", EndpointAdjustedWarning)
            value = _INTEGRALS[kind](f, a, b, Order.parse(beta, allow_zero=True))
    except TsfracError as exc:
        pytest.fail(f"raised {type(exc).__name__}: {exc}")
    assert abs(value - truth) <= 1e-9 * max(1.0, abs(truth)), (value, truth)
