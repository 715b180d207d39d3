"""A differential sweep of the three fractional derivatives and the three
fractional Cauchy integrals against ``bench/reference.py`` on seeded random
bounded hybrid scales.

Sixteen scales (seed 1) of two to five blocks on [0, 40]: intervals of
width 0.5 to 3 and runs of points with steps 1/8 to 1, each block a gap of
1e-3 to 1 from the last.  Every node of a scale, the midpoint of each
interval and the two points 1e-3 of its width inside its ends are swept
with every reference function (each defined on [0, 40]), the three kinds
and the orders 1/3, 1/2, 2/3 and 1: once with the functions as expressions
and once as opaque callables.

The judge is the ledger's (``tests/test_ledger.py``): the reference raising
and tsfrac raising a ``TsfracError`` agree; a value on the exact path must
lie within 1e-9 of the reference, relative to max(1, |reference|), and one
on the dense path within ``err_est`` + 4 ulp of it.  Three disagreements
fail outright: an exception that is not a ``TsfracError``, a value where
the reference raises, and an exact-path case that misses.  The dense-limit
estimator's disagreements are pinned by category: the ``TsfracError`` it
raises where the reference has a value, a value outside ``err_est`` by at
most 1e-8 or by more, and a zero of the wrong sign.

The integrals run from a to b, two pairs of sweep points of each scale
(seed 2), with every function as an expression (G is a derivative of an
antiderivative, so an opaque f takes no other path), the three kinds and
beta in 1/4, 1/2, 3/4 and 1, judged by ``reference.integral``'s own
tolerance.  A crash, a value where the reference raises, and a raise or a
miss where no G needs a dense limit (``reference.integral_dense``) fail
outright; the ``TsfracError`` raised and the value outside the tolerance at
a dense endpoint are pinned.

A change of any pinned count, in either direction, fails until the count
here is updated, as a strict xfail does.  The reference never imports
tsfrac and is only read here.
"""

import functools
import importlib.util
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tsfrac import (
    EndpointAdjustedWarning,
    FnOnScale,
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
_ORDERS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
_FUNCTIONS = list(reference.FUNCTIONS.values())  # each is defined on [0, 40]


def _scale(rng: random.Random):
    """(scale text, the matching RefScale, the points to sweep) of one random scale."""
    pieces, intervals, points, sweep = [], [], [], []
    t = rng.uniform(0.0, 10.0)  # five blocks at most 4 wide and four gaps of at most 1 end by 34
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            lo, hi = t, t + rng.uniform(0.5, 3.0)
            pieces.append(f"interval({lo!r},{hi!r})")
            intervals.append((lo, hi))
            inset = 1e-3 * (hi - lo)
            sweep += [0.5 * (lo + hi), lo + inset, hi - inset]
            t = hi
        else:
            step = rng.uniform(1 / 8, 1.0)
            run = [t + k * step for k in range(rng.randint(2, 5))]
            pieces.append(f"points({','.join(map(repr, run))})")
            points += run
            t = run[-1]
        t += 10 ** rng.uniform(-3.0, 0.0)
    ref = reference.RefScale(intervals=intervals, points=points)
    return f"union({','.join(pieces)})", ref, sorted(ref.nodes + sweep)


_rng = random.Random(1)
SCALES = [_scale(_rng) for _ in range(16)]


def _judge(deriv, f, o, t, truth, exact):
    """None where tsfrac agrees with the reference, else the disagreement's
    category and whether it fails outright."""
    try:
        r = deriv(f, t, o)
    except TsfracError as exc:
        if truth is reference.RAISES:
            return None
        return ("exact path raises " + type(exc).__name__, True) if exact else (type(exc).__name__, False)
    except Exception as exc:
        return "crash: " + repr(exc), True
    if truth is reference.RAISES:
        return "value where the reference raises", True
    miss = abs(r.value - truth)
    if exact:
        return ("exact path misses", True) if miss > reference.deriv_tolerance(truth, 0.0, True) else None
    if r.value == 0 == truth and math.copysign(1.0, r.value) != math.copysign(1.0, truth):
        return "zero of the wrong sign", False
    if miss <= r.err_est + 4 * math.ulp(truth):
        return None
    return ("off by more than 1e-8" if miss > max(r.err_est, 1e-8) else "outside err_est"), False


@functools.cache
def _sweep():
    """Per variant, the Counter of the estimator's disagreements with the
    reference and the list of the outright ones, over every case."""
    found = {variant: (Counter(), []) for variant in ("expression", "opaque")}
    for text, ref, sweep in SCALES:
        T = parse_scale(text)
        for fn in _FUNCTIONS:
            fs = {"expression": FnOnScale.from_expression(fn.text, T), "opaque": FnOnScale(fn.f, T)}
            for order in _ORDERS:
                o = Order(order.numerator, order.denominator)
                for kind, deriv in _DERIVS.items():
                    for t in sweep:
                        truth = reference.deriv(ref, fn, kind, t, order)
                        exact = not ref.dense_path(kind, t)
                        for variant, f in fs.items():
                            verdict = _judge(deriv, f, o, t, truth, exact)
                            if verdict is None:
                                continue
                            counts, outright = found[variant]
                            if verdict[1]:
                                outright.append((verdict[0], text, fn.text, kind, str(order), t))
                            else:
                                counts[verdict[0]] += 1
    return found


#: the estimator's disagreements today (ROADMAP items 1 and 15 should mend them)
PINNED = {
    "expression": {
        "LimitDidNotConverge": 4644,
        "SidedLimitsDisagree": 214,
        "outside err_est": 1938,
        "off by more than 1e-8": 662,
    },
    "opaque": {
        "LimitDidNotConverge": 4644,
        "SidedLimitsDisagree": 214,
        "outside err_est": 1938,
        "off by more than 1e-8": 662,
    },
}


@pytest.mark.parametrize("variant", ["expression", "opaque"])
def test_derivatives_agree_with_the_reference(variant):
    counts, outright = _sweep()[variant]
    assert not outright, outright[:5]
    assert dict(counts) == PINNED[variant]


_INTEGRALS = {"nabla": nabla_frac_integral, "delta": delta_frac_integral, "symmetric": symmetric_frac_integral}
_BETAS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def _judge_integral(integral, f, a, b, beta, truth, tol, dense):
    """None where tsfrac agrees with the reference, else the disagreement's
    category and whether it fails outright."""
    try:
        value = integral(f, a, b, Order(beta.numerator, beta.denominator))
    except TsfracError as exc:
        if truth is reference.RAISES:
            return None
        return (type(exc).__name__, False) if dense else ("exact path raises " + type(exc).__name__, True)
    except Exception as exc:
        return "crash: " + repr(exc), True
    if truth is reference.RAISES:
        return "value where the reference raises", True
    if abs(value - truth) <= tol:
        return None
    return ("dense value outside tolerance", False) if dense else ("exact path misses", True)


@functools.cache
def _integral_sweep():
    """The Counter of the disagreements of the three fractional integrals
    (functions as expressions) with the reference and the list of the
    outright ones, over two endpoint pairs of each scale's sweep points."""
    counts, outright = Counter(), []
    rng = random.Random(2)
    for text, ref, sweep in SCALES:
        T = parse_scale(text)
        pairs = [sorted(rng.sample(sweep, 2)) for _ in range(2)]
        for fn in _FUNCTIONS:
            f = FnOnScale.from_expression(fn.text, T)
            for beta in _BETAS:
                for kind, integral in _INTEGRALS.items():
                    for a, b in pairs:
                        truth, tol = reference.integral(ref, fn, kind, a, b, beta)
                        dense = reference.integral_dense(ref, kind, a, b, beta)
                        with warnings.catch_warnings():
                            # an endpoint moved to its nearest admissible neighbour is judged by its value
                            warnings.simplefilter("ignore", EndpointAdjustedWarning)
                            verdict = _judge_integral(integral, f, a, b, beta, truth, tol, dense)
                        if verdict is None:
                            continue
                        if verdict[1]:
                            outright.append((verdict[0], text, fn.text, kind, str(beta), a, b))
                        else:
                            counts[verdict[0]] += 1
    return counts, outright


#: the integrals' disagreements today, all at dense endpoints (ROADMAP items 2 and 1 should mend them)
PINNED_INTEGRALS = {"LimitDidNotConverge": 1132, "dense value outside tolerance": 7}


def test_integrals_agree_with_the_reference():
    counts, outright = _integral_sweep()
    assert not outright, outright[:5]
    assert dict(counts) == PINNED_INTEGRALS
