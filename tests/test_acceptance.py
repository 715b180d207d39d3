"""Acceptance gate: thirteen pinned behavior checks.

Every test here states a contract the package must keep, with explicit
tolerances.  Each prints a single ``criterion NN PASS`` line on success so
a verbose run reads as a checklist.  Dense-limit checks pass the limit
configuration they need; everything on an exact quotient path runs with
the defaults.
"""

import math
import random
import warnings

import pytest

from tsfrac import (
    EndpointAdjustedWarning,
    ExprSyntaxError,
    FinitePoints,
    FnOnScale,
    GeometricGrid,
    Interval,
    LimitConfig,
    Order,
    TimeScale,
    UniformGrid,
    checks,
    delta_frac,
    format_expr,
    nabla_frac,
    nabla_frac_integral,
    parse_expr,
    parse_scale,
    run_suite,
    symmetric_frac,
)

ZERO = Order.parse("0", allow_zero=True)


def report(num, detail):
    print(f"criterion {num:02d} PASS: {detail}")


# -- shared case builders -------------------------------------------------
#
# Criterion 9 re-checks the reconstruction identities at every scattered
# point the earlier criteria touch, so those point sets live in builders
# used by both sides.


def identity_cases():
    """Scale/point pairs for the graininess-power law (criterion 3)."""
    out = []
    for T in (
        TimeScale([UniformGrid(0.0, 10.0, 1.0)]),
        TimeScale([UniformGrid(0.0, 5.0, 0.5)]),
        TimeScale([GeometricGrid(2.0, 0, 6)]),
    ):
        members = list(T.components[0].iter_members())
        out.append((T, members[1:]))
    return out


POLY_GRIDS = (
    TimeScale([UniformGrid(2.0, 8.0, 1.0)]),
    TimeScale([UniformGrid(-1.0, 5.0, 0.5)]),
)


def poly_cases():
    """(scale, c, m, points) combinations for criterion 4."""
    out = []
    for T in POLY_GRIDS:
        members = list(T.components[0].iter_members())
        pts = members[1 :: max(1, len(members) // 5)]
        for c in (0.0, 1.5):
            for m in range(1, 6):
                out.append((T, c, m, [p for p in pts if p > members[0]]))
    return out


def scattered_relation_cases():
    """50 isolated points on random discrete scales with random quadratics."""
    rng = random.Random(1234)
    cases = []
    while len(cases) < 50:
        kind = rng.randrange(3)
        if kind == 0:
            step = rng.choice((0.5, 1.0))
            start = rng.randint(-4, 1)
            n = rng.randint(6, 10)
            T = TimeScale([UniformGrid(start, start + step * (n - 1), step)])
        elif kind == 1:
            t0 = rng.uniform(-4.0, -2.0)
            vals = []
            for _ in range(rng.randint(5, 8)):
                t0 += rng.uniform(0.4, 1.2)
                vals.append(round(t0, 6))
            T = TimeScale([FinitePoints(tuple(vals))])
        else:
            T = TimeScale([GeometricGrid(2.0, rng.randint(-2, 0), 3)])
        members = [
            m
            for m in T.components[0].iter_members()
            if T.domain_membership(m).in_symmetric_domain
            and not T.classify(m).left_dense
            and not T.classify(m).right_dense
        ]
        if not members:
            continue
        t = rng.choice(members)
        coeffs = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(3)]
        f = FnOnScale(lambda x, c=coeffs: c[0] + x * (c[1] + x * c[2]), T)
        alpha = rng.choice((Order(1, 3), Order(1, 2), Order(3, 4), Order(1, 1)))
        cases.append((T, f, t, alpha))
    return cases


def all_scattered_reconstruction_cases():
    """Everything criteria 3 through 7 evaluate at non-dense points."""
    cases = []
    for T, pts in identity_cases():
        f = FnOnScale(lambda x: x, T)
        for t in pts:
            cases.append((T, f, t, Order(1, 2)))
    for T, c, m, pts in poly_cases():
        f = FnOnScale(lambda x, c=c, m=m: (x - c) ** m, T)
        for t in pts:
            cases.append((T, f, t, Order(1, 3)))
    T5 = TimeScale([FinitePoints((-1.0, 0.0, 2.0))])
    cases.append((T5, FnOnScale(abs, T5), 0.0, Order(1, 2)))
    T6 = TimeScale([UniformGrid(0.0, 6.0, 1.0)])
    cases.append((T6, FnOnScale(lambda x: x * x, T6), 3.0, Order(1, 2)))
    cases.append((T6, FnOnScale(lambda x: 1.0 / x, T6), 3.0, Order(1, 1)))
    cases.extend(scattered_relation_cases())
    return cases


# -- criteria -------------------------------------------------------------


def test_criterion_01_identity_integral_family():
    """The walk of f(t) = t over the integers 1..10 is 9 at every order
    below one and 54 at order one."""
    T = TimeScale([UniformGrid(1.0, 10.0, 1.0)])
    f = FnOnScale(lambda x: x, T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EndpointAdjustedWarning)
        for beta in (ZERO, Order(1, 4), Order(1, 2), Order(3, 4)):
            got = nabla_frac_integral(f, 1.0, 10.0, beta)
            assert abs(got - 9.0) <= 1e-12, f"beta={beta}: {got}"
        top = nabla_frac_integral(f, 1.0, 10.0, Order(1, 1))
    assert abs(top - 54.0) <= 1e-12
    report(1, "integral of t over 1..10 is 9 below order one, 54 at one")


def test_criterion_02_sqrt_on_interval():
    T = TimeScale([Interval(0.0, 4.0)])
    f = FnOnScale(math.sqrt, T)
    cfg = LimitConfig(tol=1e-7, max_samples=80)
    for t in (0.25, 1.0, 2.0):
        r = nabla_frac(f, t, Order(1, 2), cfg)
        assert abs(r.value) <= 1e-6, f"t={t}: {r.value}"
    r0 = nabla_frac(f, 0.0, Order(1, 2), cfg)
    assert abs(r0.value - 1.0) <= 1e-6
    report(2, "sqrt has derivative 0 inside [0,4] and exactly 1 at the origin")


def test_criterion_03_identity_graininess_power():
    worst = 0.0
    for T, pts in identity_cases():
        f = FnOnScale(lambda x: x, T)
        for alpha in (Order(1, 3), Order(1, 2), Order(1, 1)):
            for t in pts:
                want = T.nu(t) ** (1.0 - alpha.value)
                got = nabla_frac(f, t, alpha).value
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12
    report(3, f"identity derivative equals nu^(1-alpha) on three grids, worst {worst:.2e}")


def test_criterion_04_polynomial_closed_forms():
    worst = 0.0
    for T, c, m, pts in poly_cases():
        f = FnOnScale(lambda x, c=c, m=m: (x - c) ** m, T)
        g = FnOnScale(lambda x, c=c, m=m: (x - c) ** (-m), T)
        for alpha in (Order(1, 3), Order(1, 2)):
            a = alpha.value
            for t in pts:
                rho = T.rho(t)
                nu = t - rho
                want = nu ** (1 - a) * sum(
                    (rho - c) ** j * (t - c) ** (m - 1 - j) for j in range(m)
                )
                got = nabla_frac(f, t, alpha).value
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                if abs(t - c) > 1e-9 and abs(rho - c) > 1e-9:
                    want_r = -(nu ** (1 - a)) * sum(
                        (rho - c) ** (j - m) * (t - c) ** (-j - 1) for j in range(m)
                    )
                    got_r = nabla_frac(g, t, alpha).value
                    worst = max(worst, abs(got_r - want_r) / max(1.0, abs(want_r)))
    assert worst <= 1e-9
    report(4, f"power and reciprocal closed forms match, worst relative {worst:.2e}")


def test_criterion_05_symmetric_kink():
    T = TimeScale([FinitePoints((-1.0, 0.0, 2.0))])
    f = FnOnScale(abs, T)
    got = symmetric_frac(f, 0.0, Order(1, 2)).value
    assert abs(got - 1.0 / math.sqrt(3.0)) <= 1e-12
    Ti = TimeScale([Interval(-1.0, 1.0)])
    fi = FnOnScale(abs, Ti)
    dense = symmetric_frac(fi, 0.0, Order(1, 2)).value
    assert abs(dense) <= 1e-6
    report(5, "symmetric derivative of |t| is 1/sqrt(3) on the point set, 0 on the interval")


def test_criterion_06_symmetric_integer_values():
    T = TimeScale([UniformGrid(0.0, 6.0, 1.0)])
    sq = FnOnScale(lambda x: x * x, T)
    got = symmetric_frac(sq, 3.0, Order(1, 2)).value
    assert abs(got - 6.0 * math.sqrt(2.0)) <= 1e-12
    inv = FnOnScale(lambda x: 1.0 / x, T)
    got2 = symmetric_frac(inv, 3.0, Order(1, 1)).value
    assert abs(got2 + 0.125) <= 1e-12
    report(6, "t^2 gives 6*sqrt(2) and 1/t gives -1/8 at t=3 on the integers")


def test_criterion_07_symmetric_equals_weighted_sides():
    worst_exact = 0.0
    for T, f, t, alpha in scattered_relation_cases():
        direct = symmetric_frac(f, t, alpha).value
        combo = checks._symmetric_via_sides(f, t, alpha)
        worst_exact = max(worst_exact, abs(direct - combo))
    assert worst_exact <= 1e-12

    rng = random.Random(77)
    T = TimeScale([Interval(-1.0, 1.0)])
    cfg = LimitConfig(tol=1e-7, max_samples=80)
    pool = (math.sin, math.exp, lambda x: x**3)
    worst_dense = 0.0
    for _ in range(20):
        f = FnOnScale(rng.choice(pool), T)
        t = round(rng.uniform(-0.6, 0.6), 3)
        alpha = rng.choice((Order(1, 3), Order(1, 1)))
        direct = symmetric_frac(f, t, alpha, cfg).value
        combo = checks._symmetric_via_sides(f, t, alpha, cfg)
        worst_dense = max(worst_dense, abs(direct - combo))
    assert worst_dense <= 1e-6
    report(
        7,
        f"weighted-sides relation: worst {worst_exact:.2e} at 50 scattered, "
        f"{worst_dense:.2e} at 20 dense points",
    )


def test_criterion_08_rule_suites():
    for suite in ("linearity", "product", "quotient"):
        rep = run_suite(suite, seed=0, trials=100)
        assert rep.passed, (suite, rep.messages)
        assert rep.max_residual <= 1e-8
    report(8, "linearity, product, quotient: 100 trials each, residuals within 1e-8")


def test_criterion_09_reconstruction_everywhere():
    worst = 0.0
    n_nabla = n_sym = 0
    for T, f, t, alpha in all_scattered_reconstruction_cases():
        cls = T.classify(t)
        a = alpha.value
        if cls.left_dense and cls.right_dense:
            continue
        if not cls.left_dense:
            nab = nabla_frac(f, t, alpha).value
            nu = T.nu(t)
            worst = max(worst, abs(f.eval(t) - (f.eval(T.rho(t)) + nu**a * nab)))
            n_nabla += 1
        if T.domain_membership(t).in_symmetric_domain:
            span = T.sigma(t) - T.rho(t)
            sym = symmetric_frac(f, t, alpha).value
            worst = max(
                worst, abs(f.eval(T.sigma(t)) - (f.eval(T.rho(t)) + span**a * sym))
            )
            n_sym += 1
    assert n_nabla >= 100 and n_sym >= 50
    assert worst <= 1e-12
    report(
        9,
        f"reconstruction identities at {n_nabla} backward and {n_sym} symmetric "
        f"points, worst {worst:.2e}",
    )


def test_criterion_10_integral_laws():
    rep = run_suite("integral-laws", seed=0, trials=50)
    assert rep.passed, rep.messages
    assert rep.max_residual <= 1e-9
    report(10, f"integral laws and anchor independence over 50 trials, worst {rep.max_residual:.2e}")


def test_criterion_11_differentiable_implies_zero():
    T = TimeScale([Interval(-2.0, 2.0)])
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    rng = random.Random(55)
    worst = 0.0
    for fn in (math.sin, math.exp, lambda x: x**3):
        f = FnOnScale(fn, T)
        for _ in range(10):
            t = round(rng.uniform(-1.5, 1.5), 3)
            for alpha in (Order(1, 3), Order(1, 2)):
                r = nabla_frac(f, t, alpha, cfg)
                worst = max(worst, abs(r.value))
    assert worst <= 1e-5
    report(11, f"fractional derivative of smooth functions at 30 interior points, worst {worst:.2e}")


def test_criterion_12_order_lowering():
    T = TimeScale([UniformGrid(0.0, 10.0, 1.0)])
    f = FnOnScale(lambda x: x * x - x, T)
    for lower, higher in ((Order(1, 4), Order(1, 2)), (Order(1, 2), Order(3, 4)), (Order(1, 2), Order(1, 1))):
        for t in (2.0, 5.0, 9.0):
            # over a unit step every order's quotient is f(t) - f(t - 1)
            assert nabla_frac(f, t, lower).value == nabla_frac(f, t, higher).value == 2 * t - 2

    Ti = TimeScale([Interval(-1.0, 1.0)])
    cfg = LimitConfig(tol=1e-6, max_samples=80)
    rng = random.Random(31)
    worst = 0.0
    for _ in range(10):
        t = round(rng.uniform(-0.6, 0.6), 3)
        coeffs = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(3)]
        g = FnOnScale(lambda x, c=coeffs: c[0] + x * (c[1] + x * c[2]), Ti)
        for lower, higher in ((Order(1, 4), Order(1, 2)), (Order(1, 3), Order(1, 1)), (Order(1, 2), Order(1, 1))):
            nabla_frac(g, t, higher, cfg)  # the premise: the higher order exists
            low = nabla_frac(g, t, lower, cfg).value
            worst = max(worst, abs(low))
    assert worst <= 1e-5
    report(12, f"convergence carries to lower orders; dense lowered values within {worst:.2e}")


def test_criterion_13_grammar_round_trip():
    productions = {
        "sum": "1 + t",
        "difference": "t - 1",
        "product": "2 * t",
        "quotient": "t / 2",
        "negation": "-t",
        "double negation": "--t",
        "power": "t^2",
        "power right-assoc": "2^3^2",
        "integer": "7",
        "decimal": "2.5",
        "leading-dot decimal": ".5",
        "scientific": "1e-3",
        "variable": "t",
        "parenthesized": "(t + 1) * 2",
        "call sqrt": "sqrt(t)",
        "call abs": "abs(t)",
        "call sin": "sin(t)",
        "call cos": "cos(t)",
        "call exp": "exp(t)",
        "call ln": "ln(t)",
        "call pow": "pow(t, 2)",
        "nested": "sin(t^2 - 1) / (1 + exp(-t))",
    }
    for name, text in productions.items():
        ast = parse_expr(text)
        printed = format_expr(ast)
        assert parse_expr(printed) == ast, (name, text, printed)

    scale_productions = {
        "interval": "interval(0, 1)",
        "points": "points(-1, 0.5, 2)",
        "grid": "grid(0, 10, 1)",
        "qgrid": "qgrid(2, -2, 5)",
        "qgrid with zero": "qgrid(2, -2, 5, zero)",
        "union": "union(interval(0,1), points(2), grid(3, 6, 1))",
        "negative bounds": "interval(-2.5, -1)",
    }
    for name, text in scale_productions.items():
        T = parse_scale(text)
        again = parse_scale(T.describe())
        assert again.describe() == T.describe(), name

    failures = {
        "t +": 4,
        "(t + 1": 7,
        "t & 2": 3,
        "t + 1 2": 7,
        "tan(t)": 1,
        "": 1,
    }
    for text, pos in failures.items():
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr(text)
        assert e.value.position == pos, (text, e.value.position)

    with pytest.raises(ExprSyntaxError):
        parse_scale("interval(0)")
    with pytest.raises(ExprSyntaxError):
        parse_scale("grid(0, 10, 1) trailing")
    report(
        13,
        f"{len(productions)} expression and {len(scale_productions)} scale productions "
        "round-trip; error positions verified",
    )
