"""Parser, evaluator, and printer for the little function/scale language."""

import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from tsfrac import (
    EvalDomainError,
    ExprSyntaxError,
    eval_expr,
    format_expr,
    format_scale,
    parse_expr,
    parse_scale,
)
from tsfrac.exprlang import FUNCTIONS, Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var


def ev(text, t):
    return eval_expr(parse_expr(text), t)


# -- parsing and evaluation ----------------------------------------------


def test_numbers():
    assert ev("2", 0.0) == 2.0
    assert ev("2.5", 0.0) == 2.5
    assert ev(".5", 0.0) == 0.5
    assert ev("1e-3", 0.0) == 0.001
    assert ev("2.5E2", 0.0) == 250.0


def test_decimal_literals_are_exact():
    # a literal is rounded once, correctly, to the nearest double of the decimal
    assert ev("0.1", 0.0) == 0.1
    assert ev("1e-3", 0.0) == 1e-3
    assert ev("1e-400", 0.0) == 0.0
    assert ev("0." + "0" * 4000 + "1e4000", 0.0) == 0.1
    assert ev("179769313486231570814527423731704356798070567525844996598917476803157260780028538760589558632766878171540458953514382464234321326889464182768467546703537516986049910576551282076245490090389328944075868508455133942304583236903222948165808559332123348274797826204144723168738177180919299881250404026184124858368", 0.0) == 1.7976931348623157e308


@pytest.mark.parametrize(
    "text, column",
    [
        ("1e400*t", 1),
        ("t*1e309", 3),
        ("1" * 400, 1),
        ("t+" + "1" * 5000, 3),
        ("1e10000000*t", 1),
        ("t-1e100000000", 3),
    ],
)
def test_out_of_range_literal_is_a_syntax_error(text, column):
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr(text)
    assert time.perf_counter() - start < 0.1
    assert e.value.position == column


@pytest.mark.parametrize(
    "text, column",
    [
        ("interval(0,1e400)", 12),
        ("interval(-1e400,0)", 11),
        ("points(1," + "9" * 5000 + ")", 10),
        ("grid(0,1e10000000,1)", 8),
        ("qgrid(2,0,1e10000000)", 11),
        ("qgrid(2,0,1e-400)", 11),
        ("qgrid(2,0.5,3)", 9),
        ("qgrid(2,1e-10000000,3)", 9),
    ],
)
def test_bad_scale_literal_is_a_syntax_error(text, column):
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as e:
        parse_scale(text)
    assert time.perf_counter() - start < 0.1
    assert e.value.position == column


def test_literals_match_exact_rational_rounding():
    rng = random.Random(11)
    for _ in range(3000):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 25)))
        cut = rng.randint(0, len(digits))
        text = digits[:cut] + "." + digits[cut:] if cut < len(digits) and rng.random() < 0.7 else digits
        if rng.random() < 0.6:
            text += f"e{rng.randint(-330, 310)}"
        try:
            want = float(Fraction(text))
        except OverflowError:
            with pytest.raises(ExprSyntaxError):
                parse_expr(text)
            continue
        assert float.hex(ev(text, 0.0)) == float.hex(want), text


def test_variable_and_arithmetic():
    assert ev("t", 3.0) == 3.0
    assert ev("t + 1", 3.0) == 4.0
    assert ev("2*t - 4", 3.0) == 2.0
    assert ev("t/4", 3.0) == 0.75


def test_precedence():
    assert ev("2 + 3 * 4", 0.0) == 14.0
    assert ev("(2 + 3) * 4", 0.0) == 20.0
    assert ev("2 - 3 - 4", 0.0) == -5.0  # left associative
    assert ev("12 / 3 / 2", 0.0) == 2.0
    assert ev("-t^2", 2.0) == -4.0  # power binds tighter than unary minus


def test_power_right_associative():
    assert ev("2^3^2", 0.0) == 512.0
    assert ev("(2^3)^2", 0.0) == 64.0


def test_unary_minus():
    assert ev("-3", 0.0) == -3.0
    assert ev("--3", 0.0) == 3.0
    assert ev("2*-3", 0.0) == -6.0


def test_functions():
    assert ev("sqrt(4)", 0.0) == 2.0
    assert ev("abs(-3)", 0.0) == 3.0
    assert ev("sin(0)", 0.0) == 0.0
    assert ev("cos(0)", 0.0) == 1.0
    assert ev("exp(1)", 0.0) == pytest.approx(math.e)
    assert ev("ln(exp(2))", 0.0) == pytest.approx(2.0)
    assert ev("pow(2, 10)", 0.0) == 1024.0


def test_whitespace_insensitive():
    assert ev("  t   +2 * sin( t )", 0.0) == 0.0
    assert parse_expr("t+1") == parse_expr(" t + 1 ")


def test_ast_shape():
    ast = parse_expr("t^2 - 1")
    assert ast == Sub(Pow(Var(), Const(2.0)), Const(1.0))
    assert parse_expr("sin(t)*2") == Mul(Call("sin", (Var(),)), Const(2.0))
    assert parse_expr("-t") == Neg(Var())


# -- syntax errors --------------------------------------------------------


def test_error_position_dangling_operator():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("t +")
    assert e.value.position == 4


def test_error_position_bad_character():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("t & 2")
    assert e.value.position == 3


def test_error_position_unbalanced_paren():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("(t + 1")
    assert e.value.position == 7


def test_error_trailing_garbage():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("t + 1 2")
    assert e.value.position == 7


def test_error_unknown_function():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("tan(t)")
    assert "tan" in str(e.value)
    assert e.value.position == 1


def test_error_wrong_arity():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sqrt(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("pow(2)")


def test_error_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("   ")


def test_errors_carry_expected_hint():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("t +")
    assert e.value.expected


# nesting at the parsers' bound of 100 levels and one past it, with the
# column of the token that opens the level past the bound
NESTINGS = [
    (lambda n: "(" * n + "t" + ")" * n, 101),
    (lambda n: "abs(" * n + "t" + ")" * n, 404),
    (lambda n: "-" * n + "t", 101),
    (lambda n: "t" + "^1" * n, 202),
]
NESTING_IDS = ["parens", "calls", "minus", "power"]


@pytest.mark.parametrize("make, column", NESTINGS, ids=NESTING_IDS)
def test_nesting_at_the_bound_parses_and_evaluates(make, column):
    assert ev(make(100), 0.5) == 0.5


@pytest.mark.parametrize("make, column", NESTINGS, ids=NESTING_IDS)
def test_nesting_past_the_bound_is_a_syntax_error(make, column):
    with pytest.raises(ExprSyntaxError, match="at most 100 nesting levels") as e:
        parse_expr(make(101))
    assert e.value.position == column


def test_very_deep_nesting_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("(" * 3000 + "t" + ")" * 3000)
    assert e.value.position == 101


# -- evaluation domain errors ---------------------------------------------


def test_domain_error_sqrt_negative():
    with pytest.raises(EvalDomainError):
        ev("sqrt(t)", -1.0)


def test_domain_error_ln_nonpositive():
    with pytest.raises(EvalDomainError):
        ev("ln(t)", 0.0)


def test_domain_error_division_by_zero():
    with pytest.raises(EvalDomainError):
        ev("1/t", 0.0)


def test_domain_error_negative_base_fractional_power():
    with pytest.raises(EvalDomainError):
        ev("t^0.5", -2.0)
    with pytest.raises(EvalDomainError):
        ev("pow(t, 1/2)", -2.0)


def test_domain_error_overflow():
    with pytest.raises(EvalDomainError):
        ev("exp(t)", 1e6)


def test_integer_powers_of_negatives_are_fine():
    assert ev("t^2", -3.0) == 9.0
    assert ev("t^3", -2.0) == -8.0


def test_domain_error_reports_point():
    with pytest.raises(EvalDomainError) as e:
        ev("sqrt(t - 2)", 1.0)
    assert e.value.t == 1.0


# -- long flat chains: no nesting, so no depth bound; nothing may recurse --


def test_long_flat_sum_evaluates():
    assert ev("+".join(["t"] * 2000), 1.0) == 2000.0
    assert ev("*".join(["t"] * 2000), 1.0) == 1.0
    assert ev("-".join(["t"] * 2000), 0.5) == -999.0


def test_domain_error_deep_in_long_chain_names_its_node():
    ast = parse_expr("+".join(["t"] * 1500) + "+exp(709*t)" * 3)
    with pytest.raises(EvalDomainError, match=r"\+ exp\(709\*t\)' is not finite at t=1.0$") as e:
        eval_expr(ast, 1.0)
    assert e.value.node is ast
    assert str(e.value).startswith("'" + " + ".join(["t"] * 1500) + " + exp(709*t) + ")


def test_format_long_chain():
    text = " - ".join(["t"] * 1500) + "*2 + (t + 1)/3"
    assert format_expr(parse_expr(text)) == text


# -- the evaluator against a recursive oracle -----------------------------

_ORACLE_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_ORACLE_FNS = {"sqrt": math.sqrt, "abs": abs, "sin": math.sin, "cos": math.cos,
               "exp": math.exp, "ln": math.log, "pow": math.pow}


def _oracle_step(node, t, thunk):
    try:
        out = thunk()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalDomainError(
            f"'{format_expr(node)}' is undefined at t={t!r} ({exc})", node=node, t=t
        ) from None
    if not math.isfinite(out):
        raise EvalDomainError(f"'{format_expr(node)}' is not finite at t={t!r}", node=node, t=t)
    return out


def oracle(e, t):
    """Tree walk: a + - * / node checks its operands' evaluation and its
    step, a call or power its step only, after evaluating its arguments."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(t)
    if isinstance(e, Neg):
        return -oracle(e.operand, t)
    if isinstance(e, Pow):
        x, y = oracle(e.left, t), oracle(e.right, t)
        return _oracle_step(e, t, lambda: math.pow(x, y))
    if isinstance(e, Call):
        xs = [oracle(a, t) for a in e.args]
        return _oracle_step(e, t, lambda: _ORACLE_FNS[e.name](*xs))
    op = _ORACLE_OPS[type(e)]
    return _oracle_step(e, t, lambda: op(oracle(e.left, t), oracle(e.right, t)))


def _random_ast(rng, depth):
    kind = rng.randrange(2 if depth == 0 else 10)
    if kind == 0:
        return Const(rng.choice((0.0, -0.0, 1.0, -2.5, 3.0, 0.5, 709.0, 1e-300, 1e300)))
    if kind == 1:
        return Var()
    if kind == 2:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 3:
        return Pow(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind < 8:
        node = (Add, Sub, Mul, Div)[kind - 4]
        return node(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    name = rng.choice(sorted(FUNCTIONS))
    return Call(name, tuple(_random_ast(rng, depth - 1) for _ in range(FUNCTIONS[name])))


def test_compiled_evaluator_matches_recursive_oracle():
    rng = random.Random(5)
    outcomes = {"value": 0, "error": 0}
    # an int past the float range fails float(t) itself: where that error
    # surfaces, and whether a + - * / node names it, shows which checks
    # cover which evaluations
    points = (0.0, -1.0, 1.0, 2.0, -0.5, 1e200, 10**400)
    for _ in range(3000):
        ast = _random_ast(rng, rng.randint(1, 6))
        for t in (rng.choice(points), rng.uniform(-5.0, 5.0)):
            try:
                want = oracle(ast, t)
            except (EvalDomainError, OverflowError) as exc:
                outcomes["error"] += 1
                with pytest.raises(type(exc)) as got:
                    eval_expr(ast, t)
                assert str(got.value) == str(exc)
                assert getattr(got.value, "node", None) is getattr(exc, "node", None)
            else:
                outcomes["value"] += 1
                assert eval_expr(ast, t).hex() == want.hex(), format_expr(ast)
    assert min(outcomes.values()) > 1000, outcomes


def test_evaluated_ast_still_pickles():
    ast = parse_expr("2*cos(t/3) + t^2")
    before = eval_expr(ast, 0.7)
    again = pickle.loads(pickle.dumps(ast))
    assert again == ast and eval_expr(again, 0.7) == before


def test_eval_rejects_non_expressions():
    with pytest.raises(TypeError, match="not an Expr node"):
        eval_expr("t", 1.0)
    with pytest.raises(TypeError, match="not an Expr node"):
        eval_expr(Add(Var(), 1.0), 1.0)


# -- formatting -----------------------------------------------------------


def test_format_round_trip_simple():
    for text in ("t + 1", "2*t", "t^2 - 1", "sin(t)", "1/(t + 1)", "-t^2"):
        ast = parse_expr(text)
        assert parse_expr(format_expr(ast)) == ast


def test_format_preserves_precedence():
    ast = parse_expr("(t + 1) * (t - 1)")
    text = format_expr(ast)
    assert parse_expr(text) == ast
    ast2 = parse_expr("t - (t - 1)")
    assert parse_expr(format_expr(ast2)) == ast2
    ast3 = parse_expr("(2^3)^2")
    assert parse_expr(format_expr(ast3)) == ast3


def test_format_random_round_trip():
    """Printing and reparsing must reproduce the tree exactly."""
    rng = random.Random(21)

    def build(depth):
        if depth == 0:
            return rng.choice((Var(), Const(float(rng.randint(0, 9)))))
        kind = rng.randrange(6)
        if kind == 0:
            return Neg(build(depth - 1))
        if kind == 1:
            return Call("sin", (build(depth - 1),))
        node = rng.choice((Add, Sub, Mul, Div, Pow))
        return node(build(depth - 1), build(depth - 1))

    for _ in range(200):
        ast = build(3)
        printed = format_expr(ast)
        assert parse_expr(printed) == ast, printed


# -- scale descriptions ---------------------------------------------------


def test_parse_interval():
    T = parse_scale("interval(0, 1)")
    assert T.contains(0.5) and not T.contains(1.5)


def test_parse_points():
    T = parse_scale("points(-1, 0, 2)")
    assert T.contains(-1.0) and T.contains(2.0) and not T.contains(1.0)


def test_parse_grid():
    T = parse_scale("grid(0, 10, 1)")
    assert T.contains(7.0) and not T.contains(7.5)


def test_parse_qgrid():
    T = parse_scale("qgrid(2, -2, 5)")
    assert T.contains(0.25) and T.contains(32.0)
    Tz = parse_scale("qgrid(2, -2, 5, zero)")
    assert Tz.contains(0.0)
    # an exponent may be written in any form whose value is an exact integer
    assert parse_scale("qgrid(2,-2.0,0.3e1,zero)").describe() == "qgrid(2,-2,3,zero)"


def test_parse_union():
    T = parse_scale("union(interval(0,1), points(2, 3), grid(5, 8, 1))")
    for x in (0.5, 2.0, 3.0, 6.0):
        assert T.contains(x)
    assert not T.contains(4.0)


def test_parse_scale_negative_numbers():
    T = parse_scale("interval(-2.5, -1)")
    assert T.contains(-2.0)
    # '-0' is the member 0.0, not -0.0
    assert parse_scale("points(-0,1e-400,1)").to_json() == parse_scale("points(0,1)").to_json()


def test_scale_errors():
    with pytest.raises(ExprSyntaxError):
        parse_scale("interval(0)")
    with pytest.raises(ExprSyntaxError):
        parse_scale("blob(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse_scale("grid(0, 10, 1) extra")
    with pytest.raises(ExprSyntaxError):
        parse_scale("qgrid(2, 0.5, 3)")  # exponents must be integers


def test_union_nesting_bound():
    assert parse_scale("union(" * 100 + "points(1)" + ")" * 100).describe() == "points(1)"
    with pytest.raises(ExprSyntaxError) as e:
        parse_scale("union(" * 101 + "points(1)" + ")" * 101)
    assert e.value.position == 601


def test_scale_format_round_trip():
    for text in (
        "interval(0,1)",
        "points(-1,0,2)",
        "grid(0,10,1)",
        "qgrid(2,-2,5)",
        "union(interval(0,1),points(2,3))",
    ):
        T = parse_scale(text)
        again = parse_scale(format_scale(T))
        assert again.describe() == T.describe()
