"""Parser, evaluator, and printer for the little function/scale language."""

import math
import operator
import pickle
import random
import re
import struct
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from tsfrac import (
    EvalDomainError,
    ExprSyntaxError,
    FinitePoints,
    FnOnScale,
    Interval,
    TimeScale,
    UniformGrid,
    ValidationError,
    eval_expr,
    format_expr,
    parse_expr,
    parse_scale,
)
from tsfrac.exprlang import FUNCTIONS, Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var, _column, _kernel_source, _tokenize
from tsfrac.timescale import _require_finite_number


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
        ("points(1,0." + "0" * 4298 + "1)", 10),  # finite, but 4,301 characters
        ("points(1,-0." + "0" * 4297 + "1)", 11),  # the sign counts
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


def test_operator_mixes_parse_to_their_trees():
    # shapes that values cannot tell apart: -t*t is Mul(Neg(t), t), not Neg(Mul(t, t))
    t = Var()
    cases = {
        "-t*t": Mul(Neg(t), t),
        "-t-t": Sub(Neg(t), t),
        "t/t*t": Mul(Div(t, t), t),
        "t-t-t": Sub(Sub(t, t), t),
        "-t^2*3": Mul(Neg(Pow(t, Const(2.0))), Const(3.0)),
        "t^-t*2": Mul(Pow(t, Neg(t)), Const(2.0)),
        "2^-t^2": Pow(Const(2.0), Neg(Pow(t, Const(2.0)))),
        "t*-t^t": Mul(t, Neg(Pow(t, t))),
        "--t^t": Neg(Neg(Pow(t, t))),
        "t^t^-t*t": Mul(Pow(t, Pow(t, Neg(t))), t),
    }
    for text, tree in cases.items():
        assert parse_expr(text) == tree, text


# -- syntax errors --------------------------------------------------------


def test_error_position_dangling_operator():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("t +")
    assert e.value.position == 4


def test_error_position_bad_character():
    for text, column in [("t & 2", 3), ("t +\t\r\n @", 8)]:
        with pytest.raises(ExprSyntaxError, match="unexpected character") as e:
            parse_expr(text)
        assert e.value.position == column


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (parse_expr, "t*١٠", 3),
        (parse_expr, "２^t", 1),
        (parse_expr, "t+1.٥", 5),
        (parse_scale, "points(١٢)", 8),
        (parse_scale, "grid(0,٣,1)", 8),
        (parse_scale, "qgrid(2,-٤,0)", 10),
    ],
    ids=["expr-arabic-indic", "expr-fullwidth", "expr-fraction-digit", "points", "grid", "qgrid-exponent"],
)
def test_number_literals_have_ascii_digits_only(parse, text, column):
    # float() reads any Unicode digit, so t*١٠ was t*10 and points(١٢) was points(12)
    with pytest.raises(ExprSyntaxError, match="unexpected character") as e:
        parse(text)
    assert e.value.position == column


def _token_triples(src):
    # (kind, text, column) of each token: its kind is the field of its text, and
    # the column is worked out apart from the token list
    return [
        (next((kind for kind, text in zip(("num", "ident", "op"), tok) if text), "end"), "".join(tok), _column(src, k))
        for k, tok in enumerate(_tokenize(src))
    ]


def test_tokens_pin_kind_text_and_column():
    # every operator, every number form, identifiers with '_' and digits, and
    # each whitespace character the scanner skips
    src = "f_1(x2,.5)^2.5e-3 +\t1.\r-1E+2*\n_a/1"
    got = _token_triples(src)
    assert got == [
        ("ident", "f_1", 1),
        ("op", "(", 4),
        ("ident", "x2", 5),
        ("op", ",", 7),
        ("num", ".5", 8),
        ("op", ")", 10),
        ("op", "^", 11),
        ("num", "2.5e-3", 12),
        ("op", "+", 19),
        ("num", "1.", 21),
        ("op", "-", 24),
        ("num", "1E+2", 25),
        ("op", "*", 29),
        ("ident", "_a", 31),
        ("op", "/", 33),
        ("num", "1", 34),
        ("end", "", 35),
    ]
    # whitespace before the end is skipped, and the end stands one past the last column
    assert _token_triples(" t \n") == [("ident", "t", 2), ("end", "", 5)]
    assert _token_triples(" \t") == [("end", "", 3)]


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
    """Read t by the components' number rule, then walk the tree."""
    return _walk(e, t if type(t) is float else _require_finite_number("t", t))


def _walk(e, t):
    """Tree walk: each + - * /, call and power checks its step after
    evaluating its operands."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Neg):
        return -_walk(e.operand, t)
    if isinstance(e, Pow):
        x, y = _walk(e.left, t), _walk(e.right, t)
        return _oracle_step(e, t, lambda: math.pow(x, y))
    if isinstance(e, Call):
        xs = [_walk(a, t) for a in e.args]
        return _oracle_step(e, t, lambda: _ORACLE_FNS[e.name](*xs))
    x, y = _walk(e.left, t), _walk(e.right, t)
    return _oracle_step(e, t, lambda: _ORACLE_OPS[type(e)](x, y))


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
    # an int past the float range is refused by the number rule before any
    # node is evaluated, whatever the tree
    points = (0.0, -1.0, 1.0, 2.0, -0.5, 1e200, 10**400)
    for _ in range(3000):
        ast = _random_ast(rng, rng.randint(1, 6))
        for t in (rng.choice(points), rng.uniform(-5.0, 5.0)):
            try:
                want = oracle(ast, t)
            except (EvalDomainError, ValidationError) as exc:
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
    with pytest.raises(TypeError, match="not an Expr node"):
        format_expr(1)


@pytest.mark.parametrize("text", [None, 123, b"points(1)"], ids=["None", "int", "bytes"])
def test_text_that_is_no_str_is_a_type_error(text):
    # one TypeError naming the argument, not the tokenizer's own re error
    got = type(text).__name__
    with pytest.raises(TypeError, match=f"^scale text must be a str, got {got}$"):
        parse_scale(text)
    with pytest.raises(TypeError, match=f"^expression text must be a str, got {got}$"):
        parse_expr(text)
    with pytest.raises(TypeError, match=f"^expression text must be a str, got {got}$"):
        FnOnScale.from_expression(text, parse_scale("points(1)"))


# -- the generated kernels --------------------------------------------------


def test_kernel_source_holds_no_text_of_the_expression():
    ast = parse_expr("2*cos(t/3) - pow(t, 0.5)^-1.25")
    src, consts, nodes = _kernel_source(ast)
    other, _, _ = _kernel_source(parse_expr("7.125*cos(t/1e300) - pow(t, 123456)^-4"))
    assert src == other  # constants live in the table, not in the source
    mul, power = ast.left, ast.right
    cos = mul.right
    div = cos.args[0]
    # one entry per body line, each step's own node
    want = (div, cos, mul, power.left, power, ast)
    assert consts == (2.0, 3.0, 0.5, 1.25) and len(nodes) == len(want)
    assert all(got is node for got, node in zip(nodes, want))
    assert not any(text in src for text in ("7.125", "1e300", "123456", "0.5", "1.25"))


def test_kernel_names_only_whitelisted_functions():
    class Sly(str):  # equal to 'sin', but prints as other text
        __hash__ = str.__hash__

        def __format__(self, spec):
            return "__import__('os').getpid()"

        __str__ = __repr__ = lambda self: "__import__('os').getpid()"

    src, _, _ = _kernel_source(Call(Sly("sin"), (Var(),)))
    assert "sin(t)" in src and "import" not in src and "getpid" not in src
    # the printer prints the whitelist's own name too
    assert format_expr(Mul(Const(2.0), Call(Sly("sin"), (Var(),)))) == "2*sin(t)"
    # an unknown name, or a known one with the wrong number of arguments, is
    # refused when the kernel is made or the tree printed, not when it runs
    for bad in (Call("evil", (Var(),)), Call("__import__", (Var(),)), Call("sqrt", (Var(), Var())),
                Call("pow", (Var(),)), Call("sin", ()), Call(["sin"], (Var(),))):
        for use in (lambda e: eval_expr(e, 1.0), format_expr):
            with pytest.raises(TypeError, match=r"^not an Expr node: Call\("):
                use(Add(Const(1.0), bad))


_STEP_LINE = re.compile(r"if not isfinite\(r\d+ := .+\): raise _domain_error\(N\[(\d+)\], t\)")


def _kernel_body(src):
    lines = src.splitlines()
    return [line.strip() for line in lines[lines.index("    try:") + 1:lines.index("    except _ARITH as exc:")]]


@pytest.mark.parametrize("text, statements", [
    ("2*cos(t/3)", 3),
    ("+".join(["t"] * 2000), 1999),
    ("-t^-2 / -(1 - ln(t))", 4),
    ("pow(-t, 2) * -sin(t)", 3),
    ("-(2 - -3)", 1),
], ids=["cos", "chain-2000", "neg-pow-ln", "neg-call", "constants"])
def test_kernel_is_one_checked_statement_per_node(text, statements):
    # one line per + - * /, call and power, and no other: t is read where it
    # stands, with no cover register and no separate check or negation statement
    body = _kernel_body(_kernel_source(parse_expr(text))[0])
    assert len(body) == statements
    for i, line in enumerate(body):
        m = _STEP_LINE.fullmatch(line)
        assert m and int(m.group(1)) == i, line


@pytest.mark.parametrize("text", ["t", "-t", "t+1", "2*t", "sin(t)", "2"])
def test_a_point_is_read_by_the_number_rule_whatever_the_tree(text):
    ast = parse_expr(text)
    for bad, message in [
        ("3", "t must be a real number, got '3'"),
        (b"3", "t must be a real number, got b'3'"),
        (True, "t must be a real number, got True"),
        (Decimal("NaN"), "t must not be NaN"),
        (10**400, "t is past the float range"),
    ]:
        with pytest.raises(ValidationError) as e:
            eval_expr(ast, bad)
        assert str(e.value) == message, (text, bad)
    for good in (3, Fraction(1, 3), Decimal("0.1")):
        assert eval_expr(ast, good).hex() == eval_expr(ast, float(good)).hex(), (text, good)


@pytest.mark.parametrize("op, value", [("+", 2000.0), ("*", 1.0), ("-", -1998.0)])
def test_long_chain_kernel_stays_flat(op, value):
    ast = parse_expr(op.join(["t"] * 2000))
    assert eval_expr(ast, 1.0) == value
    assert ast._code.__code__.co_nlocals <= 6
    step = {"+": operator.add, "*": operator.mul, "-": operator.sub}[op]
    for t in (0.999, -1.0003, 1.0002):  # a product of 2000 of them stays finite
        want = t
        for _ in range(1999):
            want = step(want, t)
        assert eval_expr(ast, t).hex() == want.hex()


def test_deep_call_nesting_kernel_matches_oracle():
    ast = parse_expr("abs(" * 99 + "sin(t - 1) / ln(t)" + ")" * 99)
    assert ast._code.__code__.co_nlocals <= 6
    for t in (0.25, 2.0, 7.5, 1.0, -1.0):
        try:
            want = oracle(ast, t)
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as got:
                eval_expr(ast, t)
            assert str(got.value) == str(exc) and got.value.node is exc.node
        else:
            assert eval_expr(ast, t).hex() == want.hex()


# -- formatting -----------------------------------------------------------


def test_format_round_trip_simple():
    for text in ("t + 1", "2*t", "t^2 - 1", "sin(t)", "1/(t + 1)", "-t^2"):
        ast = parse_expr(text)
        assert parse_expr(format_expr(ast)) == ast


@pytest.mark.parametrize("x", [1e15, -1e15, 9.5e15, -9.5e15, 1e16, -1e16, 0.1, -0.1])
def test_scale_and_function_printers_agree(x):
    text = format_expr(Const(x))
    scale = parse_scale(f"points({x!r})")
    assert scale.describe() == f"points({text})"
    # both languages read the printed number back as the same float
    assert ev(text, 0.0) == x
    assert parse_scale(scale.describe()) == scale


def test_integral_floats_below_1e16_print_without_a_fraction():
    assert format_expr(Const(1e15)) == "1000000000000000"
    assert parse_scale("points(1e15)").describe() == "points(1000000000000000)"
    assert format_expr(Const(1e16)) == "1e+16"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "x", True, 2, Fraction(1, 2)])
def test_a_constant_that_is_no_finite_float_is_refused(value):
    # the parser makes only finite floats, and "inf" would not parse back
    for use in (lambda e: eval_expr(e, 1.0), format_expr):
        with pytest.raises(TypeError, match=r"^not an Expr node: Const\("):
            use(Const(value))
        with pytest.raises(TypeError, match=r"^not an Expr node: Const\("):
            use(Mul(Var(), Neg(Const(value))))


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
    # '-0' is the member 0.0, not -0.0: the index bytes tell the two apart
    assert bytes(parse_scale("points(-0,1e-400,1)")._pts) == bytes(parse_scale("points(0,1)")._pts)
    assert bytes(parse_scale("points(-0." + "0" * 4296 + "1)")._pts) == bytes(parse_scale("points(0)")._pts)


def test_scale_errors():
    with pytest.raises(ExprSyntaxError):
        parse_scale("interval(0)")
    with pytest.raises(ExprSyntaxError):
        parse_scale("blob(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse_scale("grid(0, 10, 1) extra")
    with pytest.raises(ExprSyntaxError):
        parse_scale("qgrid(2, 0.5, 3)")  # exponents must be integers
    with pytest.raises(ValidationError, match="lo <= hi"):
        parse_scale("interval(inf,0)")  # it parses; the interval rejects it


@pytest.mark.parametrize(
    "parse, text, message, position, expected",
    [
        (parse_scale, "interval(0)", "expected ',', found ')'", 11, "','"),
        (parse_scale, "interval(0,1,2)", "expected ')', found ','", 13, "')'"),
        (parse_scale, "grid(0,1)", "expected ',', found ')'", 9, "','"),
        (parse_scale, "qgrid(2,0,3,one)", "expected 'zero', found 'one'", 13, "'zero'"),
        (parse_scale, "qgrid(2,0,3,zero,zero)", "expected ')', found ','", 17, "')'"),
        (parse_scale, "points()", "expected a number, found ')'", 8, "a number"),
        (parse_scale, "union(points(1) points(2))", "expected ')', found 'points'", 17, "')'"),
        (parse_scale, "union(points(1),)", "expected one of interval, points, grid, qgrid, union, found ')'",
         17, "one of interval, points, grid, qgrid, union"),
        (parse_scale, "(1)", "expected one of interval, points, grid, qgrid, union, found '('",
         1, "one of interval, points, grid, qgrid, union"),
        (parse_scale, "blob(1,2)", "unknown scale constructor 'blob'", 1, "one of interval, points, grid, qgrid, union"),
        (parse_scale, "blob 1", "expected '(', found '1'", 6, "'('"),
        (parse_scale, "points 1", "expected '(', found '1'", 8, "'('"),
        # inf is a keyword of interval bounds only, spelled exactly so
        (parse_scale, "points(inf)", "expected a number, found 'inf'", 8, "a number"),
        (parse_scale, "grid(0,inf,1)", "expected a number, found 'inf'", 8, "a number"),
        (parse_scale, "interval(0,infinity)", "expected a number or 'inf', found 'infinity'", 12, "a number or 'inf'"),
        (parse_scale, "interval(-,1)", "expected a number or 'inf', found ','", 11, "a number or 'inf'"),
        (parse_expr, "sin(t,)", "expected a number, 't', a function call, or '(', found ')'",
         7, "a number, 't', a function call, or '('"),
        (parse_expr, "sin(t t)", "expected ')', found 't'", 7, "')'"),
        (parse_expr, "pow(t,2,3)", "pow expects 2 arguments, got 3", 1, "2 arguments"),
    ],
)
def test_argument_list_errors(parse, text, message, position, expected):
    # in every argument list of both grammars a ')' too early is a missing ',',
    # a ',' too many a missing ')', and arity is the caller's
    with pytest.raises(ExprSyntaxError) as e:
        parse(text)
    assert (str(e.value), e.value.position, e.value.expected) == (message, position, expected)


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
        again = parse_scale(T.describe())
        assert again.describe() == T.describe()


@pytest.mark.parametrize("parse, text, position", [(parse_scale, "points(1,,2)@", 13), (parse_expr, "sin(t,)@", 8)])
def test_a_character_that_starts_no_token_is_reported_wherever_it_stands(parse, text, position):
    # the whole text is scanned before it is parsed: the ',,' or ',)' before the
    # '@' is not the error reported
    with pytest.raises(ExprSyntaxError) as e:
        parse(text)
    assert (str(e.value), e.value.position) == ("unexpected character '@'", position)


def _draw(rng):
    """A random finite float: random bits (17-digit reprs), a subnormal, a wide
    exponent, a short binary fraction, or a zero of either sign."""
    pick = rng.randrange(5)
    if pick == 0:
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        return x if math.isfinite(x) else 1.0
    if pick == 1:
        return rng.choice((1, -1)) * rng.randint(1, 2**52 - 1) * 5e-324
    if pick == 2:
        return rng.uniform(-10, 10) * 10.0 ** rng.randint(-300, 300)
    if pick == 3:
        return rng.randint(-40, 40) / 8
    return rng.choice((0.0, -0.0))


def _spell(rng, x):
    """x written as the scale grammar's num in a random spelling, and the text
    ``float`` reads for it: the spelling less any whitespace after the sign."""
    sign = "-" if math.copysign(1.0, x) < 0 else rng.choice(("", "+"))
    mag = abs(x)
    form = rng.randrange(4)
    if form == 0:
        digits = repr(mag)
    elif form == 1:
        digits = ("%.17e" % mag).replace("e", rng.choice("eE"))
    elif form == 2:  # the .5 and 5. forms
        digits = repr(mag)
        digits = digits[1:] if digits.startswith("0.") else digits[:-1] if digits.endswith(".0") else digits
    else:  # an integral value in integer digits, so -0.0 is '-0'
        digits = "%.0f" % mag if mag == int(mag) else repr(mag)
    gap = rng.choice(("", "", " ", "\t", "\n ")) if sign else ""
    assert float(sign + digits) == x
    return sign + gap + digits, sign + digits


def _index(T):
    return bytes(T._pts), T._inside


def test_scale_number_spellings_read_as_float_reads_them():
    # each literal is float() of its text, and '-0' is 0.0 (the index bytes tell
    # the zeros apart); a component refusing the floats refuses the text alike
    rng = random.Random(5)
    build = {"points": FinitePoints, "grid": lambda v: UniformGrid(*v), "interval": lambda v: Interval(*v)}
    outcomes = {"index": 0, "refused": 0}
    for _ in range(600):
        kind = rng.choice(sorted(build))
        values = [_draw(rng) for _ in range({"points": rng.randint(1, 6), "grid": 3, "interval": 2}[kind])]
        if kind == "grid" and rng.random() < 0.7:  # start, stop, step with a few members
            values[2] = abs(values[2]) or 0.5
            values[1] = values[0] + rng.randint(0, 40) * values[2]
        elif kind == "interval" and rng.random() < 0.7:
            values.sort()
        spelled = [_spell(rng, x) for x in values]
        text = kind + "(" + ",".join(rng.choice(("", " ")) + s for s, _ in spelled) + ")"
        try:
            want = TimeScale([build[kind]([float(f) + 0.0 for _, f in spelled])])
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                parse_scale(text)
            assert str(got.value) == str(e), text
            outcomes["refused"] += 1
            continue
        assert _index(parse_scale(text)) == _index(want), text
        outcomes["index"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_a_long_points_text_reads_as_its_members():
    rng = random.Random(9)
    spelled = [_spell(rng, _draw(rng)) for _ in range(10_000)]
    got = parse_scale("points(" + ",".join(s for s, _ in spelled) + ")")
    assert _index(got) == _index(TimeScale([FinitePoints([float(f) + 0.0 for _, f in spelled])]))
