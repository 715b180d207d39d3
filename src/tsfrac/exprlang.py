"""Text forms used by the CLI: a small function language and a scale
description language.

Function grammar (whitespace insensitive)::

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?          right associative
    atom    := NUMBER | "t" | NAME "(" expr ("," expr)* ")" | "(" expr ")"

with NAME one of sqrt, abs, sin, cos, exp, ln, pow (arity checked while
parsing).  ``^`` and ``pow`` follow standard real semantics: a negative base
with a non-integer exponent is a domain error, not an odd root.  The first
``eval_expr`` of an AST compiles it to one closure per node, kept on the node,
and a left chain of ``+ - * /`` to one loop (``t+t+...+t`` does not recurse).
Each step is the IEEE operation, order and EvalDomainError check of a
recursive walk, so values and errors (message, node, t) are the walk's.

Scale grammar::

    scale    := piece | "union" "(" scale ("," scale)* ")"
    piece    := "interval" "(" number "," number ")"
              | "points" "(" number ("," number)* ")"
              | "grid" "(" number "," number "," number ")"
              | "qgrid" "(" number "," integer "," integer ("," "zero")? ")"

Number literals everywhere are rounded once, correctly, to float (``float``
of the text), so a literal like 0.1 lands on the same float the scale
constructors produce.  A literal past the float range or longer than
``_MAX_LITERAL`` characters is an ExprSyntaxError at its column, and a
``qgrid`` exponent must be an exact integer.  Both parsers reject input
that nests more than 100 levels deep (``_MAX_DEPTH``) with ExprSyntaxError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property

from .errors import EvalDomainError, ExprSyntaxError
from .timescale import FinitePoints, GeometricGrid, Interval, TimeScale, UniformGrid

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "FUNCTIONS",
    "parse_expr",
    "eval_expr",
    "format_expr",
    "parse_scale",
    "format_scale",
]


class Expr:
    """Base class for function AST nodes."""

    __slots__ = ()

    @cached_property
    def _code(self):  # this node compiled to a closure of t, built on first use
        return _compile(self)

    def __getstate__(self):  # the compiled closure is rebuilt on demand, never pickled
        return {k: v for k, v in self.__dict__.items() if k != "_code"}


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple


FUNCTIONS = {"sqrt": 1, "abs": 1, "sin": 1, "cos": 1, "exp": 1, "ln": 1, "pow": 2}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int  # 1-based column


#: deepest nesting the recursive-descent parsers accept before the stack runs out
_MAX_DEPTH = 100

#: longest number literal accepted (Python's own limit for integer strings)
_MAX_LITERAL = 4300

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(src: str) -> list:
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUM_RE.match(src, i)
        if m:
            out.append(_Token("num", m.group(0), i + 1))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            out.append(_Token("ident", m.group(0), i + 1))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            out.append(_Token("op", ch, i + 1))
            i += 1
            continue
        raise ExprSyntaxError(
            f"unexpected character {ch!r}", line=1, column=i + 1, expected=""
        )
    out.append(_Token("end", "", n + 1))
    return out


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            self.fail(f"'{op}'")
        self.take()

    def enter(self) -> None:
        """Open a nesting level at the current token."""
        if self.depth >= _MAX_DEPTH:
            self.fail(f"at most {_MAX_DEPTH} nesting levels")
        self.depth += 1

    def leave(self, node):
        """Close the innermost nesting level; returns node."""
        self.depth -= 1
        return node

    def fail(self, expected: str):
        tok = self.cur
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(
            f"expected {expected}, found {what}",
            line=1,
            column=tok.pos,
            expected=expected,
        )

    def done(self) -> None:
        if self.cur.kind != "end":
            self.fail("end of input")


# function language


def parse_expr(src: str) -> Expr:
    """Parse function source into an AST; raises ExprSyntaxError with a
    1-based column on malformed input."""
    p = _Parser(src)
    node = _expr(p)
    p.done()
    return node


def _expr(p: _Parser) -> Expr:
    node = _term(p)
    while p.at_op("+", "-"):
        op = p.take().text
        rhs = _term(p)
        node = Add(node, rhs) if op == "+" else Sub(node, rhs)
    return node


def _term(p: _Parser) -> Expr:
    node = _unary(p)
    while p.at_op("*", "/"):
        op = p.take().text
        rhs = _unary(p)
        node = Mul(node, rhs) if op == "*" else Div(node, rhs)
    return node


def _unary(p: _Parser) -> Expr:
    if p.at_op("-"):
        p.enter()
        p.take()
        return p.leave(Neg(_unary(p)))
    return _power(p)


def _power(p: _Parser) -> Expr:
    node = _atom(p)
    if p.at_op("^"):
        p.enter()
        p.take()
        return p.leave(Pow(node, _unary(p)))
    return node


def _atom(p: _Parser) -> Expr:
    tok = p.cur
    if tok.kind == "num":
        p.take()
        return Const(_literal(tok.text, tok))
    if tok.kind == "ident":
        p.take()
        if tok.text == "t":
            return Var()
        if tok.text in FUNCTIONS:
            p.enter()
            return p.leave(_call(p, tok))
        raise ExprSyntaxError(
            f"unknown name {tok.text!r} (the variable is 't'; functions are "
            + ", ".join(sorted(FUNCTIONS)) + ")",
            line=1,
            column=tok.pos,
            expected="a known function or 't'",
        )
    if p.at_op("("):
        p.enter()
        p.take()
        node = _expr(p)
        p.expect_op(")")
        return p.leave(node)
    p.fail("a number, 't', a function call, or '('")


def _call(p: _Parser, name_tok: _Token) -> Expr:
    p.expect_op("(")
    args = [_expr(p)]
    while p.at_op(","):
        p.take()
        args.append(_expr(p))
    p.expect_op(")")
    want = FUNCTIONS[name_tok.text]
    if len(args) != want:
        raise ExprSyntaxError(
            f"{name_tok.text} expects {want} argument{'s' if want != 1 else ''}, "
            f"got {len(args)}",
            line=1,
            column=name_tok.pos,
            expected=f"{want} arguments",
        )
    return Call(name_tok.text, tuple(args))


_FUNCS = {"sqrt": math.sqrt, "abs": abs, "sin": math.sin, "cos": math.cos, "exp": math.exp,
          "ln": math.log, "pow": math.pow}

_ATOM_PREC = 9
_SUM_PREC = 1
_PROD_PREC = 2
_NEG_PREC = 3
_POW_PREC = 4

#: the infix nodes a left spine chains: operation, printed operator, precedence
_INFIX = {
    Add: (operator.add, " + ", _SUM_PREC),
    Sub: (operator.sub, " - ", _SUM_PREC),
    Mul: (operator.mul, "*", _PROD_PREC),
    Div: (operator.truediv, "/", _PROD_PREC),
}

_ARITH = (ValueError, ZeroDivisionError, OverflowError)


def eval_expr(e: Expr, t: float) -> float:
    """Evaluate the AST at t.  Any mathematically undefined step (division
    by zero, sqrt/ln outside their domain, negative base under a fractional
    power) and any non-finite intermediate raise EvalDomainError."""
    try:
        code = e._code
    except AttributeError:
        raise TypeError(f"not an Expr node: {e!r}") from None
    return code(t)


def _domain_error(node: Expr, t, exc=None) -> EvalDomainError:
    what = "is not finite" if exc is None else "is undefined"
    cause = "" if exc is None else f" ({exc})"
    return EvalDomainError(f"'{format_expr(node)}' {what} at t={t!r}{cause}", node=node, t=t)


def _left_spine(e: Expr):
    """The operand that ends e's left chain of + - * / nodes, and the chain, innermost first."""
    spine = []
    while type(e) in _INFIX:
        spine.append(e)
        e = e.left
    return e, spine[::-1]


def _compile(e: Expr):
    """A closure of t for e.  As in the walk, a + - * / node's check covers evaluating its
    operands, a call's or power's only its own step; a left chain is one loop."""
    isfinite = math.isfinite
    first, spine = _left_spine(e)
    if spine:
        lead = _compile(first)
        steps = [(node, _INFIX[type(node)][0], _compile(node.right)) for node in spine]

        def chain(t):
            node = spine[0]
            try:
                out = lead(t)
                for node, op, right in steps:
                    out = op(out, right(t))
                    if not isfinite(out):
                        raise _domain_error(node, t)
            except _ARITH as exc:
                raise _domain_error(node, t, exc) from None
            return out

        return chain
    if isinstance(e, Const):
        value = e.value
        return lambda t: value
    if isinstance(e, Var):
        return float
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda t: -operand(t)
    if not isinstance(e, (Pow, Call)):
        raise TypeError(f"not an Expr node: {e!r}")
    func, args = (math.pow, (e.left, e.right)) if isinstance(e, Pow) else (_FUNCS[e.name], e.args)
    f, *rest = map(_compile, args)
    g = rest[0] if rest else None  # pow's exponent

    def call(t):
        x = f(t)
        y = None if g is None else g(t)
        try:
            out = func(x) if g is None else func(x, y)
        except _ARITH as exc:
            raise _domain_error(e, t, exc) from None
        if not isfinite(out):
            raise _domain_error(e, t)
        return out

    return call


# printer; inverse of parse_expr up to structural equality


def _num_text(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(e: Expr, slot: int) -> str:
    e, spine = _left_spine(e)
    if isinstance(e, Const):
        text = _num_text(e.value)
        prec = _ATOM_PREC if e.value >= 0 else _NEG_PREC
    elif isinstance(e, Var):
        text, prec = "t", _ATOM_PREC
    elif isinstance(e, Call):
        text = f"{e.name}({', '.join(_fmt(a, 0) for a in e.args)})"
        prec = _ATOM_PREC
    elif isinstance(e, Neg):
        text, prec = "-" + _fmt(e.operand, _NEG_PREC), _NEG_PREC
    elif isinstance(e, Pow):
        text = f"{_fmt(e.left, _POW_PREC + 1)}^{_fmt(e.right, _POW_PREC)}"
        prec = _POW_PREC
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    for node in spine:  # outward along the left spine, without recursion
        _, symbol, node_prec = _INFIX[type(node)]
        if prec < node_prec:
            text = f"({text})"
        text, prec = f"{text}{symbol}{_fmt(node.right, node_prec + 1)}", node_prec
    return f"({text})" if prec < slot else text


def format_expr(e: Expr) -> str:
    return _fmt(e, 0)


# scale language


def parse_scale(src: str) -> TimeScale:
    """Parse scale source into a normalized TimeScale."""
    p = _Parser(src)
    comps = _scale(p)
    p.done()
    return TimeScale(comps)


def _scale(p: _Parser) -> list:
    tok = p.cur
    if tok.kind != "ident":
        p.fail("one of interval, points, grid, qgrid, union")
    if tok.text == "union":
        p.enter()
        p.take()
        p.expect_op("(")
        comps = _scale(p)
        while p.at_op(","):
            p.take()
            comps.extend(_scale(p))
        p.expect_op(")")
        return p.leave(comps)
    return [_piece(p)]


def _piece(p: _Parser):
    tok = p.cur
    if tok.kind != "ident":
        p.fail("one of interval, points, grid, qgrid")
    p.take()
    p.expect_op("(")
    if tok.text == "interval":
        lo = _number(p)
        p.expect_op(",")
        hi = _number(p)
        p.expect_op(")")
        return Interval(lo, hi)
    if tok.text == "points":
        values = [_number(p)]
        while p.at_op(","):
            p.take()
            values.append(_number(p))
        p.expect_op(")")
        return FinitePoints(tuple(values))
    if tok.text == "grid":
        start = _number(p)
        p.expect_op(",")
        stop = _number(p)
        p.expect_op(",")
        step = _number(p)
        p.expect_op(")")
        return UniformGrid(start, stop, step)
    if tok.text == "qgrid":
        q = _number(p)
        p.expect_op(",")
        k_min = _integer(p)
        p.expect_op(",")
        k_max = _integer(p)
        include_zero = False
        if p.at_op(","):
            p.take()
            flag = p.cur
            if flag.kind != "ident" or flag.text != "zero":
                p.fail("'zero'")
            p.take()
            include_zero = True
        p.expect_op(")")
        return GeometricGrid(q, k_min, k_max, include_zero=include_zero)
    raise ExprSyntaxError(
        f"unknown scale constructor {tok.text!r}",
        line=1,
        column=tok.pos,
        expected="one of interval, points, grid, qgrid, union",
    )


def _signed_num_text(p: _Parser) -> "tuple[str, _Token]":
    sign = ""
    if p.at_op("-") or p.at_op("+"):
        sign = p.take().text
    tok = p.cur
    if tok.kind != "num":
        p.fail("a number")
    p.take()
    return ("-" + tok.text if sign == "-" else tok.text), tok


def _literal(text: str, tok: _Token) -> float:
    """The float nearest the number literal ``text`` (``tok`` is where it
    stands), or ExprSyntaxError when it is too long or past the float range.
    ``float`` rounds correctly and reads any exponent at once."""
    value = float(text) if len(text) <= _MAX_LITERAL else math.inf
    if math.isinf(value):
        raise ExprSyntaxError(
            f"number literal past the float range or over {_MAX_LITERAL} characters",
            line=1,
            column=tok.pos,
            expected="a finite number",
        )
    return value + 0.0  # '-0' reads as 0.0, not -0.0


def _number(p: _Parser) -> float:
    return _literal(*_signed_num_text(p))


def _integer(p: _Parser) -> int:
    text, tok = _signed_num_text(p)
    _literal(text, tok)  # the range and length rule of every literal
    exact = Decimal(text)  # exact, with no 10**exponent built
    if exact != exact.to_integral_value():
        raise ExprSyntaxError(
            f"expected an integer, found {text!r}",
            line=1,
            column=tok.pos,
            expected="an integer",
        )
    return int(exact)


def format_scale(T: TimeScale) -> str:
    return T.describe()
