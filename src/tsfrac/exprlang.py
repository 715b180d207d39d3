"""Text forms used by the CLI: a small function language and a scale
description language.

Function grammar; tokens may be separated by spaces, tabs, CRs and LFs, and by no
other character::

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?          right associative
    atom    := NUMBER | "t" | NAME "(" expr ("," expr)* ")" | "(" expr ")"

with NAME one of sqrt, abs, sin, cos, exp, ln, pow (arity checked while
parsing).  ``^`` and ``pow`` follow standard real semantics: a negative base
with a non-integer exponent is a domain error, not an odd root.  The first
``eval_expr`` of an AST generates one straight-line Python function of a float
t for it (its kernel, see ``_kernel_source``), kept on the root, so every later
sample runs in a single frame, with the values and errors (message, node, t) of
a recursive walk.  Generating it walks a left chain of ``+ - * /`` in a loop
(``t+t+...+t`` does not recurse), and the kernel's locals are reused
registers, few even for long chains.

Scale grammar::

    scale    := piece | "union" "(" scale ("," scale)* ")"
    piece    := "interval" "(" bound "," bound ")"
              | "points" "(" number ("," number)* ")"
              | "grid" "(" number "," number "," number ")"
              | "qgrid" "(" number "," integer "," integer ("," "zero")? ")"
    bound    := number | ("-" | "+")? "inf"

Number literals everywhere are decimal or scientific, in ASCII digits, and
rounded once, correctly, to float (``float`` of the text), so a literal like
0.1 lands on the same float the scale constructors produce.  A literal past
the float range or longer than ``_MAX_LITERAL`` characters is an
ExprSyntaxError at its column, and a ``qgrid`` exponent must be an exact
integer.  Both parsers reject input that nests more than 100 levels deep
(``_MAX_DEPTH``) with ExprSyntaxError.  Both scan the whole text first, in one
``findall``, so a character that starts no token is the error reported wherever
it stands; a token's column is worked out only for an error, by scanning again.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from functools import cached_property, lru_cache

from .errors import EvalDomainError, ExprSyntaxError, _Record
from .timescale import FinitePoints, GeometricGrid, Interval, TimeScale, UniformGrid, _fmt_num, _require_finite_number

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
]


class Expr(_Record):
    """Base class for function AST nodes."""

    @cached_property
    def _code(self):  # this tree's kernel, a function of t generated on first use
        return _compile(self)

    def __getstate__(self):  # the kernel is rebuilt on demand, never pickled
        return {k: v for k, v in self.__dict__.items() if k != "_code"}


class Const(Expr):
    def __init__(self, value: float):
        vars(self).update(value=value)


class Var(Expr):
    pass


class Neg(Expr):
    def __init__(self, operand: Expr):
        vars(self).update(operand=operand)


class _Binary(Expr):
    """A node with two operands.  The infix ones, + - * /, chain to the left
    and say how they parse and print: ``symbol`` between the operands (its
    stripped text the token), binding at precedence ``prec`` (class attributes,
    not fields)."""

    symbol = prec = None

    def __init__(self, left: Expr, right: Expr):
        vars(self).update(left=left, right=right)


class Add(_Binary):
    symbol, prec = " + ", 1


class Sub(_Binary):
    symbol, prec = " - ", 1


class Mul(_Binary):
    symbol, prec = "*", 2


class Div(_Binary):
    symbol, prec = "/", 2


class Pow(_Binary):
    """``left^right``, right associative; its kernel step is ``pow(left, right)``."""


#: the infix nodes by their operator token
_INFIX = {cls.symbol.strip(): cls for cls in (Add, Sub, Mul, Div)}

#: binding precedences above the infix nodes' own (1 for + -, 2 for * /); the parser
#: reads the unary minus's and the ``^``'s, the printer all three
_ATOM_PREC = 9
_NEG_PREC = 3
_POW_PREC = 4


class Call(Expr):
    def __init__(self, name: str, args: tuple):
        vars(self).update(name=name, args=args)


FUNCTIONS = {"sqrt": 1, "abs": 1, "sin": 1, "cos": 1, "exp": 1, "ln": 1, "pow": 2}


#: deepest nesting the recursive-descent parsers accept before the stack runs out
_MAX_DEPTH = 100

#: longest number literal accepted (Python's own limit for integer strings)
_MAX_LITERAL = 4300

#: a token after optional whitespace (space, tab, CR or LF), its kind the name of the
#: group it matches; digits are ASCII only, as in identifiers.  A character that starts
#: no token begins a "bad" match of the rest of the source, so it is the last match.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>[^ \t\r\n].*))",
    re.S,
)


def _tokenize(src: str) -> list:
    """src's tokens as (num, ident, op, bad) texts, only the token's kind not empty,
    then the end ("", "", "", ""); ExprSyntaxError at a character that starts none."""
    toks = _TOKEN_RE.findall(src)
    if toks and (bad := toks[-1][3]):  # a bad match runs to the end of src
        expected = "a number, a name, or one of + - * / ^ ( ) ,"  # what starts a token
        raise ExprSyntaxError(f"unexpected character {bad[0]!r}", position=len(src) - len(bad) + 1, expected=expected)
    toks.append(("", "", "", ""))
    return toks


def _column(src: str, k: int) -> int:
    """The 1-based column of src's token k."""
    for j, m in enumerate(_TOKEN_RE.finditer(src)):
        if j == k:
            return m.start(m.lastgroup) + 1
    return len(src) + 1  # the end


class _Parser:
    """Reads the tokens of one text by index; ``i`` is the current token."""

    def __init__(self, src: str, what: str):
        if not isinstance(src, str):
            raise TypeError(f"{what} must be a str, got {type(src).__name__}")
        self.src = src
        self.toks = _tokenize(src)
        self.i = self.depth = 0

    def at_op(self, *ops: str) -> bool:
        return self.toks[self.i][2] in ops

    def expect_op(self, op: str) -> None:
        if self.toks[self.i][2] != op:
            self.fail(f"'{op}'")
        self.i += 1

    def items(self, read) -> list:
        """The items of a list ``( item, item, ... )``, each read by read."""
        self.expect_op("(")
        out = [read(self)]
        while self.at_op(","):
            self.i += 1
            out.append(read(self))
        self.expect_op(")")
        return out

    def enter(self) -> None:
        """Open a nesting level at the current token."""
        if self.depth >= _MAX_DEPTH:
            self.fail(f"at most {_MAX_DEPTH} nesting levels")
        self.depth += 1

    def leave(self, node):
        """Close the innermost nesting level; returns node."""
        self.depth -= 1
        return node

    def error(self, message: str, at: int, expected: str):
        raise ExprSyntaxError(message, position=_column(self.src, at), expected=expected)

    def fail(self, expected: str, at=None):
        """ExprSyntaxError: expected, found token at (default: the current one)."""
        at = self.i if at is None else at
        text = "".join(self.toks[at])
        self.error(f"expected {expected}, found {repr(text) if text else 'end of input'}", at, expected)

    def done(self) -> None:
        if self.i != len(self.toks) - 1:
            self.fail("end of input")


# function language


def parse_expr(src: str) -> Expr:
    """Parse function source into an AST; raises ExprSyntaxError with a
    1-based column on malformed input."""
    p = _Parser(src, "expression text")
    node = _expr(p)
    p.done()
    return node


def _expr(p: _Parser, prec: int = 1) -> Expr:
    """The expression at the current token whose infix operators bind at ``prec``
    or tighter, by precedence climbing: a unary minus reads its operand at
    ``_NEG_PREC``, a ``^`` its right operand at ``_POW_PREC`` (so it is right
    associative), and each + - * / its right operand at its class's ``prec`` + 1,
    in a loop (so they chain to the left)."""
    if p.at_op("-"):
        p.enter()
        p.i += 1
        node = p.leave(Neg(_expr(p, _NEG_PREC)))
    else:
        node = _atom(p)
        if p.at_op("^"):
            p.enter()
            p.i += 1
            node = p.leave(Pow(node, _expr(p, _POW_PREC)))
    while (cls := _INFIX.get(p.toks[p.i][2])) is not None and cls.prec >= prec:
        p.i += 1
        node = cls(node, _expr(p, cls.prec + 1))
    return node


def _atom(p: _Parser) -> Expr:
    at = p.i
    num, name, _, _ = p.toks[at]
    if num:
        p.i += 1
        return Const(_literal(p, num, at))
    if name:
        p.i += 1
        if name == "t":
            return Var()
        if name in FUNCTIONS:
            p.enter()
            return p.leave(_call(p, name, at))
        p.error(
            f"unknown name {name!r} (the variable is 't'; functions are "
            + ", ".join(sorted(FUNCTIONS)) + ")",
            at,
            "a known function or 't'",
        )
    if p.at_op("("):
        p.enter()
        p.i += 1
        node = _expr(p)
        p.expect_op(")")
        return p.leave(node)
    p.fail("a number, 't', a function call, or '('")


def _call(p: _Parser, name: str, at: int) -> Expr:
    """The call of name, the token at; its argument list is the current token."""
    args = p.items(_expr)
    want = FUNCTIONS[name]
    if len(args) != want:
        p.error(
            f"{name} expects {want} argument{'s' if want != 1 else ''}, got {len(args)}",
            at,
            f"{want} arguments",
        )
    return Call(name, tuple(args))


_FUNCS = {"sqrt": math.sqrt, "abs": abs, "sin": math.sin, "cos": math.cos, "exp": math.exp,
          "ln": math.log, "pow": math.pow}

_ARITH = (ValueError, ZeroDivisionError, OverflowError)


def eval_expr(e: Expr, t: float) -> float:
    """Evaluate the AST at t, read by the components' number rule.  Any undefined
    step (division by zero, sqrt/ln outside their domain, negative base under a
    fractional power) and any non-finite intermediate raise EvalDomainError."""
    try:
        code = e._code
    except AttributeError:
        raise TypeError(f"not an Expr node: {e!r}") from None
    return code(t if type(t) is float else _require_finite_number("t", t))


def _domain_error(node: Expr, t, exc=None) -> EvalDomainError:
    what = "is not finite" if exc is None else "is undefined"
    cause = "" if exc is None else f" ({exc})"
    return EvalDomainError(f"'{format_expr(node)}' {what} at t={t!r}{cause}", node=node, t=t)


def _left_spine(e: Expr):
    """The operand that ends e's left chain of + - * / nodes, and the chain, innermost first."""
    spine = []
    while isinstance(e, _Binary) and e.symbol is not None:
        spine.append(e)
        e = e.left
    return e, spine[::-1]


#: what a kernel's source may name besides its tables and its own locals; no builtins
_KERNEL_GLOBALS = {
    **_FUNCS,
    "isfinite": math.isfinite,
    "_ARITH": _ARITH,
    "_domain_error": _domain_error,
    "__builtins__": {},
}

#: a Call's name mapped to the whitelist's own string, the only function text a kernel holds
_FUNC_NAME = {name: name for name in _FUNCS}


def _step_name(e) -> str:
    """The function a Call or Pow e steps by, as the whitelist's own string, or ""
    for a Const, Var or Neg; TypeError for a node the parser cannot make, such as a
    Call off the whitelist (name or arity) or a Const that is not a finite float.
    Checked where a kernel is made or a tree printed, never per sample."""
    if isinstance(e, Call) and isinstance(e.name, str) and FUNCTIONS.get(e.name) == len(e.args):
        return _FUNC_NAME[e.name]
    if isinstance(e, (Var, Neg)) or isinstance(e, Const) and type(e.value) is float and math.isfinite(e.value):
        return ""
    if isinstance(e, Pow):
        return "pow"
    raise TypeError(f"not an Expr node: {e!r}")

_KERNEL = """\
def kernel(t):
    try:
{body}
    except _ARITH as exc:
        raise _domain_error(N[exc.__traceback__.tb_lineno - 3], t, exc) from None
    return {out}
"""


def _compile(e: Expr):
    """The kernel of t for e, one generated function that runs every step in a single
    frame; a bare ``t`` is ``float`` itself."""
    if type(e) is Var:
        return float
    src, consts, nodes = _kernel_source(e)
    scope = dict(_KERNEL_GLOBALS, C=consts, N=nodes)
    exec(_kernel_code(src), scope)
    return scope.pop("kernel")


@lru_cache(maxsize=256)
def _kernel_code(src: str):  # compiled once for all the ASTs of one shape
    return compile(src, "<tsfrac kernel>", "exec")


def _kernel_source(root: Expr):
    """The source of root's kernel, and the tables of constants (C) and nodes (N) it
    reads as globals.

    The kernel is straight-line code in the walk's order.  Each + - * /, call and
    power is one statement, ``if not isfinite(r<slot> := <step>): raise
    _domain_error(N[i], t)``, that keeps its value in the register of its operand
    slot; a negation stays inline in its operand's text, and t, a float, is read
    where it stands.  N holds body line i's node (source line 3 + i), so the one
    ``except`` names the node of the line that raised.  The source is made of fixed
    templates, indices and ``_FUNC_NAME`` alone: no text of the input, constants or
    names included, reaches it."""
    consts, nodes, lines = [], [], []

    def check(node, slot, step):  # node's one statement; the register it sets
        lines.append(f"if not isfinite(r{slot} := {step}): raise _domain_error(N[{len(nodes)}], t)")
        nodes.append(node)
        return f"r{slot}"

    def emit(e, slot):  # e's statements; its operand text
        first, spine = _left_spine(e)
        if spine:  # a left chain is a loop here, not a recursion
            out = emit(first, slot)
            for n in spine:
                out = check(n, slot, f"{out} {n.symbol.strip()} {emit(n.right, slot + 1)}")
            return out
        name = _step_name(e)
        if isinstance(e, Const):
            consts.append(e.value)
            return f"C[{len(consts) - 1}]"
        if isinstance(e, Var):
            return "t"
        if isinstance(e, Neg):  # a negation cannot raise: it stays in its operand's text
            return "-" + emit(e.operand, slot)
        args = (e.left, e.right) if isinstance(e, Pow) else e.args
        operands = ", ".join([emit(a, slot + j) for j, a in enumerate(args)])
        return check(e, slot, f"{name}({operands})")

    out = emit(root, 0)
    body = "\n".join("        " + line for line in lines or ["pass"])  # constants alone: no line
    return _KERNEL.format(body=body, out=out), tuple(consts), tuple(nodes)


# printer; inverse of parse_expr up to structural equality


def _fmt(e: Expr, slot: int) -> str:
    e, spine = _left_spine(e)
    name = _step_name(e)
    if isinstance(e, Const):
        text = _fmt_num(e.value)
        prec = _ATOM_PREC if e.value >= 0 else _NEG_PREC
    elif isinstance(e, Var):
        text, prec = "t", _ATOM_PREC
    elif isinstance(e, Neg):
        text, prec = "-" + _fmt(e.operand, _NEG_PREC), _NEG_PREC
    elif isinstance(e, Pow):
        text = f"{_fmt(e.left, _POW_PREC + 1)}^{_fmt(e.right, _POW_PREC)}"
        prec = _POW_PREC
    else:  # a Call
        text = f"{name}({', '.join(_fmt(a, 0) for a in e.args)})"
        prec = _ATOM_PREC
    for node in spine:  # outward along the left spine, without recursion
        if prec < node.prec:
            text = f"({text})"
        text, prec = f"{text}{node.symbol}{_fmt(node.right, node.prec + 1)}", node.prec
    return f"({text})" if prec < slot else text


def format_expr(e: Expr) -> str:
    return _fmt(e, 0)


# scale language


def parse_scale(src: str) -> TimeScale:
    """Parse scale source into a normalized TimeScale."""
    p = _Parser(src, "scale text")
    comps = _scale(p)
    p.done()
    return TimeScale(comps)


def _scale(p: _Parser) -> list:
    """The components of the scale at the current token."""
    at, name = p.i, p.toks[p.i][1]
    if name == "union":
        p.enter()
        p.i += 1
        return p.leave([c for part in p.items(_scale) for c in part])
    if not name:
        p.fail("one of interval, points, grid, qgrid, union")
    p.i += 1
    if name == "interval":
        return [Interval(*_numbers(p, "bb"))]
    if name == "points":
        return [FinitePoints(tuple(_numbers(p, "n", repeat=True)))]
    if name == "grid":
        return [UniformGrid(*_numbers(p, "nnn"))]
    if name == "qgrid":
        q, k_min, k_max, *zero = _numbers(p, "niiz", least=3)
        return [GeometricGrid(q, k_min, k_max, include_zero=bool(zero))]
    p.expect_op("(")
    p.error(f"unknown scale constructor {name!r}", at, "one of interval, points, grid, qgrid, union")


#: the item rules of ``_numbers``: a number, an integer, a bound (a number, or
#: ``inf`` after an optional sign) or the flag ``zero``
_RULES = {"n": "a number", "i": "a number", "b": "a number or 'inf'", "z": "'zero'"}


def _numbers(p: _Parser, rules: str, least=None, repeat=False) -> list:
    """The items of a constructor's list ``( item, item, ... )`` in one loop with no
    call per token: item k read by rules[k] and, with repeat, every item past them
    by the last rule.  At least ``least`` items (default: one per rule); a ')' too
    early fails as a missing ',' and a ',' too many as a missing ')'."""
    least = len(rules) if least is None else least
    most, last, inf = math.inf if repeat else len(rules), len(rules) - 1, math.inf
    toks, i, k, out = p.toks, p.i, 0, []
    if toks[i][2] != "(":
        p.fail("'('")
    while True:
        rule = rules[k if k < last else last]
        i += 1
        num, name, op, _ = toks[i]
        if not num and op in ("-", "+") and rule != "z":  # a sign
            i += 1
            num, name, _, _ = toks[i]
        if num and rule != "z":
            text = "-" + num if op == "-" else num
            if rule == "i":
                x = _integer(p, text, i)
            else:  # _literal's rule inline: no call unless the literal is refused
                x = float(text) if len(text) <= _MAX_LITERAL else inf
                if x == inf or x == -inf:
                    _literal(p, text, i)
        elif rule == "b" and name == "inf":
            x = -inf if op == "-" else inf
        elif rule == "z" and name == "zero":
            x = True
        else:
            p.fail(_RULES[rule], i)
        out.append(x)
        k += 1
        i += 1
        sep = toks[i][2]
        if k == most or (k >= least and sep != ","):
            break
        if sep != ",":
            p.fail("','", i)
    if sep != ")":
        p.fail("')'", i)
    p.i = i + 1
    return out


def _number_text(src: str) -> str:
    """The one signed number literal src holds between optional whitespace,
    else ExprSyntaxError: the number rule the CLI and Order.parse read by."""
    p = _Parser(src, "number text")
    sign = p.toks[0][2] if p.at_op("-", "+") else ""
    p.i = len(sign)
    num = p.toks[p.i][0]
    if not num:
        p.fail("a number")
    p.i += 1
    p.done()
    return "-" + num if sign == "-" else num


def _literal(p: _Parser, text: str, at: int) -> float:
    """The float nearest the number literal ``text`` (token ``at``), or
    ExprSyntaxError when it is too long or past the float range.  ``float``
    rounds correctly and reads any exponent at once."""
    value = float(text) if len(text) <= _MAX_LITERAL else math.inf
    if math.isinf(value):
        p.error(f"number literal past the float range or over {_MAX_LITERAL} characters", at, "a finite number")
    return value


def _integer(p: _Parser, text: str, at: int) -> int:
    _literal(p, text, at)  # the range and length rule of every literal
    exact = Decimal(text)  # exact, with no 10**exponent built
    if exact != exact.to_integral_value():
        p.error(f"expected an integer, found {text!r}", at, "an integer")
    return int(exact)
