"""Command-line front end.

Five subcommands: ``deriv`` evaluates a fractional derivative at given
points, ``integ`` a fractional Cauchy integral, ``table`` streams
derivative values over a range of the scale, ``classify`` reports point
classes and derivative domains, and ``check`` runs one of the randomized
property suites.

Records go to stdout in the selected format (newline-delimited JSON with
sorted keys by default, or csv/table); any failure is itself a structured
record, and the exit code is 0 only when every requested value was
computed.  Output is byte-identical for identical flags and seed.

``main`` parses with one parser per process, built on its first call;
``build_parser`` returns a fresh parser to each caller.  ``integ`` loads
:mod:`tsfrac.integral` when it runs, ``check`` loads :mod:`tsfrac.checks`
when it reads ``--suite``: a ``deriv``, ``table`` or ``classify`` loads neither.
"""

from __future__ import annotations

import argparse
import csv
import enum
import functools
import json
import math
import sys

from .derivative import _DERIVS, DerivKind, FnOnScale
from .errors import ExprSyntaxError, PointOutsideDomain, TsfracError
from .exprlang import _number_text, parse_scale
from .order import LimitConfig, Order

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """A command line the parser cannot read."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise instead of exiting, so
    that main reports them as a record like every other failure."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _flag_reader(convert):
    """An argparse ``type`` reading one ``num`` of the grammars, then as
    ``convert`` does, under convert's name, so a bad value still reads
    "invalid float value: 'abc'"."""

    def read(text: str):
        try:
            return convert(_number_text(text))
        except ExprSyntaxError:
            raise ValueError(text) from None

    read.__name__ = convert.__name__
    return read


_float, _int = _flag_reader(float), _flag_reader(int)


class _SuiteNames:
    """``checks.SUITE_NAMES``, imported when argparse tests or lists a ``--suite``."""

    def __iter__(self):
        from .checks import SUITE_NAMES
        return iter(SUITE_NAMES)


def build_parser() -> argparse.ArgumentParser:
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument(
        "--scale",
        required=True,
        metavar="EXPR",
        help="scale description, e.g. 'grid(0,10,1)' or 'union(interval(0,1),points(2))'",
    )

    fn = argparse.ArgumentParser(add_help=False)
    fn.add_argument(
        "--fn",
        required=True,
        metavar="EXPR",
        help="function of t, e.g. 'sqrt(t)' or 't^2 - 1'",
    )

    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument(
        "--kind",
        choices=[k.value for k in DerivKind],
        default="nabla",
        help="derivative/integral flavor (default nabla)",
    )

    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--tol", type=_float, help="limit convergence tolerance")
    limits.add_argument("--max-samples", type=_int, help="limit sample budget")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="output format (default json: one object per line, sorted keys)",
    )

    p = _Parser(
        prog="tscale-frac",
        description="Fractional derivatives and integrals on time scales.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "deriv",
        parents=[scale, fn, kind, limits, fmt],
        help="evaluate a fractional derivative at points",
    )
    d.add_argument("--order", required=True, metavar="P/Q", help="order in (0,1], e.g. 1/2")
    d.add_argument(
        "--points",
        required=True,
        metavar="T1,T2,...",
        help="comma-separated points (use --points=-1,0 for a leading minus)",
    )

    i = sub.add_parser(
        "integ",
        parents=[scale, fn, kind, limits, fmt],
        help="evaluate a fractional Cauchy integral",
    )
    i.add_argument("--beta", required=True, metavar="P/Q", help="order in [0,1], e.g. 1/2")
    i.add_argument("--a", required=True, help="lower endpoint (scale member)")
    i.add_argument("--b", required=True, help="upper endpoint (scale member)")

    t = sub.add_parser(
        "table",
        parents=[scale, fn, kind, limits, fmt],
        help="derivative values over the scale points in a range",
    )
    t.add_argument("--order", required=True, metavar="P/Q", help="order in (0,1]")
    t.add_argument("--a", help="range start (default scale minimum)")
    t.add_argument("--b", help="range end (default scale maximum)")
    t.add_argument(
        "--density",
        type=_float,
        default=33.0,
        help="sample points per unit length inside intervals, finite and positive (default 33)",
    )

    c = sub.add_parser(
        "classify",
        parents=[scale, fmt],
        help="point classes and derivative domains",
    )
    c.add_argument("--points", required=True, metavar="T1,T2,...", help="points to classify")

    k = sub.add_parser(
        "check",
        parents=[fmt],
        help="run a property suite",
    )
    # with a metavar, building the parser does not list the choices
    k.add_argument("--suite", required=True, choices=_SuiteNames(), metavar="NAME", help="one of: %(choices)s")
    k.add_argument("--seed", type=_int, default=0)
    k.add_argument("--trials", type=_int, default=50)

    return p


_parser = functools.cache(build_parser)  # main's own; parse_args leaves it unchanged


def _limit_config(args) -> LimitConfig:
    """The limit flags set on the command line; LimitConfig keeps its own
    defaults for the rest."""
    names = ("tol", "max_samples")
    return LimitConfig(**{name: v for name in names if (v := getattr(args, name)) is not None})


def _number(name: str, text: str) -> float:
    """text read by the grammars' number rule, as a finite float: NaN and
    infinity have no JSON form, so they cannot reach a record."""
    try:
        x = float(_number_text(text))
    except ExprSyntaxError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {text!r}")
    return x


def _parse_points(text: str):
    # an entry of only whitespace is skipped, as an empty one is
    points = [_number("point", chunk) for chunk in text.split(",") if chunk.strip(" \t\r\n")]
    if not points:
        raise ValueError("no points given")
    return points


def _fields(obj) -> dict:
    """obj's public attributes that are set, an enum by its value and an
    order as p/q: the fields of a record.  An EvalDomainError's node is
    left out, as its message shows it."""
    return {
        name: v.value if isinstance(v, enum.Enum) else str(v) if isinstance(v, Order) else v
        for name, v in vars(obj).items()
        if v is not None and name[0] != "_" and name != "node"
    }


def _error_record(exc, **extra) -> dict:
    return {"error": type(exc).__name__, "message": str(exc), **_fields(exc), **extra}


def _point_rows(points, row, skip=()):
    """The records ``row(t)`` of the points; a point whose error is of a type in ``skip``
    gets none, and any other TsfracError is an error record with its t (exit code 1)."""
    records, code = [], 0
    for t in points:
        try:
            records.append(row(t))
        except skip:
            pass
        except TsfracError as exc:
            records.append(_error_record(exc, t=t))
            code = 1
    return records, code


def _deriv_rows(args, points_of, skip=()):
    """One derivative record per point of ``points_of(T)``, built after the
    scale, function, order and limit flags are read; a point whose error is
    of a type in ``skip`` gets no record."""
    T = parse_scale(args.scale)
    f = FnOnScale.from_expression(args.fn, T)
    order = Order.parse(args.order)
    cfg = _limit_config(args)
    compute = _DERIVS[DerivKind(args.kind)]

    def row(t):  # the result at the member t snapped to
        return _fields(compute(f, t, order, cfg))

    return _point_rows(points_of(T), row, skip)


def cmd_deriv(args):
    return _deriv_rows(args, lambda T: _parse_points(args.points))


def cmd_integ(args):
    from .integral import _CAUCHY
    a, b = _number("--a", args.a), _number("--b", args.b)
    T = parse_scale(args.scale)
    f = FnOnScale.from_expression(args.fn, T)
    beta = Order.parse(args.beta, allow_zero=True)
    cfg = _limit_config(args)
    compute = _CAUCHY[DerivKind(args.kind)]
    try:
        value = compute(f, a, b, beta, cfg)
    except (TsfracError, ValueError) as exc:
        return [_error_record(exc, a=a, b=b)], 1
    return (
        [
            {
                "a": T.snap(a),
                "b": T.snap(b),
                "beta": str(beta),
                "kind": args.kind,
                "value": value,
            }
        ],
        0,
    )


def cmd_table(args):
    def points_of(T):
        a = T.inf_value if args.a is None else _number("--a", args.a)
        b = T.sup_value if args.b is None else _number("--b", args.b)
        if math.isinf(a) or math.isinf(b):
            raise ValueError(f"{'--a' if math.isinf(a) else '--b'} is needed: the scale is unbounded on that side")
        return T.points_in(a, b, density=args.density)

    # a point outside the derivative's domain (a scattered end) has no row
    return _deriv_rows(args, points_of, skip=PointOutsideDomain)


def cmd_classify(args):
    T = parse_scale(args.scale)

    def row(t):
        t = T._require_member(t)  # the member t snaps to
        cls, dm = T.classify(t), T.domain_membership(t)
        return {"t": t, "class": str(cls), **_fields(cls), **_fields(dm), "in_symmetric_domain": dm.in_symmetric_domain}

    return _point_rows(_parse_points(args.points), row)


def cmd_check(args):
    from .checks import run_suite
    report = run_suite(args.suite, seed=args.seed, trials=args.trials)
    # a non-finite residual is inf, which JSON has no number for: spelled as the scale text writes it
    residual = report.max_residual if math.isfinite(report.max_residual) else "inf"
    return [{**vars(report), "max_residual": residual, "passed": report.passed}], 0 if report.passed else 1


_COMMANDS = {
    "deriv": cmd_deriv,
    "integ": cmd_integ,
    "table": cmd_table,
    "classify": cmd_classify,
    "check": cmd_check,
}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return " | ".join(str(v) for v in value)
    return str(value)


def _emit(records, fmt: str, out) -> None:
    if fmt == "json":
        encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode  # json.dumps builds one per call
        for rec in records:
            out.write(encode(rec) + "\n")
        return
    if not records:
        return
    cols = sorted({key for rec in records for key in rec})
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        for rec in records:
            writer.writerow([_cell(rec.get(c)) for c in cols])
        return
    rows = [[_cell(rec.get(c)) for c in cols] for rec in records]
    widths = [max(len(col), *(len(row[i]) for row in rows)) for i, col in enumerate(cols)]
    out.write("  ".join(col.ljust(widths[i]) for i, col in enumerate(cols)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(row[i].ljust(widths[i]) for i in range(len(cols))).rstrip() + "\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        # the flags, --format among them, could not be read: report in json
        _emit([_error_record(exc)], "json", sys.stdout)
        return 1
    try:
        records, code = _COMMANDS[args.command](args)
    except (TsfracError, ValueError) as exc:
        records, code = [_error_record(exc)], 1
    _emit(records, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
