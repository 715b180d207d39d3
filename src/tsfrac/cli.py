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
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .checks import SUITE_NAMES, run_suite
from .derivative import FnOnScale, delta_frac, nabla_frac, symmetric_frac
from .errors import PointOutsideDomain, TsfracError
from .exprlang import parse_scale
from .integral import (
    QuadratureConfig,
    delta_frac_integral,
    nabla_frac_integral,
    symmetric_frac_integral,
)
from .order import LimitConfig, Order

__all__ = ["main", "build_parser"]

_DERIV = {"nabla": nabla_frac, "delta": delta_frac, "symmetric": symmetric_frac}
_INTEG = {
    "nabla": nabla_frac_integral,
    "delta": delta_frac_integral,
    "symmetric": symmetric_frac_integral,
}


class _UsageError(Exception):
    """A command line the parser cannot read."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise instead of exiting, so
    that main reports them as a record like every other failure."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


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
        choices=("nabla", "delta", "symmetric"),
        default="nabla",
        help="derivative/integral flavor (default nabla)",
    )

    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--tol", type=float, help="limit convergence tolerance")
    limits.add_argument("--h0", type=float, help="first approach offset at dense points")
    limits.add_argument("--ratio", type=float, help="offset shrink ratio per sample")
    limits.add_argument("--max-samples", type=int, help="limit sample budget")

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
    i.add_argument("--a", required=True, type=float, help="lower endpoint (scale member)")
    i.add_argument("--b", required=True, type=float, help="upper endpoint (scale member)")
    i.add_argument("--quad-rel-tol", type=float, help="quadrature relative tolerance")
    i.add_argument("--quad-abs-tol", type=float, help="quadrature absolute tolerance")

    t = sub.add_parser(
        "table",
        parents=[scale, fn, kind, limits, fmt],
        help="derivative values over the scale points in a range",
    )
    t.add_argument("--order", required=True, metavar="P/Q", help="order in (0,1]")
    t.add_argument("--a", type=float, help="range start (default scale minimum)")
    t.add_argument("--b", type=float, help="range end (default scale maximum)")
    t.add_argument(
        "--density",
        type=float,
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
        parents=[limits, fmt],
        help="run a property suite",
    )
    k.add_argument("--suite", required=True, choices=SUITE_NAMES)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--trials", type=int, default=50)

    return p


def _given(args, names, prefix=""):
    """The flags ``prefix + name`` set on the command line, by name; a config
    class keeps its own defaults for the rest."""
    return {name: v for name in names if (v := getattr(args, prefix + name)) is not None}


def _limit_config(args) -> LimitConfig:
    return LimitConfig(**_given(args, ("h0", "ratio", "tol", "max_samples")))


def _finite(name: str, x: float) -> float:
    # NaN and infinity have no JSON form, so they cannot reach a record
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    return x


def _parse_points(text: str):
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append(_finite("point", float(chunk)))
    if not points:
        raise ValueError("no points given")
    return points


def _error_record(exc, **extra) -> dict:
    rec = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("position", "left", "right"):
        v = getattr(exc, attr, None)
        if v is not None:
            rec[attr] = v
    rec.update(extra)
    return rec


def _deriv_rows(args, points_of, skip=()):
    """One derivative record per point of ``points_of(T)``, built after the
    scale, function, order and limit flags are read; a point whose error is
    of a type in ``skip`` gets no record."""
    T = parse_scale(args.scale)
    f = FnOnScale.from_expression(args.fn, T)
    order = Order.parse(args.order)
    cfg = _limit_config(args)
    compute = _DERIV[args.kind]
    records = []
    code = 0
    for t in points_of(T):
        try:
            res = compute(f, t, order, cfg)
        except skip:
            continue
        except TsfracError as exc:
            records.append(_error_record(exc, t=t))
            code = 1
            continue
        records.append(
            {
                "t": T.snap(t),
                "kind": args.kind,
                "order": str(order),
                "value": res.value,
                "path": res.path.value,
                "side": res.side.value,
                "err_est": res.err_est,
            }
        )
    return records, code


def cmd_deriv(args):
    return _deriv_rows(args, lambda T: _parse_points(args.points))


def cmd_integ(args):
    _finite("--a", args.a)
    _finite("--b", args.b)
    T = parse_scale(args.scale)
    f = FnOnScale.from_expression(args.fn, T)
    beta = Order.parse(args.beta, allow_zero=True)
    cfg = _limit_config(args)
    qc = QuadratureConfig(**_given(args, ("rel_tol", "abs_tol"), "quad_"))
    compute = _INTEG[args.kind]
    try:
        value = compute(f, args.a, args.b, beta, cfg, qc)
    except (TsfracError, ValueError) as exc:
        return [_error_record(exc, a=args.a, b=args.b)], 1
    return (
        [
            {
                "a": T.snap(args.a),
                "b": T.snap(args.b),
                "beta": str(beta),
                "kind": args.kind,
                "value": value,
            }
        ],
        0,
    )


def cmd_table(args):
    def points_of(T):
        a = T.inf_value if args.a is None else _finite("--a", args.a)
        b = T.sup_value if args.b is None else _finite("--b", args.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("table over an unbounded scale needs explicit --a and --b")
        return T.points_in(a, b, density=args.density)

    # a point outside the derivative's domain (a scattered end) has no row
    return _deriv_rows(args, points_of, skip=PointOutsideDomain)


def cmd_classify(args):
    T = parse_scale(args.scale)
    records = []
    code = 0
    for t in _parse_points(args.points):
        ts = T.snap(t)
        if ts is None:
            records.append(
                {"error": "PointNotInScale", "message": f"t={t!r} is not in the scale", "t": t}
            )
            code = 1
            continue
        cls = T.classify(ts)
        dm = T.domain_membership(ts)
        records.append(
            {
                "t": ts,
                "class": str(cls),
                "left_dense": cls.left_dense,
                "right_dense": cls.right_dense,
                "in_nabla_domain": dm.in_nabla_domain,
                "in_delta_domain": dm.in_delta_domain,
                "in_symmetric_domain": dm.in_symmetric_domain,
            }
        )
    return records, code


def cmd_check(args):
    report = run_suite(args.suite, seed=args.seed, trials=args.trials, cfg=_limit_config(args))
    return [{**vars(report), "passed": report.passed}], 0 if report.passed else 1


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
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")
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
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        # the flags, --format among them, could not be read: report in json
        _emit([{"error": "UsageError", "message": str(exc)}], "json", sys.stdout)
        return 1
    try:
        records, code = _COMMANDS[args.command](args)
    except (TsfracError, ValueError) as exc:
        records, code = [_error_record(exc)], 1
    _emit(records, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
