"""Tracing for the benchmark's traced run, and the reader of its span export.

Tracing lives in the benchmark only; tsfrac itself is not changed.  The
tracer replaces each public function and public method of the layer
modules (``exprlang``, ``timescale``, ``order``, ``derivative``,
``integral``, ``cli``, ``checks``) at every name a caller looks it up by:
module globals, the ``tsfrac`` package namespace, dispatch dicts such as
``cli._DERIV``, and class attributes.  ``errors`` has no work to trace.

Each call becomes a span: (name, start_ns, end_ns, parent span, op id,
attr).  ``attr`` is a small int recorded for some spans: the scale's
component count on ``TimeScale`` methods, 1 for a dense-path result of a
derivative and 0 for an exact one, ``2 * samples_used + converged`` for
``estimate_limit`` (-1 on these when the call raised), and
the number of ``EndpointAdjustedWarning``s on the root ``op`` span.  The
component classes' own methods (``nearest``, ``first_above``, ...) are not
wrapped: they are the per-component protocol under every ``TimeScale``
query and count as that query's self time.  ``signed_pow`` is only
counted, since a span would cost more than the call.

Spans are kept in memory and written once, when the run ends, as a
gzip'd TSV file.  :func:`layer_metrics` reads such a file and computes
self times (a span's duration minus that of its children) and the
per-layer metrics; run as a script, this module prints the per-layer table
of every traced run found under ``bench/out``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("exprlang", "timescale", "order", "derivative", "integral", "cli", "checks")
QUERIES = ("snap", "sigma", "rho", "mu", "nu", "classify", "domain_membership")
DERIVS = ("nabla_frac", "delta_frac", "symmetric_frac")
INTEGRALS = ("nabla_frac_integral", "delta_frac_integral", "symmetric_frac_integral", "nabla_integral", "delta_integral")
COUNT_ONLY = {"signed_pow"}
COMPONENTS = {"Interval", "FinitePoints", "UniformGrid", "GeometricGrid"}


class Tracer:
    """In-memory span store.  ``op`` is the id of the op in progress."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, attr=0) -> list:
        rec = [nid, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op, attr]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, attr=None):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        unset = 0 if attr is None else -1  # -1 stays when the call raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(nid, unset)
            try:
                out = fn(*args, **kwargs)
                if attr is not None:
                    rec[5] = attr(args, out)
                return out
            finally:
                close(rec)

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: Path) -> None:
        """Export: a JSON header line with the name table, then one TSV row
        per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent", "op", "attr"]}) + "\n")
            for rec in self.spans:
                out.write("%d\t%d\t%d\t%d\t%d\t%d\n" % tuple(rec))


def _ncomp(args, out):
    return len(args[0].components)


def _dense_result(args, out):
    return 1 if out.path.value == "dense-limit" else 0


def _limit_result(args, out):
    return 2 * out.samples_used + (1 if out.converged else 0)


def install(tracer: Tracer, ts) -> None:
    """Wrap the public API of every layer of the freshly imported package
    ``ts`` (``tsfrac``) at every name callers look it up by."""
    import importlib

    modules = [importlib.import_module(f"tsfrac.{layer}") for layer in LAYERS]
    namespaces = [vars(m) for m in modules] + [vars(ts)]
    for layer, mod in zip(LAYERS, modules):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if name in COUNT_ONLY:
                    new = tracer.counter(f"{layer}.{name}", obj)
                else:
                    attr = _dense_result if name in DERIVS else _limit_result if name == "estimate_limit" else None
                    new = tracer.wrap(f"{layer}.{name}", obj, attr)
                _replace(namespaces, obj, new)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and obj.__name__ not in COMPONENTS:
                _wrap_methods(tracer, layer, obj)


def _replace(namespaces, old, new) -> None:
    for ns in namespaces:
        for key, value in list(ns.items()):
            if value is old:
                ns[key] = new
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    attr = _ncomp if cls.__name__ == "TimeScale" else None
    for name, raw in list(vars(cls).items()):
        if name.startswith("_") and not (name == "__init__" and cls.__name__ == "TimeScale"):
            continue
        label = f"{layer}.{cls.__name__}.{'build' if name == '__init__' else name}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, name, type(raw)(tracer.wrap(label, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, name, tracer.wrap(label, raw, None if name == "__init__" else attr))


# -- reader ------------------------------------------------------------------


def read_spans(path: Path):
    with gzip.open(path, "rt") as f:
        names = json.loads(f.readline())["names"]
        rows = [tuple(map(int, line.split("\t"))) for line in f]
    return names, rows


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(names, rows, first_ops=None) -> dict:
    """Per-layer metrics from an exported span list.

    Spans outside any op (op id -1, set-up) count only towards the parse
    and build times.  With ``first_ops`` set, only the ops with id below it
    count, and the result holds the deterministic work counters (integer
    totals) instead."""
    if first_ops is not None:
        # op ids only grow, so those ops' spans are a prefix of the list
        end = next((i for i, r in enumerate(rows) if r[4] >= first_ops), len(rows))
        rows = rows[:end]
    n = len(rows)
    short = [nm.split(".", 1)[1] if "." in nm else nm for nm in names]
    leaf = [nm.rsplit(".", 1)[-1] for nm in names]
    layer = [nm.split(".", 1)[0] for nm in names]
    dur = [r[2] - r[1] for r in rows]
    child = [0] * n
    # spans are stored in start order, so a parent precedes its children
    top_deriv = [-1] * n
    top_integ = [-1] * n
    for i, r in enumerate(rows):
        p = r[3]
        lf = leaf[r[0]]
        if p >= 0:
            child[p] += dur[i]
            top_deriv[i] = top_deriv[p]
            top_integ[i] = top_integ[p]
        if top_deriv[i] < 0 and lf in DERIVS and layer[r[0]] == "derivative":
            top_deriv[i] = i
        if top_integ[i] < 0 and lf in INTEGRALS and layer[r[0]] == "integral":
            top_integ[i] = i
    self_t = [d - c for d, c in zip(dur, child)]

    by_name: dict[str, list[int]] = {}
    setup: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        (by_name if r[4] >= 0 else setup).setdefault(short[r[0]], []).append(i)

    def spans(*keys, with_setup=False):
        found = [i for k in keys for i in by_name.get(k, ())]
        return found + [i for k in keys for i in setup.get(k, ())] if with_setup else found

    ops = spans("op")
    n_ops = len(ops)
    op_ns = sum(dur[i] for i in ops)
    evals = spans("eval_expr")
    queries = spans(*(f"TimeScale.{q}" for q in QUERIES))
    limits = spans("estimate_limit")
    antiderivs = spans("Antiderivative.eval")
    top_derivs = [i for i in spans(*DERIVS) if top_deriv[i] == i]
    top_integs = [i for i in spans(*INTEGRALS) if top_integ[i] == i]
    integ_evals = sum(1 for i in evals if top_integ[i] >= 0)
    deriv_evals = sum(1 for i in evals if top_deriv[i] >= 0 and top_integ[i] < 0)
    integ_antiderivs = sum(1 for i in antiderivs if top_integ[i] >= 0)
    adjustments = sum(rows[i][5] for i in ops)
    returned_limits = [i for i in limits if rows[i][5] >= 0]
    samples = [rows[i][5] // 2 for i in returned_limits]

    if first_ops is not None:
        return {
            "ops": n_ops,
            "f_evals": len(evals),
            "derivative_calls": len(top_derivs),
            "f_evals_in_derivatives": deriv_evals,
            "scale_queries": len(queries),
            "limit_calls": len(limits),
            "limit_samples": sum(samples),
            "integral_calls": len(top_integs),
            "integrand_evals": integ_evals,
            "antideriv_calls": integ_antiderivs,
            "endpoint_adjustments": adjustments,
        }

    def per_op(count):
        return count / n_ops if n_ops else 0.0

    def share(idx):
        return sum(self_t[i] for i in idx) / op_ns if op_ns else 0.0

    def layer_spans(name):
        return [i for i, r in enumerate(rows) if layer[r[0]] == name and r[4] >= 0]

    us, ms = 1e-3, 1e-6
    c1 = [self_t[i] for i in queries if rows[i][5] == 1]
    c200 = [self_t[i] for i in queries if rows[i][5] >= 100]
    derivs = spans(*DERIVS)
    return {
        "exprlang.eval_calls_per_op": per_op(len(evals)),
        "exprlang.eval_self_us": _mean([self_t[i] for i in evals]) * us,
        "exprlang.eval_share": share(evals),
        "exprlang.parse_us": _mean([self_t[i] for i in spans("parse_expr", "parse_scale", with_setup=True)]) * us,
        "timescale.build_ms": _mean([dur[i] for i in spans("TimeScale.build", with_setup=True)]) * ms,
        "timescale.query_calls_per_op": per_op(len(queries)),
        "timescale.query_self_us.c1": _mean(c1) * us,
        "timescale.query_self_us.c200": _mean(c200) * us,
        "timescale.approach_self_us": _mean([self_t[i] for i in spans("TimeScale.approach_sequence", "TimeScale.symmetric_pairs")]) * us,
        "timescale.points_in_ms": _mean([dur[i] for i in spans("TimeScale.points_in")]) * ms,
        "order.limit_calls_per_op": per_op(len(limits)),
        "order.samples_per_limit": _mean(samples),
        "order.converged_share": _mean([rows[i][5] % 2 for i in returned_limits]),
        "order.limit_self_us": _mean([self_t[i] for i in limits]) * us,
        "derivative.scattered_us": _median([dur[i] for i in derivs if rows[i][5] == 0]) * us,
        "derivative.dense_us": _median([dur[i] for i in derivs if rows[i][5] == 1]) * us,
        "derivative.self_share": share(layer_spans("derivative")),
        "integral.f_evals_per_integral": integ_evals / len(top_integs) if top_integs else 0.0,
        "integral.classical_ms": _mean([dur[i] for i in spans("nabla_integral", "delta_integral")]) * ms,
        "integral.antideriv_calls_per_integral": integ_antiderivs / len(top_integs) if top_integs else 0.0,
        "integral.antideriv_self_us": _mean([self_t[i] for i in antiderivs]) * us,
        "integral.endpoint_adjustments_per_op": per_op(adjustments),
        "cli.main_ms": _median([dur[i] for i in spans("main")]) * ms,
        "cli.self_share": share(layer_spans("cli")),
        "checks.suite_ms": _median([dur[i] for i in spans("run_suite")]) * ms,
    }


def counter_ratios(c: dict) -> dict:
    """The work counters as per-unit ratios of their integer totals."""

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    return {
        "counters.f_evals_per_value": ratio("f_evals_in_derivatives", "derivative_calls"),
        "counters.queries_per_op": ratio("scale_queries", "ops"),
        "counters.samples_per_limit": ratio("limit_samples", "limit_calls"),
        "counters.integrand_evals_per_integral": ratio("integrand_evals", "integral_calls"),
        "counters.antideriv_calls_per_integral": ratio("antideriv_calls", "integral_calls"),
        "counters.endpoint_adjustments_per_op": ratio("endpoint_adjustments", "ops"),
    }


def self_shares(names, rows) -> dict:
    """Self time of each layer's spans over the total op time."""
    dur = [r[2] - r[1] for r in rows]
    self_t = dur[:]
    for i, r in enumerate(rows):
        if r[3] >= 0:
            self_t[r[3]] -= dur[i]
    totals = dict.fromkeys(("op",) + LAYERS, 0)
    for i, r in enumerate(rows):
        if r[4] >= 0:
            totals[names[r[0]].split(".", 1)[0]] += self_t[i]
    op_ns = sum(dur[i] for i, r in enumerate(rows) if names[r[0]] == "op") or 1
    return {layer: totals[layer] / op_ns for layer in LAYERS + ("op",)}


def print_table(result: dict, shares: dict, out=sys.stdout) -> None:
    out.write(f"\n== {result['workload']} (seed {result['seed']}) per-layer, traced run ==\n")
    out.write("  self time / op time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()) + "  (op: the caller's own share)\n")
    for name, value in result["per_layer"].items():
        out.write(f"  {name:<42} {value:>14.6g}\n")


def main(argv=None) -> int:
    """Print the per-layer table of every traced result under bench/out."""
    out_dir = Path(__file__).resolve().parent / "out"
    paths = sorted(out_dir.glob("*-trace1.json")) if not argv else [Path(a) for a in argv]
    if not paths:
        print("no traced results; run: python3 bench/run.py --workload <name> --trace 1", file=sys.stderr)
        return 1
    for p in paths:
        result = json.loads(p.read_text())
        names, rows = read_spans(out_dir / result["spans_file"])
        result["per_layer"].update(layer_metrics(names, rows))
        print_table(result, self_shares(names, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
