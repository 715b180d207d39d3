"""tsfrac benchmark: closed-loop workloads timed from outside the package.

Usage (from the repository root):

    python3 bench/run.py --workload {scattered,dense,integral,cli} \\
        --seed N --seconds S --trace {0,1}

One process, one thread, one caller: each op is issued after the previous
one returns.  The program under test is the ``tsfrac`` package in ``src/``
next to this directory; the run fails (exit 2, no result) when it is
missing.

``--trace 0`` measures the end-to-end metrics.  Set-up (import ``tsfrac``
and ``tsfrac.cli``, then build the workload's scales and functions) is
repeated ``SETUP_REPEATS`` times from a fresh import and its median is
``setup_s``.  After a warm-up of whole rounds of the op mix the loop runs
for ``--seconds``, at least ``MIN_OPS`` ops (so that ``op_p99_us`` has at
least ten samples beyond it) and a whole number of rounds.  In
``op_p50_us`` and ``op_p99_us`` each op counts at its group's mean latency
(see ``Loop.typical_us``).  ``ok_per_s`` is correct ops per second of time
spent inside tsfrac, the median over windows of one round.  All timings
are scaled to a reference speed with a calibration loop timed alongside
(see ``calibration_ns``).

``--trace 1`` runs the untraced loop for half the time, then re-imports
tsfrac, wraps every layer (see ``spans.py``), rebuilds, and runs the traced
loop for the other half; both report ``ok_per_s`` at the reference speed,
the per-layer times are raw.  Its first round of ops gives the deterministic
work counters.  Spans are exported to ``bench/out``.

Every op is checked against ``reference.py``.  The last stdout line is the
JSON result: ``correct`` is false if an op raised something other than a
``TsfracError`` or printed output that does not parse; ``failed`` counts
ops that raised where a value exists or returned a wrong value.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import spans  # noqa: E402  (sibling modules; the script's directory is on sys.path)
from workloads import CRASH, FAIL, OK, WORKLOADS, WRONG  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 1000
WARMUP_S = 0.3
HARD_LIMIT_S = 150.0  # stop any loop here so the run ends well inside 180 s
SPAN_CAP = 200_000
CAL_EVERY_S = 0.1
CAL_REF_NS = 700_000  # calibration loop time at the reference speed (2 GHz Xeon vCPU, unloaded)


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop (float math, calls, dict stores).

    Other processes on a shared machine change how fast this process runs,
    by up to 2x over minutes; the loop slows down with tsfrac, so op times
    scaled by ``CAL_REF_NS / calibration_ns()`` read the same whatever the
    load.  It touches nothing of tsfrac, so a change to tsfrac moves the
    scaled times as much as the raw ones."""
    t0 = time.perf_counter_ns()
    acc, seen = 0.0, {}
    for i in range(3000):
        x = i * 0.001
        acc += math.sin(x) * x / (1.0 + x)
        seen[i & 63] = acc
    return time.perf_counter_ns() - t0


def import_tsfrac():
    """A fresh import of tsfrac (and tsfrac.cli) from ``src/``."""
    for name in [m for m in sys.modules if m == "tsfrac" or m.startswith("tsfrac.")]:
        del sys.modules[name]
    ts = importlib.import_module("tsfrac")
    importlib.import_module("tsfrac.cli")
    if Path(ts.__file__).resolve().parent != SRC / "tsfrac":
        raise ImportError(f"tsfrac imported from {ts.__file__}, not from {SRC}")
    return ts


class Loop:
    """Outcome tallies of one closed loop."""

    def __init__(self, window: int):
        self.window = window
        self.ok: list[bool] = []
        self.lat_ns: list = []  # ns; scaled to the reference speed when the loop calibrates
        self.groups: list = []
        self._closed = 0  # ops whose latency has been scaled
        self.status = {OK: 0, FAIL: 0, WRONG: 0, CRASH: 0}
        self.keys: set = set()
        self.repeats = 0
        self.dense = 0
        self.ncomp: list[int] = []

    @property
    def attempted(self) -> int:
        return len(self.lat_ns)

    @property
    def failed(self) -> int:
        return self.status[FAIL] + self.status[WRONG] + self.status[CRASH]

    def ok_per_s(self) -> float:
        """Median over windows of one round of ops of the correct ops per
        second of op time; the median keeps a burst of load from other
        processes on the machine in one window from moving the figure."""
        rates = []
        for i in range(0, self.attempted - self.window + 1, self.window):
            ok = sum(self.ok[i : i + self.window])
            rates.append(ok / (sum(self.lat_ns[i : i + self.window]) / 1e9))
        if not rates:  # shorter than one round
            return self.status[OK] / (sum(self.lat_ns) / 1e9)
        return statistics.median(rates)

    def scale(self, factor: float) -> None:
        """Scale the latencies recorded since the last call by ``factor``."""
        for i in range(self._closed, self.attempted):
            self.lat_ns[i] *= factor
        self._closed = self.attempted

    def typical_us(self) -> list:
        """Each attempted op's latency taken as the mean latency of its group
        (the same input, or for scattered points the same scale, kind and
        order) in this run, sorted.  On a machine shared with other
        processes single ops run up to twice as slow in bursts; a group's
        mean weighs those bursts by the time they last instead of letting a
        percentile jump between the fast and the slow mode."""
        by_group: dict = {}
        for g, dt in zip(self.groups, self.lat_ns):
            by_group.setdefault(g, []).append(dt)
        mean = {g: statistics.fmean(v) / 1e3 for g, v in by_group.items()}
        return sorted(mean[g] for g in self.groups)

    def record(self, op, dt_ns: int, status: str) -> None:
        self.ok.append(status == OK)
        self.lat_ns.append(dt_ns)
        self.groups.append(op.group)
        self.status[status] += 1
        if op.key in self.keys:
            self.repeats += 1
        else:
            self.keys.add(op.key)
        self.dense += op.dense
        if op.ncomp is not None:
            self.ncomp.append(op.ncomp)


def _call(op, ts):
    try:
        return op.func(*op.args), None
    except Exception as exc:  # judged by the op's check; anything untyped is a crash
        if not isinstance(exc, ts.TsfracError):
            traceback.print_exc(file=sys.stderr)
        return None, exc


def run_loop(ops, ts, seconds: float, min_ops: int, window: int, tracer=None, counter_ops: int = 0, snapshot=None, calibrate=False) -> Loop:
    """Issue ops one after another until ``seconds`` have passed and at
    least ``min_ops`` (and, traced, ``counter_ops``) ops are done.  With
    ``calibrate``, every ``CAL_EVERY_S`` the latencies since the last
    calibration are scaled to the reference speed."""
    loop = Loop(window)
    clock = time.perf_counter_ns
    start = time.perf_counter()
    end, hard_end = start + seconds, start + HARD_LIMIT_S
    next_cal = start + CAL_EVERY_S
    if tracer is not None:
        op_name = tracer.name_id("op")
        adjusted = ts.EndpointAdjustedWarning
    for i, op in enumerate(ops):
        if tracer is None:
            t0 = clock()
            out, exc = _call(op, ts)
            dt = clock() - t0
        else:
            tracer.op = i
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", adjusted)
                rec = tracer.open(op_name)
                out, exc = _call(op, ts)
                tracer.close(rec)
            rec[5] = sum(1 for w in caught if issubclass(w.category, adjusted))
            dt = rec[2] - rec[1]
            if i + 1 == counter_ops and snapshot is not None:
                snapshot(dict(tracer.counts))
        loop.record(op, dt, op.check(out, exc))
        n = i + 1
        now = time.perf_counter()
        if calibrate and now >= next_cal:
            loop.scale(CAL_REF_NS / calibration_ns())
            next_cal = time.perf_counter() + CAL_EVERY_S
        if now >= hard_end:
            break
        # stop on a whole round, so every run has the same op mix and the
        # same share of each outcome
        if n % window or n < counter_ops:
            continue
        if now >= end and n >= min_ops:
            break
        if tracer is not None and len(tracer.spans) >= SPAN_CAP:
            break
    if calibrate:
        loop.scale(CAL_REF_NS / calibration_ns())
    return loop


def untraced_phase(workload, seconds: float, min_ops: int, setup_repeats: int, calibrate: bool):
    """Set up ``setup_repeats`` times (import tsfrac, build the workload),
    warm up, run the loop; returns the loop, the set-up times and the peak
    RSS after warm-up (MiB)."""
    times = []
    for _ in range(setup_repeats):
        env = None  # let the previous set-up go before the next one
        gc.collect()
        t0 = time.perf_counter()
        ts = import_tsfrac()
        env = workload.build(ts)
        dt = time.perf_counter() - t0
        times.append(dt * CAL_REF_NS / calibration_ns() if calibrate else dt)
    warnings.simplefilter("ignore", ts.EndpointAdjustedWarning)
    ops = workload.ops(env)
    warm_end = time.perf_counter() + WARMUP_S
    for i, op in enumerate(ops, 1):  # whole rounds, so windows stay aligned
        _call(op, ts)
        if i % workload.round == 0 and time.perf_counter() >= warm_end:
            break
    # read here, so the benchmark's own bookkeeping in the loop is left out
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.collect()
    return run_loop(ops, ts, seconds, min_ops, workload.round, calibrate=calibrate), times, rss_mb


def traced_phase(workload, seconds: float):
    tracer = spans.Tracer()
    ts = import_tsfrac()
    spans.install(tracer, ts)
    env = workload.build(ts)
    counted: dict = {}
    k = workload.round
    loop = run_loop(workload.ops(env), ts, seconds, 1, k, tracer, k, counted.update, calibrate=True)
    return loop, tracer, k, counted


def p99_rank(n: int) -> int:
    """1-based nearest rank of the 99th percentile of n samples."""
    return max(1, -(-99 * n // 100))


def shape(loop: Loop) -> dict:
    return {
        "dense_share": loop.dense / loop.attempted,
        "mean_components": statistics.fmean(loop.ncomp) if loop.ncomp else 0.0,
        "repeat_share": loop.repeats / loop.attempted,
    }


def metadata(seed: int) -> dict:
    lines = sum(p.read_text().count("\n") for p in sorted((SRC / "tsfrac").glob("*.py")))
    return {
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + name))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def _outcomes(loop: Loop) -> dict:
    n = loop.attempted
    return {
        "attempted": n,
        "ok": loop.status[OK],
        "raised_with_value": loop.status[FAIL],
        "wrong_values": loop.status[WRONG],
        "crashes": loop.status[CRASH],
        "fail_share": loop.failed / n,
        "wrong_share": loop.status[WRONG] / n,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tsfrac" / "__init__.py").is_file():
        print(f"tsfrac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "meta": metadata(args.seed)}

    if args.trace == 0:
        loop, times, rss_mb = untraced_phase(workload, args.seconds, MIN_OPS, SETUP_REPEATS, True)
        typical = loop.typical_us()
        metrics = {
            "setup_s": (statistics.median(times), "s"),
            "ok_per_s": (loop.ok_per_s(), "1/s"),
            "op_p50_us": (statistics.median(typical), "us"),
            "op_p99_us": (typical[p99_rank(len(typical)) - 1], "us"),
            "ok_share": (loop.status[OK] / loop.attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        loops = [loop]
        result.update(
            setup_runs_s=times,
            outcomes=_outcomes(loop),
            shape=shape(loop),
            p99_samples=loop.attempted,
            p99_samples_beyond=loop.attempted - p99_rank(loop.attempted),
        )
    else:
        base, _, _ = untraced_phase(workload, args.seconds / 2, 1, 1, True)
        loop, tracer, k, counted = traced_phase(workload, args.seconds / 2)
        loops = [base, loop]
        spans_file = f"{args.workload}.spans.tsv.gz"
        tracer.write(OUT / spans_file)
        names, rows = spans.read_spans(OUT / spans_file)
        per_layer = spans.layer_metrics(names, rows)
        counters = spans.layer_metrics(names, rows, first_ops=k)
        counters["signed_pow_calls"] = counted.get("order.signed_pow", 0)
        per_layer["order.signed_pow_calls_per_op"] = tracer.counts.get("order.signed_pow", 0) / loop.attempted
        per_layer.update(spans.counter_ratios(counters))
        per_layer["trace.ok_per_s"] = loop.ok_per_s()
        per_layer["trace.untraced_ok_per_s"] = base.ok_per_s()
        per_layer["trace.slowdown"] = base.ok_per_s() / loop.ok_per_s() if loop.ok_per_s() else 0.0
        metrics = {name: (value, UNITS.get(name, _unit(name))) for name, value in per_layer.items()}
        result.update(
            spans_file=spans_file,
            spans=len(rows),
            counters=counters,
            outcomes=_outcomes(loop),
            untraced_outcomes=_outcomes(base),
            shape=shape(loop),
            per_layer=per_layer,
        )

    crashes = sum(lp.status[CRASH] for lp in loops)
    final = {
        "correct": crashes == 0,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result["result"] = final
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    report(result)
    print(json.dumps(final))
    return 0


UNITS = {
    "order.samples_per_limit": "count",
    "order.converged_share": "ratio",
    "trace.ok_per_s": "1/s",
    "trace.untraced_ok_per_s": "1/s",
    "trace.slowdown": "ratio",
}


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_share", "ratio"), ("_op", "count/op")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def report(result: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    w = result["workload"]
    print(f"== tsfrac bench: workload={w} seed={result['seed']} seconds={result['seconds']} ==")
    print("meta: " + json.dumps(result["meta"], sort_keys=True))
    print("shape: " + json.dumps(result["shape"], sort_keys=True))
    print("outcomes: " + json.dumps(result["outcomes"], sort_keys=True))
    for name in ("fail_share", "wrong_share"):
        print(f"  {name:<42} {result['outcomes'][name]:>14.6g} ratio")
    for name, m in result["result"]["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    if "p99_samples" in result:
        print(f"  op_p99_us from {result['p99_samples']} ops, {result['p99_samples_beyond']} beyond it")
    if "counters" in result:
        print("work counters (first %d ops): %s" % (result["counters"]["ops"], json.dumps(result["counters"], sort_keys=True)))
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
