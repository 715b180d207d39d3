"""Self-test of the benchmark: pinned work counters and their determinism.

Usage (from the repository root):

    python3 bench/selftest.py

1. Runs a handful of fixed ops traced, one at a time, and compares each
   op's work counters with the values pinned below.  A change to tsfrac
   that moves a counter fails here; it must then say why in CHANGES.md
   and update the pin.
2. Runs the traced benchmark twice for one seed on every workload and
   checks that the work counters of the two runs are identical.
3. Checks the reference against the closed forms it documents.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import reference as ref
import run
import spans
import workloads as wl

SEED = 0


def _fixed_ops(ts):
    """(label, func, args) for the pinned ops, built after tracing is on."""
    fn = ts.FnOnScale.from_expression
    grid = ts.parse_scale("grid(0,100000,1)")
    union = ts.parse_scale(wl.union200(random.Random(SEED)).text)
    member = wl.union200(random.Random(SEED)).ref.points[100]
    i10 = ts.parse_scale("interval(0,10)")
    i05 = ts.parse_scale("interval(0,0.5)")
    g4 = ts.parse_scale("grid(0,10000,1)")
    u2 = ts.parse_scale("union(interval(0,2),grid(2.5,2000,0.5))")
    main = ts.cli.main
    return [
        ("nabla sin grid t=500 a=1/2", ts.nabla_frac, (fn("sin(t)", grid), 500.0, ts.Order(1, 2))),
        ("symmetric poly union", ts.symmetric_frac, (fn("t^2 - 3*t", union), member, ts.Order(3, 4))),
        ("nabla sin interval t=2 a=1/3", ts.nabla_frac, (fn("sin(t)", i10), 2.0, ts.Order(1, 3))),
        ("delta exp interval(0,0.5) t=0.5 a=1", ts.delta_frac, (fn("exp(t)", i05), 0.5, ts.Order(1, 1))),
        ("symmetric integral sin grid 10..60 b=1/2", ts.symmetric_frac_integral, (fn("sin(t)", g4), 10.0, 60.0, ts.Order(1, 2))),
        ("nabla integral t union 2..30 b=3/4", ts.nabla_frac_integral, (fn("t", u2), 2.0, 30.0, ts.Order(3, 4))),
        ("cli classify", wl.run_cli, (main, ["classify", "--scale", "interval(0,1)", "--points=0,0.5,1"])),
        ("cli check linearity", wl.run_cli, (main, ["check", "--suite", "linearity", "--seed", "0", "--trials", "5"])),
    ]


# counter totals per fixed op, in the order of PINNED_KEYS; measured at the
# commit that added the benchmark
PINNED_KEYS = ('ops', 'f_evals', 'derivative_calls', 'f_evals_in_derivatives', 'scale_queries', 'limit_calls', 'limit_samples', 'integral_calls', 'integrand_evals', 'antideriv_calls', 'endpoint_adjustments')
PINNED = {
    'nabla sin grid t=500 a=1/2': (1, 2, 1, 2, 7, 0, 0, 0, 0, 0, 0),
    'symmetric poly union': (1, 2, 1, 2, 9, 0, 0, 0, 0, 0, 0),
    'nabla sin interval t=2 a=1/3': (1, 67, 1, 67, 11, 2, 66, 0, 0, 0, 0),
    'delta exp interval(0,0.5) t=0.5 a=1': (1, 37, 1, 37, 11, 1, 36, 0, 0, 0, 0),
    'symmetric integral sin grid 10..60 b=1/2': (1, 146, 4, 0, 62, 0, 0, 1, 146, 8, 0),
    'nabla integral t union 2..30 b=3/4': (1, 207, 3, 0, 63, 1, 30, 1, 207, 34, 1),
    'cli classify': (1, 0, 0, 0, 15, 0, 0, 0, 0, 0, 0),
    'cli check linearity': (1, 0, 60, 0, 560, 0, 0, 0, 0, 0, 0),
}


def traced_counters() -> dict:
    """Per-op work counters of the fixed ops, each op traced on its own."""
    tracer = spans.Tracer()
    ts = run.import_tsfrac()
    spans.install(tracer, ts)
    fixed = _fixed_ops(ts)
    ops = [wl.Op(label, func, args, lambda out, exc: wl.OK, False, None) for label, func, args in fixed]
    run.run_loop(iter(ops), ts, 0.0, len(ops), len(ops), tracer, len(ops))
    names, rows = tracer.names, [tuple(r) for r in tracer.spans]
    out, before = {}, spans.layer_metrics(names, rows, first_ops=0)
    for i, (label, _, _) in enumerate(fixed):
        after = spans.layer_metrics(names, rows, first_ops=i + 1)
        out[label] = {k: after[k] - before[k] for k in after}
        before = after
    return out


def check_pinned() -> bool:
    got = traced_counters()
    ok = True
    for label, counts in got.items():
        want = PINNED.get(label)
        if want is None or dict(zip(PINNED_KEYS, want)) != counts:
            ok = False
            print(f"FAIL pinned counters for {label!r}:\n  want {want}\n  got  {counts}")
    if ok:
        print(f"ok   pinned counters of {len(got)} fixed ops")
    return ok


def check_deterministic(workload: str) -> bool:
    """Two traced runs of one seed give identical work counters."""
    seen = []
    for _ in range(2):
        cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            print(f"FAIL {workload}: run exited {proc.returncode}\n{proc.stderr}")
            return False
        seen.append(json.loads((run.OUT / f"{workload}-trace1.json").read_text())["counters"])
    if seen[0] != seen[1]:
        print(f"FAIL {workload}: counters differ between runs:\n  {seen[0]}\n  {seen[1]}")
        return False
    print(f"ok   {workload}: counters repeat exactly {seen[0]}")
    return True


def check_reference() -> bool:
    """The general reference reproduces its documented closed forms."""
    problems = []
    spec = wl.uniform_grid(0, 200, 1.0)
    sin = ref.FUNCTIONS["sin"]
    for beta in wl.BETAS[:3]:
        h_b = 1.0 ** (beta.numerator / beta.denominator)
        want = h_b * (math.sin(150.0) - math.sin(20.0))
        for kind, factor in (("nabla", 1.0), ("delta", 1.0), ("symmetric", 2.0 ** (1 - float(beta)))):
            got, _ = ref.integral(spec.ref, sin, kind, 20.0, 150.0, beta)
            if abs(got - factor * want) > 1e-12:
                problems.append((kind, beta, got, factor * want))
    one = Fraction(1)
    got, _ = ref.integral(spec.ref, sin, "nabla", 20.0, 150.0, one)
    if abs(got - math.fsum(math.sin(t) for t in range(21, 151))) > 1e-12:
        problems.append(("nabla", one, got))
    iv = wl.interval(0.0, 10.0)
    got, _ = ref.integral(iv.ref, sin, "symmetric", 1.0, 4.0, one)
    if abs(got - (math.cos(1.0) - math.cos(4.0))) > 1e-12:
        problems.append(("interval", got))
    sqrt = ref.FUNCTIONS["sqrt"]
    at0 = [ref.deriv(iv.ref, sqrt, "nabla", 0.0, o) for o in wl.DENSE_ORDERS]
    if at0 != [0.0, 1.0, ref.RAISES, ref.RAISES, ref.RAISES]:
        problems.append(("sqrt at 0", at0))
    for p in problems:
        print(f"FAIL reference: {p}")
    if not problems:
        print("ok   reference closed forms")
    return not problems


def main() -> int:
    results = [check_reference(), check_pinned()]
    results += [check_deterministic(w) for w in wl.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    if not (run.SRC / "tsfrac" / "__init__.py").is_file():
        print(f"tsfrac sources not found under {run.SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
