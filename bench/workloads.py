"""The four benchmark workloads: seeded input generators and their checks.

Each workload is a closed loop with one caller.  The generator draws every
input from ``random.Random(seed)`` and hands tsfrac only text and numbers:
scale descriptions, expression text, points, orders and endpoints.  Scales
are built with ``parse_scale`` and functions with
``FnOnScale.from_expression``, the path users take, and the default
``LimitConfig()`` and ``QuadratureConfig()`` are used throughout.

Why each workload exists:

* ``scattered``: exact quotients at isolated points, 2-3 f-evals each, so
  scale queries dominate.  A third of the ops use a 1-component grid (the
  control), two thirds a 200-component union, where every query scans
  every component today.  A flat scale index shows here.
* ``dense``: dense-point limits, about 41 f-evals per value; the limit
  estimator and expression evaluation dominate and scale queries barely
  show.  It keeps the known defects in view: most orders fail to converge
  at the default config, and ``exp`` at the right end of ``interval(0,0.5)``
  returns a wrong value with a zero error estimate.
* ``integral``: fractional integrals; the jump walk, adaptive quadrature,
  antiderivative memoisation and dense limits of an antiderivative run here.
* ``cli``: in-process ``tsfrac.cli.main`` calls, the only place where
  argument parsing, record emission, expression and scale parsing, scale
  construction and the property suites sit inside the timed op.

Every op's outcome is checked against :mod:`reference`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import reference as ref
from reference import FUNCTIONS, RAISES, RefScale

OK, FAIL, WRONG, CRASH = "ok", "fail", "wrong", "crash"

KINDS = ("nabla", "delta", "symmetric")
SCATTERED_ORDERS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1))
DENSE_ORDERS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))
BETAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
SUITES = (
    "linearity",
    "product",
    "quotient",
    "reconstruction",
    "integral-laws",
    "symmetric-relation",
    "order-lowering",
)


class Op:
    """One operation: the call to time and how to judge its outcome.

    ``key`` identifies the (scale, fn, point, order) input for the repeat
    share, ``group`` the ops of like cost whose mean latency stands for
    each of them in the latency percentiles, ``dense`` says whether the op needs a
    dense limit, ``ncomp`` is the component count of the scale it queries
    (None for property suites).
    """

    __slots__ = ("key", "group", "func", "args", "check", "dense", "ncomp")

    def __init__(self, key, func, args, check, dense, ncomp, group=None):
        self.key = key
        self.group = key if group is None else group
        self.func = func
        self.args = args
        self.check = check
        self.dense = dense
        self.ncomp = ncomp


def _fmt(x: float) -> str:
    return repr(float(x)).removesuffix(".0")


def _order_text(order: Fraction) -> str:
    return f"{order.numerator}/{order.denominator}"


class _ScaleSpec:
    """Scale text for tsfrac plus its reference description."""

    def __init__(self, text: str, refscale: RefScale, ncomp: int):
        self.text = text
        self.ref = refscale
        self.ncomp = ncomp


def union200(rng: random.Random) -> _ScaleSpec:
    """A 200-component union of point sets and small grids, one component
    per 50-unit block, so no two components touch or fuse."""
    parts, members = [], []
    for i in range(200):
        base = 50 * i
        if i % 2 == 0:
            pts = [base + k / 4 for k in sorted(rng.sample(range(121), 3))]
            parts.append("points(" + ",".join(_fmt(p) for p in pts) + ")")
            members.extend(pts)
        else:
            step = rng.choice((0.25, 0.5, 1.0))
            m = rng.randint(4, 30)
            stop = base + m * step
            parts.append(f"grid({_fmt(base)},{_fmt(stop)},{_fmt(step)})")
            members.extend(base + k * step for k in range(m + 1))
    return _ScaleSpec("union(" + ",".join(parts) + ")", RefScale(points=members), 200)


def uniform_grid(start: int, stop: int, step: float) -> _ScaleSpec:
    n = int(round((stop - start) / step))
    members = [start + k * step for k in range(n + 1)]
    return _ScaleSpec(f"grid({_fmt(start)},{_fmt(stop)},{_fmt(step)})", RefScale(points=members), 1)


def interval(lo: float, hi: float) -> _ScaleSpec:
    return _ScaleSpec(f"interval({_fmt(lo)},{_fmt(hi)})", RefScale(intervals=[(lo, hi)]), 1)


def union_interval_grid() -> _ScaleSpec:
    members = [2.5 + 0.5 * k for k in range(3996)]
    return _ScaleSpec(
        "union(interval(0,2),grid(2.5,2000,0.5))",
        RefScale(intervals=[(0.0, 2.0)], points=members),
        2,
    )


def qgrid_zero() -> _ScaleSpec:
    members = [0.0] + [2.0**k for k in range(-45, 4)]
    return _ScaleSpec("qgrid(2,-45,3,zero)", RefScale(points=members), 1)


# -- outcome checks ----------------------------------------------------------


def judge_value(expected, value: float, tol: float) -> str:
    if expected is RAISES:
        return WRONG
    return OK if abs(value - expected) <= tol else WRONG


def _judge_deriv(expected, raised: bool, value=None, err_est=0.0, exact=False) -> str:
    """A derivative outcome against its reference: raising is correct only
    where no finite value exists."""
    if raised:
        return OK if expected is RAISES else FAIL
    if expected is RAISES:
        return WRONG
    return judge_value(expected, value, ref.deriv_tolerance(expected, err_est, exact))


def _deriv_check(spec, fn, kind, t, order, ts):
    expected = ref.deriv(spec.ref, fn, kind, t, order)

    def check(result, exc):
        if exc is not None:
            return _judge_deriv(expected, True) if isinstance(exc, ts.TsfracError) else CRASH
        exact = result.path is ts.ComputePath.EXACT_SCATTERED
        return _judge_deriv(expected, False, result.value, result.err_est, exact)

    return check


def _integral_check(spec, fn, kind, a, b, beta, ts):
    expected, tol = ref.integral(spec.ref, fn, kind, a, b, beta)

    def check(result, exc):
        if exc is not None:
            if not isinstance(exc, ts.TsfracError):
                return CRASH
            return OK if expected is RAISES else FAIL
        return judge_value(expected, result, tol)

    return check


def _worst(statuses) -> str:
    for s in (CRASH, WRONG, FAIL):
        if s in statuses:
            return s
    return OK


def _judge_deriv_record(spec, fn, kind, order, rec) -> str:
    t = rec.get("t")
    if not isinstance(t, (int, float)):
        return CRASH
    expected = ref.deriv(spec.ref, fn, kind, float(t), order)
    if "error" in rec:
        return _judge_deriv(expected, True)
    return _judge_deriv(expected, False, rec["value"], rec["err_est"], rec["path"] == "exact-scattered")


def _records(text: str):
    try:
        return [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        return None


# -- workloads ---------------------------------------------------------------


class Workload:
    """Base: ``scales`` and ``fns`` name what setup builds; ``ops`` yields
    the closed-loop op sequence for a built environment.  ``round`` is the
    number of ops after which the sequence's mix repeats: the unit of the
    throughput windows and of the work-counter prefix."""

    name = ""
    round = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.scales: dict = {}
        self.fns: list = []  # (scale key, fn name)

    def build(self, ts) -> dict:
        """Set-up: parse every scale and build every function."""
        scales = {k: ts.parse_scale(spec.text) for k, spec in self.scales.items()}
        fns = {
            (k, name): ts.FnOnScale.from_expression(FUNCTIONS[name].text, scales[k])
            for k, name in self.fns
        }
        return {"ts": ts, "scales": scales, "fns": fns}

    def ops(self, env):
        raise NotImplementedError


def _deriv_op(env, spec, key, fname, kind, t, order, group=None) -> Op:
    ts = env["ts"]
    func = {"nabla": ts.nabla_frac, "delta": ts.delta_frac, "symmetric": ts.symmetric_frac}[kind]
    fn = FUNCTIONS[fname]
    args = (env["fns"][(key, fname)], t, ts.Order(order.numerator, order.denominator))
    check = _deriv_check(spec, fn, kind, t, order, ts)
    return Op((key, fname, kind, t, order), func, args, check, spec.ref.dense_path(kind, t), spec.ncomp, group)


class Scattered(Workload):
    name = "scattered"
    round = 360  # ten shuffled blocks
    FNS = ("sin", "poly", "sqrt1", "cos3")

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.scales = {"grid": uniform_grid(0, 100000, 1.0), "union": union200(rng)}
        self.fns = [(k, f) for k in self.scales for f in self.FNS]

    def _point(self, rng, key, kind):
        if key == "grid":
            return float(rng.randint(1, 99999))
        pts = self.scales[key].ref.points
        lo = 1 if kind in ("nabla", "symmetric") else 0
        hi = len(pts) - (2 if kind in ("delta", "symmetric") else 1)
        return pts[rng.randint(lo, hi)]

    def ops(self, env):
        rng = random.Random(self.seed + 1)
        # one grid op per two union ops: with an even split the median
        # latency would fall between the two cost modes
        block = [(k, kind, o) for k in ("grid", "union", "union") for kind in KINDS for o in SCATTERED_ORDERS]
        while True:
            rng.shuffle(block)
            for key, kind, order in block:
                t = self._point(rng, key, kind)
                # points rarely repeat, so latency groups are (scale, kind, order)
                yield _deriv_op(env, self.scales[key], key, rng.choice(self.FNS), kind, t, order, (key, kind, order))


class Dense(Workload):
    name = "dense"

    def __init__(self, seed):
        super().__init__(seed)
        self.scales = {"i10": interval(0.0, 10.0), "i05": interval(0.0, 0.5), "q": qgrid_zero()}
        self.fns = [("i10", f) for f in ("sin", "exp", "sq", "sqrt")]
        self.fns += [("i05", "exp")] + [("q", f) for f in ("sin", "exp", "sq")]
        cases = []
        for f in ("sin", "exp", "sq", "sqrt"):
            for t in (0.5, 1.0, 2.0, 5.0):
                cases += [("i10", f, k, t, o) for k in KINDS for o in DENSE_ORDERS]
        # one-sided: sqrt at the left end, where the quotient is s**(1/2 - a)
        cases += [("i10", "sqrt", k, 0.0, o) for k in KINDS for o in DENSE_ORDERS]
        # the rounding-plateau case: exp at the right end of interval(0,0.5)
        cases += [("i05", "exp", k, 0.5, Fraction(1)) for k in KINDS]
        # accumulation point of a geometric grid
        cases += [("q", f, k, 0.0, o) for f in ("sin", "exp", "sq") for k in KINDS for o in DENSE_ORDERS]
        self.cases = cases
        self.round = len(cases)

    def ops(self, env):
        rng = random.Random(self.seed + 1)
        ops = [_deriv_op(env, self.scales[key], key, f, kind, t, o) for key, f, kind, t, o in self.cases]
        while True:
            rng.shuffle(ops)
            yield from ops


class Integral(Workload):
    """A pool of 144 integrals, repeated in shuffled rounds.

    Every (scale, kind, beta) cell gets one integral from each of four
    length strata, with starts spread evenly over the scale, so each round
    holds the same mix of short and long walks and the same outcomes
    whatever the seed; the seed jitters the grid endpoints and orders the
    rounds."""

    name = "integral"
    round = 144
    FNS = {"g": ("sin", "lin", "cos3"), "u": ("sin", "lin", "cos3"), "i": ("sin", "exp4", "sq")}

    def __init__(self, seed):
        super().__init__(seed)
        self.scales = {"g": uniform_grid(0, 10000, 1.0), "u": union_interval_grid(), "i": interval(0.0, 10.0)}
        self.fns = [(k, f) for k, names in self.FNS.items() for f in names]
        rng = random.Random(seed)
        cells = [(key, kind, beta) for key in self.scales for kind in KINDS for beta in BETAS]
        self.pool = []
        for j, (key, kind, beta) in enumerate(cells):
            for stratum in range(4):
                fname = self.FNS[key][(j + stratum) % 3]
                self.pool.append((key, fname, kind, beta, *self.endpoints(rng, key, stratum, 4 * j + stratum)))

    @staticmethod
    def endpoints(rng, key, stratum, slot):
        """(a, b) for one pool slot: the length comes from the stratum and
        the start from the slot, spread evenly over the scale; on the grids
        the seed adds a small jitter to both.  On the grids the shortest stratum starts at
        the scattered minimum and the longest ends at the scattered maximum,
        where the endpoint rules apply."""
        spread = (slot * 0.618034) % 1.0  # golden-ratio spacing over [0, 1)
        if key == "g":  # grid(0,10000,1): 1 to 2000 steps
            n = (25, 275, 750, 1500)[stratum] + rng.randint(-20, 20)
            if stratum == 0:
                return 0.0, float(n)
            if stratum == 3:
                return 10000.0 - n, 10000.0
            a = float(1 + int(spread * 7900) + rng.randint(0, 40))
            return a, a + n
        if key == "u":  # union(interval(0,2),grid(2.5,2000,0.5))
            if stratum < 2:  # from a point of the interval onto the grid
                a = (0.0, 0.5, 1.0, 1.5, 2.0)[slot % 5]
                return a, 2.5 + 0.5 * ((50, 550)[stratum] + rng.randint(-20, 20))
            if stratum == 2:
                a = 2.5 + 0.5 * (int(spread * 1900) + rng.randint(0, 40))
                return a, a + 0.5 * (1500 + rng.randint(-20, 20))
            return 2.5 + 0.5 * (1000 + int(spread * 900) + rng.randint(0, 40)), 2000.0
        # interval(0,10), quarter units, no jitter: the dense limits of the
        # antiderivative here end close to the estimator's tolerance, so a
        # jitter would change from seed to seed which ops converge
        n = (5, 15, 25, 35)[stratum]
        a = int(spread * (41 - n))
        return a / 4, (a + n) / 4

    def ops(self, env):
        ts = env["ts"]
        funcs = {
            "nabla": ts.nabla_frac_integral,
            "delta": ts.delta_frac_integral,
            "symmetric": ts.symmetric_frac_integral,
        }
        ops = []
        for key, fname, kind, beta, a, b in self.pool:
            spec = self.scales[key]
            check = _integral_check(spec, FUNCTIONS[fname], kind, a, b, beta, ts)
            args = (env["fns"][(key, fname)], a, b, ts.Order(beta.numerator, beta.denominator))
            dense = ref.integral_dense(spec.ref, kind, a, b, beta)
            ops.append(Op((key, fname, kind, a, b, beta), funcs[kind], args, check, dense, spec.ncomp))
        rng = random.Random(self.seed + 1)
        while True:
            rng.shuffle(ops)
            yield from ops


class Cli(Workload):
    """A fixed set of 22 command lines, repeated in shuffled rounds.

    Commands, kinds, orders, dense points and ranges are fixed, so every
    seed runs the same mix of costs and outcomes; the seed draws the
    200-component union, the scattered points, the starts of the
    scattered-table and integral ranges, and the property-suite seeds."""

    name = "cli"
    round = 22

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        specs = {
            "union": union200(rng),
            "g05": uniform_grid(0, 2000, 0.5),
            "g1": uniform_grid(0, 10000, 1.0),
            "u": union_interval_grid(),
            "i": interval(0.0, 10.0),
            "q": qgrid_zero(),
        }
        self.lines = []  # (argv, judge, dense, ncomp)

        def add(argv, judge, dense, spec=None):
            self.lines.append((argv, judge, dense, spec.ncomp if spec else None))

        def scattered_points(key, n=3):
            pts = specs[key].ref.points
            return [pts[rng.randint(1, len(pts) - 2)] for _ in range(n)]

        half, third, quarters, one = Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(1)
        # deriv: scattered points (two on the 200-component union), dense points
        self._deriv(add, specs["union"], "sin", "nabla", half, scattered_points("union"))
        self._deriv(add, specs["union"], "poly", "symmetric", third, scattered_points("union"))
        self._deriv(add, specs["g05"], "sq", "delta", quarters, scattered_points("g05"))
        self._deriv(add, specs["u"], "sin", "nabla", one, scattered_points("u"))
        self._deriv(add, specs["i"], "sin", "symmetric", one, [0.5, 2.0, 5.0])
        self._deriv(add, specs["i"], "exp", "nabla", third, [1.0, 2.0, 5.0])
        # table: 100 rows each
        a = rng.randint(0, 3900) / 2
        self._table(add, specs["g05"], "sq", "nabla", half, a, a + 49.5)
        self._table(add, specs["i"], "sin", "delta", third, 2.0, 5.0)
        self._table(add, specs["u"], "cos3", "symmetric", one, 1.0, 34.0)
        # integ
        for key, fname, kind, beta, stratum in (("g1", "sin", "nabla", half, 2), ("u", "lin", "symmetric", one, 1), ("i", "sin", "delta", quarters, 1)):
            a, b = Integral.endpoints(rng, {"g1": "g", "u": "u", "i": "i"}[key], stratum, 3)
            self._integ(add, specs[key], fname, kind, beta, a, b)
        # classify
        self._classify(add, specs["union"], sorted(scattered_points("union", 4)))
        self._classify(add, specs["u"], [0.0, 1.0, 2.0, 2.5])
        self._classify(add, specs["q"], [0.0, 2.0**-45, 2.0**-30, 8.0])
        # check: every suite
        for suite in SUITES:
            self._check(add, suite, rng.randint(0, 10**6), 8)

    @staticmethod
    def _deriv(add, spec, fname, kind, order, points):
        fn = FUNCTIONS[fname]
        argv = ["deriv", "--scale", spec.text, "--fn", fn.text, "--order", _order_text(order),
                "--kind", kind, "--points=" + ",".join(_fmt(t) for t in points)]

        def judge(records):
            if len(records) != len(points):
                return CRASH
            return _worst([_judge_deriv_record(spec, fn, kind, order, r) for r in records])

        add(argv, judge, any(spec.ref.dense_path(kind, t) for t in points), spec)

    @staticmethod
    def _table(add, spec, fname, kind, order, a, b):
        fn = FUNCTIONS[fname]
        argv = ["table", "--scale", spec.text, "--fn", fn.text, "--order", _order_text(order),
                "--kind", kind, f"--a={_fmt(a)}", f"--b={_fmt(b)}"]
        expected = [t for t in spec.ref.table_points(a, b, 33.0) if spec.ref.in_domain(kind, t)]

        def judge(records):
            if [r.get("t") for r in records] != expected:
                return WRONG
            return _worst([_judge_deriv_record(spec, fn, kind, order, r) for r in records])

        add(argv, judge, any(spec.ref.dense_path(kind, t) for t in expected), spec)

    @staticmethod
    def _integ(add, spec, fname, kind, beta, a, b):
        fn = FUNCTIONS[fname]
        argv = ["integ", "--scale", spec.text, "--fn", fn.text, "--beta", _order_text(beta),
                "--kind", kind, f"--a={_fmt(a)}", f"--b={_fmt(b)}"]
        expected, tol = ref.integral(spec.ref, fn, kind, a, b, beta)

        def judge(records):
            if len(records) != 1:
                return CRASH
            if "error" in records[0]:
                return OK if expected is RAISES else FAIL
            return judge_value(expected, records[0]["value"], tol)

        add(argv, judge, ref.integral_dense(spec.ref, kind, a, b, beta), spec)

    @staticmethod
    def _classify(add, spec, points):
        argv = ["classify", "--scale", spec.text, "--points=" + ",".join(_fmt(t) for t in points)]

        def judge(records):
            if len(records) != len(points):
                return CRASH
            for t, rec in zip(points, records):
                want = spec.ref.classify(t)
                if rec.get("t") != t or any(rec.get(k) != v for k, v in want.items()):
                    return WRONG
            return OK

        add(argv, judge, False, spec)

    @staticmethod
    def _check(add, suite, seed, trials):
        argv = ["check", "--suite", suite, "--seed", str(seed), "--trials", str(trials)]

        def judge(records):
            if len(records) != 1 or records[0].get("suite") != suite:
                return CRASH
            # the suites check mathematical laws, so every trial should pass
            return OK if records[0].get("passed") is True else FAIL

        add(argv, judge, False)

    def build(self, ts) -> dict:
        return {"ts": ts, "main": ts.cli.main}  # the command runs in-process

    def ops(self, env):
        main = env["main"]
        rng = random.Random(self.seed + 1)
        ops = []
        for argv, judge, dense, ncomp in self.lines:
            def check(result, exc, judge=judge):
                if exc is not None:
                    return CRASH
                records = _records(result[1])
                return CRASH if records is None else judge(records)

            ops.append(Op(tuple(argv), run_cli, (main, argv), check, dense, ncomp))
        while True:
            rng.shuffle(ops)
            yield from ops


def run_cli(main, argv):
    """One in-process invocation with stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (Scattered, Dense, Integral, Cli)}
