"""The randomized property suites themselves."""

import json
import math

import random
import re

import pytest

from tsfrac import (
    SUITE_NAMES,
    DerivKind,
    DerivResult,
    FinitePoints,
    LimitConfig,
    LimitDidNotConverge,
    SuiteReport,
    TimeScale,
    checks,
    nabla_frac,
    run_suite,
)
from tsfrac.cli import main


def test_suite_names_cover_the_rule_families():
    assert "linearity" in SUITE_NAMES
    assert "product" in SUITE_NAMES
    assert "quotient" in SUITE_NAMES
    assert "reconstruction" in SUITE_NAMES
    assert "integral-laws" in SUITE_NAMES
    assert "symmetric-relation" in SUITE_NAMES
    assert "order-lowering" in SUITE_NAMES


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_passes_a_short_run(suite):
    report = run_suite(suite, seed=5, trials=8)
    assert report.passed, report.messages
    assert report.failures == 0
    assert report.trials == 8
    assert report.seed == 5


def test_same_seed_same_report():
    a = run_suite("product", seed=123, trials=10)
    b = run_suite("product", seed=123, trials=10)
    assert a == b


def test_different_seeds_usually_differ():
    a = run_suite("linearity", seed=1, trials=10)
    b = run_suite("linearity", seed=2, trials=10)
    assert a.max_residual != b.max_residual


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_bad_trial_count():
    with pytest.raises(ValueError):
        run_suite("linearity", trials=0)


@pytest.mark.parametrize("trials", [2.5, "5", None, True])
def test_a_trial_count_that_is_no_integer_is_a_value_error(trials):
    # a bool is no count, though int() reads True as 1
    with pytest.raises(ValueError, match=r"trials must be a positive integer, got "):
        run_suite("linearity", trials=trials)


def test_the_suites_take_no_limit_config():
    with pytest.raises(TypeError, match="cfg"):
        run_suite("symmetric-relation", seed=3, trials=6, cfg=LimitConfig())


@pytest.mark.parametrize("flag, value", [("--tol", "1e-3"), ("--max-samples", "5")])
def test_check_has_no_limit_flags(capsys, flag, value):
    assert main(["check", "--suite", "linearity", flag, value]) == 1
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rec["error"] == "UsageError" and f"unrecognized arguments: {flag} {value}" in rec["message"]


def test_each_suite_limits_its_dense_trials_by_its_own_constant(monkeypatch):
    # the config every derivative and integral of a suite receives, None when
    # it passes none: only the dense trials pass one, and exactly their own
    seen = []

    def recording(real, at):  # at: the position of real's cfg argument
        def call(*args):
            seen.append(args[at] if len(args) > at else None)
            return real(*args)

        return call

    for name, at in (("symmetric_frac", 3), ("delta_frac", 3), ("nabla_frac", 3),
                     ("nabla_frac_integral", 4), ("symmetric_frac_integral", 4)):
        monkeypatch.setattr(checks, name, recording(getattr(checks, name), at))
    # a dict of checks' own: the integrals' inner derivatives are not the suites'
    monkeypatch.setattr(checks, "_DERIVS", {kind: recording(d, 3) for kind, d in checks._DERIVS.items()})
    configs = {}
    for suite in SUITE_NAMES:
        seen.clear()
        assert run_suite(suite, seed=1, trials=6).passed
        configs[suite] = set(seen)
    dense = {
        "symmetric-relation": {None, LimitConfig(tol=1e-7, max_samples=80)},
        "order-lowering": {LimitConfig(tol=1e-6, max_samples=80)},
    }
    assert configs == {suite: dense.get(suite, {None}) for suite in SUITE_NAMES}


def broken_relation(monkeypatch):
    """Make _symmetric_via_sides miss by 1 on its first 14 calls and return NaN after."""
    real, calls = checks._symmetric_via_sides, []

    def shifted(*args):
        calls.append(None)
        r = real(*args)
        return r + 1.0 if len(calls) <= 14 else math.nan

    monkeypatch.setattr(checks, "_symmetric_via_sides", shifted)


def test_failure_report_caps_messages_and_counts_non_finite_residuals(monkeypatch):
    broken_relation(monkeypatch)
    report = run_suite("symmetric-relation", trials=12)
    assert not report.passed
    assert report.failures > 10
    assert len(report.messages) == 10
    assert all("residual" in m for m in report.messages)
    assert report.max_residual == math.inf


def test_check_command_exits_1_on_failures(monkeypatch, capsys):
    broken_relation(monkeypatch)
    assert main(["check", "--suite", "symmetric-relation", "--trials", "12"]) == 1
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rec["passed"] is False and rec["failures"] > 10 and len(rec["messages"]) == 10
    # the NaN residual used to crash the JSON emitter instead of being reported
    assert rec["max_residual"] == "inf"


@pytest.mark.parametrize("suite", ["product", "quotient", "reconstruction"])
@pytest.mark.parametrize("kind", list(DerivKind))
def test_each_kind_is_checked_by_the_algebraic_suites(monkeypatch, suite, kind):
    real = checks._DERIVS[kind]

    def shifted(*args):
        r = real(*args)
        return DerivResult(**{**vars(r), "value": r.value + 1e-6})

    monkeypatch.setitem(checks._DERIVS, kind, shifted)
    report = run_suite(suite, seed=1, trials=8)
    assert report.failures > 0
    assert all(f" {kind.value} " in m for m in report.messages), report.messages


def test_generated_scales_always_have_a_usable_interior_member():
    rng = random.Random(0)
    for _ in range(2000):
        T = checks._discrete_scale(rng)
        assert checks._interior(T, lambda cls: cls.isolated), T.describe()
    for _ in range(2000):
        T = checks._hybrid_scale(rng)
        assert checks._interior(T, lambda cls: not cls.dense), T.describe()


class _ZeroRng:
    """Draws the smallest integer and 0.0 every time."""

    def randint(self, lo, hi):
        return lo

    def uniform(self, lo, hi):
        return 0.0


def test_bounded_poly_falls_back_to_a_shift():
    # every draw is the zero polynomial, so none stays away from zero
    T = checks._UNIT_INTERVAL
    fn = checks._rand_bounded_poly(_ZeroRng(), T, (0.0, 0.5))
    assert [fn.eval(x) for x in (0.0, 0.5)] == [5.0, 5.0]


def test_integral_laws_reports_a_scale_without_three_interior_points(monkeypatch):
    monkeypatch.setattr(checks, "_discrete_scale", lambda rng: TimeScale([FinitePoints((0.0, 1.0, 2.0))]))
    report = run_suite("integral-laws", trials=3)
    assert report.failures == 3
    assert all("too few interior points in points(0,1,2)" in m for m in report.messages)


def test_symmetric_relation_reports_a_raising_dense_derivative(monkeypatch):
    real = checks._symmetric_via_sides

    def raising(f, t, *args):
        r = real(f, t, *args)
        if not f.scale.classify(t).isolated:  # a one-sided derivative took the dense path
            raise LimitDidNotConverge("quotients did not settle")
        return r

    monkeypatch.setattr(checks, "_symmetric_via_sides", raising)
    report = run_suite("symmetric-relation", seed=2, trials=6)
    assert report.failures == 6
    assert all("dense" in m and "LimitDidNotConverge (quotients did not settle)" in m for m in report.messages)


def test_symmetric_relation_seed_17_gives_a_report(capsys):
    # trial 14's one-sided estimates disagree; that is a failed trial, not a crash
    report = run_suite("symmetric-relation", seed=17, trials=30)
    assert isinstance(report, SuiteReport) and report.trials == 30
    main(["check", "--suite", "symmetric-relation", "--seed", "17"])
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rec["suite"] == "symmetric-relation" and "passed" in rec


@pytest.mark.parametrize(
    "every, message",
    [(1, r"trial \d+ [^:]+ on [^:]+: higher order failed \(no samples\)"), (2, r"trial \d+ [^:]+ on [^:]+")],
    ids=["higher-order-raises", "lower-order-fails"],
)
def test_order_lowering_reports_each_failed_trial(monkeypatch, every, message):
    # each trial asks the higher order, then the lower one: raising at every
    # call fails each higher order, at every second call each lower one
    calls = []

    def nabla(f, t, order, cfg=None):
        calls.append(order)
        if len(calls) % every == 0:
            raise LimitDidNotConverge("no samples")
        return nabla_frac(f, t, order, cfg)

    monkeypatch.setattr(checks, "nabla_frac", nabla)
    report = run_suite("order-lowering", seed=0, trials=4)
    assert report.failures == 4 and len(calls) == 4 * every
    assert all(re.fullmatch(message, m) for m in report.messages), report.messages


def test_order_lowering_asks_each_order_once_per_trial(monkeypatch):
    calls = []

    def nabla(*args):
        calls.append(args)
        return nabla_frac(*args)

    monkeypatch.setattr(checks, "nabla_frac", nabla)
    report = run_suite("order-lowering", seed=0, trials=8)
    assert report.failures == 0 and len(calls) == 2 * 8
    assert all(higher[2] > lower[2] for higher, lower in zip(calls[::2], calls[1::2]))
