"""The package root re-exports the public names of every library module,
and loads ``integral`` and ``checks`` only when one of their names is read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsfrac

LIBRARY_MODULES = ("timescale", "order", "derivative", "integral", "exprlang", "checks", "errors")


def test_root_exports_every_library_name_once():
    names = tsfrac.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(tsfrac, name) for name in names)
    for layer in LIBRARY_MODULES:
        mod = importlib.import_module(f"tsfrac.{layer}")
        assert set(mod.__all__) <= set(names), layer
        assert all(getattr(tsfrac, name) is getattr(mod, name) for name in mod.__all__), layer
    assert "__version__" in names


#: the public surface, one name per concept
PUBLIC = [
    "Add", "Antiderivative", "ApproachSide", "Call", "ComputePath", "Const", "DEFAULT_SNAP_TOL", "DerivKind",
    "DerivResult", "Div", "DomainMembership", "EndpointAdjustedWarning", "EvalDomainError", "Expr",
    "ExprSyntaxError", "FUNCTIONS", "FinitePoints", "FnOnScale", "GeometricGrid", "Interval", "LimitConfig",
    "LimitDidNotConverge", "Mul", "Neg", "NegativeBaseForGeneralOrder", "NonFiniteSample", "Order",
    "PointClass", "PointNotInScale", "PointOutsideDomain", "Pow", "QuadratureFailure",
    "SUITE_NAMES", "SidedLimitsDisagree", "Sub", "SuiteReport", "SymmetricWeights", "TimeScale", "TsfracError",
    "UniformGrid", "ValidationError", "Var", "__version__", "delta_frac", "delta_frac_integral",
    "delta_integral", "estimate_limit", "eval_expr", "format_expr", "nabla_frac", "nabla_frac_integral",
    "nabla_integral", "parse_expr", "parse_scale", "run_suite", "signed_pow", "symmetric_frac",
    "symmetric_frac_integral", "symmetric_weights",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 59
    assert sorted(tsfrac.__all__) == PUBLIC


@pytest.mark.parametrize(
    "name",
    [
        "format_scale",  # T.describe()
        "nabla_antiderivative",  # Antiderivative(f, t0, DerivKind.NABLA)
        "delta_antiderivative",  # Antiderivative(f, t0, DerivKind.DELTA)
        "symmetric_via_sides",  # the symmetric-relation suite
        "order_lowering_check",  # the order-lowering suite
        "LimitResult",  # what estimate_limit returns, not exported
        "QuadratureConfig",  # none: the quadrature accuracy is fixed
    ],
)
def test_second_spellings_are_gone(name):
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(tsfrac, name)


def test_second_spellings_of_members_are_gone():
    assert not hasattr(tsfrac.TimeScale, "snap_tol")  # DEFAULT_SNAP_TOL
    assert not hasattr(tsfrac.Order, "as_fraction")  # Fraction(o.numerator, o.denominator)
    fields = [name for name in vars(tsfrac.GeometricGrid(2.0, 0, 1)) if name[0] != "_"]  # less the member memo
    assert fields == ["q", "k_min", "k_max", "include_zero"]  # no sign: mirror as FinitePoints
    assert not callable(tsfrac.FnOnScale(abs, tsfrac.parse_scale("points(1)")))  # .eval(t)
    assert "__call__" not in vars(tsfrac.Antiderivative)  # .eval(t)
    assert not hasattr(tsfrac.PointClass, "left_scattered")  # not cls.left_dense
    assert not hasattr(tsfrac.PointClass, "right_scattered")  # not cls.right_dense
    assert list(vars(tsfrac.DomainMembership(True, True))) == ["in_nabla_domain", "in_delta_domain"]  # no in_scale: T.contains(t)


def test_dir_lists_every_public_name_sorted():
    names = dir(tsfrac)
    assert names == sorted(names)
    assert set(tsfrac.__all__) <= set(names)
    # names of the lazily loaded layers among them
    assert {"Antiderivative", "run_suite"} <= set(names)


# run in a fresh interpreter: this test process has imported every module
_DEFERRAL = """
import contextlib, io, sys

def loaded():
    return [m for m in ("integral", "checks") if "tsfrac." + m in sys.modules]

def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        tsfrac.cli.main(list(argv))
    return loaded()

import tsfrac, tsfrac.cli
assert loaded() == [], loaded()
assert main("deriv", "--scale", "interval(0,4)", "--fn", "sin(t)", "--order", "1/2", "--points", "1,4") == []
assert main("table", "--scale", "grid(0,4,1)", "--fn", "t^2", "--order", "1/2") == []
assert main("classify", "--scale", "grid(0,4,1)", "--points", "1,2.5") == []
# a dunder probe loads nothing
assert not hasattr(tsfrac, "__wrapped__") and loaded() == []
assert main("integ", "--scale", "grid(0,4,1)", "--fn", "t", "--beta", "1/2", "--a", "1", "--b", "3") == ["integral"]
assert main("check", "--suite", "linearity", "--trials", "1") == ["integral", "checks"]
# an unknown name is an AttributeError naming it
try:
    tsfrac.nope
except AttributeError as exc:
    assert "'nope'" in str(exc), exc
else:
    raise AssertionError("tsfrac.nope resolved")
"""

_STAR = """
import sys, tsfrac
from tsfrac import nabla_frac_integral
assert "tsfrac.checks" not in sys.modules
from tsfrac import *
names = tsfrac.__all__
assert all(globals()[name] is getattr(tsfrac, name) for name in names)
assert set(names) <= set(dir(tsfrac))
assert tsfrac.integral is sys.modules["tsfrac.integral"] and tsfrac.checks is sys.modules["tsfrac.checks"]
"""


def _run_fresh(code, *flags):
    """Run code in a fresh interpreter that imports tsfrac from this checkout."""
    src = str(Path(tsfrac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, *flags, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_integral_and_checks_load_on_first_use():
    for code in (_DEFERRAL, _STAR):
        _run_fresh(code)


def test_no_module_imports_dataclasses():
    # the records are plain classes, so a cold process never imports dataclasses
    # (nor the inspect, ast and dis it pulls in); -S keeps site-packages from
    # importing it first
    _run_fresh(
        "import sys, tsfrac, tsfrac.cli, tsfrac.integral, tsfrac.checks\n"
        "assert 'dataclasses' not in sys.modules, sorted(sys.modules)",
        "-S",
    )
