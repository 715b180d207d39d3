"""Fractional calculus on time scales.

A time scale is a nonempty closed subset of the reals.  This package
models finitely-describable scales (intervals, point sets, uniform and
geometric grids, and unions of those), and computes nabla, delta, and
symmetric fractional derivatives of order 0 < alpha <= 1 together with
the matching fractional Cauchy integrals.  Randomized property suites
exercising the algebraic rules live in :mod:`tsfrac.checks`, and
:mod:`tsfrac.cli` exposes everything as the ``tscale-frac`` command.

Every name in the ``__all__`` of a library module is importable from here.
``import tsfrac`` loads every library module but ``integral`` and ``checks``,
which no derivative calls: they load when one of their names, or ``__all__``,
is first read from here (a module ``__getattr__``, PEP 562).
"""

import importlib

from . import derivative, errors, exprlang, order, timescale
from .derivative import *
from .errors import *
from .exprlang import *
from .order import *
from .timescale import *

__version__ = "0.1.0"

_LAYERS = ("timescale", "order", "derivative", "integral", "exprlang", "checks", "errors")
_DEFERRED = ("integral", "checks")


def __getattr__(name):
    # a dunder probe other than __all__ (copy, pickle, inspect) loads nothing
    if not name.startswith("__") or name == "__all__":
        for layer in _DEFERRED:  # checks imports integral, so integral's names load only it
            mod = importlib.import_module(f".{layer}", __name__)
            if name == layer:
                return mod
            if name in mod.__all__:
                return getattr(mod, name)
        # each import above bound its module in this namespace
        if name == "__all__":
            return ["__version__"] + [n for layer in _LAYERS for n in globals()[layer].__all__]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
