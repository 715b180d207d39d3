"""Fractional calculus on time scales.

A time scale is a nonempty closed subset of the reals.  This package
models finitely-describable scales (intervals, point sets, uniform and
geometric grids, and unions of those), and computes nabla, delta, and
symmetric fractional derivatives of order 0 < alpha <= 1 together with
the matching fractional Cauchy integrals.  Randomized property suites
exercising the algebraic rules live in :mod:`tsfrac.checks`, and
:mod:`tsfrac.cli` exposes everything as the ``tscale-frac`` command.

Every name in the ``__all__`` of a library module is importable from here.
"""

from . import checks, derivative, errors, exprlang, integral, order, timescale
from .checks import *
from .derivative import *
from .errors import *
from .exprlang import *
from .integral import *
from .order import *
from .timescale import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for mod in (timescale, order, derivative, integral, exprlang, checks, errors) for name in mod.__all__
]
