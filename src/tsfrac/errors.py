"""Exception hierarchy shared by every tsfrac module.

Everything raised on purpose by this package derives from :class:`TsfracError`,
so callers can catch one type at the boundary.  The leaf classes are named for
the condition they report, not for the place that raises them.
"""

from __future__ import annotations

__all__ = [
    "TsfracError",
    "PointNotInScale",
    "PointOutsideDomain",
    "SideNotDense",
    "InsufficientPoints",
    "NoSymmetricNeighborhood",
    "NegativeBaseForGeneralOrder",
    "NonFiniteSample",
    "LimitDidNotConverge",
    "SidedLimitsDisagree",
    "EndpointNotInScale",
    "EndpointOutsideKappaSet",
    "QuadratureFailure",
    "ValidationError",
    "ExprSyntaxError",
    "EvalDomainError",
    "EndpointAdjustedWarning",
]


class TsfracError(Exception):
    """Base class for all errors raised by tsfrac."""


class PointNotInScale(TsfracError):
    """A point was expected to be a member of the time scale and is not."""


class PointOutsideDomain(TsfracError):
    """The point is in the scale but outside the operator's domain.

    The nabla derivative is undefined at a scattered minimum, the delta
    derivative at a scattered maximum, and the symmetric derivative at either.
    """


class SideNotDense(TsfracError):
    """An approach sequence was requested on a side where the point is scattered."""


class InsufficientPoints(TsfracError):
    """Fewer scale points are available on the requested side than asked for.

    ``available`` is the number of points the side does have.
    """

    def __init__(self, message: str, *, available: int = 0):
        super().__init__(message)
        self.available = available


class NoSymmetricNeighborhood(TsfracError):
    """No h > 0 with both t+h and t-h in the scale exists below the step bound."""


class NegativeBaseForGeneralOrder(TsfracError):
    """x**(p/q) was requested for x < 0 and p/q not an odd reciprocal."""


class NonFiniteSample(TsfracError):
    """A difference quotient, exact or sampled for a limit, evaluated to NaN or infinity."""


class LimitDidNotConverge(TsfracError):
    """The quotient sequence did not settle within the configured tolerance.

    ``samples_unavailable`` is set when the failure is structural: no side the
    definition admits has the three scale points a limit needs to sample.
    """

    def __init__(self, message: str, *, samples_unavailable: bool = False):
        super().__init__(message)
        self.samples_unavailable = samples_unavailable


class SidedLimitsDisagree(TsfracError):
    """Left and right limits both converged but to different values."""

    def __init__(self, message: str, *, left: float, right: float):
        super().__init__(message)
        self.left = left
        self.right = right


class EndpointNotInScale(TsfracError):
    """An integration endpoint is not a member of the time scale."""


class EndpointOutsideKappaSet(TsfracError):
    """A symmetric Cauchy integral endpoint lacks a neighbor on one side."""


class QuadratureFailure(TsfracError):
    """A classical integral failed: adaptive quadrature exhausted its depth
    before meeting the tolerance, or the integrand, or a run of jump terms,
    was not finite."""


class ValidationError(TsfracError):
    """A scale component or expression argument violates its constraints."""


class ExprSyntaxError(TsfracError):
    """Parse failure, carrying the 1-based position of the offending token."""

    def __init__(self, message: str, *, line: int, column: int, expected: str = ""):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = expected

    @property
    def position(self) -> int:
        return self.column


class EvalDomainError(TsfracError):
    """An expression hit a domain hole (division by zero, log of a negative, ...)."""

    def __init__(self, message: str, *, node: object = None, t: float | None = None):
        super().__init__(message)
        self.node = node
        self.t = t


class EndpointAdjustedWarning(UserWarning):
    """A Cauchy-integral endpoint was evaluated via a documented fallback rule."""
