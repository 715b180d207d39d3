"""Exception hierarchy shared by every tsfrac module, and the base of its
immutable records.

A failed computation, and a scale, expression, point or endpoint that is not
valid, raise a subclass of :class:`TsfracError`, named for the condition it
reports, not for the place that raises it.  A malformed argument of another
kind (an order, a ``LimitConfig`` field, a step or density, a suite name
or trial count, an antiderivative kind other than nabla or delta, beta = 0
for the symmetric integral) is a ``ValueError``, and an order that is not
an ``Order`` a ``TypeError``.
"""

from __future__ import annotations

__all__ = [
    "TsfracError",
    "PointNotInScale",
    "PointOutsideDomain",
    "NegativeBaseForGeneralOrder",
    "NonFiniteSample",
    "LimitDidNotConverge",
    "SidedLimitsDisagree",
    "QuadratureFailure",
    "ValidationError",
    "ExprSyntaxError",
    "EvalDomainError",
    "EndpointAdjustedWarning",
]


class _Record:
    """An immutable record: its fields are the public entries of its instance
    dict, which the subclass's ``__init__`` sets in declared order with
    ``vars(self).update``.  An entry whose name starts with ``_`` is a memo,
    not a field.  ``==`` holds between records of one class with equal
    fields, ``hash`` and ``repr`` read the fields, and assigning or deleting
    an attribute raises ``AttributeError``.
    """

    def _fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if k[0] != "_"}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(tuple(self._fields().values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TsfracError(Exception):
    """Base class for all errors raised by tsfrac."""


class PointNotInScale(TsfracError):
    """A point, an integral endpoint or an antiderivative anchor among them,
    was expected to be a member of the time scale and is not."""


class PointOutsideDomain(TsfracError):
    """The point is in the scale but outside the operator's domain.

    The nabla derivative is undefined at a scattered minimum, the delta
    derivative at a scattered maximum, and the symmetric derivative, and so
    the symmetric integral's endpoints, at either.
    """


class NegativeBaseForGeneralOrder(TsfracError):
    """x**(p/q) was requested for x < 0 and p/q not an odd reciprocal."""


class NonFiniteSample(TsfracError):
    """A difference quotient, exact or sampled for a limit, evaluated to NaN or infinity."""


class LimitDidNotConverge(TsfracError):
    """The quotient sequence did not settle within the configured tolerance.

    ``samples_unavailable`` is set when the failure is structural: no side the
    definition admits has the three scale points a limit needs to sample, or
    fewer than three mirrored pairs t +/- h lie in the scale.
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


class QuadratureFailure(TsfracError):
    """A classical integral failed: adaptive quadrature exhausted its depth
    before meeting the tolerance, or the integrand, or a run of jump terms,
    was not finite."""


class ValidationError(TsfracError):
    """A scale component or expression argument violates its constraints."""


class ExprSyntaxError(TsfracError):
    """Parse failure, carrying the 1-based position of the offending token."""

    def __init__(self, message: str, *, position: int, expected: str = ""):
        super().__init__(message)
        self.position = position
        self.expected = expected


class EvalDomainError(TsfracError):
    """An expression hit a domain hole (division by zero, log of a negative, ...)."""

    def __init__(self, message: str, *, node: object = None, t: float | None = None):
        super().__init__(message)
        self.node = node
        self.t = t


class EndpointAdjustedWarning(UserWarning):
    """A Cauchy-integral endpoint was evaluated via a documented fallback rule."""
