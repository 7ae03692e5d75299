"""Exception types shared across the package.

Every error that a verification run can recover from (by reporting a
finding, retrying at higher precision, or rejecting a config) gets its
own class.  The CLI maps ``ConfigError`` to exit 2 and every
``NumericalError`` to exit 3.
"""

from __future__ import annotations


class LacunaryError(Exception):
    """Base class for all package errors."""


class ConfigError(LacunaryError):
    """Invalid configuration: bad parameters or violated schedule invariants."""


class NumericalError(LacunaryError):
    """Base class for numerical failures: lost digits, a point off the
    certified domain, or a quadrature or sampler that did not converge."""


class PrecisionError(NumericalError):
    """A non-finite value (NaN/inf component) appeared where it must not."""


class CancellationError(NumericalError):
    """A sum lost more significant digits than the working precision affords.

    Carries the lossy partial result so diagnostic callers can still
    inspect the magnitude that survived.
    """

    def __init__(self, message: str, result=None, digits_lost: float | None = None):
        super().__init__(message)
        self.result = result
        self.digits_lost = digits_lost


class TailError(NumericalError):
    """Evaluation point outside the domain where the truncation tail is certified."""


class NearZeroError(NumericalError):
    """Evaluation point too close to a zero of the product for the requested operation."""


class NearPoleError(NumericalError):
    """Evaluation point too close to a pole of the rational interpolant."""


class QuadratureError(NumericalError):
    """Quadrature failed to converge, or its validity precondition was violated."""

    def __init__(self, message: str, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class DivergenceError(NumericalError):
    """A sampler ran out of attempts (annulus points starved by zero disks)."""


class ZeroOnContourError(NumericalError):
    """The derivative vanishes on an integration contour that must avoid its zeros."""


class PrecisionInsufficient(NumericalError):
    """Working precision cannot certify the requested check; retry with more digits."""

    def __init__(self, message: str, suggested_dps: int):
        super().__init__(message)
        self.suggested_dps = suggested_dps
