"""Exception types shared across the package."""

__all__ = [
    "GhmcError", "UsageError", "ValidationError", "ConstraintViolationError", "CapabilityError",
    "GeometryError", "MetricDegeneracyError", "NumericError", "DivergenceError",
]


class GhmcError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GhmcError):
    """The caller violated an operation's contract (bad shape, unknown name, ...)."""


class ValidationError(GhmcError):
    """Construction-time input failed validation (e.g. a non-SPD matrix)."""


class ConstraintViolationError(GhmcError):
    """A gradient was requested at an infeasible point, where it is undefined."""


class CapabilityError(GhmcError):
    """The operation needs model data (typically a Hessian) that was not supplied."""


class GeometryError(GhmcError):
    """A geometric quantity is degenerate (e.g. a zero-length reflection normal)."""


class MetricDegeneracyError(GhmcError):
    """A metric factorization failed; the matrix is not positive-definite."""


class NumericError(GhmcError):
    """A computation produced non-finite values where finite ones are required."""


class DivergenceError(GhmcError):
    """A trajectory failed numerically; the sampler treats it as a rejection."""
