"""Exception types shared across the package."""

__all__ = ["GhmcError", "UsageError", "ValidationError", "DivergenceError"]


class GhmcError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GhmcError):
    """The caller violated an operation's contract (bad shape, unknown name, ...)."""


class ValidationError(GhmcError):
    """Construction-time input was refused (e.g. a non-SPD matrix, a target
    without the Hessian a graph field needs); a spec cites it at its line."""


class DivergenceError(GhmcError):
    """A quantity is undefined where it was asked for: a gradient off the
    feasible region, a degenerate reflection normal, non-finite values, an
    implicit solve that does not converge.  Inside a trajectory the sampler
    counts it as a rejection."""
