"""Target distributions represented as potentials on the position space.

A target is its potential V(q) = -log pi(q), known only up to an additive
constant, together with the gradient of V, an optional Hessian, and optional
strict inequality constraints C_k(q) > 0.  Outside the feasible region the
potential is treated as infinite and ``potential_grad`` refuses q.  The
integrator alone decides feasibility in a chain and handles crossings.

The built-in catalog provides analytic test targets with known moments where
they exist, which the verification and acceptance suites use as oracles.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, UsageError, ValidationError

__all__ = [
    "Constraint",
    "TargetModel",
    "potential_eval",
    "potential_grad",
    "builtin_target",
    "catalog_entries",
]


@dataclass(frozen=True)
class Constraint:
    """Strict inequality C(q) > 0 with a user-supplied gradient of C."""

    value: Callable
    grad: Callable


@dataclass(frozen=True)
class TargetModel:
    """An n-dimensional target: potential, gradient, optional Hessian/constraints.

    ``analytic_moments`` is a (mean, covariance) pair when the target has
    closed-form moments, used by tests as an oracle.  ``initial_point`` is a
    feasible starting point for chains.  ``gradient`` must accept any finite
    q, since a graph metric's drift iterates may pass a wall before the
    integrator judges the drift's end.  A non-finite value there is a
    divergence; an exception raised there is not caught and ends the chain.
    """

    n: int
    potential: Callable
    gradient: Callable
    hessian: Optional[Callable] = None
    constraints: tuple = ()
    name: str = ""
    initial_point: Optional[np.ndarray] = None
    analytic_moments: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.n}")
        if self.initial_point is not None:
            init = np.asarray(self.initial_point, dtype=float)
            if init.shape != (self.n,):
                raise ValidationError("initial_point shape does not match dimension")
            init = init.copy()
            init.flags.writeable = False
            object.__setattr__(self, "initial_point", init)


def as_position(q, n: int) -> np.ndarray:
    """Coerce q to a flat float array of length n, rejecting shape mismatches."""
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise UsageError(f"position has shape {q.shape}, expected ({n},)")
    return q


def spd_factor(mat, what: str):
    """(symmetrized mat, its lower Cholesky factor, its symmetrized inverse and
    that inverse's lower Cholesky factor); raises ValidationError if mat is not
    SPD, or if rounding leaves it singular or its inverse indefinite."""
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{what} must have finite entries")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{what} must be a square matrix")
    # rounding in the entries scales with the largest of them
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * np.max(np.abs(mat), initial=1.0)):
        raise ValidationError(f"{what} must be symmetric")
    mat = 0.5 * (mat + mat.T)
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{what} must be positive-definite") from None
    try:
        inv = np.linalg.inv(mat)
        inv = 0.5 * (inv + inv.T)
        chol_inv = np.linalg.cholesky(inv)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{what} is too near singular to invert") from None
    return mat, chol, inv, chol_inv


def potential_eval(model: TargetModel, q) -> float:
    """V(q), or +inf when any constraint C_k(q) <= 0."""
    q = as_position(q, model.n)
    if not np.all(np.isfinite(q)):
        raise UsageError("position has non-finite entries")
    if not all(float(c.value(q)) > 0.0 for c in model.constraints):
        return math.inf
    return float(model.potential(q))


def potential_grad(model: TargetModel, q) -> np.ndarray:
    """dV/dq at a strictly feasible point.

    Raises DivergenceError off the feasible region: the potential jumps to
    infinity across the boundary so no gradient exists there.
    """
    q = as_position(q, model.n)
    if not all(float(c.value(q)) > 0.0 for c in model.constraints):
        raise DivergenceError(
            "gradient requested at an infeasible point; it is undefined on the boundary"
        )
    return np.asarray(model.gradient(q), dtype=float)


def _hessian_at(model, q):
    # the symmetrized Hessian of V at a q that as_position has already shaped;
    # halving the sum in place gives the bits of 0.5 * (h + h.T) with one
    # n x n array fewer
    h = np.asarray(model.hessian(q), dtype=float)
    s = h + h.T
    s *= 0.5
    return s


# ---------------------------------------------------------------------------
# Built-in catalog


@dataclass(frozen=True)
class CatalogEntry:
    """Descriptor for a built-in target: name, parameter schema, moment flag.

    ``params`` maps each key to (spec-file kind, doc); kind None is library-only.
    """

    name: str
    params: dict
    has_moments: bool
    build: Callable


def _check_params(name: str, given: dict, allowed: dict):
    for key in given:
        if key not in allowed:
            raise UsageError(
                f"unknown parameter {key!r} for target {name!r}; "
                f"allowed: {sorted(allowed)}"
            )


def _is_integer(x) -> bool:
    # an integer, NumPy's too, and not a bool or a float
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dimension(n, least: int = 1) -> int:
    # n as a dimension: an integer of at least ``least``
    if not _is_integer(n):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if n < least:
        raise ValidationError(f"dimension must be >= {least}, got {n}")
    return int(n)


def _std_gaussian(n: int = 1) -> TargetModel:
    n = _dimension(n)
    ident = np.eye(n)
    return TargetModel(
        n=n,
        potential=lambda q: 0.5 * float(q.dot(q)),
        gradient=lambda q: q.copy(),
        hessian=lambda q: ident.copy(),
        name="std_gaussian",
        initial_point=np.zeros(n),
        analytic_moments=(np.zeros(n), np.eye(n)),
    )


def _mvn(mean=None, cov=None) -> TargetModel:
    for key, value in (("mean", mean), ("cov", cov)):
        if value is None:
            raise ValidationError(f"target mvn requires {key!r}")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if not np.all(np.isfinite(mean)):
        raise ValidationError("mvn mean must have finite entries")
    cov, _, prec, _ = spd_factor(cov, "mvn covariance")
    n = mean.size
    if cov.shape != (n, n):
        raise ValidationError("mvn mean and covariance sizes do not match")

    def pot(q, mean=mean, prec=prec):
        d = q - mean
        return 0.5 * float(d.dot(prec).dot(d))

    return TargetModel(
        n=n,
        potential=pot,
        gradient=lambda q: prec.dot(q - mean),
        hessian=lambda q: prec.copy(),
        name="mvn",
        initial_point=mean.copy(),
        analytic_moments=(mean.copy(), cov.copy()),
    )


def _banana(a: float = 1.0, b: float = 100.0) -> TargetModel:
    """Curved-valley target V = (a - q1)^2 + b*(q2 - q1^2)^2 in two dimensions."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"banana parameters must be finite, got a={a}, b={b}")

    def pot(q):
        return (a - q[0]) ** 2 + b * (q[1] - q[0] ** 2) ** 2

    def grad(q):
        r = q[1] - q[0] ** 2
        return np.array([-2.0 * (a - q[0]) - 4.0 * b * q[0] * r, 2.0 * b * r])

    def hess(q):
        return np.array(
            [
                [2.0 - 4.0 * b * q[1] + 12.0 * b * q[0] ** 2, -4.0 * b * q[0]],
                [-4.0 * b * q[0], 2.0 * b],
            ]
        )

    return TargetModel(
        n=2,
        potential=pot,
        gradient=grad,
        hessian=hess,
        name="banana",
        initial_point=np.array([a, a * a]),
    )


def _funnel(n: int = 2) -> TargetModel:
    """Hierarchical scale target: q1 is a log-scale, q2..qn are N(0, exp(q1)).

    V = q1^2/18 + (n-1) q1 / 2 + exp(-q1) * sum(q_i^2) / 2.
    """
    n = _dimension(n, 2)

    def exp_neg(v):
        # exp(-v), inf where it overflows (v < -709), so that a trajectory
        # that goes there diverges
        try:
            return math.exp(-v)
        except OverflowError:
            return math.inf

    def pot(q):
        v = q[0]
        return v * v / 18.0 + 0.5 * (n - 1) * v + 0.5 * exp_neg(v) * float(q[1:].dot(q[1:]))

    def grad(q):
        v = q[0]
        ev = exp_neg(v)
        g = np.empty(n)
        g[0] = v / 9.0 + 0.5 * (n - 1) - 0.5 * ev * float(q[1:].dot(q[1:]))
        g[1:] = ev * q[1:]
        return g

    def hess(q):
        v = q[0]
        ev = exp_neg(v)
        h = np.zeros((n, n))
        h[0, 0] = 1.0 / 9.0 + 0.5 * ev * float(q[1:].dot(q[1:]))
        h[0, 1:] = -ev * q[1:]
        h[1:, 0] = -ev * q[1:]
        h[1:, 1:] = ev * np.eye(n - 1)
        return h

    cov = np.eye(n) * math.exp(4.5)
    cov[0, 0] = 9.0
    return TargetModel(
        n=n,
        potential=pot,
        gradient=grad,
        hessian=hess,
        name="funnel",
        initial_point=np.zeros(n),
        analytic_moments=(np.zeros(n), cov),
    )


def _halfspace_gaussian(n: int = 1, constraints=None) -> TargetModel:
    """Standard Gaussian restricted to linear half-spaces w.q + b > 0.

    The default single constraint is q1 > 0, for which the moments are the
    half-normal ones in the first coordinate.  Custom constraint lists get no
    analytic moments and no initial point.
    """
    base = _std_gaussian(n)
    n = base.n
    default = constraints is None
    if default:
        w = np.zeros(n)
        w[0] = 1.0
        constraints = [(w, 0.0)]
    cons = []
    for w, b in constraints:
        w = np.asarray(w, dtype=float).copy()
        if w.shape != (n,):
            raise ValidationError("halfspace normal has the wrong dimension")
        b = float(b)
        w.flags.writeable = False
        cons.append(
            Constraint(
                value=lambda q, w=w, b=b: float(w.dot(q)) + b,
                grad=lambda q, w=w: w.copy(),
            )
        )

    moments = None
    init = None
    if default:
        mean = np.zeros(n)
        mean[0] = math.sqrt(2.0 / math.pi)
        cov = np.eye(n)
        cov[0, 0] = 1.0 - 2.0 / math.pi
        moments = (mean, cov)
        init = np.zeros(n)
        init[0] = 1.0

    return replace(
        base,
        constraints=tuple(cons),
        name="halfspace_gaussian",
        initial_point=init,
        analytic_moments=moments,
    )


_CATALOG = {
    "banana": CatalogEntry(
        name="banana",
        params={
            "a": ("float", "valley offset (default 1.0)"),
            "b": ("float", "valley stiffness (default 100.0)"),
        },
        has_moments=False,
        build=_banana,
    ),
    "funnel": CatalogEntry(
        name="funnel",
        params={"n": ("int", "dimension >= 2 (default 2); q1 is the log-scale coordinate")},
        has_moments=True,
        build=_funnel,
    ),
    "halfspace_gaussian": CatalogEntry(
        name="halfspace_gaussian",
        params={
            "n": ("int", "dimension (default 1)"),
            "constraints": (None, "list of (normal, offset) half-spaces (default: q1 > 0)"),
        },
        has_moments=True,
        build=_halfspace_gaussian,
    ),
    "mvn": CatalogEntry(
        name="mvn",
        params={
            "mean": ("vector", "mean vector (required)"),
            "cov": ("matrix", "SPD covariance matrix (required)"),
        },
        has_moments=True,
        build=_mvn,
    ),
    "std_gaussian": CatalogEntry(
        name="std_gaussian",
        params={"n": ("int", "dimension (default 1)")},
        has_moments=True,
        build=_std_gaussian,
    ),
}


def catalog_entries():
    """Catalog descriptors, stable-sorted by target name."""
    return [_CATALOG[k] for k in sorted(_CATALOG)]


def builtin_target(name: str, **params) -> TargetModel:
    """Construct a catalog target by name; unknown names or keys are errors."""
    if name not in _CATALOG:
        raise UsageError(f"unknown target {name!r}; known: {sorted(_CATALOG)}")
    entry = _CATALOG[name]
    _check_params(name, params, entry.params)
    return entry.build(**params)
