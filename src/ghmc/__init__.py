"""Generalized Hamiltonian Monte Carlo.

A sampling engine built around the full family of detailed-balance-compatible
kinetic energies: constant and position-dependent Gaussian quadratic forms,
heavy-tailed Student-t variants, and the rank-1 metric induced on the graph of
the potential with O(n^2) inversion.  Inequality constraints are handled by
specular reflection inside the integrator, and every geometric property the
Metropolis correction relies on (reversibility, volume preservation, exact
reflection energy conservation) ships with an executable verification suite.
"""

from .errors import (
    CapabilityError,
    ConstraintViolationError,
    DivergenceError,
    GeometryError,
    GhmcError,
    MetricDegeneracyError,
    NumericError,
    UsageError,
    ValidationError,
)
from .integrator import (
    IntegratorConfig,
    PhaseState,
    Trajectory,
    generalized_leapfrog_step,
    hamiltonian,
    integrate,
    reflect_momentum,
    volume_check,
)
from .kinetic import (
    Kinetic,
    euclidean_quadratic,
    riemannian_quadratic,
    student_t,
)
from .metric import (
    ConstantMetric,
    GraphMetric,
)
from .model import (
    Constraint,
    TargetModel,
    builtin_target,
    catalog_entries,
    potential_eval,
    potential_grad,
)
from .sampler import (
    ChainConfig,
    ChainResult,
    effective_sample_size,
    hmc_transition,
    run_chain,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ChainConfig",
    "ChainResult",
    "CheckResult",
    "Constraint",
    "ConstantMetric",
    "ConstraintViolationError",
    "DivergenceError",
    "GeometryError",
    "GhmcError",
    "GraphMetric",
    "IntegratorConfig",
    "Kinetic",
    "MetricDegeneracyError",
    "NumericError",
    "PhaseState",
    "TargetModel",
    "Trajectory",
    "UsageError",
    "ValidationError",
    "builtin_target",
    "catalog_entries",
    "effective_sample_size",
    "euclidean_quadratic",
    "generalized_leapfrog_step",
    "hamiltonian",
    "hmc_transition",
    "integrate",
    "potential_eval",
    "potential_grad",
    "reflect_momentum",
    "riemannian_quadratic",
    "run_chain",
    "run_checks",
    "student_t",
    "volume_check",
]
