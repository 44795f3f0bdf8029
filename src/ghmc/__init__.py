"""Generalized Hamiltonian Monte Carlo.

A sampling engine built around the full family of detailed-balance-compatible
kinetic energies: constant and position-dependent Gaussian quadratic forms,
heavy-tailed Student-t variants, and the rank-1 metric induced on the graph of
the potential with O(n^2) inversion.  Inequality constraints are handled by
specular reflection inside the integrator, and every geometric property the
Metropolis correction relies on (reversibility, volume preservation, exact
reflection energy conservation) ships with an executable verification suite.

The package exports the engine modules' public names.  The suite is the
submodule ``ghmc.verify``, loaded only by an import of it.
"""

from . import errors, integrator, kinetic, metric, model, sampler
from .errors import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .kinetic import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403

__version__ = "0.1.0"
__all__ = sorted({name for module in (errors, integrator, kinetic, metric, model, sampler)
                  for name in module.__all__})
