"""Generalized Hamiltonian Monte Carlo.

A sampling engine built around the full family of detailed-balance-compatible
kinetic energies: constant and position-dependent Gaussian quadratic forms,
heavy-tailed Student-t variants, and the rank-1 metric induced on the graph of
the potential with O(n^2) inversion.  Inequality constraints are handled by
specular reflection inside the integrator, and every geometric property the
Metropolis correction relies on (reversibility, volume preservation, exact
reflection energy conservation) ships with an executable verification suite.

The suite, ``ghmc.verify``, loads on first use: ``ghmc.verify``,
``ghmc.CheckResult``, ``ghmc.run_checks``, ``ghmc.__all__`` and
``from ghmc import *`` import it, while ``import ghmc`` and ``ghmc sample``
run without it.
"""

from importlib import import_module

from . import errors, integrator, kinetic, metric, model, sampler
from .errors import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .kinetic import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403

__version__ = "0.1.0"


def __getattr__(name):
    # the first name this module lacks, a dunder other than __all__ aside,
    # loads the suite and binds here its names and __all__, the union of the
    # modules' own lists
    if not name.startswith("__") or name == "__all__":
        verify = import_module(".verify", __name__)
        modules = (errors, integrator, kinetic, metric, model, sampler, verify)
        globals().update({key: getattr(verify, key) for key in verify.__all__},
                         __all__=sorted({key for module in modules for key in module.__all__}))
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
