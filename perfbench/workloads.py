"""The benchmark's workloads: one (target x kinetic family) cell each.

Every workload runs its chains back to back with jitter on.  An *operation*
is one call into the engine: one ``run_chain`` for the workloads driven
through the library, one ``ghmc sample`` invocation (several chains) for
``explicit_mvn``.  The first ``unit_ops`` operations of a run are always the
same for a given workload seed; they are hashed, traced and used as the base
of the tracing overhead.

``mean``, ``var`` and ``var_sq`` are the analytic marginal moments the
correctness check compares against: the mean, the variance, and the variance
of the squared deviation (x - mean)^2, which sets the standard error of a
sample variance.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import ghmc
from ghmc.runspec import load_run_spec

SPEC_PATH = Path(__file__).with_name("explicit_mvn.spec")

_MVN_COV = np.array([[1.0, 0.9], [0.9, 1.0]])
_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
_HALF_NORMAL_VAR = 1.0 - 2.0 / math.pi
# E[(x - m)^4] - var^2 for the half-normal, with m = sqrt(2/pi):
# E x^4 - 4 m E x^3 + 6 m^2 E x^2 - 3 m^4 = 3 - 2 m^2 - 3 m^4.
_HALF_NORMAL_VAR_SQ = 3.0 - 2.0 * _HALF_NORMAL_MEAN**2 - 3.0 * _HALF_NORMAL_MEAN**4 - _HALF_NORMAL_VAR**2


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # mixed into every derived seed, so workloads never share chains
    unit_ops: int
    mean: np.ndarray
    var: np.ndarray
    var_sq: np.ndarray
    # Chain settings of the library-driven workloads; the CLI one reads its spec.
    step_size: Optional[float] = None
    num_steps: Optional[int] = None
    warmup: Optional[int] = None
    num_samples: Optional[int] = None
    build: Optional[Callable] = None  # () -> (model, kinetic); None: driven by the CLI
    initial: Optional[Callable] = None  # rng -> initial point; None: the target's own

    @property
    def through_cli(self) -> bool:
        return self.build is None

    def setup(self):
        """Everything a run builds before sampling: what ``setup_s`` times."""
        if self.through_cli:
            import ghmc.cli as ghmc_cli  # noqa: F401  (`ghmc sample` loads it before parsing)

            return load_run_spec(SPEC_PATH)
        model, kinetic = self.build()
        icfg = ghmc.IntegratorConfig(step_size=self.step_size, num_steps=self.num_steps)
        return model, kinetic, icfg

    def chain_config(self, icfg, seed: int, op: int) -> ghmc.ChainConfig:
        return ghmc.ChainConfig(
            seed=op_seed(seed, self.index, op),
            num_samples=self.num_samples,
            warmup=self.warmup,
            integrator=icfg,
            jitter_steps=True,
        )

    def initial_point(self, seed: int, op: int):
        if self.initial is None:
            return None
        rng = np.random.default_rng([seed, self.index, op, 1])
        return self.initial(rng)


def op_seed(seed: int, index: int, op: int) -> int:
    """Seed of operation ``op``, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index, op]).generate_state(1)[0])


def _orthant():
    model = ghmc.builtin_target(
        "halfspace_gaussian", n=3, constraints=[(row, 0.0) for row in np.eye(3)]
    )
    return model, ghmc.student_t(np.eye(3), nu=5.0)


def _graph_small():
    model = ghmc.builtin_target("std_gaussian", n=10)
    return model, ghmc.student_t(ghmc.GraphMetric(model), nu=5.0)


WORKLOADS = {
    "explicit_mvn": Workload(
        name="explicit_mvn",
        index=0,
        unit_ops=1,
        mean=np.zeros(2),
        var=np.diag(_MVN_COV).copy(),
        var_sq=2.0 * np.diag(_MVN_COV) ** 2,
    ),
    "reflect_orthant": Workload(
        name="reflect_orthant",
        index=1,
        step_size=0.3,
        num_steps=10,
        warmup=50,
        num_samples=500,
        unit_ops=8,
        mean=np.full(3, _HALF_NORMAL_MEAN),
        var=np.full(3, _HALF_NORMAL_VAR),
        var_sq=np.full(3, _HALF_NORMAL_VAR_SQ),
        build=_orthant,
        initial=lambda rng: np.ones(3),
    ),
    "graph_small": Workload(
        name="graph_small",
        index=2,
        step_size=0.3,
        num_steps=10,
        warmup=20,
        num_samples=300,
        unit_ops=3,
        mean=np.zeros(10),
        var=np.ones(10),
        var_sq=np.full(10, 2.0),
        build=_graph_small,
    ),
}
