"""Metropolis-corrected transition kernel, chain driver, and diagnostics.

Each transition refreshes the momentum from its exact conditional (a Gibbs
move across energy contours), integrates the dynamics for a possibly jittered
number of steps, flips the momentum to make the proposal an involution, and
accepts with probability min(1, exp(H_start - H_end)).  The momentum is
discarded after the decision; only positions are retained.  Trajectories that
fail numerically count as divergences and are rejected outright.

A transition starts from the point the chain holds: V, its gradient and the
field's metric state at the current position, evaluated when the chain
started or when the trajectory that proposed the position ended.  So the
start energy costs one kinetic energy, and no position is evaluated twice.

Only energy differences ever enter the accept decision, so potentials defined
up to an additive constant are fine.  Chains own their generator: runs are
bit-reproducible from the seed, and independent chains can execute in
parallel without shared state.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, UsageError
from .integrator import (  # noqa: F401  (hamiltonian stays importable from here)
    IntegratorConfig,
    PhaseState,
    _start,
    hamiltonian,
    integrate,
)
from .model import TargetModel, _is_integer, as_position

__all__ = [
    "ChainConfig",
    "ChainResult",
    "hmc_transition",
    "run_chain",
    "effective_sample_size",
]


@dataclass(frozen=True)
class ChainConfig:
    """Seed, sample counts, integrator settings, and step-count jitter.

    With ``jitter_steps`` the number of leapfrog steps is drawn uniformly from
    {1, ..., num_steps} each transition, which breaks the phase-space cycles a
    fixed trajectory length can lock into.
    """

    seed: int
    num_samples: int
    integrator: IntegratorConfig
    warmup: int = 0
    jitter_steps: bool = False

    def __post_init__(self):
        for name in ("seed", "num_samples", "warmup"):
            if not _is_integer(getattr(self, name)):
                raise UsageError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.jitter_steps, (bool, np.bool_)):
            raise UsageError(f"jitter_steps must be a bool, got {self.jitter_steps!r}")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if self.num_samples < 1:
            raise UsageError("num_samples must be at least 1")
        if self.warmup < 0:
            raise UsageError("warmup must be non-negative")


@dataclass
class ChainResult:
    """Retained samples plus acceptance, energy-error, and moment diagnostics."""

    samples: np.ndarray
    accepted: np.ndarray
    delta_h: np.ndarray
    divergence_count: int
    mean: np.ndarray
    cov: np.ndarray
    ess: np.ndarray

    @property
    def accept_rate(self) -> float:
        return float(np.mean(self.accepted))


def _transition(model, kinetic, q, v, point, cfg, configs, rng):
    # The transition kernel, from q with V and the point there evaluated.
    # Returns the chain's next (q, V, point), accepted and delta_h: the
    # trajectory's end on accept, the start otherwise.  ``configs`` holds the
    # integrator config of each step count drawn so far.  The caller ignores
    # over- and invalid-value warnings, so that a momentum whose energy is
    # not finite is a divergence, not a warning.
    p = kinetic.sample_momentum(q, rng)
    h_start = v + kinetic.energy(point[1], p)
    num_steps = cfg.integrator.num_steps
    if cfg.jitter_steps:
        num_steps = int(rng.integers(1, num_steps + 1))
    icfg = configs.get(num_steps)
    if icfg is None:
        icfg = configs[num_steps] = replace(cfg.integrator, num_steps=num_steps)
    if not math.isfinite(h_start):
        # a momentum too far out for a finite energy, which a Student-t draw
        # can be; it does not depend on q, so rejecting it keeps the target
        return q, v, point, False, math.inf
    try:
        traj = integrate(model, kinetic, PhaseState(q, p, h_start, point), icfg)
    except DivergenceError:
        return q, v, point, False, math.inf
    # The momentum flip makes the proposal an involution; the kinetic energy
    # is even in p, so it costs nothing and H(q_end, -p_end) is the
    # trajectory's final energy.
    end = traj.state
    delta_h = end.energy - h_start
    if math.log(rng.random()) < h_start - end.energy:
        return end.q, traj.potential, end.point, True, delta_h
    return q, v, point, False, delta_h


def hmc_transition(model: TargetModel, kinetic, q, cfg: ChainConfig, rng):
    """One transition from position q; returns (position, accepted, delta_h).

    Evaluates q, which must be feasible with finite potential, and runs the
    kernel ``run_chain`` runs.  Divergent trajectories never contribute a
    proposal: the chain stays put and delta_h is +inf so the caller can
    count them.
    """
    q = as_position(q, model.n)
    v, point = _start(model, kinetic, q)
    with np.errstate(over="ignore", invalid="ignore"):
        q, _, _, accepted, delta_h = _transition(model, kinetic, q, v, point, cfg, {}, rng)
    return q, accepted, delta_h


def run_chain(model: TargetModel, kinetic, cfg: ChainConfig, initial=None) -> ChainResult:
    """Run warmup + num_samples transitions and summarize the retained ones.

    The initial point defaults to the target's catalog-provided one; either
    way it must be feasible with finite potential.  The chain evaluates it
    once and then carries the point it stands on, so each transition starts
    from a point already evaluated.
    """
    if initial is None:
        initial = model.initial_point
    if initial is None:
        raise UsageError(
            f"target {model.name!r} provides no initial point; pass one explicitly"
        )
    q = as_position(initial, model.n).copy()
    v, point = _start(model, kinetic, q)
    configs = {}

    rng = np.random.default_rng(cfg.seed)
    n = model.n
    samples = np.empty((cfg.num_samples, n))
    accepted = np.zeros(cfg.num_samples, dtype=bool)
    delta_h = np.empty(cfg.num_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.warmup + cfg.num_samples):
            q, v, point, acc, dh = _transition(model, kinetic, q, v, point, cfg, configs, rng)
            k = t - cfg.warmup
            if k >= 0:
                samples[k] = q
                accepted[k] = acc
                delta_h[k] = dh

    divergences = int(np.sum(~np.isfinite(delta_h)))
    mean = samples.mean(axis=0)
    if cfg.num_samples > 1:
        cov = np.atleast_2d(np.cov(samples, rowvar=False))
    else:
        cov = np.full((n, n), np.nan)
    if cfg.num_samples >= 100:
        ess = np.array([effective_sample_size(samples[:, j]) for j in range(n)])
    else:
        ess = np.full(n, np.nan)
    return ChainResult(
        samples=samples,
        accepted=accepted,
        delta_h=delta_h,
        divergence_count=divergences,
        mean=mean,
        cov=cov,
        ess=ess,
    )


def effective_sample_size(series) -> float:
    """ESS from the autocorrelation time, truncated by initial positive pairs.

    Autocorrelations are summed in adjacent pairs until a pair sum goes
    non-positive; tau = 2 * (partial sum) - 1, floored at 1 / log10(N) as in
    Stan and ArviZ, and ESS = N / tau <= N log10(N): an antithetic series,
    such as a chain trapped in a period, has a pair sum near zero.  A constant
    series, such as a stalled chain's, has no ESS and gives NaN; a non-finite
    one, or one whose variance overflows, is refused.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 100:
        raise UsageError("effective_sample_size needs at least 100 samples")
    with np.errstate(invalid="ignore", over="ignore"):
        x = x - x.mean()
        c0 = float(x @ x) / n
    if not math.isfinite(c0):
        raise UsageError("effective_sample_size needs finite values with a finite variance")
    # a constant series, whose mean may miss its value by a rounding
    if (x == x[0]).all():
        return math.nan
    # autocovariance via FFT
    m = 1
    while m < 2 * n:
        m *= 2
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real / n
    rho = acov / acov[0]
    # Initial positive sequence over pair sums rho[2m] + rho[2m+1]
    total = 0.0
    for m2 in range(0, n - 1, 2):
        pair = rho[m2] + rho[m2 + 1]
        if pair <= 0.0:
            break
        total += pair
    tau = max(2.0 * total - 1.0, 1.0 / math.log10(n))
    return float(n / tau)
