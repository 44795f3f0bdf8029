"""Side measurements every run makes besides its workload.

``escaped_errors`` replays a known defect: graph metric plus a constraint lets
an exception escape ``run_chain`` instead of becoming a divergence.  It counts
the chains that raised, so a fix shows as the count dropping to 0.

``generalized_step_exponent`` fits the wall time of one generalized leapfrog
step against the dimension, the per-step form of the O(n^2) claim.

``reference_kernel_s`` times a fixed kernel that shares no code with ghmc.
The speed of a shared machine drifts by 10-30% over seconds to minutes; runs
interleave the kernel with their operations and scale wall time by it.
"""

import time

import numpy as np

import ghmc

FIT_DIMENSIONS = (64, 128, 256, 512)
FIT_ROUNDS = 15
# Wall time of reference_kernel_s() at nominal machine speed.  One reference
# second is the time in which the machine runs 1/NOMINAL_KERNEL_S kernels.
NOMINAL_KERNEL_S = 0.04


def reference_kernel_s():
    """Wall time of a fixed mix of small NumPy operations in a Python loop.

    The mix resembles the engine's hot path at small n: interpreter overhead
    around calls on tiny arrays.
    """
    v = np.linspace(0.0, 1.0, 8)
    m = np.eye(8)
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(8000):
        w = m @ v + 0.5 * v
        total += float(w @ v)
    return time.perf_counter() - t0


def escaped_errors():
    """Chains of the graph x half-space repro (seed 3) that raised; and the errors."""
    model = ghmc.builtin_target("halfspace_gaussian", n=2)
    cfg = ghmc.ChainConfig(
        seed=3,
        num_samples=100,
        integrator=ghmc.IntegratorConfig(step_size=0.3, num_steps=10),
        jitter_steps=True,
    )
    errors = []
    for make in (ghmc.riemannian_quadratic, ghmc.student_t):
        try:
            ghmc.run_chain(model, make(ghmc.GraphMetric(model)), cfg)
        except Exception as exc:  # the defect under watch: any escape counts
            errors.append(f"{make.__name__}: {type(exc).__name__}: {exc}")
    return len(errors), errors


def generalized_step_exponent():
    """Slope of log(step time) over log(n); and the step time per n in s.

    The dimensions are timed in turn, FIT_ROUNDS times over, so a drift in the
    machine's speed touches all of them alike.  Each timed step follows an
    untimed one at the same n, so it finds the caches as a chain would.  Each n
    keeps its fastest step, the one least disturbed by other load.
    """
    steps = []
    for n in FIT_DIMENSIONS:
        model = ghmc.builtin_target("std_gaussian", n=n)
        kinetic = ghmc.riemannian_quadratic(ghmc.GraphMetric(model))
        rng = np.random.default_rng(n)
        q = rng.standard_normal(n)
        p = kinetic.sample_momentum(q, rng)
        steps.append((model, kinetic, q, p))
    best = [float("inf")] * len(steps)
    for _ in range(FIT_ROUNDS):
        for i, (model, kinetic, q, p) in enumerate(steps):
            ghmc.generalized_leapfrog_step(model, kinetic, q, p, 0.2)  # refill caches
            t0 = time.perf_counter()
            ghmc.generalized_leapfrog_step(model, kinetic, q, p, 0.2)
            best[i] = min(best[i], time.perf_counter() - t0)
    slope = np.polyfit(np.log(FIT_DIMENSIONS), np.log(best), 1)[0]
    return float(slope), dict(zip(map(str, FIT_DIMENSIONS), best))
