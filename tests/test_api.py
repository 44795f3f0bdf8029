"""The public API, and the names outside tools wrap with their signatures."""

import copy
import inspect
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

import ghmc
import ghmc.runspec
import ghmc.sampler

PUBLIC_NAMES = [
    "ChainConfig", "ChainResult", "ConstantMetric", "Constraint",
    "DivergenceError", "GhmcError", "GraphMetric", "IntegratorConfig", "Kinetic", "PhaseState", "TargetModel", "Trajectory", "UsageError", "ValidationError",
    "builtin_target", "catalog_entries", "effective_sample_size", "euclidean_quadratic",
    "generalized_leapfrog_step", "hamiltonian", "hmc_transition", "integrate",
    "potential_eval", "potential_grad", "reflect_momentum", "riemannian_quadratic",
    "run_chain", "student_t",
]


def test_the_public_api_is_the_union_of_the_module_lists():
    assert ghmc.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ghmc, name) is not None
    # kept in their modules, out of the package's list
    from ghmc.metric import MetricState  # noqa: F401
    from ghmc.model import CatalogEntry, as_position  # noqa: F401
    from ghmc.verify import CHECKS  # noqa: F401


def test_the_names_the_benchmark_tracer_wraps_keep_their_signatures():
    # the benchmark wraps these on copies of a model and a kinetic, and swaps
    # the names ghmc.sampler and ghmc.runspec look up
    builtin = ghmc.builtin_target("halfspace_gaussian", n=2)
    constraints = tuple(replace(c, value=c.value, grad=c.grad) for c in builtin.constraints)
    model = replace(builtin, potential=builtin.potential, gradient=builtin.gradient,
                    hessian=builtin.hessian, constraints=constraints)
    q, p = np.array([0.5, 0.2]), np.array([-1.0, 0.3])
    rng = np.random.default_rng(0)
    student = ghmc.student_t(np.eye(2))
    for kinetic in (student, ghmc.riemannian_quadratic(ghmc.GraphMetric(model))):
        field = copy.copy(kinetic.field)
        if isinstance(field, ghmc.GraphMetric):
            assert field.model is model
        state = field.state_at(q, with_hessian=True)
        assert field.sample_gaussian(q, rng).shape == (2,)
        assert np.isfinite(kinetic.energy(state, p))
        assert kinetic.grad_p(state, p).shape == kinetic.grad_q(state, p).shape == (2,)
        assert kinetic.sample_momentum(q, rng).shape == (2,)
        np.testing.assert_allclose(kinetic.lambda_at(q), state.lam)
    config = ghmc.IntegratorConfig(0.2, 10)
    traj = ghmc.sampler.integrate(model, student, ghmc.PhaseState(q, p), config)
    assert traj.reflection_count >= 1
    # the step entry that the benchmark probes, called with five positional
    # arguments and taking no more
    q1, p1 = ghmc.generalized_leapfrog_step(model, student, q, p, 0.2)
    assert np.isfinite(q1).all() and np.isfinite(p1).all()
    assert list(inspect.signature(ghmc.generalized_leapfrog_step).parameters) == [
        "model", "kinetic", "q", "p", "step_size"]
    assert np.isfinite(ghmc.sampler.hamiltonian(model, student, q, p))
    cfg = ghmc.ChainConfig(seed=1, num_samples=100, integrator=ghmc.IntegratorConfig(0.2, 5))
    res = ghmc.runspec.run_chain(model, student, cfg, None)
    assert np.isfinite(ghmc.sampler.effective_sample_size(res.samples[:, 0]))


def test_the_run_attributes_the_benchmark_reads_keep_working():
    # the benchmark reads these from its explicit_mvn spec and from each
    # run_chain result, beside the names its tracer wraps
    spec = ghmc.runspec.load_run_spec(Path(__file__).resolve().parent.parent
                                      / "perfbench" / "explicit_mvn.spec")
    assert (spec.chains, spec.warmup, spec.num_samples) == (2, 50, 350)
    assert spec.diagnostics_path == "diagnostics.json"
    cfg = replace(spec.config, warmup=10, num_samples=40)
    res = ghmc.run_chain(spec.model, spec.kinetic, cfg, None)
    assert res.accepted.shape == (40,) and 0 < int(res.accepted.sum()) <= 40
    assert res.divergence_count == 0
    assert res.samples.shape == (40, 2) and res.ess.shape == (2,)


def test_the_ci_benchmark_loops_run_every_declared_workload():
    # the workflow spells the workload names out in its `for w in ...` loops;
    # read as text, since no YAML parser is a test dependency, each loop must
    # list exactly the workloads that BENCHMARK.json declares, in its order
    root = Path(__file__).resolve().parent.parent
    declared = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    loops = re.findall(r"^\s*for w in ([^;]*); do$", workflow, re.MULTILINE)
    assert len(loops) == 3
    for loop in loops:
        assert loop.split() == declared
