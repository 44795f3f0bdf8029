"""Transition kernel, chain driver, and diagnostics."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ghmc.sampler
from ghmc.errors import GhmcError, UsageError
from ghmc.integrator import IntegratorConfig, PhaseState, integrate
from ghmc.kinetic import euclidean_quadratic, riemannian_quadratic, student_t
from ghmc.metric import ConstantMetric, GraphMetric
from ghmc.model import TargetModel, builtin_target, potential_eval
from ghmc.sampler import ChainConfig, effective_sample_size, hmc_transition, run_chain


def _config(seed=1, num_samples=100, warmup=0, eps=0.1, steps=20, jitter=False, **extra):
    return ChainConfig(
        seed=seed,
        num_samples=num_samples,
        warmup=warmup,
        integrator=IntegratorConfig(eps, steps, **extra),
        jitter_steps=jitter,
    )


def test_vanishing_step_size_always_accepts():
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    cfg = _config(eps=1e-6, steps=1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        _, accepted, delta_h = hmc_transition(model, kin, np.array([0.7]), cfg, rng)
        assert accepted
        assert abs(delta_h) < 1e-9


def test_moderate_step_acceptance_rate():
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    res = run_chain(model, kin, _config(seed=2, num_samples=10000, eps=0.1, steps=20))
    assert res.accept_rate > 0.95


def test_huge_step_rejects_without_crashing():
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    res = run_chain(model, kin, _config(seed=3, num_samples=200, eps=10.0, steps=20))
    assert res.accept_rate < 0.05
    assert np.all(np.isfinite(res.samples))


def test_chains_are_bitwise_reproducible():
    model = builtin_target("std_gaussian", n=2)
    kin = euclidean_quadratic(np.eye(2))
    cfg = _config(seed=11, num_samples=500, warmup=50, jitter=True)
    one = run_chain(model, kin, cfg)
    two = run_chain(model, kin, cfg)
    np.testing.assert_array_equal(one.samples, two.samples)
    np.testing.assert_array_equal(one.delta_h, two.delta_h)


def test_potential_constant_shift_changes_nothing():
    base = builtin_target("std_gaussian", n=1)
    shifted = TargetModel(
        n=1,
        potential=lambda q: base.potential(q) + 7.25,
        gradient=base.gradient,
        hessian=base.hessian,
        name="shifted",
        initial_point=np.zeros(1),
    )
    kin = euclidean_quadratic(np.eye(1))
    cfg = _config(seed=13, num_samples=1000, jitter=True)
    res_base = run_chain(base, kin, cfg)
    res_shifted = run_chain(shifted, kin, cfg)
    np.testing.assert_array_equal(res_base.samples, res_shifted.samples)
    np.testing.assert_array_equal(res_base.accepted, res_shifted.accepted)


def test_divergent_transitions_reject_and_are_counted():
    banana = builtin_target("banana")
    kin = euclidean_quadratic(np.eye(2))
    cfg = _config(seed=5, num_samples=50, eps=2.0, steps=20)
    res = run_chain(banana, kin, cfg)
    assert res.divergence_count == 50
    assert np.all(res.delta_h == math.inf)
    assert not np.any(res.accepted)
    # the chain never moved off its initial point
    np.testing.assert_array_equal(res.samples, np.tile(banana.initial_point, (50, 1)))


@pytest.mark.parametrize("make", [riemannian_quadratic, student_t])
def test_graph_metric_at_a_boundary_diverges_instead_of_raising(make):
    # a graph drift that ends past the half-space boundary is a divergence,
    # not a reflection; the chain must reject, not crash
    model = builtin_target("halfspace_gaussian", n=2)
    res = run_chain(model, make(GraphMetric(model)), _config(seed=3, eps=0.3, steps=10, jitter=True))
    assert res.divergence_count > 0
    assert np.all(res.samples[:, 0] > 0.0)


def _gradient_past_the_wall(past):
    # the unit Gaussian's gradient where q1 > 0, and past(q) where it is not
    return lambda q: q.copy() if q[0] > 0.0 else past(q)


@pytest.mark.parametrize("make", [riemannian_quadratic, student_t])
def test_a_gradient_that_is_nan_past_the_wall_is_a_divergence(make):
    # a constrained target's gradient is read at any finite q that a graph
    # drift iterate reaches; a non-finite value there diverges the
    # trajectory, with no error and no warning, and the chain keeps no
    # infeasible sample
    base = builtin_target("halfspace_gaussian", n=2)
    model = replace(base, gradient=_gradient_past_the_wall(lambda q: np.full(2, np.nan)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_chain(model, make(GraphMetric(model)),
                        _config(seed=3, num_samples=500, eps=0.3, steps=10, jitter=True))
    assert res.divergence_count > 0
    assert np.all(res.samples[:, 0] > 0.0)


def _funnel_overflow():
    # exp(-q1) overflows once a trajectory reaches q1 < -709
    model = builtin_target("funnel", n=2)
    return model, euclidean_quadratic(np.eye(2)), _config(seed=1, num_samples=200, eps=1.5,
                                                          steps=10)


def _banana_graph_drift():
    # nu + p.Lam(y) p cancels to 0 in a Student-t graph drift iterate
    model = builtin_target("banana", a=-0.17297181360891345, b=1.3819167333878122)
    background = ConstantMetric.from_sigma([[0.17412747960131061, -0.08416831565390354],
                                            [-0.08416831565390354, 0.04068459401043915]])
    kin = student_t(GraphMetric(model, background), nu=0.1949131206103205)
    return model, kin, _config(seed=630, num_samples=20, warmup=5, eps=0.12725639947445205,
                               steps=13)


def _mvn_graph_energy():
    # p.Lam p cancels below 0 at a trajectory's end, on a covariance whose
    # condition number is 1.2e12
    model = builtin_target("mvn", mean=[-0.6603231564190221, -1.0513811966960376],
                           cov=[[0.29627009382641367, -0.0640102857731516],
                                [-0.0640102857731516, 0.013829666814907183]])
    kin = student_t(GraphMetric(model), nu=5.557689716730076)
    return model, kin, _config(seed=862, num_samples=20, warmup=5, eps=0.08546845658436934,
                               steps=6, jitter=True)


@pytest.mark.parametrize("case", [_funnel_overflow, _banana_graph_drift, _mvn_graph_energy],
                         ids=["funnel-overflow", "graph-drift-cancels", "graph-energy-cancels"])
def test_a_numerical_escape_inside_a_trajectory_is_a_divergence(case):
    # each case once ended run_chain with an exception that is not a
    # divergence: OverflowError, ZeroDivisionError and a log1p ValueError
    model, kin, cfg = case()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_chain(model, kin, cfg)
    assert res.divergence_count > 0
    assert np.isfinite(res.samples).all()


def _random_spd(rng, n):
    # I, a random SPD matrix, a near-rank-1 vv' + 10^-(3..17) I, or a
    # diagonal with entries 10^(-6..6)
    kind = rng.integers(4)
    if kind == 0:
        return np.eye(n)
    if kind == 1:
        a = rng.standard_normal((n, n))
        return a @ a.T + 0.1 * np.eye(n)
    if kind == 2:
        v = rng.standard_normal(n)
        return np.outer(v, v) + 10.0 ** -rng.uniform(3.0, 17.0) * np.eye(n)
    return np.diag(10.0 ** rng.uniform(-6.0, 6.0, n))


def _fuzz_case(rng):
    # a random (model, kinetic, chain config, initial point) over the
    # catalog and the four kinetic families, as a builder that may refuse it
    # with a GhmcError, and a description that reproduces it
    name = str(rng.choice(["std_gaussian", "mvn", "banana", "funnel", "halfspace_gaussian"]))
    initial = None
    if name == "std_gaussian":
        params = {"n": int(rng.integers(1, 6))}
    elif name == "mvn":
        n = int(rng.integers(1, 6))
        params = {"mean": rng.standard_normal(n), "cov": _random_spd(rng, n)}
    elif name == "banana":
        params = {"a": float(rng.standard_normal()), "b": float(10.0 ** rng.uniform(-1.0, 2.0))}
    elif name == "funnel":
        params = {"n": int(rng.integers(2, 6))}
    else:
        n = int(rng.integers(1, 5))
        walls = [(rng.standard_normal(n), float(rng.uniform(0.05, 2.0)))
                 for _ in range(int(rng.integers(1, 4)))]
        params, initial = {"n": n, "constraints": walls}, np.zeros(n)
    family = int(rng.integers(4))  # Euclidean, Student-t, Gaussian graph, Student-t graph
    nu = float(10.0 ** rng.uniform(-1.0, 2.0))
    as_sigma = bool(rng.integers(2))
    eps = float(10.0 ** rng.uniform(-3.0, math.log10(3.0)))
    steps, jitter, seed = int(rng.integers(1, 15)), bool(rng.integers(2)), int(rng.integers(1000))
    matrix_seed = int(rng.integers(2**31))

    def build():
        model = builtin_target(name, **params)
        matrix = _random_spd(np.random.default_rng(matrix_seed), model.n)
        field = ConstantMetric.from_sigma(matrix) if as_sigma else ConstantMetric(matrix)
        if family >= 2:
            field = GraphMetric(model, field)
        kin = riemannian_quadratic(field) if family % 2 == 0 else student_t(field, nu=nu)
        return model, kin, _config(seed=seed, num_samples=20, warmup=5, eps=eps, steps=steps,
                                   jitter=jitter)

    text = (f"{name} {params}, family {family}, nu {nu!r}, sigma {as_sigma}, matrix seed "
            f"{matrix_seed}, eps {eps!r}, {steps} steps, jitter {jitter}, seed {seed}")
    return build, initial, text


def _run_fuzz_case(case):
    # None when the case is refused when built, else the chain, which must
    # raise nothing, warn nothing and keep only finite, feasible samples
    build, initial, text = case
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                model, kin, cfg = build()
            except GhmcError:
                return None
            res = run_chain(model, kin, cfg, initial=initial)
    except Exception as exc:
        raise AssertionError(f"{text}: {exc!r}") from exc
    assert np.isfinite(res.samples).all(), text
    assert all(math.isfinite(potential_eval(model, q)) for q in res.samples), text
    return res


def test_random_combinations_are_refused_when_built_or_run_cleanly():
    # a seeded fuzz over targets, kinetic families, metrics and chain
    # settings: every combination that builds samples without an exception
    # that is not a divergence, without a warning and without an infeasible
    # sample.  A wider sweep runs the same cases from other seeds.
    rng = np.random.default_rng(2024)
    results = [_run_fuzz_case(_fuzz_case(rng)) for _ in range(300)]
    built = [res for res in results if res is not None]
    assert 150 <= len(built) < len(results)
    assert any(res.divergence_count > 0 for res in built)


@pytest.mark.parametrize("eps", [1e-160, 1e-300], ids=["eps2-subnormal", "eps2-zero"])
@pytest.mark.parametrize("target", ["mvn", "halfspace"])
@pytest.mark.parametrize("nu", [math.inf, 5.0], ids=["gaussian", "student_t"])
def test_constant_field_chains_run_cleanly_at_extreme_step_sizes(nu, target, eps):
    # a constant field steps in units of P = p/eps: eps^2 is subnormal at
    # 1e-160 and 0 at 1e-300, where p/eps nears overflow.  There the
    # Student-t P.Lam P overflows too, so its steps may diverge; each chain
    # raises nothing, warns nothing and keeps only finite, feasible samples
    lam = np.array([[1.5, 0.3], [0.3, 0.8]])
    if target == "mvn":
        model = builtin_target("mvn", mean=[0.2, -0.1], cov=[[1.0, 0.6], [0.6, 0.5]])
    else:
        model = builtin_target("halfspace_gaussian", n=2)
    kin = euclidean_quadratic(lam) if nu == math.inf else student_t(lam, nu)
    cfg = ChainConfig(seed=5, num_samples=20, warmup=5, integrator=IntegratorConfig(eps, 5),
                      jitter_steps=True)
    case = (lambda: (model, kin, cfg), np.array([0.5, 0.3]), f"{target}, nu {nu}, eps {eps}")
    assert _run_fuzz_case(case) is not None


def test_a_gradient_that_raises_past_the_wall_ends_the_chain():
    # the model contract: an exception from the gradient is not caught, so a
    # gradient such as log(q1)'s, which raises past the wall, ends the chain
    def refuse(q):
        raise ValueError("math domain error")

    base = builtin_target("halfspace_gaussian", n=2)
    model = replace(base, gradient=_gradient_past_the_wall(refuse))
    with pytest.raises(ValueError, match="math domain error"):
        run_chain(model, riemannian_quadratic(GraphMetric(model)),
                  _config(seed=3, eps=0.3, steps=10, jitter=True))


def test_accept_rate_matches_flags():
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    res = run_chain(model, kin, _config(seed=4, num_samples=300, eps=1.2, steps=10))
    assert res.accept_rate == pytest.approx(np.mean(res.accepted))
    assert 0.0 < res.accept_rate < 1.0


def test_constrained_chain_stays_feasible():
    model = builtin_target("halfspace_gaussian")
    kin = euclidean_quadratic(np.eye(1))
    res = run_chain(model, kin, _config(seed=6, num_samples=2000, warmup=50, eps=0.15, steps=10, jitter=True))
    assert np.all(res.samples > 0.0)


def test_graph_metric_chain_samples_the_target():
    model = builtin_target("std_gaussian", n=1)
    kin = riemannian_quadratic(GraphMetric(model))
    res = run_chain(
        model, kin, _config(seed=21, num_samples=4000, warmup=100, eps=0.35, steps=6, jitter=True, fp_tol=1e-12)
    )
    assert res.divergence_count == 0
    assert abs(res.mean[0]) < 0.08
    assert abs(res.cov[0, 0] - 1.0) < 0.12


def test_missing_initial_point_is_a_usage_error():
    bare = TargetModel(n=1, potential=lambda q: 0.5 * float(q @ q), gradient=lambda q: q.copy())
    kin = euclidean_quadratic(np.eye(1))
    with pytest.raises(UsageError):
        run_chain(bare, kin, _config())
    res = run_chain(bare, kin, _config(num_samples=120), initial=np.array([0.3]))
    assert res.samples.shape == (120, 1)


def test_infeasible_initial_point_is_a_usage_error():
    model = builtin_target("halfspace_gaussian")
    kin = euclidean_quadratic(np.eye(1))
    with pytest.raises(UsageError):
        run_chain(model, kin, _config(), initial=np.array([-1.0]))


def test_an_infeasible_start_is_refused_with_one_message():
    # run_chain, hmc_transition and integrate share one start evaluation
    model = builtin_target("halfspace_gaussian")
    kin = euclidean_quadratic(np.eye(1))
    q = np.array([-1.0])
    messages = set()
    for start in (
        lambda: run_chain(model, kin, _config(), initial=q),
        lambda: hmc_transition(model, kin, q, _config(), np.random.default_rng(0)),
        lambda: integrate(model, kin, PhaseState(q, np.ones(1)), IntegratorConfig(0.1, 1)),
    ):
        with pytest.raises(UsageError) as err:
            start()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_a_negative_seed_is_refused_when_the_config_is_built():
    with pytest.raises(UsageError, match="seed must be non-negative"):
        _config(seed=-1)


@pytest.mark.parametrize("extra, message", [
    ({"num_samples": 0}, "num_samples must be at least 1"),
    ({"warmup": -1}, "warmup must be non-negative"),
])
def test_a_count_below_its_least_is_refused_when_the_config_is_built(extra, message):
    with pytest.raises(UsageError, match=message):
        _config(**extra)


_COUNTS = {
    "num_steps": lambda v: IntegratorConfig(0.1, v),
    "fp_max_iter": lambda v: IntegratorConfig(0.1, 2, fp_max_iter=v),
    "seed": lambda v: _config(seed=v),
    "num_samples": lambda v: _config(num_samples=v),
    "warmup": lambda v: _config(warmup=v),
}


@pytest.mark.parametrize("value", [2.5, math.nan, True], ids=["float", "nan", "bool"])
@pytest.mark.parametrize("field", sorted(_COUNTS))
def test_a_count_that_is_not_an_integer_is_refused_when_the_config_is_built(field, value):
    # a float count used to reach range() or the seed sequence mid-chain, and
    # a NaN or a bool count built; a NumPy integer is an integer
    _COUNTS[field](np.int64(3))
    with pytest.raises(UsageError, match=f"{field} must be an integer, got {value!r}"):
        _COUNTS[field](value)


_TYPED = {
    "step_size": (lambda v: IntegratorConfig(v, 2), np.float32(0.1)),
    "fp_tol": (lambda v: IntegratorConfig(0.1, 2, fp_tol=v), np.float64(1e-9)),
    "jitter_steps": (lambda v: _config(jitter=v), np.bool_(True)),
}


@pytest.mark.parametrize("field, value, kind", [
    ("step_size", "0.1", "a real number"),
    ("step_size", True, "a real number"),
    ("fp_tol", "1e-9", "a real number"),
    ("fp_tol", True, "a real number"),
    ("jitter_steps", "no", "a bool"),
    ("jitter_steps", 1, "a bool"),
])
def test_a_field_of_the_wrong_type_is_refused_when_the_config_is_built(field, value, kind):
    # a string step size or tolerance raised TypeError from the range check,
    # and a bool step size or a string jitter flag built; a NumPy scalar builds
    build, numpy_value = _TYPED[field]
    build(numpy_value)
    with pytest.raises(UsageError, match=f"{field} must be {kind}, got {value!r}"):
        build(value)


def test_one_retained_sample_has_no_covariance_and_no_ess():
    # NaN for both, and no RuntimeWarning (which pytest turns into a failure)
    model = builtin_target("std_gaussian", n=2)
    res = run_chain(model, euclidean_quadratic(np.eye(2)), _config(num_samples=1, warmup=3))
    assert res.samples.shape == (1, 2)
    assert np.isnan(res.cov).all() and res.cov.shape == (2, 2)
    assert np.isnan(res.ess).all() and res.ess.shape == (2,)


def test_warmup_is_discarded():
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    res = run_chain(model, kin, _config(seed=9, num_samples=150, warmup=75))
    assert res.samples.shape == (150, 1)
    assert res.accepted.shape == (150,)


_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
_TILT = np.array([0.6, 0.8])  # the unit normal of the tilted wall _TILT.q > 0
_TILTED_LAM = np.array([[1.5, 0.3], [0.3, 0.8]])


@pytest.mark.parametrize(
    "variant",
    ["euclidean", "student_t", "graph", "student_t-graph", "euclidean-orthant",
     "student_t-orthant", "graph-funnel", "student_t-graph-funnel", "euclidean-tilted",
     "student_t-tilted"],
)
def test_stationarity_of_one_transition(variant):
    # chains started at exact draws stay distributed like the target; a
    # graph-metric transition costs about 15x a constant-metric one.  On the
    # 3-d orthant q > 0 the exact draws are |z|, half-normal per coordinate,
    # and a step near a corner can reflect off several walls.  On funnel n=2,
    # whose Hessian moves with q, the exact draws are q1 = 3 z1 and
    # q2 = exp(1.5 z1) z2, and the checks read the standardized pair
    # (q1 / 3, q2 exp(-q1 / 2)), which is N(0, I).  Behind the tilted wall
    # w.q > 0, w = (0.6, 0.8), a dense Lam reflects off a wall that is not a
    # coordinate plane; the exact draws mirror z through the wall, and the
    # checks read (w.q, w_perp.q), half-normal and N(0, 1)
    orthant = variant.endswith("-orthant")
    funnel = variant.endswith("-funnel")
    tilted = variant.endswith("-tilted")
    n_chains = 800 if "graph" in variant else 4000
    n = 3 if orthant else 2
    if orthant:
        model = builtin_target("halfspace_gaussian", n=3, constraints=[(w, 0.0) for w in np.eye(3)])
    elif funnel:
        model = builtin_target("funnel", n=2)
    elif tilted:
        model = builtin_target("halfspace_gaussian", n=2, constraints=[(_TILT, 0.0)])
    else:
        model = builtin_target("std_gaussian", n=2)
    graph = GraphMetric(model)
    lam = _TILTED_LAM if tilted else np.eye(n)
    kin = {
        "euclidean": euclidean_quadratic(lam),
        "student_t": student_t(lam),
        "graph": riemannian_quadratic(graph),
        "student_t-graph": student_t(graph),
    }[variant.removesuffix("-orthant").removesuffix("-funnel").removesuffix("-tilted")]
    cfg = _config(num_samples=1, eps=0.25, steps=6)
    rng = np.random.default_rng(77)
    start = rng.standard_normal((n_chains, n))
    # per-coordinate mean, variance and fourth central moment of the target
    m = _HALF_NORMAL_MEAN
    half_normal = (m, 1.0 - m * m, 3.0 - 2.0 * m * m - 3.0 * m**4)
    if orthant:
        start = np.abs(start)
        mean, var, mu4 = half_normal
    elif tilted:
        start = start - 2.0 * np.minimum(0.0, start.dot(_TILT))[:, None] * _TILT
        mean, var, mu4 = (np.array([moment, normal])
                          for moment, normal in zip(half_normal, (0.0, 1.0, 3.0)))
    else:
        mean, var, mu4 = 0.0, 1.0, 3.0
    if funnel:
        start = np.column_stack([3.0 * start[:, 0], np.exp(1.5 * start[:, 0]) * start[:, 1]])
    out = np.array([hmc_transition(model, kin, q, cfg, rng)[0] for q in start])
    if funnel:
        out = np.column_stack([out[:, 0] / 3.0, out[:, 1] * np.exp(-0.5 * out[:, 0])])
    if tilted:
        assert np.all(out.dot(_TILT) > 0.0)
        out = out.dot(np.array([_TILT, [-_TILT[1], _TILT[0]]]).T)
    assert np.all(np.abs(out.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / n_chains))
    assert np.all(np.abs(out.var(axis=0, ddof=1) - var) <= 4.0 * np.sqrt(
        (mu4 - var * var) / n_chains
    ))
    # |q|^2 is chi-square with n degrees of freedom: mean n, variance 2n
    assert abs(np.mean(np.sum(out**2, axis=1)) - n) <= 4.0 * math.sqrt(2.0 * n / n_chains)


@pytest.mark.parametrize("nu", [0.02, 0.01])
@pytest.mark.parametrize("field", ["constant", "graph"])
def test_a_momentum_draw_with_infinite_energy_is_a_divergence(field, nu):
    # a tiny nu lets the Student-t draw's chi-square scale underflow to 0 (in
    # 0.06% of draws at nu = 0.02, 2.4% at 0.01), or leave p.Lam p past the
    # float range: the chain stays put and counts a divergence, and no error
    # or warning escapes
    model = builtin_target("std_gaussian", n=2)
    kin = student_t(np.eye(2) if field == "constant" else GraphMetric(model), nu=nu)
    res = run_chain(model, kin, _config(seed=1, num_samples=2000, eps=0.1, steps=5))
    assert res.divergence_count > 0
    assert np.isfinite(res.samples).all()


def test_one_transition_evaluates_the_hamiltonian_once_at_the_start_and_once_at_the_end():
    base = builtin_target("std_gaussian", n=2)
    calls = []

    def potential(q):
        calls.append(q)
        return base.potential(q)

    model = replace(base, potential=potential)
    kin = euclidean_quadratic(np.eye(2))
    q, cfg, rng = np.array([0.3, -0.2]), _config(eps=0.2, steps=5), np.random.default_rng(1)
    _, accepted, _ = hmc_transition(model, kin, q, cfg, rng)
    assert accepted
    assert len(calls) == 2


def test_jitter_defeats_the_periodicity_trap():
    # step * num_steps near pi locks an unjittered harmonic chain into a cycle
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    n = 4000
    res = run_chain(
        model,
        kin,
        _config(seed=8, num_samples=n, warmup=100, eps=math.pi / 20.0, steps=20, jitter=True),
    )
    assert res.ess[0] > 0.05 * n
    assert abs(res.mean[0]) < 0.1


def test_ess_iid_band():
    rng = np.random.default_rng(0)
    ess = effective_sample_size(rng.standard_normal(10000))
    assert 8000 <= ess <= 12000


def test_ess_ar1_band():
    rng = np.random.default_rng(1)
    n, phi = 10000, 0.9
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + innov * rng.standard_normal()
    ess = effective_sample_size(x)
    assert 350 <= ess <= 750  # analytic value n(1-phi)/(1+phi) ~ 526


def test_an_antithetic_series_reads_at_most_n_log10_n():
    # a pair sum near zero once floored tau at 1e-8: an alternating series of
    # 4000 draws read ESS 4.0e11, and a chain trapped in a period 29286,
    # although its variance is 0.0166 against 1
    n = 4000
    cap = n * math.log10(n)
    assert effective_sample_size(np.tile([1.0, -1.0], n // 2)) == pytest.approx(cap, rel=1e-12)
    model = builtin_target("std_gaussian", n=1)
    res = run_chain(model, euclidean_quadratic(np.eye(1)),
                    _config(seed=8, num_samples=n, warmup=100, eps=math.pi / 20.0, steps=20))
    assert res.cov[0, 0] < 0.05
    assert res.ess[0] <= cap * (1.0 + 1e-12)


def test_a_stalled_chain_has_no_ess():
    # banana under the Gaussian graph kinetic at eps = 0.4 never accepts: every
    # proposal diverges or is rejected, and one row is kept 500 times.  Its ESS
    # once read N = 500 per coordinate, perfect mixing
    banana = builtin_target("banana")
    kin = riemannian_quadratic(GraphMetric(banana))
    res = run_chain(banana, kin, _config(num_samples=500, eps=0.4, jitter=True))
    assert len(np.unique(res.samples, axis=0)) == 1
    assert np.isnan(res.ess).all()
    # a constant series whose mean misses its value by a rounding as well
    assert math.isnan(effective_sample_size(np.full(777, -1.2345)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ess_refuses_a_non_finite_series(bad):
    # one bad draw in 500 once read as ESS = 500, perfect mixing
    x = np.random.default_rng(2).standard_normal(500)
    x[137] = bad
    with pytest.raises(UsageError, match="finite"):
        effective_sample_size(x)


def test_ess_needs_enough_samples():
    with pytest.raises(UsageError):
        effective_sample_size(np.arange(99))


def test_chain_moment_diagnostics_match_samples():
    model = builtin_target("std_gaussian", n=2)
    kin = euclidean_quadratic(np.eye(2))
    res = run_chain(model, kin, _config(seed=30, num_samples=500, eps=0.3, steps=8, jitter=True))
    np.testing.assert_allclose(res.mean, res.samples.mean(axis=0))
    np.testing.assert_allclose(res.cov, np.cov(res.samples, rowvar=False))
    assert res.ess.shape == (2,)


# Samples and energy errors of seed-5 chains of 4 jittered transitions.  A
# change that leaves the arithmetic alone keeps them bit for bit; the 1e-9
# tolerance only absorbs BLAS differences between machines.
_GOLDEN = {
    "euclidean-mvn": (
        [
            [-0.7595061052979305, -0.8531251259090764],
            [-0.09100438848139669, 0.02829088791687223],
            [-0.29923998843110505, 0.22489104930564843],
            [-1.4733278606033904, -1.3352839561347123],
        ],
        [0.003992085579053839, -0.0004315211637746508, 0.06512159985640453, -0.05845532251363217],
    ),
    "student_t-orthant": (
        [
            [0.12883206138209322, 0.22557746461102918, 0.5043681597195521],
            [0.8060465739137228, 0.8311167550790883, 1.8167398553107978],
            [1.3271209223069045, 0.16204167771753158, 1.4597157671627319],
            [1.3531470824799596, 0.5479285475381765, 0.6849792244862172],
        ],
        [-0.00911891563566991, 0.04777173288153902, -0.001518802245895401, -0.01316591241348597],
    ),
    "student_t-graph": (
        [
            [-0.4926893422061046, -0.8136575545652781, -0.15258801484263587, 0.2583124706837897,
             0.6979624456429694, 0.06740124157197014, -0.33953457397047193, -0.482152095397241,
             0.46001322512861914, 1.004375382633745],
            [-0.8219368181192643, 1.2498920716349298, -0.8430596147120731, -1.0126133068109258,
             -1.5977850395626143, -0.7798024364309033, 1.073952296438562, 0.727987160880414,
             -1.3045117779182354, -1.2552434403708688],
            [0.26355450647394657, -1.3290803588436169, 0.38887876861197457, 0.42958133993256753,
             0.5316193570182376, -0.27824579220420237, -0.7164881761558266, -0.9775702404489468,
             -0.22762058335528623, 0.694978029169061],
            [-0.5390251265419508, -0.804341018791193, 0.2693430087136998, -1.0014846116542073,
             0.18127896609760666, -0.33595470289621815, 0.16861566375458226, -1.3606802462920424,
             0.32937996531711566, -0.26933927706521843],
        ],
        [-0.6356590468980627, -0.1532563925424668, 0.073676166648875, 0.0072634491229379705],
    ),
}


def _golden_case(name):
    if name == "euclidean-mvn":
        model = builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.9], [0.9, 1.0]])
        return model, euclidean_quadratic(np.eye(2)), 0.2, 8, None
    if name == "student_t-orthant":
        model = builtin_target(
            "halfspace_gaussian", n=3, constraints=[(row, 0.0) for row in np.eye(3)]
        )
        return model, student_t(np.eye(3), nu=5.0), 0.3, 10, np.ones(3)
    model = builtin_target("std_gaussian", n=10)
    return model, student_t(GraphMetric(model), nu=5.0), 0.3, 10, None


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_fixed_seed_chain_matches_the_golden_samples(name):
    model, kin, eps, steps, initial = _golden_case(name)
    cfg = ChainConfig(
        seed=5, num_samples=4, integrator=IntegratorConfig(eps, steps), jitter_steps=True
    )
    result = run_chain(model, kin, cfg, initial)
    samples, delta_h = _GOLDEN[name]
    np.testing.assert_allclose(result.samples, samples, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(result.delta_h, delta_h, rtol=1e-9, atol=1e-12)


def _chain_case(name, model=None):
    # (model, kinetic, step size, steps, initial point) of a jittered chain;
    # ``model``, when given, replaces the catalog target of the case
    if name == "euclidean-mvn":
        model = model or builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.9], [0.9, 1.0]])
        return model, euclidean_quadratic(np.eye(2)), 0.2, 8, None
    if name == "student_t-orthant":
        model = model or builtin_target(
            "halfspace_gaussian", n=3, constraints=[(row, 0.0) for row in np.eye(3)]
        )
        return model, student_t(np.eye(3), nu=5.0), 0.3, 10, np.ones(3)
    model = model or builtin_target("std_gaussian", n=3)
    return model, student_t(GraphMetric(model), nu=5.0), 0.3, 10, None


_CHAIN_CASES = ["euclidean-mvn", "student_t-orthant", "student_t-graph"]


def _steps_and_reflections(monkeypatch):
    # record each trajectory's step count and reflections through the
    # integrate that the sampler looks up
    record = {"steps": [], "reflections": 0}
    integrate = ghmc.sampler.integrate

    def counted(model, kinetic, state, config):
        record["steps"].append(config.num_steps)
        traj = integrate(model, kinetic, state, config)
        record["reflections"] += traj.reflection_count
        return traj

    monkeypatch.setattr(ghmc.sampler, "integrate", counted)
    return record


@pytest.mark.parametrize("name", _CHAIN_CASES)
def test_run_chain_is_a_loop_of_hmc_transitions(name, monkeypatch):
    # the chain carries its evaluated point; a fresh evaluation of each
    # position gives the same samples, decisions and energy errors, bit for bit
    model, kin, eps, steps, initial = _chain_case(name)
    cfg = ChainConfig(
        seed=9, num_samples=40, warmup=5, integrator=IntegratorConfig(eps, steps),
        jitter_steps=True,
    )
    record = _steps_and_reflections(monkeypatch)
    result = run_chain(model, kin, cfg, initial)
    if name == "student_t-orthant":
        assert record["reflections"] > 0
    rng = np.random.default_rng(cfg.seed)
    q = model.initial_point if initial is None else initial
    rows = []
    for _ in range(cfg.warmup + cfg.num_samples):
        q, accepted, delta_h = hmc_transition(model, kin, q, cfg, rng)
        rows.append((q, accepted, delta_h))
    rows = rows[cfg.warmup:]
    np.testing.assert_array_equal(result.samples, np.array([r[0] for r in rows]))
    np.testing.assert_array_equal(result.accepted, np.array([r[1] for r in rows]))
    np.testing.assert_array_equal(result.delta_h, np.array([r[2] for r in rows]))


@pytest.mark.parametrize("name", _CHAIN_CASES)
def test_a_chain_evaluates_each_position_once(name, monkeypatch):
    # V at the start and at each trajectory end that reaches the Metropolis
    # test; the gradient (explicit) or the Hessian (graph) at the start and at
    # each step end; never the Hamiltonian of a start point again
    calls = {"potential": 0, "gradient": 0, "hessian": 0}
    base = _chain_case(name)[0]

    def counted(key):
        fn = getattr(base, key)

        def call(q):
            calls[key] += 1
            return fn(q)

        return call

    model = replace(base, **{key: counted(key) for key in calls if getattr(base, key)})
    model, kin, eps, steps, initial = _chain_case(name, model)

    def refuse(*args):
        raise AssertionError("the chain evaluated a start Hamiltonian")

    monkeypatch.setattr(ghmc.sampler, "hamiltonian", refuse)
    record = _steps_and_reflections(monkeypatch)
    cfg = ChainConfig(
        seed=4, num_samples=30, integrator=IntegratorConfig(eps, steps), jitter_steps=True
    )
    result = run_chain(model, kin, cfg, initial)
    assert calls["potential"] == 1 + int(np.isfinite(result.delta_h).sum())
    assert result.divergence_count == 0
    total_steps = sum(record["steps"])
    if kin.position_dependent:
        assert calls["hessian"] == 1 + total_steps
    else:
        assert calls["gradient"] == 1 + total_steps


# model calls of the seed-9 chain below: one gradient per drift iterate,
# point and momentum draw, one Hessian per point
_GRAPH_CHAIN_CALLS = {"gradient": 2322, "hessian": 244}


def test_a_graph_chain_makes_a_pinned_number_of_model_calls():
    # a fixed-seed, jittered Student-t graph chain makes the same model calls
    # on every run; the gradient count sums the iterate counts of its
    # position solves, so a change that moves one of them changes it, and
    # updates this pin on purpose
    calls = {"gradient": 0, "hessian": 0}
    base = _chain_case("student_t-graph")[0]

    def counted(key):
        fn = getattr(base, key)

        def call(q):
            calls[key] += 1
            return fn(q)

        return call

    model, kin, eps, steps, initial = _chain_case(
        "student_t-graph", replace(base, **{key: counted(key) for key in calls}))
    cfg = ChainConfig(seed=9, num_samples=40, warmup=5, integrator=IntegratorConfig(eps, steps),
                      jitter_steps=True)
    result = run_chain(model, kin, cfg, initial)
    assert result.divergence_count == 0
    assert calls == _GRAPH_CHAIN_CALLS
