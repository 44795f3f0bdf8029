"""Targets: potentials, gradients, constraints, and catalog moments."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ghmc.errors import DivergenceError, UsageError, ValidationError
from ghmc.model import TargetModel, builtin_target, catalog_entries, potential_eval, potential_grad


def grad_check(model, q, h=1e-6):
    # max relative error of the analytic gradient against central differences
    # of V, with step h (1 + |q_i|) for coordinate i
    q = np.asarray(q, dtype=float)
    grad = potential_grad(model, q)
    worst = 0.0
    for i in range(model.n):
        step = h * (1.0 + abs(q[i]))
        qp = q.copy()
        qm = q.copy()
        qp[i] += step
        qm[i] -= step
        fd = (potential_eval(model, qp) - potential_eval(model, qm)) / (2.0 * step)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
    return worst


def test_std_gaussian_potential_values():
    model = builtin_target("std_gaussian", n=1)
    assert potential_eval(model, [0.0]) == 0.0
    assert potential_eval(model, [2.0]) == 2.0


def test_std_gaussian_gradient():
    model = builtin_target("std_gaussian", n=2)
    np.testing.assert_allclose(potential_grad(model, [1.0, -1.0]), [1.0, -1.0])


def test_halfspace_infeasible_potential_is_infinite():
    model = builtin_target("halfspace_gaussian")
    assert potential_eval(model, [-0.5]) == math.inf
    assert potential_eval(model, [0.0]) == math.inf  # strict inequality
    assert potential_eval(model, [0.5]) == pytest.approx(0.125)


def test_gradient_undefined_off_the_feasible_region():
    model = builtin_target("halfspace_gaussian")
    with pytest.raises(DivergenceError):
        potential_grad(model, [-0.5])
    with pytest.raises(DivergenceError):
        potential_grad(model, [0.0])


def test_dimension_mismatch_is_a_usage_error():
    model = builtin_target("std_gaussian", n=2)
    with pytest.raises(UsageError):
        potential_eval(model, [1.0])
    with pytest.raises(UsageError):
        potential_grad(model, [1.0, 2.0, 3.0])


def test_non_finite_position_rejected():
    model = builtin_target("std_gaussian", n=1)
    with pytest.raises(UsageError):
        potential_eval(model, [math.nan])


def test_banana_gradient_at_minimum_and_hand_value():
    model = builtin_target("banana")
    np.testing.assert_allclose(potential_grad(model, [1.0, 1.0]), [0.0, 0.0], atol=1e-14)
    # hand-differentiated at (0, 1): dV1 = -2(1-0) - 400*0*(1-0) = -2, dV2 = 200*(1-0)
    np.testing.assert_allclose(potential_grad(model, [0.0, 1.0]), [-2.0, 200.0])


def test_banana_hessian_matches_finite_differences():
    model = builtin_target("banana")
    q = np.array([0.4, -0.3])
    hess = model.hessian(q)
    h = 1e-6
    for i in range(2):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        col = (potential_grad(model, qp) - potential_grad(model, qm)) / (2 * h)
        np.testing.assert_allclose(hess[:, i], col, rtol=1e-5, atol=1e-5)


def test_grad_check_quadratic_is_roundoff_limited():
    model = builtin_target("std_gaussian", n=2)
    assert grad_check(model, np.array([1.0, 2.0])) < 1e-8


def test_grad_check_banana_and_funnel():
    assert grad_check(builtin_target("banana"), np.array([0.5, 0.5])) < 1e-5
    funnel = builtin_target("funnel", n=2)
    assert grad_check(funnel, np.array([-3.0, 0.4])) < 1e-5


_GRID_SCALES = {
    "std_gaussian": 1.5,
    "mvn": 1.5,
    "banana": 0.8,
    "funnel": 1.0,
    "halfspace_gaussian": 1.0,
}


def _catalog_models():
    return [
        builtin_target("std_gaussian", n=2),
        builtin_target("mvn", mean=[0.5, -0.5], cov=[[2.0, 0.6], [0.6, 1.0]]),
        builtin_target("banana"),
        builtin_target("funnel", n=3),
        builtin_target("halfspace_gaussian", n=2),
    ]


@pytest.mark.parametrize("model", _catalog_models(), ids=lambda m: m.name)
def test_grad_check_on_fixed_grid(model):
    rng = np.random.default_rng(101)
    scale = _GRID_SCALES[model.name]
    checked = 0
    while checked < 10:
        q = rng.normal(size=model.n) * scale
        if model.name == "halfspace_gaussian":
            q[0] = abs(q[0]) + 0.1
        if not math.isfinite(potential_eval(model, q)):
            continue
        assert grad_check(model, q) <= 1e-5
        checked += 1


@pytest.mark.parametrize("model", _catalog_models(), ids=lambda m: m.name)
def test_hessians_are_symmetric(model):
    rng = np.random.default_rng(7)
    q = rng.normal(size=model.n) * 0.5
    if model.name == "halfspace_gaussian":
        q[0] = abs(q[0]) + 0.1
    # the raw model Hessian: the metric symmetrizes what it reads
    hess = np.asarray(model.hessian(q))
    np.testing.assert_allclose(hess, hess.T, atol=1e-12, rtol=0.0)


def test_catalog_names_sorted_and_complete():
    names = [e.name for e in catalog_entries()]
    assert names == sorted(names)
    assert names == ["banana", "funnel", "halfspace_gaussian", "mvn", "std_gaussian"]


def test_std_gaussian_moments():
    model = builtin_target("std_gaussian", n=3)
    mean, cov = model.analytic_moments
    np.testing.assert_allclose(mean, np.zeros(3))
    np.testing.assert_allclose(cov, np.eye(3))


def test_halfspace_moments_against_quadrature():
    model = builtin_target("halfspace_gaussian")
    mean, cov = model.analytic_moments
    norm = quad(lambda q: math.exp(-0.5 * q * q), 0.0, np.inf)[0]
    mean_quad = quad(lambda q: q * math.exp(-0.5 * q * q), 0.0, np.inf)[0] / norm
    m2_quad = quad(lambda q: q * q * math.exp(-0.5 * q * q), 0.0, np.inf)[0] / norm
    assert abs(mean[0] - mean_quad) < 1e-6
    assert abs(cov[0, 0] - (m2_quad - mean_quad**2)) < 1e-6
    assert abs(mean[0] - math.sqrt(2.0 / math.pi)) < 1e-12


def test_funnel_moments_against_quadrature():
    model = builtin_target("funnel", n=2)
    mean, cov = model.analytic_moments
    np.testing.assert_allclose(mean, np.zeros(2))
    assert cov[0, 0] == pytest.approx(9.0)
    # Var(q2) = E[exp(v)] under v ~ N(0, 9), by quadrature over v
    density = lambda v: math.exp(-v * v / 18.0) / math.sqrt(18.0 * math.pi)
    var_quad = quad(lambda v: math.exp(v) * density(v), -60.0, 60.0)[0]
    assert abs(cov[1, 1] - var_quad) / var_quad < 1e-6


def test_mvn_moments_and_validation():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = builtin_target("mvn", mean=[1.0, -1.0], cov=cov)
    np.testing.assert_allclose(model.analytic_moments[1], cov)
    with pytest.raises(ValidationError):
        builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValidationError):
        builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])


def test_mvn_non_finite_covariance_is_named_as_such():
    with pytest.raises(ValidationError, match="must have finite entries"):
        builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, np.nan]])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mvn_refuses_a_non_finite_mean(value):
    # the mean is the chain's initial point
    with pytest.raises(ValidationError, match="mean must have finite entries"):
        builtin_target("mvn", mean=[value, 0.0], cov=np.eye(2))


@pytest.mark.parametrize("missing", ["mean", "cov"])
def test_mvn_names_its_missing_parameter(missing):
    given = {"mean": [0.0, 0.0], "cov": np.eye(2)}
    del given[missing]
    with pytest.raises(ValidationError, match=f"requires '{missing}'"):
        builtin_target("mvn", **given)


def test_unknown_target_and_parameter():
    with pytest.raises(UsageError):
        builtin_target("gaussian")
    with pytest.raises(UsageError):
        builtin_target("std_gaussian", dims=3)


def test_funnel_requires_two_dimensions():
    with pytest.raises(ValidationError):
        builtin_target("funnel", n=1)


@pytest.mark.parametrize("name", ["std_gaussian", "halfspace_gaussian"])
@pytest.mark.parametrize("n", [0, -1])
def test_a_dimension_below_one_is_refused(name, n):
    with pytest.raises(ValidationError, match=f"dimension must be >= 1, got {n}"):
        builtin_target(name, n=n)


@pytest.mark.parametrize("name, n", [("std_gaussian", 2.7), ("funnel", 3.5),
                                     ("halfspace_gaussian", 2.2), ("std_gaussian", True),
                                     ("funnel", 3.0)])
def test_a_non_integer_dimension_is_refused(name, n):
    # each once built the target of dimension int(n)
    with pytest.raises(ValidationError, match=f"n must be an integer, got {n!r}"):
        builtin_target(name, n=n)


@pytest.mark.parametrize("name", ["std_gaussian", "funnel", "halfspace_gaussian"])
def test_a_numpy_integer_dimension_is_taken(name):
    assert builtin_target(name, n=np.int64(3)).n == 3


@pytest.mark.parametrize("refused, message", [
    (lambda: TargetModel(n=0, potential=lambda q: 0.0, gradient=lambda q: q),
     "dimension must be >= 1, got 0"),
    (lambda: TargetModel(n=2, potential=lambda q: 0.0, gradient=lambda q: q,
                         initial_point=np.zeros(3)), "initial_point shape"),
    (lambda: builtin_target("mvn", mean=[0.0, 0.0, 0.0], cov=np.eye(2)),
     "mean and covariance sizes"),
    (lambda: builtin_target("halfspace_gaussian", n=2, constraints=[(np.ones(3), 0.0)]),
     "normal has the wrong dimension"),
], ids=["target-n-0", "initial-point-shape", "mvn-sizes", "halfspace-normal"])
def test_model_refusals(refused, message):
    with pytest.raises(ValidationError, match=message):
        refused()


@pytest.mark.parametrize("key", ["a", "b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_banana_refuses_a_non_finite_parameter(key, value):
    # a = nan once built a model whose initial point was [nan, nan]
    with pytest.raises(ValidationError, match="banana parameters must be finite"):
        builtin_target("banana", **{key: value})


def test_custom_halfspace_constraints():
    # q1 + q2 > 1 has no analytic moments and no default initial point
    model = builtin_target(
        "halfspace_gaussian", n=2, constraints=[(np.array([1.0, 1.0]), -1.0)]
    )
    assert model.analytic_moments is None
    assert model.initial_point is None
    assert potential_eval(model, [0.2, 0.3]) == math.inf
    assert math.isfinite(potential_eval(model, [0.8, 0.8]))


def test_initial_points_are_feasible():
    for model in _catalog_models():
        assert model.initial_point is not None
        assert math.isfinite(potential_eval(model, model.initial_point))
