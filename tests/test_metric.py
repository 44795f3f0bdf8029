"""Graph-induced metric: rank-1 inverse, log-determinant, Christoffels."""

import numpy as np
import pytest

from ghmc.errors import DivergenceError, UsageError, ValidationError
from ghmc.metric import ConstantMetric, GraphMetric
from ghmc.model import TargetModel, builtin_target, potential_grad
from ghmc.verify import finite_difference_christoffel


def _linear_model(n, g):
    return TargetModel(
        n=n,
        potential=lambda q: float(g @ q),
        gradient=lambda q: g.copy(),
        hessian=lambda q: np.zeros((n, n)),
        name="linear",
    )


def test_one_dimensional_example():
    # V = q^2/2, sigma = 1, q = 1: metric 1 + 1 = 2, inverse 0.5, logdet = log 2
    model = builtin_target("std_gaussian", n=1)
    field = GraphMetric(model)
    state = field.state_at(np.array([1.0]))
    lam, logdet = state.lam, state.logdet_sigma
    assert lam[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert logdet == pytest.approx(np.log(2.0), abs=1e-15)


def test_rank1_term_vanishes_at_a_mode():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    sigma = a @ a.T + np.eye(3)
    bg = ConstantMetric.from_sigma(sigma)
    model = builtin_target("std_gaussian", n=3)
    field = GraphMetric(model, bg)
    state = field.state_at(np.zeros(3))
    lam, logdet = state.lam, state.logdet_sigma
    np.testing.assert_allclose(lam, bg.lam, atol=1e-14)
    assert logdet == pytest.approx(bg.logdet_sigma, abs=1e-14)


def test_smw_identity_against_dense_inverse():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 20, 50):
        for _ in range(5):
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * n * np.eye(n)
            g = rng.normal(size=n) * rng.uniform(0.2, 5.0)
            field = GraphMetric(_linear_model(n, g), ConstantMetric.from_sigma(sigma))
            state = field.state_at(np.zeros(n))
            lam, logdet = state.lam, state.logdet_sigma
            dense = sigma + np.outer(g, g)
            assert np.max(np.abs(lam @ dense - np.eye(n))) < 1e-10
            assert np.max(np.abs(lam - np.linalg.inv(dense))) < 1e-10
            _, ld = np.linalg.slogdet(dense)
            assert abs(logdet - ld) / max(abs(ld), 1.0) < 1e-10


def test_dense_oracle_n20_varying_gradient():
    rng = np.random.default_rng(11)
    n = 20
    a = rng.normal(size=(n, n))
    sigma = a @ a.T + 0.5 * n * np.eye(n)
    cov = np.linalg.inv(a.T @ a / n + np.eye(n))
    model = builtin_target("mvn", mean=np.zeros(n), cov=cov)
    field = GraphMetric(model, ConstantMetric.from_sigma(sigma))
    for _ in range(5):
        q = rng.normal(size=n)
        lam = field.state_at(q).lam
        g = potential_grad(model, q)
        dense = np.linalg.inv(sigma + np.outer(g, g))
        assert np.max(np.abs(lam - dense)) < 1e-10


def test_inverse_is_exactly_symmetric_and_denominator_at_least_one():
    rng = np.random.default_rng(3)
    model = builtin_target("banana")
    field = GraphMetric(model)
    for _ in range(10):
        q = rng.normal(size=2)
        state = field.state_at(q)
        assert np.array_equal(state.lam, state.lam.T)
        assert state.denom >= 1.0


def test_background_inverse_consistency():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    sigma = a @ a.T + np.eye(4)
    bg = ConstantMetric.from_sigma(sigma)
    np.testing.assert_allclose(bg.sigma @ bg.lam, np.eye(4), atol=1e-12)
    sign, ld = np.linalg.slogdet(sigma)
    assert sign > 0 and bg.logdet_sigma == pytest.approx(ld, abs=1e-12)


def test_background_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        ConstantMetric.from_sigma(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValidationError):
        ConstantMetric.from_sigma(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 4, 20])
def test_the_two_constructors_agree(n):
    # from the metric sigma or from its inverse: the same field
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    sigma = a @ a.T + np.eye(n)
    by_sigma = ConstantMetric.from_sigma(sigma)
    by_lam = ConstantMetric(np.linalg.inv(sigma))
    for name in ("lam", "sigma", "chol_sigma"):
        np.testing.assert_allclose(getattr(by_sigma, name), getattr(by_lam, name), atol=1e-12)
        assert not getattr(by_sigma, name).flags.writeable
        assert not getattr(by_lam, name).flags.writeable
    assert by_sigma.logdet_sigma == pytest.approx(by_lam.logdet_sigma, abs=1e-12)


@pytest.mark.parametrize("build", [ConstantMetric, ConstantMetric.from_sigma])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_metric_entries_are_named_as_such(build, bad):
    with pytest.raises(ValidationError, match="must have finite entries"):
        build(np.diag([1.0, bad]))


def test_constant_metric_state_and_validation():
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    field = ConstantMetric(lam)
    state = field.state_at(np.zeros(2))
    np.testing.assert_allclose(state.lam, lam)
    _, ld = np.linalg.slogdet(np.linalg.inv(lam))
    assert state.logdet_sigma == pytest.approx(ld, abs=1e-12)
    with pytest.raises(ValidationError):
        ConstantMetric(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("refused, error, message", [
    (lambda: GraphMetric(builtin_target("std_gaussian", n=2), ConstantMetric(np.eye(3))),
     UsageError, "background metric dimension"),
    (lambda: GraphMetric(builtin_target("std_gaussian", n=2), np.eye(2)),
     UsageError, r"ConstantMetric\.from_sigma"),
    (lambda: GraphMetric(builtin_target("std_gaussian", n=2)).state_at(np.array([np.nan, 0.0])),
     DivergenceError, "non-finite entries"),
    (lambda: ConstantMetric(np.ones((2, 3))), ValidationError, "must be a square matrix"),
], ids=["background-dimension", "background-not-a-field", "non-finite-position", "non-square"])
def test_metric_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


@pytest.mark.parametrize("n", [1, 3, 20])
def test_lam_dot_applies_the_dense_inverse_metric(n):
    # the operator and the lazily built dense Lam agree, for the constant
    # field from either constructor and for the graph field over the identity
    # and a dense background
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    spd = a @ a.T + n * np.eye(n)
    model = builtin_target("mvn", mean=np.zeros(n), cov=spd)
    fields = [
        ConstantMetric(np.linalg.inv(spd)),
        ConstantMetric.from_sigma(spd),
        GraphMetric(model),
        GraphMetric(model, ConstantMetric.from_sigma(spd)),
    ]
    for field in fields:
        for _ in range(5):
            state = field.state_at(rng.normal(size=n) * 3.0)
            v = rng.normal(size=n)
            np.testing.assert_allclose(state.lam_dot(v), state.lam @ v, rtol=1e-12)


def test_christoffel_one_dimensional_value():
    model = builtin_target("std_gaussian", n=1)
    field = GraphMetric(model)
    gamma = field.christoffel(np.array([1.0]))
    assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-15)


def test_christoffel_vanishes_where_the_gradient_does():
    model = builtin_target("banana")
    field = GraphMetric(model)
    gamma = field.christoffel(np.array([1.0, 1.0]))
    np.testing.assert_allclose(gamma, np.zeros((2, 2, 2)), atol=1e-13)


def test_christoffel_lower_index_symmetry():
    model = builtin_target("funnel", n=3)
    field = GraphMetric(model)
    gamma = field.christoffel(np.array([-0.5, 0.3, 0.8]))
    np.testing.assert_array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_matches_finite_difference_oracle():
    model = builtin_target("banana")
    field = GraphMetric(model)
    rng = np.random.default_rng(15)
    for _ in range(8):
        q = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 3.0)])
        gamma = field.christoffel(q)
        gamma_fd = finite_difference_christoffel(field, q)
        rel = np.max(np.abs(gamma - gamma_fd)) / max(np.max(np.abs(gamma)), 1e-6)
        assert rel < 1e-4


def test_christoffel_sees_every_hessian_entry():
    model = builtin_target("banana")
    q = np.array([1.05, 1.15])  # moderate gradient, so the bump is not swamped
    gamma_base = GraphMetric(model).christoffel(q)

    def bumped_hessian(qq, base=model.hessian):
        h = np.asarray(base(qq), dtype=float).copy()
        h[0, 1] += 0.1
        h[1, 0] += 0.1
        return h

    bumped = TargetModel(
        n=2,
        potential=model.potential,
        gradient=model.gradient,
        hessian=bumped_hessian,
        name="banana-bumped",
    )
    gamma_bumped = GraphMetric(bumped).christoffel(q)
    assert np.max(np.abs(gamma_bumped - gamma_base)) > 1e-3


def test_graph_metric_requires_a_hessian():
    bare = TargetModel(n=1, potential=lambda q: 0.0, gradient=lambda q: np.zeros(1))
    with pytest.raises(ValidationError):
        GraphMetric(bare)


def test_non_finite_gradient_is_a_numeric_error():
    bad = TargetModel(
        n=1,
        potential=lambda q: 0.0,
        gradient=lambda q: np.array([np.nan]),
        hessian=lambda q: np.zeros((1, 1)),
    )
    field = GraphMetric(bad)
    with pytest.raises(DivergenceError):
        field.state_at(np.zeros(1))


def test_gaussian_draws_have_the_graph_covariance():
    model = builtin_target("std_gaussian", n=2)
    sigma = np.array([[1.5, 0.4], [0.4, 0.8]])
    field = GraphMetric(model, ConstantMetric.from_sigma(sigma))
    q = np.array([1.0, -0.5])
    g = potential_grad(model, q)
    target_cov = sigma + np.outer(g, g)
    rng = np.random.default_rng(23)
    draws = np.array([field.sample_gaussian(q, rng) for _ in range(50000)])
    sample_cov = np.cov(draws, rowvar=False)
    assert np.max(np.abs(sample_cov - target_cov)) / np.max(np.abs(target_cov)) < 0.05
