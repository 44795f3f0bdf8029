"""Graph-induced metric: rank-1 inverse, log-determinant, Christoffels."""

import math

import numpy as np
import pytest

from ghmc import metric as metric_module
from ghmc.errors import DivergenceError, UsageError, ValidationError
from ghmc.integrator import IntegratorConfig, PhaseState, integrate
from ghmc.kinetic import Kinetic
from ghmc.metric import ConstantMetric, GraphMetric
from ghmc.model import TargetModel, builtin_target, potential_grad
from ghmc.verify import _watching, christoffel, finite_difference_christoffel


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


def test_a_near_singular_inverse_metric_is_refused():
    # lam factors, but its inverse loses definiteness to rounding: a
    # refusal when the field is built, not numpy's LinAlgError
    v = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="too near singular"):
        ConstantMetric(np.outer(v, v) + 1e-15 * np.eye(3))


@pytest.mark.parametrize("build", [
    lambda cov: builtin_target("mvn", mean=np.zeros(3), cov=cov),
    ConstantMetric.from_sigma,
], ids=["mvn", "from_sigma"])
def test_a_near_singular_covariance_is_refused(build):
    # the covariance factors, but its inverse does not: a precision or a lam
    # with a negative eigenvalue, and an mvn potential unbounded below
    v = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="is too near singular to invert"):
        build(np.outer(v, v) + 1e-15 * np.eye(3))


@pytest.mark.parametrize("build", [
    ConstantMetric,
    ConstantMetric.from_sigma,
    lambda cov: builtin_target("mvn", mean=np.zeros(3), cov=cov),
], ids=["lam", "from_sigma", "mvn"])
def test_a_matrix_that_factors_but_does_not_invert_is_refused(build):
    # Cholesky accepts vv' + 1e-16 I, but inverting it raises numpy's
    # LinAlgError: a refusal when it is built, not an escaped error
    v = np.array([-2.03126901304909, 0.5409699634514118, 0.8282644598468853])
    with pytest.raises(ValidationError, match="is too near singular to invert"):
        build(np.outer(v, v) + 1e-16 * np.eye(3))


def test_symmetry_is_judged_at_the_scale_of_the_entries():
    # rounding in a product with entries of order 1e5 is far above 1e-12,
    # which once refused this symmetric matrix; an asymmetric one still fails.
    # One ulp at [0, 1] keeps it asymmetric, whatever the BLAS rounds to
    b = 100.0 * np.random.default_rng(0).normal(size=(50, 50))
    sigma = b.dot(b.T.copy()) + 50e4 * np.eye(50)
    sigma[0, 1] = np.nextafter(sigma[1, 0], np.inf)
    assert np.max(np.abs(sigma - sigma.T)) > 1e-12
    np.testing.assert_array_equal(ConstantMetric.from_sigma(sigma).sigma, 0.5 * (sigma + sigma.T))
    with pytest.raises(ValidationError, match="must be symmetric"):
        ConstantMetric.from_sigma(np.array([[1.0, 2.0], [0.0, 1.0]]))


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
    gamma = christoffel(field, np.array([1.0]))
    assert gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-15)


def test_christoffel_vanishes_where_the_gradient_does():
    model = builtin_target("banana")
    field = GraphMetric(model)
    gamma = christoffel(field, np.array([1.0, 1.0]))
    np.testing.assert_allclose(gamma, np.zeros((2, 2, 2)), atol=1e-13)


def test_christoffel_lower_index_symmetry():
    model = builtin_target("funnel", n=3)
    field = GraphMetric(model)
    gamma = christoffel(field, np.array([-0.5, 0.3, 0.8]))
    np.testing.assert_array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_matches_finite_difference_oracle():
    model = builtin_target("banana")
    field = GraphMetric(model)
    rng = np.random.default_rng(15)
    for _ in range(8):
        q = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 3.0)])
        gamma = christoffel(field, q)
        gamma_fd = finite_difference_christoffel(field, q)
        rel = np.max(np.abs(gamma - gamma_fd)) / max(np.max(np.abs(gamma)), 1e-6)
        assert rel < 1e-4


def test_christoffel_sees_every_hessian_entry():
    model = builtin_target("banana")
    q = np.array([1.05, 1.15])  # moderate gradient, so the bump is not swamped
    gamma_base = christoffel(GraphMetric(model), q)

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
    gamma_bumped = christoffel(GraphMetric(bumped), q)
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


@pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 512])
def test_blas_applies_the_identity_bit_for_bit(n):
    # what the identity's pass-through rests on: BLAS forms I v by adding
    # exact zeros to the one product 1 v_i, so I v is v, for finite v of any
    # magnitude, subnormal ones included
    rng = np.random.default_rng(n)
    eye = np.eye(n)
    for _ in range(20):
        v = rng.normal(size=n) * 2.0 ** rng.integers(-1070, 1020, size=n)
        assert eye.dot(v).tobytes() == v.tobytes()
        assert (eye @ v).tobytes() == v.tobytes()


@pytest.mark.parametrize("build", [ConstantMetric, ConstantMetric.from_sigma])
def test_an_identity_background_applies_as_a_pass_through(build):
    field = build(np.eye(3))
    assert field._lam_dot is field._chol_dot is metric_module._pass_through
    assert field._lam_dot is not build(np.diag([1.0, 1.0, 2.0]))._lam_dot


def _identity_results(field_kind, nu):
    # energy, grad_p, grad_q, lam_dot, a momentum draw and a 5-step
    # trajectory on an identity field: through the wall q_1 = 0 on a
    # constant field, and without it on a graph field, whose drift past a
    # wall diverges
    n = 3
    model = builtin_target("halfspace_gaussian", n=n)
    field = ConstantMetric(np.eye(n))
    if field_kind == "graph":
        model = builtin_target("std_gaussian", n=n)
        field = GraphMetric(model)
    kin = Kinetic(field, nu=nu)
    q, p = np.array([0.4, -0.3, 0.2]), np.array([-1.5, 0.7, -0.4])
    state = field.state_at(q, with_hessian=True)
    traj = integrate(model, kin, PhaseState(q, p), IntegratorConfig(0.2, 5))
    assert (traj.reflection_count >= 1) == (field_kind == "constant")
    return [kin.energy(state, p), kin.grad_p(state, p), kin.grad_q(state, p), state.lam_dot(p),
            kin.sample_momentum(q, np.random.default_rng(7)),
            traj.state.q, traj.state.p, traj.state.energy, traj.reflection_count]


@pytest.mark.parametrize("nu", [math.inf, 4.0], ids=["gaussian", "student_t"])
@pytest.mark.parametrize("field_kind", ["constant", "graph"])
def test_the_identity_pass_through_gives_the_dense_products_bits(field_kind, nu, monkeypatch):
    passed = _identity_results(field_kind, nu)
    # fields built from here on apply lam = I, and chol(sigma) = I, as the
    # dense product
    monkeypatch.setattr(metric_module, "_pass_through", np.eye(3).dot)
    dense = _identity_results(field_kind, nu)
    for got, want in zip(passed, dense):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_public_products_on_the_identity_keep_the_dense_products_contract():
    # they hand back no caller's array, and refuse a p of the wrong length
    p, wrong = np.array([0.3, -1.2]), np.array([0.3, -1.2, 0.5])
    for field in (ConstantMetric(np.eye(2)), GraphMetric(builtin_target("std_gaussian", n=2))):
        state = field.state_at(np.array([0.5, 0.1]), with_hessian=True)
        for kin in (Kinetic(field), Kinetic(field, nu=4.0)):
            for got in (state.lam_dot(p), kin.grad_p(state, p), kin.grad_q(state, p)):
                assert not np.shares_memory(got, p)
            for public in (state.lam_dot, lambda v: kin.energy(state, v),
                           lambda v: kin.grad_p(state, v)):
                with pytest.raises(ValueError):
                    public(wrong)


# lam products in one step of each graph kinetic over the dense background
# below: its solve iterates, directions, raised gradients and end energies
_DENSE_BACKGROUND_PRODUCTS = 27


@pytest.mark.parametrize("background", ["identity", "dense"])
def test_a_graph_step_applies_only_a_dense_background(background):
    # a background lam watched after construction, as step-operations
    # watches it, a dense lam's product swapped together with the matrix: the
    # identity, which keeps its pass-through, takes part in no product
    n = 4
    log = []
    model = builtin_target("std_gaussian", n=n)
    a = np.random.default_rng(3).normal(size=(n, n))
    sigma = np.eye(n) if background == "identity" else a.dot(a.T) + n * np.eye(n)
    bg = ConstantMetric.from_sigma(sigma)
    bg.lam = bg.lam.view(_watching(log))
    if background == "dense":
        bg._lam_dot = bg.lam.dot
    field = GraphMetric(model, bg)
    q, p = np.array([0.3, -0.5, 0.8, 0.1]), np.array([1.1, 0.4, -0.9, 0.6])
    for kin in (Kinetic(field), Kinetic(field, nu=5.0)):
        integrate(model, kin, PhaseState(q, p), IntegratorConfig(0.2, 1))
    assert not any(log)  # matrix-vector products only
    assert len(log) == (0 if background == "identity" else _DENSE_BACKGROUND_PRODUCTS)
