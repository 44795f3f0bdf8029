"""Kinetic energies: values, symmetries, derivatives, exact conditionals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ghmc.errors import UsageError, ValidationError
from ghmc.integrator import IntegratorConfig, PhaseState, integrate
from ghmc.kinetic import euclidean_quadratic, riemannian_quadratic, student_t
from ghmc.metric import GraphMetric
from ghmc.model import builtin_target


def _at(kin, q):
    # the field's state at q, with the Hessian that grad_q reads
    return kin.field.state_at(q, with_hessian=True)


def _all_variants():
    banana = builtin_target("banana")
    graph = GraphMetric(banana)
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    return [
        ("euclidean", euclidean_quadratic(lam)),
        ("graph-quadratic", riemannian_quadratic(graph)),
        ("student-t-const", student_t(lam, nu=4.0)),
        ("student-t-graph", student_t(graph, nu=4.0)),
    ]


def test_energy_identity_metric():
    kin = euclidean_quadratic(np.eye(2))
    assert kin.energy(_at(kin, [0.0, 0.0]), [3.0, 4.0]) == pytest.approx(12.5)


def test_energy_includes_the_normalizing_logdet():
    kin = euclidean_quadratic(np.diag([4.0, 1.0]))
    expected = 2.0 - 0.5 * math.log(4.0)
    assert kin.energy(_at(kin, [0.0, 0.0]), [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)


def test_student_t_energy_at_zero_momentum():
    kin = student_t(np.eye(1), nu=1.0)
    assert kin.energy(_at(kin, [0.0]), [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_momentum_gradient_examples():
    kin = euclidean_quadratic(np.eye(2))
    np.testing.assert_allclose(kin.grad_p(_at(kin, [0.0, 0.0]), [3.0, 4.0]), [3.0, 4.0])
    kin = euclidean_quadratic(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(kin.grad_p(_at(kin, [0.0, 0.0]), [1.0, 1.0]), [4.0, 1.0])


@pytest.mark.parametrize("name,kin", _all_variants(), ids=lambda v: v if isinstance(v, str) else "")
def test_evenness_and_odd_gradient(name, kin):
    rng = np.random.default_rng(33)
    for _ in range(250):
        q = rng.normal(size=2) * 0.8
        p = rng.normal(size=2) * 2.0
        state = _at(kin, q)
        assert abs(kin.energy(state, -p) - kin.energy(state, p)) <= 1e-12
        np.testing.assert_allclose(kin.grad_p(state, -p), -kin.grad_p(state, p), atol=1e-12)


def test_constant_metric_has_no_position_force():
    kin = euclidean_quadratic(np.diag([4.0, 1.0]))
    np.testing.assert_array_equal(kin.grad_q(_at(kin, [0.3, -0.2]), [1.0, 2.0]), np.zeros(2))
    kin_t = student_t(np.diag([4.0, 1.0]), nu=3.0)
    np.testing.assert_array_equal(kin_t.grad_q(_at(kin_t, [0.3, -0.2]), [1.0, 2.0]), np.zeros(2))


def test_position_gradient_one_dimensional_values():
    model = builtin_target("std_gaussian", n=1)
    kin = riemannian_quadratic(GraphMetric(model))
    # at p = 0 only the log-determinant term acts: d/dq log(1+q^2)/2 = q/(1+q^2)
    assert kin.grad_q(_at(kin, [1.0]), [0.0])[0] == pytest.approx(0.5, abs=1e-14)

    # finite differences of the energy, rel err < 1e-5
    q, p = np.array([1.0]), np.array([1.0])
    h = 1e-5
    fd = (kin.energy(_at(kin, q + h), p) - kin.energy(_at(kin, q - h), p)) / (2 * h)
    assert abs(kin.grad_q(_at(kin, q), p)[0] - fd) / abs(fd) < 1e-5


@pytest.mark.parametrize("name,kin", _all_variants(), ids=lambda v: v if isinstance(v, str) else "")
def test_gradients_match_finite_differences(name, kin):
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(10):
        q = rng.normal(size=2) * 0.7
        p = rng.normal(size=2) * 1.5
        state = _at(kin, q)
        grad_p = kin.grad_p(state, p)
        grad_q = kin.grad_q(state, p)
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = h
            fd_p = (kin.energy(state, p + dp) - kin.energy(state, p - dp)) / (2 * h)
            assert abs(grad_p[i] - fd_p) / max(1.0, abs(fd_p)) < 1e-5
            fd_q = (kin.energy(_at(kin, q + dp), p) - kin.energy(_at(kin, q - dp), p)) / (2 * h)
            assert abs(grad_q[i] - fd_q) / max(1.0, abs(fd_q)) < 1e-5


def test_momentum_draws_identity_covariance():
    kin = euclidean_quadratic(np.eye(2))
    rng = np.random.default_rng(2)
    n_draws = 50000
    draws = np.array([kin.sample_momentum(np.zeros(2), rng) for _ in range(n_draws)])
    cov = np.cov(draws, rowvar=False)
    assert np.max(np.abs(cov - np.eye(2))) < 0.05
    # zero mean within four standard errors
    assert np.max(np.abs(draws.mean(axis=0))) < 4.0 / math.sqrt(n_draws)


def test_momentum_draws_follow_the_inverse_metric():
    # T = p.Lam p/2, so the exact conditional has covariance Lam^{-1}:
    # for Lam = diag(4, 1) the variances are (1/4, 1)
    kin = euclidean_quadratic(np.diag([4.0, 1.0]))
    rng = np.random.default_rng(12)
    draws = np.array([kin.sample_momentum(np.zeros(2), rng) for _ in range(50000)])
    var = draws.var(axis=0)
    assert abs(var[0] - 0.25) / 0.25 < 0.05
    assert abs(var[1] - 1.0) < 0.05


@pytest.mark.parametrize(
    "field, q, sigma",
    [
        (np.diag([4.0, 1.0]), np.zeros(2), np.diag([0.25, 1.0])),
        # graph metric at a point with gradient g = q: Sigma = I + g g^T
        (
            GraphMetric(builtin_target("std_gaussian", n=2)),
            np.array([1.0, -0.5]),
            np.eye(2) + np.outer([1.0, -0.5], [1.0, -0.5]),
        ),
    ],
    ids=["constant", "graph"],
)
def test_student_t_draws_scale_mixture_covariance(field, q, sigma):
    # t_nu with inverse scale Lam has covariance nu/(nu-2) Lam^{-1}
    kin = student_t(field, nu=5.0)
    rng = np.random.default_rng(11)
    draws = np.array([kin.sample_momentum(q, rng) for _ in range(50000)])
    cov = np.cov(draws.T, bias=True)
    expect = (5.0 / 3.0) * sigma
    scale = np.sqrt(np.outer(np.diag(expect), np.diag(expect)))
    assert np.max(np.abs(cov - expect) / scale) < 0.07


def test_momentum_draws_are_deterministic_for_a_seed():
    kin = euclidean_quadratic(np.diag([4.0, 1.0]))
    one = kin.sample_momentum(np.zeros(2), np.random.default_rng(99))
    two = kin.sample_momentum(np.zeros(2), np.random.default_rng(99))
    np.testing.assert_array_equal(one, two)


def _normalizer(kin, q):
    state = _at(kin, [q])
    return quad(lambda p: math.exp(-kin.energy(state, np.array([p]))), -np.inf, np.inf)[0]


def test_conditional_normalizer_is_position_independent():
    model = builtin_target("std_gaussian", n=1)
    graph = GraphMetric(model)
    quad_kin = riemannian_quadratic(graph)
    values = [_normalizer(quad_kin, q) for q in (-2.0, -0.5, 0.0, 1.0, 3.0)]
    for val in values:
        assert abs(val - math.sqrt(2.0 * math.pi)) / val < 1e-6
    t_kin = student_t(graph, nu=3.0)
    t_values = [_normalizer(t_kin, q) for q in (-2.0, -0.5, 0.0, 1.0, 3.0)]
    for val in t_values:
        assert abs(val - t_values[0]) / t_values[0] < 1e-6


def test_non_spd_inverse_metric_is_rejected():
    with pytest.raises(ValidationError):
        euclidean_quadratic(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_student_t_parameter_validation_and_default():
    with pytest.raises(ValidationError):
        student_t(np.eye(1), nu=0.0)
    assert student_t(np.eye(1)).nu == 5.0


def test_euclidean_requires_constant_field():
    model = builtin_target("std_gaussian", n=1)
    with pytest.raises(UsageError):
        euclidean_quadratic(GraphMetric(model))


def test_graph_momentum_draw_matches_metric_covariance():
    model = builtin_target("funnel", n=2)
    kin = riemannian_quadratic(GraphMetric(model))
    q = np.array([0.5, -0.4])
    rng = np.random.default_rng(8)
    draws = np.array([kin.sample_momentum(q, rng) for _ in range(50000)])
    state = kin.field.state_at(q)
    target_cov = np.linalg.inv(state.lam)
    rel = np.max(np.abs(np.cov(draws, rowvar=False) - target_cov)) / np.max(np.abs(target_cov))
    assert rel < 0.05


def test_nan_degrees_of_freedom_are_refused_when_built():
    with pytest.raises(ValidationError):
        student_t(np.eye(1), nu=float("nan"))
    with pytest.raises(ValidationError):
        student_t(np.eye(1), nu=-math.inf)


@pytest.mark.parametrize("nu", ["5", "inf", True, "abc", None], ids=repr)
def test_degrees_of_freedom_that_are_not_a_real_number_are_refused(nu):
    with pytest.raises(ValidationError, match="nu"):
        student_t(np.eye(2), nu=nu)


def test_numpy_degrees_of_freedom_are_accepted():
    assert student_t(np.eye(2), nu=np.float64(5.0)).nu == 5.0
    assert student_t(np.eye(2), nu=np.int64(3)).nu == 3.0


def test_infinite_degrees_of_freedom_is_the_gaussian_profile():
    model = builtin_target("funnel", n=2)
    graph = GraphMetric(model)
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    q, p = np.array([0.5, -0.4]), np.array([1.3, -0.7])
    for field in (lam, graph):
        gauss, limit = riemannian_quadratic(field), student_t(field, nu=math.inf)
        state = _at(gauss, q)
        assert limit.energy(state, p) == gauss.energy(state, p)
        np.testing.assert_array_equal(limit.grad_p(state, p), gauss.grad_p(state, p))
        np.testing.assert_array_equal(limit.grad_q(state, p), gauss.grad_q(state, p))
        # no chi-square scale is drawn, so the generator stream is the same
        one, two = np.random.default_rng(4), np.random.default_rng(4)
        np.testing.assert_array_equal(limit.sample_momentum(q, one), gauss.sample_momentum(q, two))
        assert one.uniform() == two.uniform()


def test_position_gradient_needs_the_state_hessian():
    model = builtin_target("std_gaussian", n=2)
    kin = riemannian_quadratic(GraphMetric(model))
    q, p = np.array([0.4, -0.3]), np.array([1.0, 0.5])
    with pytest.raises(UsageError):
        kin.grad_q(kin.field.state_at(q), p)
    # energy and grad_p read the same values with or without the Hessian
    assert kin.energy(kin.field.state_at(q), p) == kin.energy(_at(kin, q), p)
    np.testing.assert_array_equal(kin.grad_p(kin.field.state_at(q), p), kin.grad_p(_at(kin, q), p))


@pytest.mark.parametrize("name,kin", _all_variants(), ids=lambda v: v if isinstance(v, str) else "")
def test_list_momentum_gives_the_bits_of_an_array(name, kin):
    # the kinetic and the state's operator keep the ndarray on the left of
    # every product, so a Python-list p is coerced and gives the same bits
    state = _at(kin, [0.4, -0.3])
    p_list = [0.7, -1.2]
    p = np.array(p_list)
    assert kin.energy(state, p_list) == kin.energy(state, p)
    for got, want in [
        (kin.grad_p(state, p_list), kin.grad_p(state, p)),
        (kin.grad_q(state, p_list), kin.grad_q(state, p)),
        (state.lam_dot(p_list), state.lam_dot(p)),
    ]:
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["euclidean", "student_t", "graph", "student_t-graph"])
def test_a_verification_family_gives_the_bits_of_its_hand_built_kinetic(family):
    # the verification suite builds a graph family over the background
    # ConstantMetric.from_sigma(I), where GraphMetric(model) defaults to
    # ConstantMetric(I): both must give the same bits
    from ghmc.verify import _FAMILIES, _kinetic

    banana = builtin_target("banana")
    hand_built = {
        "euclidean": euclidean_quadratic(np.eye(2)),
        "student_t": student_t(np.eye(2), nu=5.0),
        "graph": riemannian_quadratic(GraphMetric(banana)),
        "student_t-graph": student_t(GraphMetric(banana), nu=5.0),
    }
    assert tuple(hand_built) == _FAMILIES
    got, want = _kinetic(family, banana), hand_built[family]
    q, p = np.array([0.3, 0.2]), np.array([0.7, -0.4])
    assert got.energy(_at(got, q), p) == want.energy(_at(want, q), p)
    rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
    traj_got, traj_want = (integrate(banana, kin, PhaseState(q, p), IntegratorConfig(0.02, 5))
                           for kin in (got, want))
    for a, b in [
        (got.grad_p(_at(got, q), p), want.grad_p(_at(want, q), p)),
        (got.grad_q(_at(got, q), p), want.grad_q(_at(want, q), p)),
        *[(got.sample_momentum(q, rng_got), want.sample_momentum(q, rng_want)) for _ in range(3)],
        (traj_got.state.q, traj_want.state.q),
        (traj_got.state.p, traj_want.state.p),
    ]:
        assert a.tobytes() == b.tobytes()
