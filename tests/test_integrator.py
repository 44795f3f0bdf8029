"""Integrators: hand-checked steps, reversibility, volume, reflections."""

import ast
import inspect
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghmc import integrator

from ghmc.errors import DivergenceError, UsageError
from ghmc.integrator import (
    IntegratorConfig,
    PhaseState,
    generalized_leapfrog_step,
    hamiltonian,
    integrate,
    reflect_momentum,
)
from ghmc.kinetic import Kinetic, euclidean_quadratic, riemannian_quadratic, student_t
from ghmc.metric import ConstantMetric, GraphMetric, MetricState
from ghmc.model import Constraint, TargetModel, builtin_target, potential_eval, potential_grad
from ghmc.sampler import ChainConfig, run_chain
from ghmc.verify import _volume_error


def _harmonic():
    return builtin_target("std_gaussian", n=1), euclidean_quadratic(np.eye(1))


def _energy_trace(model, kinetic, state, config):
    # H before the first step and after each step of integrate(config), from
    # one-step integrate calls chained through state.energy
    state = PhaseState(state.q, state.p, hamiltonian(model, kinetic, state.q, state.p))
    energies = [state.energy]
    for _ in range(config.num_steps):
        state = integrate(model, kinetic, state, replace(config, num_steps=1)).state
        energies.append(state.energy)
    return state, np.array(energies)


def flow_derivatives(model, kinetic, q, p):
    # (dq/dt, dp/dt) of the energy-conserving flow at a feasible point; a
    # graph field's state carries dV
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    state = kinetic.field.state_at(q, with_hessian=kinetic.position_dependent)
    dv = potential_grad(model, q) if state.grad is None else state.grad
    return kinetic.grad_p(state, p), -(dv + kinetic.grad_q(state, p))


def _landings(model):
    # model whose constraint gradients append their argument to the returned
    # list: a reflection reads the gradient once, at the point where it lands
    landed = []

    def recorded(con):
        return replace(con, grad=lambda q, grad=con.grad: landed.append(np.array(q)) or grad(q))

    return replace(model, constraints=tuple(recorded(c) for c in model.constraints)), landed


def _rk4(model, kinetic, q, p, dt, steps):
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    for _ in range(steps):
        k1q, k1p = flow_derivatives(model, kinetic, q, p)
        k2q, k2p = flow_derivatives(model, kinetic, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
        k3q, k3p = flow_derivatives(model, kinetic, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
        k4q, k4p = flow_derivatives(model, kinetic, q + dt * k3q, p + dt * k3p)
        q = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return q, p


def test_hamiltonian_values_and_infeasible_sentinel():
    model, kin = _harmonic()
    assert hamiltonian(model, kin, [0.0], [0.0]) == 0.0
    assert hamiltonian(model, kin, [1.0], [1.0]) == pytest.approx(1.0)
    halfspace = builtin_target("halfspace_gaussian")
    assert hamiltonian(halfspace, kin, [-1.0], [0.3]) == math.inf


def test_hamiltonian_even_in_momentum():
    banana = builtin_target("banana")
    graph = GraphMetric(banana)
    kinetics = [
        euclidean_quadratic(np.array([[2.0, 0.3], [0.3, 1.0]])),
        riemannian_quadratic(graph),
        student_t(graph, nu=3.0),
    ]
    rng = np.random.default_rng(4)
    for kin in kinetics:
        for _ in range(20):
            q = rng.normal(size=2) * 0.5
            p = rng.normal(size=2)
            assert abs(
                hamiltonian(banana, kin, q, p) - hamiltonian(banana, kin, q, -p)
            ) <= 1e-15 * max(1.0, abs(hamiltonian(banana, kin, q, p)))


def test_flow_derivatives_harmonic_oscillator():
    model, kin = _harmonic()
    dq, dp = flow_derivatives(model, kin, [1.0], [0.0])
    np.testing.assert_allclose(dq, [0.0])
    np.testing.assert_allclose(dp, [-1.0])


def test_flow_derivatives_infeasible_point_errors():
    halfspace = builtin_target("halfspace_gaussian")
    kin = euclidean_quadratic(np.eye(1))
    with pytest.raises(DivergenceError):
        flow_derivatives(halfspace, kin, [-0.2], [1.0])


def test_leapfrog_hand_checked_step():
    model, kin = _harmonic()
    q, p = generalized_leapfrog_step(model, kin, [1.0], [0.0], 0.1)
    assert q[0] == pytest.approx(0.995, abs=1e-15)
    assert p[0] == pytest.approx(-0.09975, abs=1e-15)


def test_leapfrog_round_trip():
    model, kin = _harmonic()
    q, p = np.array([1.0]), np.array([0.0])
    q1, p1 = generalized_leapfrog_step(model, kin, q, p, 0.1)
    q2, p2 = generalized_leapfrog_step(model, kin, q1, -p1, 0.1)
    assert abs(q2[0] - q[0]) < 1e-13
    assert abs(-p2[0] - p[0]) < 1e-13


# a constant-field step runs in units of P = p/eps; the textbook leapfrog in
# p agrees with it to rounding, measured at most 4.4e-16 on the cases below
_P_UNITS_ATOL = 2e-15


def test_constant_metric_step_is_the_textbook_kick_drift_kick():
    model = builtin_target("banana")
    lam = np.array([[0.5, 0.1], [0.1, 0.8]])
    kin = euclidean_quadratic(lam)
    q, p, eps = np.array([0.3, 0.2]), np.array([0.7, -0.4]), 0.05
    q_k, p_k = generalized_leapfrog_step(model, kin, q, p, eps)
    # kick, drift and kick in units of P = p/eps: the step's bits
    big_p = p / eps - 0.5 * potential_grad(model, q)
    q_new = q + ((eps * eps) * lam).dot(big_p)
    p_new = eps * (big_p - 0.5 * potential_grad(model, q_new))
    np.testing.assert_array_equal(q_k, q_new)
    np.testing.assert_array_equal(p_k, p_new)
    # the textbook kick, drift and kick in p
    p_half = p - 0.5 * eps * potential_grad(model, q)
    q_new = q + eps * (lam @ p_half)
    p_new = p_half - 0.5 * eps * potential_grad(model, q_new)
    np.testing.assert_allclose(q_k, q_new, rtol=0.0, atol=_P_UNITS_ATOL)
    np.testing.assert_allclose(p_k, p_new, rtol=0.0, atol=_P_UNITS_ATOL)


def test_generalized_step_is_one_step_of_integrate():
    model = builtin_target("halfspace_gaussian", n=2)
    kin = euclidean_quadratic(np.array([[1.5, 0.3], [0.3, 0.8]]))
    q, p = np.array([0.4, 0.0]), np.array([-1.5, 0.7])
    traj = integrate(model, kin, PhaseState(q, p), IntegratorConfig(0.3, 1))
    assert traj.reflection_count == 1
    q_k, p_k = generalized_leapfrog_step(model, kin, q, p, 0.3)
    np.testing.assert_array_equal(q_k, traj.state.q)
    np.testing.assert_array_equal(p_k, traj.state.p)


def test_generalized_step_tracks_the_exact_flow():
    # 1-D graph metric: energy drift stays small and the endpoint agrees with
    # a fine RK4 reference for the same equations of motion
    model = builtin_target("std_gaussian", n=1)
    kin = riemannian_quadratic(GraphMetric(model))
    cfg = IntegratorConfig(0.01, 100, fp_tol=1e-13)
    end, energies = _energy_trace(model, kin, PhaseState(np.array([1.0]), np.array([0.5])), cfg)
    assert np.max(np.abs(energies - energies[0])) < 1e-4
    q_ref, p_ref = _rk4(model, kin, [1.0], [0.5], 1e-3, 1000)
    assert abs(end.q[0] - q_ref[0]) < 1e-4
    assert abs(end.p[0] - p_ref[0]) < 1e-4


def test_generalized_step_halving_is_second_order():
    model = builtin_target("std_gaussian", n=1)
    kin = riemannian_quadratic(GraphMetric(model))

    def drift(eps, steps):
        cfg = IntegratorConfig(eps, steps, fp_tol=1e-13)
        _, energies = _energy_trace(model, kin, PhaseState(np.array([1.0]), np.array([0.5])), cfg)
        return np.max(np.abs(energies - energies[0]))

    ratio = drift(0.02, 100) / drift(0.01, 200)
    assert 3.5 <= ratio <= 4.5


def test_reflection_classic_mirror():
    p_new = reflect_momentum([1.0, 1.0], [1.0, 0.0], np.eye(2))
    np.testing.assert_allclose(p_new, [-1.0, 1.0], atol=1e-15)


def test_reflection_hand_checked_with_anisotropic_metric():
    lam = np.diag([4.0, 1.0])
    p_new = reflect_momentum([1.0, 1.0], [1.0, 0.0], lam)
    np.testing.assert_allclose(p_new, [-1.0, 1.0], atol=1e-15)
    kin = euclidean_quadratic(lam)
    state = kin.field.state_at(np.zeros(2))
    assert kin.energy(state, p_new) == pytest.approx(kin.energy(state, [1.0, 1.0]), abs=1e-15)


def test_reflection_is_an_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        qmat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lam = qmat @ np.diag(rng.uniform(0.5, 2.0, size=3)) @ qmat.T
        p = rng.normal(size=3)
        dc = rng.normal(size=3)
        back = reflect_momentum(reflect_momentum(p, dc, lam), dc, lam)
        assert np.max(np.abs(back - p)) <= 1e-14


def test_reflection_moves_momentum_along_the_normal_only():
    rng = np.random.default_rng(6)
    lam = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 0.7]])
    for _ in range(50):
        p = rng.normal(size=3)
        dc = rng.normal(size=3)
        delta = reflect_momentum(p, dc, lam) - p
        # delta is collinear with dc: zero component orthogonal to it
        residual = delta - (delta @ dc) / (dc @ dc) * dc
        assert np.max(np.abs(residual)) <= 1e-12 * max(1.0, np.max(np.abs(delta)))


def test_reflection_degenerate_normal_is_a_geometry_error():
    with pytest.raises(DivergenceError):
        reflect_momentum([1.0, 0.0], [0.0, 0.0], np.eye(2))


def test_integrate_unconstrained_harmonic():
    model, kin = _harmonic()
    cfg = IntegratorConfig(0.1, 20)
    start = PhaseState(np.array([1.0]), np.array([0.0]))
    traj = integrate(model, kin, start, cfg)
    assert traj.reflection_count == 0
    end, energies = _energy_trace(model, kin, start, cfg)
    # a trajectory merges the half-kicks that chained steps take apart:
    # (p - h) - h and p - 2h differ in the last bits only
    np.testing.assert_allclose(end.q, traj.state.q, rtol=0.0, atol=1e-14)
    assert end.energy == pytest.approx(traj.state.energy, rel=0.0, abs=1e-14)
    assert np.max(np.abs(energies - energies[0])) < 5e-3
    # closed-form rotation of the harmonic oscillator as an oracle
    t = 0.1 * 20
    assert traj.state.q[0] == pytest.approx(math.cos(t), abs=5e-3)
    assert traj.state.p[0] == pytest.approx(-math.sin(t), abs=5e-3)


def test_integrate_reflects_off_the_halfspace_boundary():
    model, landed = _landings(builtin_target("halfspace_gaussian"))
    kin = euclidean_quadratic(np.eye(1))
    cfg = IntegratorConfig(0.05, 20)
    traj = integrate(model, kin, PhaseState(np.array([0.5]), np.array([-2.0])), cfg)
    assert traj.reflection_count == len(landed) == 1
    assert 0.0 < landed[0][0] <= 1e-9
    assert np.all(traj.state.q > 0.0)


def _orthant(n):
    return builtin_target("halfspace_gaussian", n=n, constraints=[(row, 0.0) for row in np.eye(n)])


_HALFSPACE_START = (np.array([0.4, 0.0]), np.array([-1.5, 0.7]))
_REFLECTIVE_ROUND_TRIPS = {
    "euclidean": (builtin_target("halfspace_gaussian", n=2),
                  euclidean_quadratic(np.array([[1.5, 0.3], [0.3, 0.8]])), *_HALFSPACE_START, 1),
    "student-t": (builtin_target("halfspace_gaussian", n=2), student_t(np.eye(2)),
                  *_HALFSPACE_START, 1),
    # the corner of the 3-d orthant: one trajectory reflects off several walls
    "student-t-orthant": (_orthant(3), student_t(np.eye(3), nu=5.0),
                          np.ones(3), np.array([-1.5, 0.7, -2.0]), 2),
}


@pytest.mark.parametrize("case", sorted(_REFLECTIVE_ROUND_TRIPS))
def test_round_trip_through_reflections(case):
    model, kin, q0, p0, min_reflections = _REFLECTIVE_ROUND_TRIPS[case]
    cfg = IntegratorConfig(0.1, 30)
    fwd = integrate(model, kin, PhaseState(q0, p0), cfg)
    back = integrate(model, kin, PhaseState(fwd.state.q, -fwd.state.p), cfg)
    assert fwd.reflection_count >= min_reflections
    assert back.reflection_count >= min_reflections
    assert np.max(np.abs(back.state.q - q0)) <= 1e-10
    assert np.max(np.abs(-back.state.p - p0)) <= 1e-10


_CHAINED_STEPS = {
    # the corner of the 3-d orthant, reflecting within the first steps
    "student-t-orthant": (_orthant(3), student_t(np.eye(3), nu=5.0),
                          np.array([0.5, 1.0, 0.3]), np.array([-1.5, 0.7, -2.0]), 0.2),
    "euclidean-halfspace": (builtin_target("halfspace_gaussian", n=2),
                            euclidean_quadratic(np.array([[1.5, 0.3], [0.3, 0.8]])),
                            *_HALFSPACE_START, 0.3),
    "student-t-graph": (builtin_target("std_gaussian", n=3),
                        student_t(GraphMetric(builtin_target("std_gaussian", n=3)), nu=5.0),
                        np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.0, -0.4]), 0.1),
}


@pytest.mark.parametrize("steps", [1, 4, 9])
@pytest.mark.parametrize("case", sorted(_CHAINED_STEPS))
def test_integrate_equals_chained_single_steps(case, steps):
    # one loop serves both: k steps of integrate, which carries each step's
    # end point and constraint scan into the next, are k one-step calls that
    # evaluate their start afresh, as generalized_leapfrog_step does.  A graph
    # trajectory is its chained steps bit for bit.  A constant-field one
    # merges the two half-kicks at each interior point, which chained steps
    # take apart, so it agrees to rounding, with the same reflections.
    model, kin, q0, p0, eps = _CHAINED_STEPS[case]
    traj = integrate(model, kin, PhaseState(q0, p0), IntegratorConfig(eps, steps))
    q, p, count = q0, p0, 0
    for _ in range(steps):
        end = integrate(model, kin, PhaseState(q, p), IntegratorConfig(eps, 1))
        q, p, count = end.state.q, end.state.p, count + end.reflection_count
    assert count == traj.reflection_count
    if kin.position_dependent:
        np.testing.assert_array_equal(q, traj.state.q)
        np.testing.assert_array_equal(p, traj.state.p)
    else:
        np.testing.assert_allclose(q, traj.state.q, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(p, traj.state.p, rtol=0.0, atol=1e-14)
    if steps == 9 and not kin.position_dependent:
        assert traj.reflection_count >= 1


@pytest.mark.parametrize("steps, nu", [(1, math.inf), (4, math.inf), (9, math.inf),
                                       (1, 5.0), (4, 5.0), (9, 5.0)],
                         ids=["1", "4", "9", "student_t-1", "student_t-4", "student_t-9"])
def test_a_separable_trajectory_is_the_merged_leapfrog(steps, nu):
    # the leapfrog in units of P = p/eps, written out: a half-kick, then
    # drifts and full kicks in turn, then a closing half-kick, and p = eps P;
    # integrate gives its bits.  A Student-t drift moves along lam P by one
    # scaled product, at the speed 2 f' = (nu + n) / (nu + eps^2 P.lam P).
    # The textbook leapfrog in p agrees to rounding
    model = builtin_target("mvn", mean=[0.2, -0.1], cov=[[1.0, 0.6], [0.6, 0.5]])
    lam = np.array([[1.5, 0.3], [0.3, 0.8]])
    q0, p0, eps = np.array([0.7, -0.4]), np.array([0.5, 1.2]), 0.3
    traj = integrate(model, Kinetic(ConstantMetric(lam), nu), PhaseState(q0, p0),
                     IntegratorConfig(eps, steps))
    eps2 = eps * eps
    q, big_p = q0, p0 / eps - 0.5 * model.gradient(q0)
    for k in range(steps):
        if nu == math.inf:
            q = q + (eps2 * lam).dot(big_p)
        else:
            lam_p = lam.dot(big_p)
            slope = (nu + 2) / (nu + eps2 * float(lam_p.dot(big_p)))
            q = q + (eps2 * slope) * lam_p
        big_p = big_p - (1.0 if k < steps - 1 else 0.5) * model.gradient(q)
    np.testing.assert_array_equal(q, traj.state.q)
    np.testing.assert_array_equal(eps * big_p, traj.state.p)

    q, p = q0, p0 - 0.5 * eps * model.gradient(q0)
    for k in range(steps):
        if nu == math.inf:
            q = q + (eps * lam).dot(p)
        else:
            lam_p = lam.dot(p)
            slope = (nu + 2) / (nu + float(lam_p.dot(p)))
            q = q + (eps * slope) * lam_p
        p = p - (eps if k < steps - 1 else 0.5 * eps) * model.gradient(q)
    np.testing.assert_allclose(q, traj.state.q, rtol=0.0, atol=_P_UNITS_ATOL)
    np.testing.assert_allclose(p, traj.state.p, rtol=0.0, atol=_P_UNITS_ATOL)


@pytest.mark.parametrize("steps", [1, 3])
def test_a_constant_field_reads_its_drift_speed_once_per_step(steps):
    # from the orthant corner, the first step meets two walls: the speed
    # 2 f' read at the step's start is kept through both reflections, which
    # conserve p.Lam p, so the kinetic is asked once per step
    model, shared, q0, p0, _ = _CHAINED_STEPS["student-t-orthant"]
    kin = Kinetic(shared.field, shared.nu)  # a copy whose calls are counted
    read, calls = kin._direction, []
    kin._direction = lambda state, p, *scale: calls.append(p) or read(state, p, *scale)
    first = integrate(model, kin, PhaseState(q0, p0), IntegratorConfig(0.6, 1))
    assert first.reflection_count >= 2
    calls.clear()
    traj = integrate(model, kin, PhaseState(q0, p0), IntegratorConfig(0.6, steps))
    assert traj.reflection_count >= 2
    assert len(calls) == steps


@pytest.mark.parametrize("case", ["unconstrained", "reflective"])
def test_constant_field_builds_states_only_at_reflections(case):
    # a constant field's one state serves the whole trajectory, the points
    # where it reflects included: no state is built
    if case == "unconstrained":
        model = builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.9], [0.9, 1.0]])
        q, p = np.array([0.3, -0.2]), np.array([0.5, 1.0])
    else:
        model = builtin_target("halfspace_gaussian", n=2)
        q, p = _HALFSPACE_START
    model, landed = _landings(model)
    kin = euclidean_quadratic(np.array([[1.5, 0.3], [0.3, 0.8]]))
    start = PhaseState(q, p, hamiltonian(model, kin, q, p),
                       (potential_grad(model, q), kin.field.state_at(q)))
    built = _counted_state_at(kin.field)
    traj = integrate(model, kin, start, IntegratorConfig(0.1, 30))
    assert (traj.reflection_count == 0) == (case == "unconstrained")
    assert len(landed) == traj.reflection_count
    assert built == []


@pytest.mark.parametrize("nu", [math.inf, 5.0], ids=["euclidean", "student_t"])
def test_a_reflection_lands_on_its_crossing_probe(nu):
    # a reflection keeps the q of each crossing probe and lands on the one the
    # search returns: the constraint gradient reads the very array that a
    # constraint value read, so no drift runs again to the landing point
    seen, landed = [], []

    def recorded(con):
        return replace(con, value=lambda q, v=con.value: seen.append(q) or v(q),
                       grad=lambda q, g=con.grad: landed.append(q) or g(q))

    orthant = _orthant(3)
    model = replace(orthant, constraints=tuple(recorded(c) for c in orthant.constraints))
    kin = Kinetic(ConstantMetric(np.array([[1.5, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 1.0]])), nu)
    cfg = IntegratorConfig(0.1, 30)
    traj = integrate(model, kin, PhaseState(np.ones(3), np.array([-1.5, 0.7, -2.0])), cfg)
    assert traj.reflection_count == len(landed) >= 2
    assert all(any(q is probe for probe in seen) for q in landed)


def test_a_graph_drift_past_a_model_wall_diverges():
    # the field's target has no wall, so every drift iterate reads a smooth
    # gradient, while the wall q_1 > 0.2 is the model's.  Split at the
    # crossing, the implicit drift would not preserve volume, so the step
    # diverges instead of reflecting
    target = builtin_target("std_gaussian", n=3)
    kin = student_t(GraphMetric(target), nu=5.0)
    wall = Constraint(value=lambda q: float(q[0]) - 0.2, grad=lambda q: np.array([1.0, 0.0, 0.0]))
    model = replace(target, constraints=(wall,))
    q0, p0 = np.array([0.3, -0.2, 0.1]), np.array([-1.5, 0.7, 0.4])
    with pytest.raises(DivergenceError, match="past a wall"):
        integrate(model, kin, PhaseState(q0, p0), IntegratorConfig(0.1, 1))


def _nan_beyond(lo, hi):
    # C = 1 - q0, except NaN for lo < q0 < hi
    def value(q):
        return math.nan if lo < q[0] < hi else 1.0 - q[0]

    return Constraint(value=value, grad=lambda q: np.array([-1.0, 0.0]))


# NaN at the drift's end (q0 = 1.3775 from q0 = 0.5), or only at the crossing
# search's first probe, just short of q0 = 1
_NAN_WALLS = {"end": _nan_beyond(1.0, math.inf), "probe": _nan_beyond(0.9, 1.0)}


@pytest.mark.parametrize("where", sorted(_NAN_WALLS))
def test_nan_constraint_value_is_a_divergence(where):
    # NaN is not > 0, so it is not feasible; nor is it <= 0, so it brackets
    # no crossing
    model = replace(builtin_target("std_gaussian", n=2), constraints=(_NAN_WALLS[where],))
    kin = euclidean_quadratic(np.eye(2))
    start = PhaseState(np.array([0.5, 0.0]), np.array([3.0, 0.0]))
    with pytest.raises(DivergenceError, match="NaN"):
        integrate(model, kin, start, IntegratorConfig(0.3, 1))


def test_chain_keeps_no_sample_where_a_constraint_is_nan():
    model = replace(builtin_target("std_gaussian", n=2), constraints=(_NAN_WALLS["end"],))
    kin = euclidean_quadratic(np.eye(2))
    cfg = ChainConfig(seed=2, num_samples=300, integrator=IntegratorConfig(0.3, 5))
    res = run_chain(model, kin, cfg, initial=np.array([0.5, 0.0]))
    assert res.divergence_count > 0
    assert all(math.isfinite(potential_eval(model, q)) for q in res.samples)


def test_infeasible_graph_iterate_is_a_divergence():
    # a drift ends past the boundary q1 = 0.  A graph drift split at the
    # crossing would not preserve volume, so the integrator refuses to
    # reflect it; the gradient is read past the wall and does not raise
    model = builtin_target("halfspace_gaussian", n=2)
    kin = riemannian_quadratic(GraphMetric(model))
    cfg = IntegratorConfig(0.05, 30)
    with pytest.raises(DivergenceError, match="past a wall"):
        integrate(model, kin, PhaseState(np.array([0.4, 0.0]), np.array([-1.5, 0.7])), cfg)


def test_too_many_reflections_is_a_divergence():
    # narrow corridor 0 < q1 < 0.01 with a fast particle
    cons = (
        Constraint(value=lambda q: q[0], grad=lambda q: np.array([1.0])),
        Constraint(value=lambda q: 0.01 - q[0], grad=lambda q: np.array([-1.0])),
    )
    model = TargetModel(
        n=1,
        potential=lambda q: 0.0,
        gradient=lambda q: np.zeros(1),
        constraints=cons,
        name="corridor",
    )
    kin = euclidean_quadratic(np.eye(1))
    cfg = IntegratorConfig(0.1, 1)
    with pytest.raises(DivergenceError):
        integrate(model, kin, PhaseState(np.array([0.005]), np.array([5.0])), cfg)


def test_fixed_point_failure_is_a_divergence():
    banana = builtin_target("banana")
    kin = riemannian_quadratic(GraphMetric(banana))
    cfg = IntegratorConfig(0.1, 5, fp_tol=1e-12)
    with pytest.raises(DivergenceError):
        integrate(banana, kin, PhaseState(np.array([-0.4, -0.7]), np.array([1.0, 1.0])), cfg)


def test_infeasible_initial_state_is_a_usage_error():
    model = builtin_target("halfspace_gaussian")
    kin = euclidean_quadratic(np.eye(1))
    with pytest.raises(UsageError):
        integrate(model, kin, PhaseState(np.array([-0.5]), np.array([1.0])), IntegratorConfig(0.1, 5))


def test_integrator_config_validation():
    with pytest.raises(UsageError):
        IntegratorConfig(step_size=0.0, num_steps=10)
    with pytest.raises(UsageError):
        IntegratorConfig(step_size=0.1, num_steps=0)
    with pytest.raises(UsageError):
        IntegratorConfig(step_size=0.1, num_steps=10, fp_tol=-1.0)


@pytest.mark.parametrize("name", ["step_size", "fp_tol"])
def test_integrator_config_refuses_a_nan(name):
    # an infinite step size would diverge on every transition
    for value in (math.nan, math.inf):
        with pytest.raises(UsageError, match="finite"):
            IntegratorConfig(**{"step_size": 0.1, "num_steps": 10, name: value})


@pytest.mark.parametrize("refused, message", [
    (lambda: IntegratorConfig(0.1, 1, fp_max_iter=0), "fp_max_iter must be at least 1"),
    (lambda: integrate(*_harmonic(), PhaseState(np.ones(1), np.ones(1), energy=math.inf),
                       IntegratorConfig(0.1, 1)), "feasible with finite energy"),
], ids=["fp_max_iter-0", "infinite-start-energy"])
def test_integrator_refusals(refused, message):
    with pytest.raises(UsageError, match=message):
        refused()


def test_volume_preserved_by_leapfrog():
    model, kin = _harmonic()
    assert _volume_error(model, kin, np.array([1.0]), np.array([0.0]), 0.1)[0] < 1e-6


def test_volume_preserved_by_generalized_leapfrog_on_graph_metric():
    ban = builtin_target("banana")
    kin = riemannian_quadratic(GraphMetric(ban))
    rng = np.random.default_rng(7)
    q = np.array([1.0, 1.0]) + rng.normal(size=2) * np.array([0.05, 0.1])
    p = rng.normal(size=2) * 0.08
    assert _volume_error(ban, kin, q, p, 0.01)[0] < 1e-6


def test_explicit_euler_control_breaks_volume():
    # deliberately non-symplectic scheme: both updates from the start state
    model, kin = _harmonic()
    eps = 0.1

    def euler(z):
        q, p = z[:1], z[1:]
        dq, dp = flow_derivatives(model, kin, q, p)
        return np.concatenate([q + eps * dq, p + eps * dp])

    h = 1e-6
    z0 = np.array([1.0, 0.3])
    jac = np.empty((2, 2))
    for i in range(2):
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        jac[:, i] = (euler(zp) - euler(zm)) / (2 * h)
    assert abs(np.linalg.det(jac) - 1.0) > 1e-4


def test_energy_error_is_second_order_explicit():
    model, kin = _harmonic()

    def drift(eps, steps):
        start = PhaseState(np.array([1.0]), np.array([0.5]))
        _, energies = _energy_trace(model, kin, start, IntegratorConfig(eps, steps))
        return np.max(np.abs(energies - energies[0]))

    ratio = drift(0.2, 10) / drift(0.1, 20)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize(
    "name", ["std_gaussian", "mvn", "banana", "funnel"]
)
def test_round_trip_through_integrate(name):
    if name == "mvn":
        model = builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.5, 1.0]])
    elif name == "banana":
        model = builtin_target("banana")
    else:
        model = builtin_target(name, n=2)
    if name == "banana":
        q0, p0 = np.array([0.3, 0.2]), np.array([0.7, -0.4])
    else:
        rng = np.random.default_rng(2)
        q0, p0 = rng.normal(size=2) * 0.5, rng.normal(size=2)
    kin = euclidean_quadratic(np.eye(2))
    cfg = IntegratorConfig(0.1, 20)
    fwd = integrate(model, kin, PhaseState(q0, p0), cfg)
    back = integrate(model, kin, PhaseState(fwd.state.q, -fwd.state.p), cfg)
    assert np.max(np.abs(back.state.q - q0)) <= 1e-10
    assert np.max(np.abs(-back.state.p - p0)) <= 1e-10


def test_graph_metric_round_trip_small_step_on_banana():
    ban = builtin_target("banana")
    kin = riemannian_quadratic(GraphMetric(ban))
    cfg = IntegratorConfig(0.002, 20, fp_tol=1e-13)
    q0, p0 = np.array([0.9, 0.81]), np.array([0.3, 0.2])
    fwd = integrate(ban, kin, PhaseState(q0, p0), cfg)
    back = integrate(ban, kin, PhaseState(fwd.state.q, -fwd.state.p), cfg)
    assert np.max(np.abs(back.state.q - q0)) <= 1e-8
    assert np.max(np.abs(-back.state.p - p0)) <= 1e-8


def test_integrate_reuses_the_given_initial_energy():
    base = builtin_target("banana")
    calls = []

    def potential(q):
        calls.append(q)
        return base.potential(q)

    model = replace(base, potential=potential)
    kin = student_t(GraphMetric(model), nu=4.0)
    q, p = np.array([0.3, 0.2]), np.array([0.5, -0.4])
    for steps in (1, 4, 9):
        cfg = IntegratorConfig(0.05, steps)
        fresh = integrate(model, kin, PhaseState(q=q, p=p), cfg)
        # a given energy is taken as H(q, p), not evaluated again: the only
        # potential evaluation left is the one for the final energy
        calls.clear()
        given = integrate(model, kin, PhaseState(q=q, p=p, energy=1.5), cfg)
        assert len(calls) == 1
        assert given.state.energy == fresh.state.energy
        # the kinetic energy is even in p, so the final energy is H at the
        # flipped momentum, bit for bit
        assert hamiltonian(model, kin, fresh.state.q, -fresh.state.p) == fresh.state.energy


def _counted(model, name):
    # model whose callable ``name`` appends its argument to the returned list
    calls = []
    fn = getattr(model, name)

    def counted(q):
        calls.append(q)
        return fn(q)

    return replace(model, **{name: counted}), calls


def _counted_state_at(field):
    # replace field.state_at by a wrapper; returns the list of built positions
    built, state_at = [], field.state_at

    def counted_state_at(q, with_hessian=False):
        built.append(np.array(q))
        return state_at(q, with_hessian)

    field.state_at = counted_state_at
    return built


def _distinct(arrays):
    return len({a.tobytes() for a in arrays}) == len(arrays)


@pytest.mark.parametrize("steps", [1, 4, 9])
def test_explicit_integrate_evaluates_the_gradient_once_per_point(steps):
    # the gradient at a step's end is the one the next step starts from
    base = builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.9], [0.9, 1.0]])
    model, calls = _counted(base, "gradient")
    kin = euclidean_quadratic(np.eye(2))
    integrate(model, kin, PhaseState(np.array([0.3, -0.2]), np.array([0.5, 1.0])),
              IntegratorConfig(0.1, steps))
    assert len(calls) == steps + 1


@pytest.mark.parametrize("steps", [1, 4, 9])
def test_graph_integrate_evaluates_the_hessian_once_per_point(steps):
    model, calls = _counted(builtin_target("std_gaussian", n=3), "hessian")
    kin = student_t(GraphMetric(model), nu=5.0)
    start = PhaseState(np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.0, -0.4]))
    integrate(model, kin, start, IntegratorConfig(0.1, steps))
    assert len(calls) == steps + 1


def _counted_solves(monkeypatch):
    # wrap the integrator's fixed-point solver; returns the list of what each
    # update solved for ("momentum" or "position"), one entry per update
    updates, solve = [], integrator._solve

    def counted_solve(update, x, config, what):
        def counted(x):
            updates.append(what)
            return update(x)

        return solve(counted, x, config, what)

    monkeypatch.setattr(integrator, "_solve", counted_solve)
    return updates


def test_momentum_solve_builds_no_metric_state(monkeypatch):
    # the implicit kick iterates at fixed q on the state the step starts from
    model = builtin_target("banana")
    field = GraphMetric(model)
    kin = riemannian_quadratic(field)
    built = _counted_state_at(field)
    updates = _counted_solves(monkeypatch)
    q = np.array([0.3, 0.2])
    generalized_leapfrog_step(model, kin, q, np.array([0.5, -0.4]), 0.05)
    assert updates.count("momentum") > 3  # the solve iterated
    assert sum(np.array_equal(b, q) for b in built) == 1


@pytest.mark.parametrize("steps", [1, 4, 9])
@pytest.mark.parametrize("nu", [math.inf, 5.0], ids=["gaussian", "student_t"])
def test_graph_integrate_calls_grad_q_only_for_the_explicit_kicks(steps, nu, monkeypatch):
    # the implicit kick's iterates and the drift's build their terms from the
    # state without the kinetic's public gradients; each step's closing kick
    # reads the force map that its end point's next kick iterates, so
    # grad_q is not called
    model = builtin_target("std_gaussian", n=3)
    kin = Kinetic(GraphMetric(model), nu=nu)
    calls = {"grad_q": 0, "grad_p": 0}
    for name in calls:
        method = getattr(kin, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        setattr(kin, name, counted)
    updates = _counted_solves(monkeypatch)
    start = PhaseState(np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.0, -0.4]))
    integrate(model, kin, start, IntegratorConfig(0.1, steps))
    assert updates.count("momentum") > steps and updates.count("position") > steps
    assert calls == {"grad_q": 0, "grad_p": 0}


def _spd(n, seed):
    # a random, well-conditioned SPD matrix that is not the identity
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a.dot(a.T) / n + 0.5 * np.eye(n)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nu=st.sampled_from([math.inf, 3.0]),
    eps=st.floats(0.01, 0.5),
)
def test_lean_iterates_equal_the_implicit_equations(seed, nu, eps):
    # one iterate of each lean map equals the implicit equation it solves,
    # written with the kinetic's public gradients, on a non-identity
    # background; 1e-12 relative to the size of the terms
    n = 3
    rng = np.random.default_rng(seed)
    model = builtin_target("funnel", n=n)
    field = GraphMetric(model, ConstantMetric.from_sigma(_spd(n, seed)))
    kin = Kinetic(field, nu=nu)
    q, p, x = rng.normal(scale=0.7, size=n), rng.normal(size=n), rng.normal(size=n)
    state = field.state_at(q, with_hessian=True)

    kick = kin._force_map(state, -0.5 * eps)(x, p - 0.5 * eps * (state.grad + state.dlogdet))
    force = state.grad + kin.grad_q(state, x)
    expected = p - 0.5 * eps * force
    scale = np.abs(p).max() + 0.5 * eps * np.abs(force).max()
    assert np.abs(kick - expected).max() <= 1e-12 * scale

    u0 = kin.grad_p(state, p)
    lam_p = field.background.lam.dot(p)
    y = q + rng.normal(scale=0.1, size=n)
    drift = kin._drift_map(q, p, u0, lam_p, eps)(y)
    u_y = kin.grad_p(field.state_at(y), p)
    expected = q + 0.5 * eps * (u0 + u_y)
    scale = np.abs(q).max() + 0.5 * eps * (np.abs(u0).max() + np.abs(u_y).max())
    assert np.abs(drift - expected).max() <= 1e-12 * scale


def _exact_banana_parts(q, x, nu):
    # the banana's gradient g and Hessian h at q (a = 1, b = 100), and on the
    # graph field over the identity background: denom = 1 + g.g,
    # t = g.x / denom, w = Lam x = x - t g and the slope 2 f'(x.w), all exact
    # over the rationals; nu None is the Gaussian profile
    q1, q2 = q
    r = q2 - q1 * q1
    g = [-2 * (1 - q1) - 400 * q1 * r, 200 * r]
    h = [[2 - 400 * q2 + 1200 * q1 * q1, -400 * q1], [-400 * q1, Fraction(200)]]
    denom = 1 + g[0] * g[0] + g[1] * g[1]
    t = (g[0] * x[0] + g[1] * x[1]) / denom
    w = [x[0] - t * g[0], x[1] - t * g[1]]
    slope = 1 if nu is None else (nu + 2) / (nu + x[0] * w[0] + x[1] * w[1])
    return g, h, denom, t, w, slope


@pytest.mark.parametrize("nu", [math.inf, 3.0], ids=["gaussian", "student-t"])
def test_lean_iterates_match_the_exact_equations_where_they_cancel(nu):
    # the iterate-dependent term of each lean map against its implicit
    # equation evaluated exactly with Fractions, on the banana where |dV|
    # reaches about 1e4 and p is nearly parallel to dV, so that p.Lam p and
    # Lam p cancel.  The maps' constant parts are made exactly zero (the kick
    # at p = 0 with dV = -dlogdet, the drift from q0 = 0 with u0 = 0), so a
    # map returns that term alone, and the error is relative to its largest
    # entry
    model = builtin_target("banana")
    field = GraphMetric(model)
    kin = Kinetic(field, nu=nu)
    exact_nu = None if nu == math.inf else Fraction(nu)
    zero = np.zeros(2)
    rng = np.random.default_rng(20)
    worst = {"kick": 0.0, "drift": 0.0}
    for _ in range(200):
        q1 = rng.uniform(-2.0, 2.0)
        q = np.array([q1, q1 * q1 + rng.uniform(-50.0, 50.0)])
        state = field.state_at(q, with_hessian=True)
        g_hat = state.grad / np.sqrt(state.grad.dot(state.grad))
        p = rng.uniform(0.5, 3.0) * g_hat + rng.normal(scale=1e-3, size=2)
        x = p + rng.normal(scale=1e-3, size=2)
        y = q + rng.normal(scale=1e-3, size=2)
        eps = rng.uniform(0.01, 0.3)
        fq, fp, fx, fy = ([Fraction(v) for v in a] for a in (q, p, x, y))
        half = Fraction(eps) / 2

        # kick: -eps/2 f' ds/dq at x, with ds/dq = -2 t H w
        _, h, _, t, w, slope = _exact_banana_parts(fq, fx, exact_nu)
        exact = [half * slope * t * (h[i][0] * w[0] + h[i][1] * w[1]) for i in range(2)]
        kick = kin._force_map(state, -0.5 * eps)(x, zero)
        worst["kick"] = max(worst["kick"], _relative_error(kick, exact))

        # drift: s/2 grad_p(y, p0) = s/2 slope Lam(y) p0
        _, _, _, _, w, slope = _exact_banana_parts(fy, fp, exact_nu)
        exact = [half * slope * w[i] for i in range(2)]
        drift = kin._drift_map(zero, p, zero, field.background.lam.dot(p), eps)(y)
        worst["drift"] = max(worst["drift"], _relative_error(drift, exact))
    assert worst["kick"] <= 1e-9 and worst["drift"] <= 1e-9, worst


def _relative_error(approx, exact):
    scale = max(abs(v) for v in exact)
    return float(max(abs(Fraction(a) - e) for a, e in zip(approx, exact)) / scale)


@pytest.mark.parametrize("nu", [math.inf, 4.0], ids=["gaussian", "student_t"])
@pytest.mark.parametrize("background", ["identity", "dense"])
def test_map_buffers_do_not_leak_between_iterates(background, nu):
    # the kick and drift maps write their products into buffers of their
    # own: an iterate that a map returned is unchanged by its next call, and
    # a kick map and grad_q on one state, called in turn, return what each
    # returns alone, bit for bit
    n = 3
    model = builtin_target("funnel", n=n)
    sigma = None if background == "identity" else ConstantMetric.from_sigma(_spd(n, 4))
    field = GraphMetric(model, sigma)
    kin = Kinetic(field, nu=nu)
    rng = np.random.default_rng(12)
    q, p = rng.normal(scale=0.5, size=n), rng.normal(size=n)
    state = field.state_at(q, with_hessian=True)
    slope, w, lam_p = kin._direction(state, p)
    offset = p - 0.1 * (state.grad + state.dlogdet)

    def kick_map():
        force = kin._force_map(state, -0.1)
        return lambda x: force(x, offset)

    maps = {"kick": (kick_map, p),
            "drift": (lambda: kin._drift_map(q, p, slope * w, lam_p, 0.2), q)}
    for name, (build, x0) in maps.items():
        update = build()
        xs = [x0 + rng.normal(scale=0.05, size=n) for _ in range(3)]
        iterates = [update(x) for x in xs]
        kept = [x.copy() for x in iterates]
        for _ in range(2):
            update(xs[0])
        for got, want in zip(iterates, kept):
            assert got.tobytes() == want.tobytes(), name

    xs = [p + rng.normal(scale=0.05, size=n) for _ in range(4)]
    kick = maps["kick"][0]()
    kicks = [kick(x).tobytes() for x in xs]
    forces = [kin.grad_q(state, x).tobytes() for x in xs]
    kick = maps["kick"][0]()
    for x, want_kick, want_force in zip(xs, kicks, forces):
        assert kin.grad_q(state, x).tobytes() == want_force
        assert kick(x).tobytes() == want_kick


class _Continued(Exception):
    pass


def _stop_decision(delta, tol):
    # what _solve decides on the change delta, from the first iterate 0 to
    # delta: "converged" (it returns), "continue" (it asks for another
    # iterate) or "diverge" (it gives up)
    def update(x):
        if x.any():
            raise _Continued
        return delta

    config = IntegratorConfig(0.1, 1, fp_tol=tol, fp_max_iter=2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            integrator._solve(update, np.zeros(delta.size), config, "test")
    except _Continued:
        return "continue"
    except DivergenceError:
        return "diverge"
    return "converged"


@st.composite
def _changes(draw):
    # (delta, tol) with delta's entries near +-tol, at zero, non-finite, or so
    # large that their squares overflow, alone or repeated; tol is a usual one
    # or one whose square underflows or overflows
    n = draw(st.integers(1, 64))
    tol = draw(st.one_of(st.sampled_from([1e-10, 1e-14, 0.5, 1e-170, 1e170]),
                         st.floats(1e-12, 10.0)))
    near = st.builds(lambda k, sign: sign * tol * (1.0 + k * 2.0**-52),
                     st.integers(-64, 64), st.sampled_from([-1.0, 1.0]))
    entry = st.one_of(near, st.just(0.0), st.sampled_from([math.nan, math.inf, -math.inf]),
                      st.sampled_from([1e155, -1e160, 1e300]), st.floats(-3.0 * tol, 3.0 * tol),
                      st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        delta = [draw(entry)] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            delta[i] = draw(entry)
    else:
        delta = draw(st.lists(entry, min_size=n, max_size=n))
    return np.array(delta), tol


@settings(max_examples=500, deadline=None)
@given(_changes())
def test_the_one_dot_stop_test_decides_as_the_max_norm(case):
    delta, tol = case
    top = float(np.max(np.abs(delta)))
    expected = "converged" if top <= tol else "continue" if math.isfinite(top) else "diverge"
    assert _stop_decision(delta, tol) == expected


def test_unconstrained_graph_integrate_never_builds_the_dense_inverse(monkeypatch):
    # the kinetic applies Lam through the state's operator; only reflections
    # and dense-algebra checks ask for the n x n matrix
    def refuse(state):
        raise AssertionError("dense inverse metric built")

    monkeypatch.setattr(MetricState, "lam", property(refuse))
    model = builtin_target("std_gaussian", n=3)
    kin = student_t(GraphMetric(model), nu=5.0)
    start = PhaseState(np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.0, -0.4]))
    traj = integrate(model, kin, start, IntegratorConfig(0.1, 9))
    assert math.isfinite(traj.state.energy)


@pytest.mark.parametrize("steps", [1, 4, 9])
def test_graph_integrate_reads_the_gradient_from_the_state(steps):
    # one metric state per point (the start and each step's end), and no
    # position's dV evaluated twice: a point takes dV from its state, and a
    # drift iterate evaluates dV at its own y without building a state
    model, calls = _counted(builtin_target("std_gaussian", n=3), "gradient")
    field = GraphMetric(model)
    built = _counted_state_at(field)
    kin = student_t(field, nu=5.0)
    start = PhaseState(np.array([0.3, -0.2, 0.1]), np.array([0.5, 1.0, -0.4]))
    integrate(model, kin, start, IntegratorConfig(0.1, steps))
    assert len(built) == steps + 1
    assert len(calls) > 2 * len(built)  # the drift iterated
    assert _distinct(calls)
    assert {b.tobytes() for b in built} <= {c.tobytes() for c in calls}


@pytest.mark.parametrize("given_point", [False, True])
def test_integrate_evaluates_its_start_once(given_point):
    # with no energy given, H at the start comes from one scan and the one
    # point the first step starts from; a given point is reused
    model, calls = _counted(builtin_target("std_gaussian", n=3), "gradient")
    field = GraphMetric(model)
    kin = student_t(field, nu=5.0)
    q = np.array([0.3, -0.2, 0.1])
    p = np.array([0.5, 1.0, -0.4])
    point = (field.state_at(q).grad, field.state_at(q, with_hessian=True)) if given_point else None
    calls.clear()
    built = _counted_state_at(field)
    integrate(model, kin, PhaseState(q, p, point=point), IntegratorConfig(0.1, 1))
    at_start = [c for c in calls if np.array_equal(c, q)]
    assert len(at_start) == (0 if given_point else 1)
    assert len(built) == (1 if given_point else 2)


def test_non_finite_first_momentum_iterate_is_a_divergence():
    # p.Lam p overflows, so the momentum solve's first iterate is not finite;
    # the step stops there, and the model never sees a non-finite position
    base = builtin_target("banana")
    model, grads = _counted(base, "gradient")
    model, hessians = _counted(model, "hessian")
    kin = riemannian_quadratic(GraphMetric(model))
    start = PhaseState(np.array([0.3, 0.2]), np.array([1e200, -1e200]), energy=1.0)
    with pytest.raises(DivergenceError, match="momentum"):
        integrate(model, kin, start, IntegratorConfig(0.05, 3))
    assert grads and hessians
    assert all(np.isfinite(q).all() for q in grads + hessians)


def _solve_from(x):
    # the iterates _solve passes to an update that is at its fixed point, as
    # integrate runs it
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        integrator._solve(lambda y: seen.append(y) or y, x, IntegratorConfig(0.1, 1), "test")
    return seen


def test_a_finite_first_iterate_whose_square_overflows_is_iterated():
    x = np.array([1e200, -1e200])
    with np.errstate(over="ignore"):
        assert not math.isfinite(x.dot(x))
    assert [y.tobytes() for y in _solve_from(x)] == [x.tobytes()]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_first_iterate_is_refused(bad):
    with pytest.raises(DivergenceError, match="test"):
        _solve_from(np.array([0.5, bad]))


@pytest.mark.parametrize("nu", [math.inf, 4.0], ids=["euclidean", "student_t"])
def test_a_reflecting_step_conserves_the_kinetic_form(nu):
    # V = 0, so the kicks leave p alone and only the reflection, off the wall
    # q_1 = 0 under a lam that is not the identity, changes it.  A reflection
    # that reads I for lam conserves p.p instead, and misses by 84% here.
    lam = np.array([[1.5, 0.6], [0.6, 0.8]])
    wall = Constraint(value=lambda q: float(q[0]), grad=lambda q: np.array([1.0, 0.0]))
    model = TargetModel(n=2, potential=lambda q: 0.0, gradient=lambda q: np.zeros(2),
                        constraints=(wall,), name="flat-halfplane")
    kin = Kinetic(ConstantMetric(lam), nu=nu)
    p = np.array([-1.0, 0.4])
    traj = integrate(model, kin, PhaseState(np.array([0.1, 0.0]), p), IntegratorConfig(0.5, 1))
    assert traj.reflection_count == 1
    form, reflected = p.dot(lam.dot(p)), traj.state.p.dot(lam.dot(traj.state.p))
    assert abs(reflected - form) <= 1e-14 * form


@pytest.mark.parametrize("kinetic, steps", [
    pytest.param("euclidean", 6, id="6"),
    pytest.param("euclidean", 9, id="9"),
    pytest.param("student_t", 8, id="student_t-8"),
    pytest.param("student_t", 9, id="student_t-9"),
    pytest.param("student_t", 15, id="student_t-15"),
])
def test_infinite_gradient_at_a_step_end_is_a_divergence(kinetic, steps):
    # dV is inf from q = 1 on; the harmonic trajectory from (0, 2) first ends
    # a step past it at step 6, and at step 8 under the Student-t kinetic,
    # whose drift is slower at this momentum.  At the last step the inf
    # reaches only the final momentum, and so the final energy; at an earlier
    # step it reaches the next kick, whose drift ends at a non-finite q.
    # Either way the model sees finite positions only.
    seen = []

    def potential(q):
        seen.append(q)
        return 0.5 * float(q @ q)

    def gradient(q):
        seen.append(q)
        return q.copy() if q[0] < 1.0 else np.array([math.inf])

    model = TargetModel(n=1, potential=potential, gradient=gradient, name="inf-wall")
    if kinetic == "euclidean":
        kin, last_finite = euclidean_quadratic(np.eye(1)), 5
    else:
        kin, last_finite = student_t(np.eye(1), nu=5.0), 7
    start = PhaseState(np.array([0.0]), np.array([2.0]))
    assert integrate(model, kin, start, IntegratorConfig(0.1, last_finite)).state.q[0] < 1.0
    match = "non-finite energy" if steps == last_finite + 1 else "non-finite position"
    with pytest.raises(DivergenceError, match=match):
        integrate(model, kin, start, IntegratorConfig(0.1, steps))
    assert seen and all(np.isfinite(q).all() for q in seen)


@pytest.mark.parametrize("field", ["constant", "graph"])
def test_a_start_with_a_non_finite_gradient_is_a_divergence(field):
    # V = 0 is finite, so the start is feasible with finite energy, but dV is
    # NaN: the constant field's drift ends at a NaN q, and the graph field's
    # metric is undefined at the start itself
    model = TargetModel(n=1, potential=lambda q: 0.0, gradient=lambda q: np.array([math.nan]),
                        hessian=lambda q: np.zeros((1, 1)), name="nan-gradient")
    kin = (euclidean_quadratic(np.eye(1)) if field == "constant"
           else riemannian_quadratic(GraphMetric(model)))
    with pytest.raises(DivergenceError):
        generalized_leapfrog_step(model, kin, [0.5], [1.0], 0.1)


def _counted_constraints(model):
    # model whose constraint values append their argument to the returned list
    calls = []

    def counted(con):
        return replace(con, value=lambda q, value=con.value: calls.append(q) or value(q))

    return replace(model, constraints=tuple(counted(c) for c in model.constraints)), calls


@pytest.mark.parametrize("steps", [1, 4, 9])
def test_unreflected_step_scans_the_constraints_once(steps):
    # the drift's crossing scan at its end q shows q feasible, so the end
    # point and the final energy read the model without scanning again;
    # besides one scan per step, only the start energy scans, and its finite
    # value lets the start point skip its scan
    model, calls = _counted_constraints(_orthant(2))
    kin = euclidean_quadratic(np.eye(2))
    traj = integrate(model, kin, PhaseState(np.array([2.0, 2.5]), np.array([0.3, -0.2])),
                     IntegratorConfig(0.1, steps))
    assert traj.reflection_count == 0
    assert len(calls) == len(model.constraints) * (steps + 1)


def test_linear_wall_crossing_takes_one_probe():
    # the drift is linear in s, so C along it is too: the first secant probe,
    # aimed at C = tol/2, lands inside the band 0 < C <= tol.  A search then
    # makes 1 evaluation, that probe, as C(0) is the previous step's end scan,
    # and the drift after the reflection scans its new end once; besides, one
    # scan per step plus one for the start energy (bisection made 50 calls
    # here)
    model, calls = _counted_constraints(builtin_target("halfspace_gaussian"))
    model, landed = _landings(model)
    kin = euclidean_quadratic(np.eye(1))
    cfg = IntegratorConfig(0.05, 20)
    traj = integrate(model, kin, PhaseState(np.array([0.5]), np.array([-2.0])), cfg)
    assert traj.reflection_count == len(landed) == 1
    assert 0.0 < landed[0][0] <= integrator._REFLECTION_TOL
    assert len(calls) == (cfg.num_steps + 1) + 2 * traj.reflection_count


def test_curved_wall_crossings_land_inside_the_band():
    # C = 1 - q.q is quadratic along the drift: the secant converges in a few
    # probes (bisection made 122 calls here)
    disk = Constraint(value=lambda q: 1.0 - float(q @ q), grad=lambda q: -2.0 * q)
    model, calls = _counted_constraints(
        replace(builtin_target("std_gaussian", n=2), constraints=(disk,))
    )
    model, landed = _landings(model)
    kin = euclidean_quadratic(np.eye(2))
    cfg = IntegratorConfig(0.1, 20)
    traj = integrate(model, kin, PhaseState(np.array([0.2, 0.1]), np.array([3.0, 1.0])), cfg)
    assert traj.reflection_count == len(landed) == 3
    for q in landed:
        assert 0.0 < 1.0 - float(q @ q) <= integrator._REFLECTION_TOL
    assert len(calls) < 61


def test_wall_too_steep_for_the_band_falls_back_to_bisection_on_the_feasible_side():
    # C = 1e7 (0.7 - s): the first secant step, 5e-18 short of s_hi, rounds
    # onto it, so the search bisects and probes the midpoint first.  One ulp
    # of s moves C by about 1.1e-9, more than the band's width, so no float s
    # lands in the band: the search ends on the last feasible s below s_hi
    probes = []

    def wall(s):
        probes.append(s)
        return 1e7 * (0.7 - s)

    s = integrator._find_crossing(wall, 0.7, wall(0.0), wall(0.7))
    assert probes[2] == 0.35
    assert s < 0.7 and wall(s) > 0.0


@pytest.mark.parametrize("root, most", [(0.7, 55), (0.3, 54)])
def test_steep_wall_search_stops_at_adjacent_floats(root, most):
    # C = 1e7 (root - s) over [0, 0.7]: no float s has C in the band, so the
    # search ends once lo and hi are adjacent floats, and lo is the last
    # feasible float below the root
    probes = []

    def wall(s):
        probes.append(s)
        return 1e7 * (root - s)

    c_lo, c_hi = wall(0.0), wall(0.7)
    probes.clear()
    s = integrator._find_crossing(wall, 0.7, c_lo, c_hi)
    assert len(probes) <= most
    assert s == math.nextafter(root, 0.0) and wall(s) > 0.0


def test_the_step_loop_takes_its_kick_and_drift_from_the_kinetic():
    # the rank-1 product and the profile's slope live in metric.py and
    # kinetic.py: integrator.py imports nothing from the metric module, reads
    # no part of a graph state's rank-1 term and never asks a state for its
    # dense Lam
    tree = ast.parse(inspect.getsource(integrator))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "metric")
        or (isinstance(node, ast.Attribute) and node.attr in ("_slope", "grad_up", "denom", "lam"))
    ]
    assert not found, f"integrator.py reaches into the metric on lines {found}"


@pytest.mark.parametrize("model, q, p, duration, reflections", [
    (builtin_target("halfspace_gaussian", n=2), [0.5, 0.3], [-2.0, 0.7], 1.0, 1),
    (_orthant(2), [0.5, 0.3], [-2.0, -1.7], 1.0, 2),
    (_orthant(2), [0.4, 0.9], [-1.0, -2.5], 2.0, 2),
], ids=["halfspace", "orthant", "orthant-long"])
def test_a_reflected_trajectory_is_second_order(model, q, p, duration, reflections):
    # With V = q.q/2, Lam = I and walls q_i > 0 each coordinate is an
    # oscillator, whose free flow is the rotation q cos t + p sin t.  A wall
    # at q_i = 0 mirrors it there: q_i hits the wall where the free q_i
    # changes sign, and the reflection flips p_i, so the reflected flow is
    # (|q_free|, sign(q_free) p_free).  Halving eps cuts the endpoint's
    # error by 4 when the reflections keep the step second order.
    q, p = np.array(q), np.array(p)
    free_q = q * math.cos(duration) + p * math.sin(duration)
    free_p = p * math.cos(duration) - q * math.sin(duration)
    exact_q, exact_p = np.abs(free_q), np.sign(free_q) * free_p
    kin = euclidean_quadratic(np.eye(2))
    errors = []
    for steps in (10, 20, 40, 80, 160):
        traj = integrate(model, kin, PhaseState(q, p), IntegratorConfig(duration / steps, steps))
        assert traj.reflection_count == reflections
        end = traj.state
        errors.append(max(np.max(np.abs(end.q - exact_q)), np.max(np.abs(end.p - exact_p))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def test_triple_root_wall_still_lands_on_the_feasible_side():
    # C = q1^3 is flat at its root, where secant steps creep from one side:
    # with plain Illinois halving the search took 20 probes, 42 constraint
    # calls in all against 29 with bisection.  Compounded halving takes 7,
    # besides one scan per step, one for the start and one after the
    # reflection, and still ends inside the band.
    cube = Constraint(value=lambda q: q[0] ** 3, grad=lambda q: np.array([3.0 * q[0] ** 2, 0.0]))
    model, calls = _counted_constraints(
        replace(builtin_target("std_gaussian", n=2), constraints=(cube,))
    )
    model, landed = _landings(model)
    kin = euclidean_quadratic(np.eye(2))
    cfg = IntegratorConfig(0.1, 20)
    traj = integrate(model, kin, PhaseState(np.array([0.5, 0.1]), np.array([-3.0, 1.0])), cfg)
    assert traj.reflection_count == len(landed) == 1
    assert 0.0 < landed[0][0] ** 3 <= integrator._REFLECTION_TOL
    assert traj.state.q[0] > 0.0
    assert len(calls) == cfg.num_steps + 1 + 1 + 7
