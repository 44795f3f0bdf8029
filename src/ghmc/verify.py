"""Executable verification of the engine's geometric invariants.

Each check exercises one contract against an independent oracle: round-trip
integration for reversibility, finite-difference Jacobians for volume
preservation, dense linear algebra for the rank-1 inverse and its
log-determinant, finite-difference connection coefficients for the closed
form, exact moments for the samplers, and wall-clock regressions and an
operation count for the O(n^2) cost target.  Each check runs at its
contractual sizes, written here only.  The CLI ``verify`` command prints these
as a table; the acceptance test suite asserts them.
"""

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import metric as metric_module
from .errors import DivergenceError
from .integrator import (
    IntegratorConfig,
    PhaseState,
    generalized_leapfrog_step,
    hamiltonian,
    integrate,
    reflect_momentum,
    volume_check,
)
from .kinetic import euclidean_quadratic, riemannian_quadratic, student_t
from .metric import ConstantMetric, GraphMetric
from .model import TargetModel, builtin_target, potential_grad
from .sampler import ChainConfig, hmc_transition, run_chain

__all__ = ["CheckResult", "run_checks"]


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    measured: float
    requirement: str
    detail: str
    seconds: float


CHECKS = []  # every check that _check declares, in the order of definition


def _check(name, requirement):
    # a check returns (passed, measured, detail); this times it and reports
    # it as a CheckResult.  A check that raises fails with a NaN measurement,
    # so the suite runs on and its table keeps the rows already finished.
    def wrap(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                passed, measured, detail = fn(*args, **kwargs)
            except Exception as exc:
                passed, measured, detail = False, math.nan, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(
                name, bool(passed), float(measured), requirement, detail, time.perf_counter() - t0
            )

        CHECKS.append(check)
        return check

    return wrap


def _roundtrip(model, kin, q0, p0, eps, num_steps):
    # (round-trip error, fewest reflections of the two legs) of num_steps
    # steps forward, a momentum flip, and num_steps steps back
    cfg = IntegratorConfig(eps, num_steps, fp_tol=1e-12)
    fwd = integrate(model, kin, PhaseState(q0, p0), cfg)
    back = integrate(model, kin, PhaseState(fwd.state.q, -fwd.state.p), cfg)
    err = max(float(np.max(np.abs(back.state.q - q0))), float(np.max(np.abs(back.state.p + p0))))
    return err, min(fwd.reflection_count, back.reflection_count)


@_check("reversibility", "explicit <= 1e-10, implicit <= 1e-8, walls <= 1e-10 with >= 1 reflection")
def check_reversibility():
    """Round-trip error of the step kernel, without walls and through them.

    Explicit rows use a Euclidean kinetic, implicit rows the graph-metric
    kinetic; on the banana target the implicit row steps at 0.02, since its
    graph flow is too stiff for the position solve to converge at 0.1.  Wall
    rows run the Euclidean and the Student-t kinetic into linear walls; each
    leg must reflect, and the round trip is held to the explicit bound, since
    where a reflection lands decides whether the reflective step reverses.
    """
    rng = np.random.default_rng(2024)
    worst_explicit = 0.0
    worst_implicit = 0.0
    worst_walls = 0.0
    fewest_reflections = math.inf
    detail = []
    for model in (
        builtin_target("std_gaussian", n=2),
        builtin_target("mvn", mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.5, 1.0]]),
        builtin_target("banana"),
        builtin_target("funnel", n=2),
    ):
        if model.name == "banana":
            # inside the leapfrog stability region for this step size: the
            # valley walls are stiff enough (Hessian norm up to ~1e3) that
            # random far-out states overflow at step 0.1
            q0 = np.array([0.3, 0.2])
            p0 = np.array([0.7, -0.4])
            eps_implicit = 0.02
        else:
            q0 = rng.normal(size=model.n) * 0.5
            p0 = rng.normal(size=model.n)
            eps_implicit = 0.1
        err_e, _ = _roundtrip(model, euclidean_quadratic(np.eye(model.n)), q0, p0, 0.1, 20)
        ki = riemannian_quadratic(GraphMetric(model))
        err_i, _ = _roundtrip(model, ki, q0, p0, eps_implicit, 20)
        worst_explicit = max(worst_explicit, err_e)
        worst_implicit = max(worst_implicit, err_i)
        detail.append(f"{model.name}: explicit {err_e:.1e} implicit {err_i:.1e}")
    orthant = builtin_target("halfspace_gaussian", n=3, constraints=[(r, 0.0) for r in np.eye(3)])
    walls = [
        ("halfspace", builtin_target("halfspace_gaussian", n=2), [0.4, 0.0], [-1.5, 0.7]),
        # the corner of the orthant q > 0, where one step can reflect off several walls
        ("orthant", orthant, [1.0, 1.0, 1.0], [-1.5, 0.7, -2.0]),
    ]
    for label, model, q0, p0 in walls:
        q0, p0 = np.array(q0), np.array(p0)
        row = []
        for name, kin in (("euclidean", euclidean_quadratic(np.eye(model.n))),
                          ("student-t", student_t(np.eye(model.n), nu=5.0))):
            err, reflections = _roundtrip(model, kin, q0, p0, 0.1, 30)
            worst_walls = max(worst_walls, err)
            fewest_reflections = min(fewest_reflections, reflections)
            row.append(f"{name} {err:.1e} ({reflections} refl)")
        detail.append(f"{label}: " + " ".join(row))
    passed = (
        worst_explicit <= 1e-10
        and worst_implicit <= 1e-8
        and worst_walls <= 1e-10
        and fewest_reflections >= 1
    )
    return passed, max(worst_explicit, worst_implicit, worst_walls), "; ".join(detail)


@_check("volume-preservation", "< 1e-6")
def check_volume_preservation():
    """|det J - 1| of one step at random states, explicit and implicit."""
    g2 = builtin_target("std_gaussian", n=2)
    ke = euclidean_quadratic(np.array([[1.3, 0.4], [0.4, 0.9]]))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        worst = max(
            worst, volume_check(g2, ke, rng.normal(size=2), rng.normal(size=2), 0.1)
        )
    ban = builtin_target("banana")
    kb = riemannian_quadratic(GraphMetric(ban))
    rng = np.random.default_rng(7)
    worst_impl = 0.0
    for _ in range(10):
        q0 = np.array([1.0, 1.0]) + rng.normal(size=2) * np.array([0.05, 0.1])
        p0 = rng.normal(size=2) * 0.08
        worst_impl = max(worst_impl, volume_check(ban, kb, q0, p0, 0.01))
    measured = max(worst, worst_impl)
    return measured < 1e-6, measured, f"explicit {worst:.1e}; implicit {worst_impl:.1e}"


def _max_energy_drift(model, kin, q, p, eps, steps):
    # max |H_k - H_0| over the energies after each of the steps
    h0 = hamiltonian(model, kin, q, p)
    drift = 0.0
    for _ in range(steps):
        q, p = generalized_leapfrog_step(model, kin, q, p, eps, 1e-12)
        drift = max(drift, abs(hamiltonian(model, kin, q, p) - h0))
    return float(drift)


def _halving_ratio(model, kin, q, p, eps, steps):
    # peak energy error over eps * steps, at eps and at eps / 2
    return _max_energy_drift(model, kin, q, p, eps, steps) / _max_energy_drift(
        model, kin, q, p, eps / 2, 2 * steps
    )


@_check("energy-error-order", "in [3.5, 4.5]")
def check_energy_error_order():
    """Halving the step size must cut the peak energy error by about four."""
    g1 = builtin_target("std_gaussian", n=1)
    ban = builtin_target("banana")
    ratios = {
        "harmonic": _halving_ratio(g1, euclidean_quadratic(np.eye(1)), [1.0], [0.5], 0.2, 10),
        "banana": _halving_ratio(
            ban, euclidean_quadratic(np.eye(2)), [0.3, 0.2], [0.7, -0.4], 0.02, 100
        ),
        "implicit-graph": _halving_ratio(
            g1, riemannian_quadratic(GraphMetric(g1)), [1.0], [0.5], 0.02, 100
        ),
    }
    passed = all(3.5 <= r <= 4.5 for r in ratios.values())
    measured = max(ratios.values(), key=lambda r: abs(r - 4.0))
    detail = "; ".join(f"{k} {v:.3f}" for k, v in ratios.items())
    return passed, measured, detail


def _linear_model(n, g):
    # constant-gradient target: lets the rank-1 machinery run with arbitrary g
    return TargetModel(
        n=n,
        potential=lambda q, g=g: float(g @ q),
        gradient=lambda q, g=g: g.copy(),
        hessian=lambda q, n=n: np.zeros((n, n)),
        name="linear",
    )


@_check("smw-inverse", "< 1e-10")
def check_smw_inverse():
    """Rank-1 inverse and log-determinant against dense linear algebra."""
    rng = np.random.default_rng(9)
    worst_inv = 0.0
    worst_det = 0.0
    for n in (1, 2, 5, 20, 50):
        for _ in range(20):
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * n * np.eye(n)
            g = rng.normal(size=n) * rng.uniform(0.2, 5.0)
            field = GraphMetric(_linear_model(n, g), ConstantMetric.from_sigma(sigma))
            state = field.state_at(np.zeros(n))
            lam, logdet = state.lam, state.logdet_sigma
            dense = sigma + np.outer(g, g)
            worst_inv = max(worst_inv, float(np.max(np.abs(lam - np.linalg.inv(dense)))))
            _, ld_dense = np.linalg.slogdet(dense)
            worst_det = max(worst_det, abs(logdet - ld_dense) / max(abs(ld_dense), 1.0))
    measured = max(worst_inv, worst_det)
    return measured < 1e-10, measured, f"inverse {worst_inv:.1e}; logdet rel {worst_det:.1e}"


def finite_difference_christoffel(field: GraphMetric, q) -> np.ndarray:
    """Connection coefficients from central differences of the dense metric.

    Independent of the closed form: builds d(Sigma)/dq numerically and applies
    the standard formula G^i_jk = lam^im (d_j S_mk + d_k S_mj - d_m S_jk) / 2
    with a dense inverse.
    """
    n, h = field.n, 1e-5
    sigma = field.background.sigma

    def dense_metric(qq):
        g = potential_grad(field.model, qq)
        return sigma + np.outer(g, g)

    ds = np.empty((n, n, n))
    for l in range(n):
        qp = q.copy()
        qm = q.copy()
        qp[l] += h
        qm[l] -= h
        ds[l] = (dense_metric(qp) - dense_metric(qm)) / (2.0 * h)
    lam = np.linalg.inv(dense_metric(q))
    term = np.einsum("im,jmk->ijk", lam, ds)
    term += np.einsum("im,kmj->ijk", lam, ds)
    term -= np.einsum("im,mjk->ijk", lam, ds)
    return 0.5 * term


@_check("christoffel", "rel err < 1e-4")
def check_christoffel():
    """Closed-form connection coefficients against the finite-difference oracle."""
    ban = builtin_target("banana")
    field = GraphMetric(ban)
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(20):
        q = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 3.0)])
        gamma = field.christoffel(q)
        gamma_fd = finite_difference_christoffel(field, q)
        rel = float(np.max(np.abs(gamma - gamma_fd)) / max(np.max(np.abs(gamma)), 1e-6))
        worst = max(worst, rel)
    return worst < 1e-4, worst, ""


def _well_conditioned(rng, n, spd=False):
    # Q1 diag(d) Q2 with random orthogonal Q1 and Q2, Q2 = Q1^T when spd, and
    # d in [0.5, 2]; drawn in that order, Q2 only when not spd
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2 = q1.T if spd else np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ q2


@_check("reflection", "energy <= 1e-13, involution <= 1e-15")
def check_reflection():
    """Reflections conserve the kinetic energy exactly and are involutions.

    Probe metrics are kept well conditioned so the stated absolute tolerances
    measure exactness at machine precision rather than conditioning.
    """
    rng = np.random.default_rng(21)
    worst_energy = 0.0
    worst_invol = 0.0
    dims = (1, 2, 3, 5)
    for i in range(1000):
        n = dims[i % len(dims)]
        lam = _well_conditioned(rng, n, spd=True)
        kq = euclidean_quadratic(lam)
        kt = student_t(lam, nu=rng.uniform(0.5, 10.0))
        p = rng.normal(size=n)
        dc = rng.normal(size=n)
        while float(np.linalg.norm(dc)) < 1e-6:
            dc = rng.normal(size=n)
        p_ref = reflect_momentum(p, dc, lam)
        for kin in (kq, kt):
            state = kin.field.state_at(np.zeros(n))
            worst_energy = max(worst_energy, abs(kin.energy(state, p_ref) - kin.energy(state, p)))
        p_back = reflect_momentum(p_ref, dc, lam)
        # involution error measured at unit momentum scale
        scale = max(1.0, float(np.max(np.abs(p))), float(np.max(np.abs(p_ref))))
        worst_invol = max(worst_invol, float(np.max(np.abs(p_back - p))) / scale)
    passed = worst_energy <= 1e-13 and worst_invol <= 1e-15
    detail = f"energy {worst_energy:.1e}; involution {worst_invol:.1e}"
    return passed, max(worst_energy, worst_invol), detail


@_check("momentum-symmetry", "<= 1e-12")
def check_momentum_symmetry():
    """T(q, -p) = T(q, p) and dT/dp odd, for every kinetic family."""
    rng = np.random.default_rng(33)
    field = GraphMetric(builtin_target("banana"))
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    kinetics = [
        euclidean_quadratic(lam),
        riemannian_quadratic(field),
        student_t(lam, nu=4.0),
        student_t(field, nu=4.0),
    ]
    worst = 0.0
    for _ in range(1000 // len(kinetics)):
        q = rng.normal(size=2) * 0.8
        p = rng.normal(size=2) * 2.0
        for kin in kinetics:
            state = kin.field.state_at(q)
            even = abs(kin.energy(state, -p) - kin.energy(state, p))
            odd = float(np.max(np.abs(kin.grad_p(state, -p) + kin.grad_p(state, p))))
            worst = max(worst, even, odd)
    return worst <= 1e-12, worst, ""


def _mapped(model, amat):
    # (A^-1, the target in coordinates Q = A q): V(A^-1 Q) + log|det A|, with
    # gradient A^-T dV and Hessian A^-T H A^-1
    ainv = np.linalg.inv(amat)
    _, log_abs_det = np.linalg.slogdet(amat)
    return ainv, TargetModel(
        n=model.n,
        potential=lambda qq: float(model.potential(ainv @ qq) + log_abs_det),
        gradient=lambda qq: ainv.T @ model.gradient(ainv @ qq),
        hessian=lambda qq: ainv.T @ model.hessian(ainv @ qq) @ ainv,
        name=f"{model.name}-mapped",
    )


def _energy_gap(model, mapped, kinetics, kinetics_t, amat, ainv, q, p):
    # max |H_Q - H| over the paired kinetics, at (q, p) and at (A q, A^-T p)
    q_t, p_t = amat @ q, ainv.T @ p
    worst = 0.0
    for kin, kin_t in zip(kinetics, kinetics_t):
        h = model.potential(q) + kin.energy(kin.field.state_at(q), p)
        h_t = mapped.potential(q_t) + kin_t.energy(kin_t.field.state_at(q_t), p_t)
        worst = max(worst, abs(h_t - h))
    return worst


@_check("coordinate-invariance", "<= 1e-12")
def check_coordinate_invariance():
    """H is a scalar: under Q = A q the kinetic and potential terms shift by
    opposite log-Jacobian factors and the total energy is unchanged.

    A constant inverse metric maps to A lam A^T.  The paper's graph metric is
    a tensor: over the background A^-T sigma A^-1 and the mapped gradient it
    is A^-T Sigma(q) A^-1.
    """
    rng = np.random.default_rng(44)
    n = 3
    base = builtin_target("std_gaussian", n=n)
    lam = np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]])
    kinetics = [euclidean_quadratic(lam), student_t(lam, nu=6.0)]
    worst = 0.0
    for _ in range(20):
        amat = _well_conditioned(rng, n)
        ainv, mapped = _mapped(base, amat)
        lam_t = amat @ lam @ amat.T
        kinetics_t = [euclidean_quadratic(lam_t), student_t(lam_t, nu=6.0)]
        q, p = rng.normal(size=n), rng.normal(size=n)
        worst = max(worst, _energy_gap(base, mapped, kinetics, kinetics_t, amat, ainv, q, p))
    rng = np.random.default_rng(45)  # a stream of its own: the rows above keep their draws
    for model in (builtin_target("banana"), builtin_target("funnel", n=3)):
        field = GraphMetric(model)  # identity background
        kinetics = [riemannian_quadratic(field), student_t(field, nu=6.0)]
        for _ in range(20):
            amat = _well_conditioned(rng, model.n)
            ainv, mapped = _mapped(model, amat)
            field_t = GraphMetric(mapped, ConstantMetric.from_sigma(ainv.T @ ainv))
            kinetics_t = [riemannian_quadratic(field_t), student_t(field_t, nu=6.0)]
            q, p = 0.5 * rng.normal(size=model.n), rng.normal(size=model.n)
            worst = max(worst, _energy_gap(model, mapped, kinetics, kinetics_t, amat, ainv, q, p))
    return worst <= 1e-12, worst, ""


@_check("stationarity", "<= 4 sigma")
def check_stationarity():
    """One transition applied to exact draws must keep the target's moments."""
    chains = 10000
    model = builtin_target("std_gaussian", n=1)
    kin = euclidean_quadratic(np.eye(1))
    cfg = ChainConfig(seed=0, num_samples=1, integrator=IntegratorConfig(0.1, 20))
    rng = np.random.default_rng(77)
    start = rng.standard_normal(chains)
    out = np.empty(chains)
    for i in range(chains):
        q, _, _ = hmc_transition(model, kin, np.array([start[i]]), cfg, rng)
        out[i] = q[0]
    z_mean = abs(out.mean()) * math.sqrt(chains)
    z_var = abs(out.var(ddof=1) - 1.0) / math.sqrt(2.0 / chains)
    measured = max(z_mean, z_var)
    return measured <= 4.0, measured, f"mean {z_mean:.2f} sigma; var {z_var:.2f} sigma"


def _jittered_chain(model, kin, seed, num_samples, warmup, step_size, num_steps):
    # the chain of a sampling check: path-length jitter on, from the target's
    # initial point
    cfg = ChainConfig(
        seed=seed,
        num_samples=num_samples,
        warmup=warmup,
        integrator=IntegratorConfig(step_size, num_steps),
        jitter_steps=True,
    )
    return run_chain(model, kin, cfg)


@_check("constrained-sampling", "normalized deviation <= 1, zero infeasible")
def check_constrained_sampling():
    """Half-space Gaussian: feasibility and the half-normal moments."""
    res = _jittered_chain(builtin_target("halfspace_gaussian"), euclidean_quadratic(np.eye(1)),
                          3, 20000, 200, 0.15, 10)
    infeasible = int(np.sum(res.samples[:, 0] <= 0.0))
    mean_dev = abs(res.mean[0] - math.sqrt(2.0 / math.pi))
    m2_dev = abs(float(np.mean(res.samples[:, 0] ** 2)) - 1.0)
    passed = infeasible == 0 and mean_dev <= 0.02 and m2_dev <= 0.05
    measured = max(mean_dev / 0.02, m2_dev / 0.05, float(infeasible))
    return passed, measured, (
        f"infeasible {infeasible}; mean dev {mean_dev:.4f} (<=0.02); "
        f"2nd moment dev {m2_dev:.4f} (<=0.05)"
    )


@_check("gaussian-sampling", "ESS > 1000, |mean| <= 0.05, var in [0.90, 1.10]")
def check_gaussian_sampling():
    """Unit Gaussian chain: ESS floor and first two moments."""
    res = _jittered_chain(builtin_target("std_gaussian", n=1), euclidean_quadratic(np.eye(1)),
                          1, 20000, 100, 0.2, 8)
    ess = float(res.ess[0])
    var = float(res.cov[0, 0])
    passed = ess > 1000.0 and abs(res.mean[0]) <= 0.05 and 0.90 <= var <= 1.10
    measured = max(abs(res.mean[0]) / 0.05, abs(var - 1.0) / 0.10)
    return passed, measured, f"ess {ess:.0f}; mean {res.mean[0]:.4f}; var {var:.4f}"


@_check("mvn-sampling", "covariance entries within 10%, ESS > 500")
def check_mvn_sampling():
    """Correlated Gaussian with a user-supplied constant inverse metric."""
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    model = builtin_target("mvn", mean=[0.0, 0.0], cov=cov)
    res = _jittered_chain(model, euclidean_quadratic(np.linalg.inv(cov)),
                          5, 10000, 200, 0.12, 50)
    rel = np.abs(res.cov - cov) / np.abs(cov)
    measured = float(np.max(rel))
    ess_min = float(np.min(res.ess))
    passed = measured <= 0.10 and ess_min > 500.0
    return passed, measured, f"max rel dev {measured:.3f}; min ess {ess_min:.0f}"


@_check("jitter-mixing", "ESS > 5% of the draws")
def check_jitter_mixing():
    """Path-length jitter breaks the period trap at step*length near pi."""
    res = _jittered_chain(builtin_target("std_gaussian", n=1), euclidean_quadratic(np.eye(1)),
                          8, 4000, 100, math.pi / 20.0, 20)
    ess = float(res.ess[0])
    draws = len(res.samples)
    return ess > 0.05 * draws, ess, f"ess {ess:.0f} of {draws}"


_CELL_SIZES = (64, 128, 256, 512)


def _graph_cells():
    # the cells of cost-scaling and step-operations: (n, the std_gaussian
    # target, the dense SPD background sigma = a a^T + n I, a position q), with
    # a and q drawn from one generator in that order
    rng = np.random.default_rng(0)
    for n in _CELL_SIZES:
        a = rng.normal(size=(n, n))
        bg = ConstantMetric.from_sigma(a.dot(a.T) + n * np.eye(n))
        yield n, builtin_target("std_gaussian", n=n), bg, rng.normal(size=n)


def _best_time(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@_check("cost-scaling", "step exponent < 2.3, rank-1 too")
def check_cost_scaling():
    """Fitted wall-time exponents of the rank-1 inverse and of one generalized
    leapfrog step on the graph field, versus dense inversion."""
    smw_times = []
    step_times = []
    dense_times = []
    for n, model, bg, q in _graph_cells():
        field = GraphMetric(model, bg)
        reps = max(5, 8192 // n)
        smw_times.append(_best_time(lambda: field.state_at(q), reps))

        kin = riemannian_quadratic(field)
        p = kin.sample_momentum(q, np.random.default_rng(n))
        step_times.append(
            _best_time(lambda: generalized_leapfrog_step(model, kin, q, p, 0.2), max(5, reps // 2))
        )

        def dense(q=q, model=model, sigma=bg.sigma):
            g = potential_grad(model, q)
            mat = sigma + np.outer(g, g)
            np.linalg.inv(mat)
            np.linalg.slogdet(mat)

        dense_times.append(_best_time(dense, max(3, reps // 4)))
    logs = np.log(np.asarray(_CELL_SIZES, dtype=float))
    smw_exp = float(np.polyfit(logs, np.log(smw_times), 1)[0])
    step_exp = float(np.polyfit(logs, np.log(step_times), 1)[0])
    dense_exp = float(np.polyfit(logs, np.log(dense_times), 1)[0])
    detail = f"rank-1 {smw_exp:.2f}; step {step_exp:.2f}; dense oracle {dense_exp:.2f}"
    return max(step_exp, smw_exp) < 2.3, step_exp, detail


_STEP_ITERATES = 8  # iterates per solve a step may need, at every n
_STEP_MODEL_CALLS = 12  # gradient and Hessian calls a step may make, at every n
_PRODUCTS = frozenset({"dot", "vdot", "inner", "outer", "matmul", "tensordot", "einsum", "kron",
                       "multi_dot", "vecdot", "matvec", "vecmat"})


def _of_matrices(operands):
    # whether a product multiplies two arrays of rank 2 or more
    return sum(isinstance(a, np.ndarray) and a.ndim >= 2 for a in operands) >= 2


def _watching(log):
    # an ndarray subclass whose n x n instances append to log, for each
    # product they take part in, whether it multiplies two matrices; a matrix
    # computed from one is watched too, a vector is not
    def plain(x):
        return x.view(np.ndarray) if isinstance(x, Watched) else x

    def watch(x):
        return x.view(Watched) if isinstance(x, np.ndarray) and x.ndim >= 2 else plain(x)

    class Watched(np.ndarray):
        def dot(self, other, out=None):
            log.append(_of_matrices((self, other)))
            return watch(self.view(np.ndarray).dot(plain(other), out=plain(out)))

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc.__name__ in _PRODUCTS:
                log.append(_of_matrices(inputs))
            if "out" in kwargs:
                kwargs["out"] = tuple(map(plain, kwargs["out"]))
            return watch(getattr(ufunc, method)(*map(plain, inputs), **kwargs))

        def __array_function__(self, func, types, args, kwargs):
            if func.__name__ in _PRODUCTS:
                log.append(_of_matrices([a for arg in args for a in (
                    arg if isinstance(arg, (list, tuple)) else [arg])]))
            return watch(super().__array_function__(func, types, args, kwargs))

    return Watched


@_check("step-operations", f"no numpy.linalg call or n x n product; <= {_STEP_ITERATES} "
        f"iterates per solve, <= {_STEP_MODEL_CALLS} model calls per step, at every n")
def check_step_operations():
    """Counted operations of one generalized leapfrog step on the graph field.

    Cost-scaling's setup and step, counted instead of timed: the calls into
    numpy.linalg, the products that the background lam or the Hessian H (or a
    matrix computed from them) takes part in, by operand rank, the model's
    gradient and Hessian calls, and the fewest iterates per solve that the
    step converges with.  An O(n^2) step makes no numpy.linalg call and only
    matrix-vector products, with counts that do not grow with n.
    """
    products, linalg_calls, calls = [], [], {"gradient": 0, "hessian": 0}
    watched = _watching(products)
    linalg = [name for name in np.linalg.__all__ if not isinstance(getattr(np.linalg, name), type)]
    saved = {name: getattr(np.linalg, name) for name in linalg}
    hessian_at = metric_module._hessian_at

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    heavy, applied, rows = 0, 0, []
    try:
        # _hessian_at returns a plain array; watch the state's H from there
        metric_module._hessian_at = lambda model, q: hessian_at(model, q).view(watched)
        for name in linalg:
            setattr(np.linalg, name, lambda *a, fn=saved[name], name=name, **k:
                    linalg_calls.append(name) or fn(*a, **k))
        for n, base, bg, q in _graph_cells():
            bg.lam = bg.lam.view(watched)
            model = replace(base, gradient=counted("gradient", base.gradient),
                            hessian=counted("hessian", base.hessian))
            field = GraphMetric(model, bg)
            for kin in (riemannian_quadratic(field), student_t(field)):
                p = kin.sample_momentum(q, np.random.default_rng(n))
                for cap in range(1, _STEP_ITERATES + 2):
                    del products[:], linalg_calls[:]
                    calls.update(gradient=0, hessian=0)
                    try:
                        integrate(model, kin, PhaseState(q, p),
                                  IntegratorConfig(0.2, 1, fp_max_iter=cap))
                        break
                    except DivergenceError:
                        pass
                heavy += len(linalg_calls) + sum(products)
                applied = max(applied, len(products))
                rows.append((cap, calls["gradient"] + calls["hessian"]))
    finally:
        metric_module._hessian_at = hessian_at
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)
    iterates = max(cap for cap, _ in rows)
    model_calls = [m for _, m in rows]
    passed = heavy == 0 and iterates <= _STEP_ITERATES and max(model_calls) <= _STEP_MODEL_CALLS
    detail = (f"numpy.linalg calls and n x n products {heavy} (lam or H applied up to "
              f"{applied} times a step); iterates per solve <= {iterates}; "
              f"model calls per step {min(model_calls)}-{max(model_calls)}")
    return passed, heavy, detail


def run_checks():
    """Run every check; returns a list of CheckResult."""
    return [check() for check in CHECKS]
