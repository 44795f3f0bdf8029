"""Symplectic integration of the sampling dynamics, with boundary reflections.

One trajectory loop runs every step, for both kinetic families: the
generalized leapfrog, whose first half-kick and drift are implicit equations
solved by fixed-point iteration.  For a position-independent kinetic energy
(a separable Hamiltonian) those equations are explicit, and the loop takes
the plain kick-drift-kick leapfrog step inline: p - eps/2 dV, q + eps grad_p,
a finite check, one scan of the constraints at the drift's end, dV there and
the second half-kick.  What a trajectory does not change (eps/2, the model's
gradient, the kinetic's grad_p, the constraint values and a constant field's
one metric state) is bound once per trajectory, so a constant field builds a
metric state only where a reflection asks for Lam.  ``integrate`` runs the
loop over num_steps steps and ``generalized_leapfrog_step`` over one.  The
step is a symmetric second-order map, hence reversible and volume-preserving,
which is what the Metropolis correction in the sampler assumes.

Each point is evaluated once, as the potential gradient and the field's
metric state there (a graph field's state carries the gradient): a step
starts from the point its predecessor ended on, and ``integrate`` starts from
the point its caller passes in, which for a chain is the point it holds.  The
end point goes back with the final state, and V there is read without a
further constraint scan.

On a graph field each fixed-point solve computes once what does not depend
on its iterate, and an iterate does only the rest.  The momentum kick at the
step's fixed q computes a = p - eps/2 (dV + dlogdet) once, and an iterate x
adds the x-dependent part of grad_q, -slope (g.Lam x) H Lam x, where
g.Lam x = g_up.x / denom by Sherman-Morrison: one lam product, one Hessian
product and a dot or two, with no call of the kinetic's grad_q.  The drift
over s computes c = q0 + s/2 u0 once, with u0 = grad_p(q0, p0) built from
the lam p0 that its iterates share, and an iterate at y is not a point: it
evaluates dV at y, applies Lam(y) to p0 from lam p0, scales it by the
profile's slope and builds no metric state.  Non-finite
values are caught where they would first reach the model: a fixed-point
solve checks its first iterate and then only the scalar change between
iterates, a drift checks its end position before scanning the constraints
there, and a non-finite momentum left by the last kick makes the final
energy non-finite.  A scan that finds every constraint positive at the end
of a step is its feasibility check.

Strict inequality constraints are handled inside the drift.  Only when the
end scan finds a constraint C <= 0 does the reflective drift run, from that
segment's direction, end point and scan values; the values a step's end scan
read are C at the next step's start, where a crossing search starts.  A NaN
constraint value, at the end scan or at a search probe, is neither feasible
nor past the wall and ends the trajectory.  When a constraint function
changes sign across a drift substep, the crossing is located by a bracketed
secant search (Illinois regula falsi) that aims at the middle of the band
0 < C <= reflection_tol, so the trajectory advances to just inside the
boundary, and the momentum reflects through Delta p = -2 (n, p)_Lam n
with n the unit constraint normal under the inverse-metric inner product
(a, b)_Lam = a.Lam b.  Aiming at one level set inside the band, and not at
the root, also puts the landing point on a linear wall at the same place on
the way out and on the way back, which keeps the reflective step reversible.
The reflection conserves any kinetic energy built on the quadratic form
p.Lam p exactly, so only the discretization of the partial steps contributes
to the energy error.
Crossings are found only at drift-substep endpoints, so a substep can tunnel
through an excluded region that it enters and leaves again.

Numerical failures (non-convergent implicit solves, too many reflections in
one step, an infeasible iterate, a degenerate normal, non-finite or NaN
values) raise DivergenceError from ``integrate``; the sampler treats that as
an automatic rejection, equivalent to proposing a state of infinite energy.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConstraintViolationError,
    DivergenceError,
    GeometryError,
    NumericError,
    UsageError,
)
from .metric import _rank1_dot
from .model import TargetModel, as_position, potential_eval, potential_grad

__all__ = [
    "IntegratorConfig",
    "PhaseState",
    "Trajectory",
    "hamiltonian",
    "generalized_leapfrog_step",
    "reflect_momentum",
    "integrate",
    "volume_check",
]


_START_REFUSED = "the start must be feasible with finite energy"


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, step count, and tolerances for implicit solves and reflections."""

    step_size: float
    num_steps: int
    fp_tol: float = 1e-10
    fp_max_iter: int = 100
    reflection_tol: float = 1e-10
    reflection_max_events: int = 8

    def __post_init__(self):
        # written as "not 0 < x < inf" so that NaN is refused too
        if not 0.0 < self.step_size < math.inf:
            raise UsageError("step_size must be positive and finite")
        if self.num_steps < 1:
            raise UsageError("num_steps must be at least 1")
        if not (0.0 < self.fp_tol < math.inf and 0.0 < self.reflection_tol < math.inf):
            raise UsageError("tolerances must be positive and finite")
        if self.fp_max_iter < 1 or self.reflection_max_events < 1:
            raise UsageError("iteration limits must be at least 1")


@dataclass
class PhaseState:
    """A phase-space point with an optionally cached energy and point.

    ``point`` is the evaluated position: the potential gradient and the
    field's metric state at q, with its Hessian when the kinetic is
    position-dependent.
    """

    q: np.ndarray
    p: np.ndarray
    energy: Optional[float] = None
    point: Optional[tuple] = None


@dataclass
class Trajectory:
    """Integration output: the final state with its energy and point, V at its q,
    and the number of boundary reflections on the way."""

    state: PhaseState
    potential: float
    reflection_count: int


def hamiltonian(model: TargetModel, kinetic, q, p) -> float:
    """Total energy V(q) + T(q, p); +inf when q is infeasible."""
    v = potential_eval(model, q)
    if not math.isfinite(v):
        return math.inf
    return v + kinetic.energy(kinetic.field.state_at(q), as_position(p, model.n))


def _point(model, kinetic, q, feasible=False):
    # (dV, field state) at q: all that a kick or a drift reads at a point.  A
    # graph field's state carries dV; ``feasible`` says that the caller's
    # constraint scan has already shown q strictly feasible.
    state = kinetic.field.state_at(q, with_hessian=kinetic.position_dependent)
    if state.grad is not None:
        return state.grad, state
    if feasible:
        return np.asarray(model.gradient(q), dtype=float), state
    return potential_grad(model, q), state


def _start(model, kinetic, q, point=None):
    # (V, point) at the start of a trajectory or a chain, which must be
    # feasible with finite V; a given point is trusted and not built again
    v = potential_eval(model, q)
    if not math.isfinite(v):
        raise UsageError(_START_REFUSED)
    if point is None:
        point = _point(model, kinetic, q, feasible=True)
    return v, point


def reflect_momentum(p, dc, lam) -> np.ndarray:
    """Specular reflection of p off the surface with normal one-form dc.

    p' = p - 2 (dc.Lam p / dc.Lam dc) dc.  Components parallel to the
    constraint level set are untouched and the quadratic form p.Lam p is
    conserved exactly, for any SPD Lam.
    """
    p = np.asarray(p, dtype=float)
    dc = np.asarray(dc, dtype=float)
    lam_dc = np.asarray(lam, dtype=float).dot(dc)
    norm2 = float(dc.dot(lam_dc))
    if not math.isfinite(norm2) or norm2 <= 0.0:
        raise GeometryError("constraint normal has non-positive norm under the inverse metric")
    return p - (2.0 * float(lam_dc.dot(p)) / norm2) * dc


def _solve(update, x, config, what):
    # iterate x = update(x) from the first iterate x until successive iterates
    # agree within fp_tol.  Only finite iterates reach update: x is checked
    # once, and then a finite delta shows the next iterate finite.
    if np.isfinite(x).all():
        for _ in range(config.fp_max_iter):
            x_new = update(x)
            delta = float(np.maximum.reduce(np.abs(x_new - x)))
            if delta <= config.fp_tol:
                return x_new
            if not math.isfinite(delta):
                break
            x = x_new
    raise DivergenceError(f"implicit {what} update did not converge")


_CROSSING_MAX_ITER = 120
_NAN_CONSTRAINT = "a constraint value is NaN"


def _find_crossing(c_fun, s_hi, c_lo, c_hi, tol):
    # c_lo = c_fun(0) > 0 >= c_hi = c_fun(s_hi); return s on the feasible side
    # with 0 < C <= tol.  Illinois regula falsi on the bracket [lo, hi], each
    # probe aimed at C = tol/2, the middle of the band: a probe aimed at the
    # root lands on the infeasible side about half the time, the feasible end
    # then never moves, and the search stalls.  On a wall that is linear in s
    # the first probe lands in the band.  f_lo and f_hi are the bracket's
    # C - tol/2, with Illinois halving; the stop test reads the true c_lo.  A
    # NaN value is neither side of the wall, so it ends the trajectory.
    if math.isnan(c_lo) or math.isnan(c_hi):
        raise DivergenceError(_NAN_CONSTRAINT)
    target = 0.5 * tol
    lo, hi = 0.0, s_hi
    f_lo, f_hi = c_lo - target, c_hi - target
    kept = 0  # which end the last probe moved: +1 lo, -1 hi
    for _ in range(_CROSSING_MAX_ITER):
        if c_lo <= tol or (hi - lo) <= 1e-16 * max(1.0, abs(s_hi)):
            break
        s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        c = c_fun(s)
        if c > 0.0:
            lo, c_lo, f_lo = s, c, c - target
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        elif c <= 0.0:
            hi, f_hi = s, c - target
            if kept < 0:
                f_lo *= 0.5
            kept = -1
        else:
            raise DivergenceError(_NAN_CONSTRAINT)
    return lo


def _kick_map(kinetic, p, dv, state, eps):
    # x -> p - eps/2 (dv + grad_q(state, x)) at the step's fixed q.  What does
    # not depend on x, a = p - eps/2 (dv + dlogdet), is computed once per
    # solve, and an iterate adds only the p-dependent part of grad_q.
    a = p - 0.5 * eps * (dv + state.dlogdet)
    scale = -0.5 * eps

    def kick(x):
        return a + kinetic._scaled_force(state, x, scale)

    return kick


def _drift_map(kinetic, q0, p0, u0, lam_p0, s):
    # y -> q0 + s/2 (u0 + grad_p(y, p0)) over a drift of length s.  What does
    # not depend on y, c = q0 + s/2 u0, is computed once per solve; an
    # iterate applies Lam(y) to p0 from the segment's lam p0, scales it by
    # the profile's slope and builds no metric state.
    half_s = 0.5 * s
    c = q0 + half_s * u0
    field = kinetic.field

    def drift(y):
        w = field._lam_dot_at(y, p0, lam_p0)
        return c + (half_s * kinetic._slope(p0, w)) * w

    return drift


def _reflect(model, kinetic, q0, p0, u0, lam_p0, s_end, c_start, c_end, config):
    # The drift segment q0 -> path(s_end) has an end scan c_end with some
    # C <= 0: find its earliest crossing, ties broken by constraint index,
    # and reflect p0 there.  path(s) solves y = q0 + s/2 (u0 + grad_p(y, p0)),
    # explicit on a constant field (lam_p0 None).  c_start holds the
    # constraint values at q0 when a scan has read them.  Returns the landing
    # q, the reflected p and the s advanced.
    def path(s):
        if s <= 0.0:
            return q0
        y = q0 + s * u0
        if lam_p0 is not None:
            y = _solve(_drift_map(kinetic, q0, p0, u0, lam_p0, s), y, config, "position")
        return y

    hits = []
    for k, c_k in enumerate(c_end):
        if not c_k > 0.0:
            value = model.constraints[k].value
            c_0 = float(value(q0)) if c_start is None else c_start[k]
            s_k = _find_crossing(lambda s, v=value: float(v(path(s))), s_end, c_0, c_k,
                                 config.reflection_tol)
            hits.append((s_k, k))
    s_hit, k = min(hits)
    q = path(s_hit) if s_hit > 0.0 else q0
    dc = np.asarray(model.constraints[k].grad(q), dtype=float)
    return q, reflect_momentum(p0, dc, kinetic.lambda_at(q)), s_hit


def _trajectory(model, kinetic, q, p, point, config):
    # config.num_steps steps of implicit kick, reflective drift and explicit
    # kick from (q, p) and the point (dV, state) at q; returns the end q, p
    # and point, and the number of reflections.  On a constant field
    # grad_q = 0 and grad_p does not depend on q, so the kick and the drift
    # are explicit, the field's one state serves every point, and a step is
    # the plain leapfrog.  The constraint
    # values that a step's end scan reads are those at the next step's start.
    eps = config.step_size
    half_eps = 0.5 * eps
    implicit = kinetic.position_dependent
    gradient = model.gradient
    grad_p = kinetic.grad_p
    values = tuple(con.value for con in model.constraints)
    dv, state = point
    lam_p = c_start = None
    count = 0
    for _ in range(config.num_steps):
        if implicit:
            kick = _kick_map(kinetic, p, dv, state, eps)
            p = _solve(kick, kick(p), config, "momentum")
        else:
            p = p - half_eps * dv
        remaining, reflections = eps, 0
        while True:
            # one drift segment over what remains of the step; on a graph
            # field u0 = grad_p(state, p) comes from the lam p its iterates share
            if implicit:
                lam_p = state.base.dot(p)
                u0 = kinetic._momentum_grad(p, _rank1_dot(lam_p, state.grad_up, state.denom, p))
                q_end = _solve(_drift_map(kinetic, q, p, u0, lam_p, remaining),
                               q + remaining * u0, config, "position")
            else:
                u0 = grad_p(state, p)
                q_end = q + remaining * u0
            # a finite q.q shows every entry finite; only when it is not
            # (an entry is not finite, or the sum overflows) are the entries
            # checked one by one
            if not (math.isfinite(q_end.dot(q_end)) or np.isfinite(q_end).all()):
                raise DivergenceError("non-finite position during integration")
            c_end = [float(value(q_end)) for value in values]
            for c in c_end:
                if not c > 0.0:
                    break
            else:
                # the scan shows q_end strictly feasible: the step's drift ends
                q, c_start, feasible = q_end, c_end, True
                break
            reflections += 1
            if reflections > config.reflection_max_events:
                raise DivergenceError(
                    f"more than {config.reflection_max_events} reflections in one step"
                )
            q, p, s_hit = _reflect(
                model, kinetic, q, p, u0, lam_p, remaining, c_start, c_end, config
            )
            c_start = None
            remaining -= s_hit
            if remaining <= 0.0:
                feasible = False
                break
            if implicit:
                state = kinetic.field.state_at(q)
        count += reflections
        if implicit:
            dv, state = _point(model, kinetic, q, feasible)
            p = p - half_eps * (dv + kinetic.grad_q(state, p))
        else:
            dv = np.asarray(gradient(q), dtype=float) if feasible else potential_grad(model, q)
            p = p - half_eps * dv
    return q, p, (dv, state), count


def generalized_leapfrog_step(
    model: TargetModel,
    kinetic,
    q,
    p,
    step_size: float,
    fp_tol: float = 1e-10,
    fp_max_iter: int = 100,
):
    """One implicit kick / implicit drift / explicit kick step, with reflections.

    The symmetric composition makes the map second order and reversible up to
    the fixed-point tolerance; with a constant metric every implicit equation
    becomes explicit and the step reduces to the plain leapfrog.
    """
    q = as_position(q, model.n)
    p = as_position(p, model.n)
    config = IntegratorConfig(step_size, 1, fp_tol=fp_tol, fp_max_iter=fp_max_iter)
    with np.errstate(over="ignore", invalid="ignore"):
        return _trajectory(model, kinetic, q, p, _point(model, kinetic, q), config)[:2]


def integrate(model: TargetModel, kinetic, state: PhaseState, config: IntegratorConfig) -> Trajectory:
    """Run num_steps leapfrog steps, reflecting off constraints.

    The Hamiltonian is evaluated only at the two ends, the values the
    Metropolis test reads.  ``state.energy`` and ``state.point``, when given,
    are trusted: they are taken as H(q, p) and as the point at q, and are not
    evaluated again; a finite energy shows q feasible.  Without an energy, q
    is scanned once for V, and H is read from the given point or from the one
    point built there, which the first step then starts from.  The final state
    carries H and the point at the endpoint, and the trajectory V there, so
    a chain can start its next transition from it.
    Raises UsageError when the initial state has infinite energy and
    DivergenceError when the trajectory fails numerically, including a step
    that evaluates the model at an infeasible point.
    """
    q = as_position(state.q, model.n)
    p = as_position(state.p, model.n)
    h0, point = state.energy, state.point
    if h0 is None:
        # H = V + T from one scan and one point at q, the point kept for the
        # first step
        v, point = _start(model, kinetic, q, point)
        h0 = v + kinetic.energy(point[1], p)
    if not math.isfinite(h0):
        raise UsageError(_START_REFUSED)
    # blowups surface as a divergence signal, not as numpy warnings; a
    # non-finite q is caught by the drift, a non-finite p by the next kick's
    # drift or momentum solve, or by the final energy
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if point is None:
                point = _point(model, kinetic, q, feasible=True)
            q, p, point, count = _trajectory(model, kinetic, q, p, point, config)
        except (ConstraintViolationError, GeometryError, NumericError) as exc:
            raise DivergenceError(str(exc)) from exc
        # q is finite and strictly feasible: the last step's drift scan or
        # its gradient evaluation showed it
        v = float(model.potential(q))
        h = v + kinetic.energy(point[1], p)
    if not math.isfinite(h):
        raise DivergenceError("non-finite energy during integration")
    return Trajectory(
        state=PhaseState(q=q, p=p, energy=float(h), point=point),
        potential=v,
        reflection_count=count,
    )


def volume_check(
    model: TargetModel,
    kinetic,
    q,
    p,
    step_size: float,
    h: float = 1e-6,
    fp_tol: float = 1e-14,
    fp_max_iter: int = 500,
) -> float:
    """|det J - 1| for the Jacobian of one integrator step at (q, p).

    The 2n x 2n Jacobian is built column by column from central differences
    with perturbation h; the state must sit in an unconstrained neighborhood.
    Implicit steps are solved to fp_tol so the differencing noise stays well
    below the h-scale signal.
    """
    q = as_position(q, model.n)
    p = as_position(p, model.n)
    n = model.n

    def step_map(z):
        q2, p2 = generalized_leapfrog_step(
            model, kinetic, z[:n], z[n:], step_size, fp_tol, fp_max_iter
        )
        return np.concatenate([q2, p2])

    z0 = np.concatenate([q, p])
    jac = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        zp = z0.copy()
        zm = z0.copy()
        zp[i] += h
        zm[i] -= h
        jac[:, i] = (step_map(zp) - step_map(zm)) / (2.0 * h)
    return abs(float(np.linalg.det(jac)) - 1.0)
