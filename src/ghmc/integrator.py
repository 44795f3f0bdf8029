"""Symplectic integration of the sampling dynamics, with boundary reflections.

One trajectory loop runs every step, for both kinetic families: the
generalized leapfrog, whose first half-kick and drift are implicit equations
solved by fixed-point iteration.  For a position-independent kinetic energy
(a separable Hamiltonian) those equations are explicit, and the loop takes
the plain kick-drift-kick leapfrog step inline: p - k, with k = eps/2 dV
formed once per point for the two half-kicks that meet there; the drift
q + (eps Lam) p over a whole step of a Gaussian profile, q + s u0 with
u0 = grad_p otherwise; a finite check; one scan of the constraints at the
drift's end, if the model has any; dV there and the second half-kick.  What
a trajectory does not change (eps/2, Lam, eps Lam, the model's gradient, the
constraint values and a constant field's one metric state) is bound once per
trajectory, so a constant field builds a metric state only where a
reflection asks for Lam.  ``integrate`` is the loop's one entry, and
``generalized_leapfrog_step`` is ``integrate`` with one step.  The step is a
symmetric second-order map, hence reversible and volume-preserving, which is
what the Metropolis correction in the sampler assumes.

Each point is evaluated once, as the potential gradient and the field's
metric state there (a graph field's state carries the gradient): a step
starts from the point its predecessor ended on, and ``integrate`` starts from
the point its caller passes in, which for a chain is the point it holds.  The
end point goes back with the final state, and V there is read without a
further constraint scan.

On a graph field the first half-kick and each drift, in a step or a crossing
probe, are fixed-point solves of the kinetic's force and drift maps; the
segment's direction u0 = grad_p and the lam p that the drift's iterates share
come from one ``Kinetic._direction`` call, and ``_solve`` iterates and stops.
Non-finite values are caught where they would first reach the model: a
fixed-point solve checks its first iterate and then only the change between
iterates, a drift checks its end position before scanning the constraints
there, and a non-finite momentum left by the last kick makes the final energy
non-finite.  A scan that finds every constraint positive at the end of a
step is its feasibility check.

Strict inequality constraints are handled inside the drift.  Only when the
end scan finds a constraint C <= 0 does the reflective drift run, from that
segment's direction, end point and scan values; the values a step's end scan
read are C at the next step's start, where a crossing search starts.  A NaN
constraint value, at the end scan or at a search probe, is neither feasible
nor past the wall and ends the trajectory.  When a constraint function
changes sign across a drift substep, the crossing is located by a bracketed
secant search (Illinois regula falsi) that aims at the middle of the band
0 < C <= 1e-10, so the trajectory advances to just inside the boundary, and
the momentum reflects through Delta p = -2 (n, p)_Lam n with n the unit
constraint normal under the inverse-metric inner product (a, b)_Lam = a.Lam b.
Aiming at one level set inside the band, and not at the root, also puts the
landing point on a linear wall at the same place on the way out and on the
way back, which keeps the reflective step reversible.
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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, UsageError
from .model import TargetModel, _is_integer, as_position, potential_eval

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
    """Step size, step count, and the tolerance and iterate budget of implicit solves."""

    step_size: float
    num_steps: int
    fp_tol: float = 1e-10
    fp_max_iter: int = 100

    def __post_init__(self):
        for name in ("step_size", "fp_tol"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise UsageError(f"{name} must be a real number, got {value!r}")
        # written as "not 0 < x < inf" so that NaN is refused too
        if not 0.0 < self.step_size < math.inf:
            raise UsageError("step_size must be positive and finite")
        for name in ("num_steps", "fp_max_iter"):
            if not _is_integer(getattr(self, name)):
                raise UsageError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.num_steps < 1:
            raise UsageError("num_steps must be at least 1")
        if not 0.0 < self.fp_tol < math.inf:
            raise UsageError("fp_tol must be positive and finite")
        if self.fp_max_iter < 1:
            raise UsageError("fp_max_iter must be at least 1")


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


def _point(model, kinetic, q):
    # (dV, field state) at a q that the caller has shown strictly feasible:
    # all that a kick or a drift reads at a point.  A graph field's state
    # carries dV.
    state = kinetic.field.state_at(q, with_hessian=kinetic.position_dependent)
    if state.grad is not None:
        return state.grad, state
    return np.asarray(model.gradient(q), dtype=float), state


def _start(model, kinetic, q, point=None):
    # (V, point) at the start of a trajectory or a chain, which must be
    # feasible with finite V; a given point is trusted and not built again
    v = potential_eval(model, q)
    if not math.isfinite(v):
        raise UsageError(_START_REFUSED)
    if point is None:
        point = _point(model, kinetic, q)
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
        raise DivergenceError("constraint normal has non-positive norm under the inverse metric")
    return p - (2.0 * float(lam_dc.dot(p)) / norm2) * dc


def _solve(update, x, config, what):
    # iterate x = update(x) from the first iterate x until successive iterates
    # agree within fp_tol in the max norm.  With the rounding margin
    # m = n 2^-50, the change d has max|d| <= tol if d.d <= tol^2 (1 - m), and
    # is finite with max|d| > tol if n tol^2 (1 + m) < d.d < inf; max|d|
    # decides the rest.  Only finite iterates reach update: x is checked once,
    # and then a finite d shows the next iterate finite.
    tol, n = config.fp_tol, x.size
    done, going = -1.0, math.inf
    if 1e-100 <= tol <= 1e100:  # else tol^2 may underflow or overflow
        m = n * 2.0**-50
        done, going = tol * tol * (1.0 - m), n * tol * tol * (1.0 + m)
    if np.isfinite(x).all():
        for _ in range(config.fp_max_iter):
            x_new = update(x)
            d = x_new - x
            dd = float(d.dot(d))
            if dd <= done:
                return x_new
            if not going < dd < math.inf:
                delta = float(np.maximum.reduce(np.abs(d)))
                if delta <= tol:
                    return x_new
                if not math.isfinite(delta):
                    break
            x = x_new
    raise DivergenceError(f"implicit {what} update did not converge")


_CROSSING_MAX_ITER = 120
_REFLECTION_TOL = 1e-10  # a crossing lands where 0 < C <= _REFLECTION_TOL
_REFLECTION_MAX_EVENTS = 8  # more reflections in one step are a divergence
_NAN_CONSTRAINT = "a constraint value is NaN"


def _find_crossing(c_fun, s_hi, c_lo, c_hi):
    # c_lo = c_fun(0) > 0 >= c_hi = c_fun(s_hi); return s on the feasible side
    # with 0 < C <= tol = _REFLECTION_TOL.  Illinois regula falsi on [lo, hi],
    # each probe aimed at C = tol/2, the middle of the band: a probe aimed at
    # the root lands on the infeasible side about half the time, the feasible
    # end then never moves, and the search stalls.  On a wall linear in s the
    # first probe lands in the band, unless the wall is steeper than
    # tol/ulp(s): then no float s has C in the band, and the search returns
    # the feasible end, with C above tol, once no float lies strictly inside
    # (lo, hi).  A secant step that rounds onto an end falls back to
    # bisection.  f_lo and f_hi are the bracket's C - tol/2, with Illinois
    # halving; the stop test reads the true c_lo.  A NaN value is neither side
    # of the wall, so it ends the trajectory.
    if math.isnan(c_lo) or math.isnan(c_hi):
        raise DivergenceError(_NAN_CONSTRAINT)
    target = 0.5 * _REFLECTION_TOL
    lo, hi = 0.0, s_hi
    f_lo, f_hi = c_lo - target, c_hi - target
    kept = 0  # which end the last probe moved: +1 lo, -1 hi
    for _ in range(_CROSSING_MAX_ITER):
        if c_lo <= _REFLECTION_TOL or math.nextafter(lo, hi) >= hi:
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


def _drift(kinetic, q0, p0, u0, lam_p0, s, config):
    # q after a drift over s from (q0, p0), u0 = grad_p(q0, p0): q0 + s u0 on a
    # constant field (lam_p0 None), else kinetic._drift_map's root solved from it
    y = q0 + s * u0
    if lam_p0 is not None:
        y = _solve(kinetic._drift_map(q0, p0, u0, lam_p0, s), y, config, "position")
    return y


def _reflect(model, kinetic, q0, p0, u0, lam_p0, s_end, c_start, c_end, config):
    # The drift segment q0 -> path(s_end) has an end scan c_end with some
    # C <= 0: find its earliest crossing, ties broken by constraint index,
    # and reflect p0 there.  path(s) is the drift's q at s.  c_start holds
    # the constraint values at q0 when a scan has read them.  Returns the
    # landing q, the reflected p, the s advanced and the field's state at q,
    # whose lam the reflection used.
    def path(s):
        return _drift(kinetic, q0, p0, u0, lam_p0, s, config)

    hits = []
    for k, c_k in enumerate(c_end):
        if not c_k > 0.0:
            value = model.constraints[k].value
            c_0 = float(value(q0)) if c_start is None else c_start[k]
            s_k = _find_crossing(lambda s, v=value: float(v(path(s))), s_end, c_0, c_k)
            hits.append((s_k, k))
    s_hit, k = min(hits)
    q = path(s_hit) if s_hit > 0.0 else q0
    dc = np.asarray(model.constraints[k].grad(q), dtype=float)
    state = kinetic.field.state_at(q)
    return q, reflect_momentum(p0, dc, state.lam), s_hit, state


def _trajectory(model, kinetic, q, p, point, config):
    # config.num_steps steps of implicit kick, reflective drift and explicit
    # kick from (q, p) and the point (dV, state) at q; returns the end q, p
    # and point, and the number of reflections.  On a constant field
    # grad_q = 0 and grad_p does not depend on q, so the kick and the drift
    # are explicit, the field's one state serves every point, and a step is
    # the plain leapfrog.  The constraint values that a step's end scan reads
    # are those at the next step's start.  _find_crossing keeps s_hit below
    # what remains of the step, so a step ends only where its end scan showed
    # q strictly feasible, and the end kick reads dV there without a scan.
    eps = config.step_size
    half_eps = 0.5 * eps
    implicit = kinetic.position_dependent
    gradient = model.gradient
    values = tuple(con.value for con in model.constraints)
    dv, state = point
    lam = state.base
    eps_lam = eps * lam if not implicit and kinetic.nu == math.inf else None
    half_kick = half_eps * dv
    lam_p = c_start = None
    count = 0
    for _ in range(config.num_steps):
        if implicit:
            # x -> p - eps/2 (dV + grad_q(state, x)) at the step's fixed q
            kick = kinetic._force_map(state, p - half_eps * (dv + state.dlogdet), -half_eps)
            p = _solve(kick, kick(p), config, "momentum")
        else:
            p = p - half_kick
        remaining, reflections = eps, 0
        while True:
            # one drift segment over what remains of the step
            if eps_lam is None or reflections:
                u0, lam_p = kinetic._direction(state, p)
                q_end = _drift(kinetic, q, p, u0, lam_p, remaining, config)
            else:
                # u0 = Lam p is formed only when a reflection needs it
                u0, q_end = None, q + eps_lam.dot(p)
            # a finite q.q shows every entry finite; only when it is not
            # (an entry is not finite, or the sum overflows) are the entries
            # checked one by one
            if not (math.isfinite(q_end.dot(q_end)) or np.isfinite(q_end).all()):
                raise DivergenceError("non-finite position during integration")
            c_end = [float(value(q_end)) for value in values] if values else values
            for c in c_end:
                if not c > 0.0:
                    break
            else:
                # the scan shows q_end strictly feasible: the step's drift ends
                q, c_start = q_end, c_end
                break
            reflections += 1
            if reflections > _REFLECTION_MAX_EVENTS:
                raise DivergenceError(
                    f"more than {_REFLECTION_MAX_EVENTS} reflections in one step"
                )
            q, p, s_hit, state = _reflect(model, kinetic, q, p, lam.dot(p) if u0 is None else u0,
                                          lam_p, remaining, c_start, c_end, config)
            c_start = None
            remaining -= s_hit
        count += reflections
        if implicit:
            dv, state = _point(model, kinetic, q)
            p = p - half_eps * (dv + kinetic.grad_q(state, p))
        else:
            dv = np.asarray(gradient(q), dtype=float)
            half_kick = half_eps * dv
            p = p - half_kick
    return q, p, (dv, state), count


def generalized_leapfrog_step(
    model: TargetModel,
    kinetic,
    q,
    p,
    step_size: float,
    fp_tol: float = IntegratorConfig.fp_tol,
):
    """One implicit kick / implicit drift / explicit kick step, with reflections.

    The symmetric composition makes the map second order and reversible up to
    the fixed-point tolerance; with a constant metric every implicit equation
    becomes explicit and the step reduces to the plain leapfrog.  Returns the
    end (q, p) of ``integrate`` over one step, and raises as it does.
    """
    config = IntegratorConfig(step_size, 1, fp_tol=fp_tol)
    end = integrate(model, kinetic, PhaseState(q, p), config).state
    return end.q, end.p


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
        if point is None:
            point = _point(model, kinetic, q)
        q, p, point, count = _trajectory(model, kinetic, q, p, point, config)
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
) -> float:
    """|det J - 1| for the Jacobian of one integrator step at (q, p).

    The 2n x 2n Jacobian is built column by column from central differences
    with perturbation h = 1e-6; the state must sit in an unconstrained
    neighborhood.  Implicit steps are solved to 1e-14, so the differencing
    noise stays well below the h-scale signal.
    """
    q = as_position(q, model.n)
    p = as_position(p, model.n)
    n, h = model.n, 1e-6

    def step_map(z):
        q2, p2 = generalized_leapfrog_step(model, kinetic, z[:n], z[n:], step_size, 1e-14)
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
