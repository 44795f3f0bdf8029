"""Symplectic integration of the sampling dynamics, with boundary reflections.

One trajectory loop, ``integrate``, runs every step for both kinetic
families: the generalized leapfrog, whose first half-kick and drift are, on
a position-dependent field, implicit equations solved by fixed-point
iteration until successive iterates agree within ``fp_tol`` in the max norm.
For a separable Hamiltonian they are explicit, and the step is the plain
kick-drift-kick leapfrog; a trajectory of them runs as the textbook
leapfrog, whose two half-kicks at each interior point are one kick by
eps dV.  ``generalized_leapfrog_step`` is ``integrate`` with one step.  The
step is a symmetric second-order map, hence reversible and
volume-preserving, which is what the Metropolis correction in the sampler
assumes.

Each point is evaluated once, as the potential gradient and the field's
metric state there: a step starts from the point its predecessor ended on,
``integrate`` starts from the point its caller passes in, and the end point
goes back with the final state and V there, read without a further
constraint scan.  Non-finite values are caught before they reach the model.

Strict inequality constraints C > 0 are handled inside the drift.  When a
drift ends with some C <= 0, a bracketed secant search (Illinois regula
falsi) finds the earliest crossing, aiming at the middle of the band
0 < C <= 1e-10, the momentum reflects through Delta p = -2 (n, p)_Lam n with
n the unit constraint normal under (a, b)_Lam = a.Lam b, and the drift goes
on over what remains of the step.  On a constant field a drift runs along
Lam p at the speed factor 2 f'(p.Lam p) of the kinetic's profile; a
reflection conserves p.Lam p, so a step reads that factor once and keeps it
through every wall it meets.  Aiming at one level set inside the band,
not at the root, lands on a linear wall at the same place on the way out and
on the way back, which keeps the reflective step reversible.  The reflection
conserves every kinetic energy built on p.Lam p exactly.  A NaN constraint
value ends the trajectory.  Crossings are found only at drift-substep
endpoints, so a substep can tunnel through an excluded region that it enters
and leaves again.  Feasibility is decided here alone, at a trajectory's
start, end scans and crossing probes: a drift iterate may pass a wall.

On a position-dependent field a drift whose end lies past a wall is a
divergence, not a reflection.  The step's half-kicks balance the volume
change of the whole implicit drift; split at a crossing, the two parts no
longer match them, and a reflected graph step moves |det J - 1| by about
1e-2 (the wall cells of ``ghmc verify``'s volume row).

Numerical failures (non-convergent implicit solves, too many reflections in
one step, a graph drift past a wall, a degenerate normal, non-finite or
NaN values) raise DivergenceError from ``integrate``; the sampler treats that
as an automatic rejection, equivalent to proposing a state of infinite
energy.
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
    return _mirror(p, dc, np.asarray(lam, dtype=float).dot(dc))


def _mirror(p, dc, lam_dc):
    # p - 2 (lam_dc.p / dc.lam_dc) dc, for float arrays p, dc and
    # lam_dc = Lam dc: reflect_momentum and a step's reflection both end here
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
    # as _trajectory checks q, under integrate's errstate, and then a finite d
    # shows the next iterate finite.
    tol, n = config.fp_tol, x.size
    done, going = -1.0, math.inf
    if 1e-100 <= tol <= 1e100:  # else tol^2 may underflow or overflow
        m = n * 2.0**-50
        done, going = tol * tol * (1.0 - m), n * tol * tol * (1.0 + m)
    if math.isfinite(x.dot(x)) or np.isfinite(x).all():
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
_GRAPH_CROSSING = "a graph drift ended past a wall, where a reflection does not preserve volume"


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
    # halving that compounds: the k-th probe in a row that moves the same end
    # scales the other end's f by 2^-(k-1).  On a flat root, C ~ (r - s)^3,
    # f at the moving end falls faster than plain halving, and the probes
    # creep toward the root from one side; the compounded factor outruns any
    # geometric fall.  The stop test reads the true c_lo.  A NaN value is
    # neither side of the wall, so it ends the trajectory.
    if math.isnan(c_lo) or math.isnan(c_hi):
        raise DivergenceError(_NAN_CONSTRAINT)
    target = 0.5 * _REFLECTION_TOL
    lo, hi = 0.0, s_hi
    f_lo, f_hi = c_lo - target, c_hi - target
    run = 0  # probes in a row that moved lo (> 0) or hi (< 0)
    for _ in range(_CROSSING_MAX_ITER):
        if c_lo <= _REFLECTION_TOL or math.nextafter(lo, hi) >= hi:
            break
        s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        c = c_fun(s)
        if c > 0.0:
            lo, c_lo, f_lo = s, c, c - target
            run = max(run, 0) + 1
            f_hi *= 0.5 ** (run - 1)
        elif c <= 0.0:
            hi, f_hi = s, c - target
            run = min(run, 0) - 1
            f_lo *= 0.5 ** (-1 - run)
        else:
            raise DivergenceError(_NAN_CONSTRAINT)
    return lo


def _reflect(model, q0, p0, u0, s_end, c_start, c_end, state):
    # The constant-field drift segment q0 -> q0 + s_end u0 has an end scan
    # c_end with some C <= 0: find its earliest crossing, ties broken by
    # constraint index, and reflect p0 there: the searches run in index
    # order, and a later one replaces the earliest only when strictly
    # earlier.  The landing q is the probe that the search returns (q0 at
    # s = 0), the last with C > 0, since each such probe moves the search's
    # feasible end.  c_start holds the constraint values at q0 when a scan has
    # read them, and state is the field's one state, whose operator gives the
    # reflection Lam dc.  Returns the landing q, the reflected p and the s
    # advanced.
    value = landing = None

    def c_at(s):
        nonlocal landing
        y = q0 + s * u0
        c = float(value(y))
        if c > 0.0:
            landing = y
        return c

    s_hit = math.inf
    for k, c_k in enumerate(c_end):
        if not c_k > 0.0:
            value, landing = model.constraints[k].value, q0
            c_0 = float(value(q0)) if c_start is None else c_start[k]
            s_k = _find_crossing(c_at, s_end, c_0, c_k)
            if s_k < s_hit:
                s_hit, q, hit = s_k, landing, k
    dc = np.asarray(model.constraints[hit].grad(q), dtype=float)
    return q, _mirror(p0, dc, state.lam_dot(dc)), s_hit


def _trajectory(model, kinetic, q, p, point, config):
    # config.num_steps steps of implicit kick, reflective drift and explicit
    # kick from (q, p) and the point (dV, state) at q; returns the end q, p
    # and point, and the number of reflections.  The loop's invariants:
    # - what a trajectory does not change is bound once: eps/2 and eps, as
    #   0-d float64 arrays that NumPy multiplies into dV without converting a
    #   Python float (same bits), eps Lam, the model's gradient, the kinetic's
    #   direction and the constraint values;
    # - on a constant field grad_q = 0 and grad_p does not depend on q, so
    #   the kick and the drift are explicit, the end half-kick of a step and
    #   the start half-kick of the next are one kick by eps dV at the point
    #   between them, and the field's one state serves every point, a
    #   reflection's landing point included, so no state is built;
    # - on a constant field a drift moves along Lam p at one speed 2 f'
    #   (p.Lam p), read once per step from one _direction call (1 for the
    #   Gaussian profile) and kept through the step's reflections, which
    #   conserve p.Lam p: the drift is q + (eps 2f') Lam p, and u0 = 2f' Lam p
    #   is formed only when a reflection needs it;
    # - on a graph field the kick and each drift are fixed-point solves of
    #   the kinetic's force and drift maps, and u0 = 2f' Lam(q) p and the
    #   lam p its drift iterates share come from one _direction call;
    # - a step drifts over the whole step first, and only an end scan with
    #   some C <= 0 goes on: to a divergence on a graph field, else to
    #   _reflect and a drift over what remains; a reflection lands on a
    #   crossing probe and applies the field's one Lam to the normal as an
    #   operator;
    # - a drift's end is checked finite before its scan, and the values that
    #   a step's end scan reads are those at the next step's start;
    # - _find_crossing keeps s_hit below what remains of the step, so a step
    #   ends only where its end scan showed q strictly feasible, and the end
    #   kick reads dV there without a scan.
    eps = config.step_size
    half_eps = 0.5 * eps
    half, full = np.array(half_eps), np.array(eps)  # the separable kicks' factors
    implicit = kinetic.position_dependent
    gradient, direction = model.gradient, kinetic._direction
    values = tuple(con.value for con in model.constraints)
    dv, state = point
    eps_lam = eps * state.base if not implicit and kinetic.nu == math.inf else None
    slope, lam_p = 1.0, None  # the Gaussian speed factor; Lam p is not kept
    if not implicit:
        p = p - half * dv
    c_start = None
    count = 0
    steps = config.num_steps
    for k in range(1, steps + 1):
        if implicit:
            # x -> p - eps/2 (dV + grad_q(state, x)) at the step's fixed q
            kick = kinetic._force_map(state, p - half_eps * (dv + state.dlogdet), -half_eps)
            p = _solve(kick, kick(p), config, "momentum")
        if eps_lam is not None:
            u0, q_end = None, q + eps_lam.dot(p)
        elif implicit:
            slope, w, lam_p = direction(state, p)
            u0 = slope * w
            drift = kinetic._drift_map(q, p, u0, lam_p, eps)
            q_end = _solve(drift, q + eps * u0, config, "position")
        else:
            # the step's one speed factor 2 f'; u0 = slope Lam p is formed
            # only when a reflection needs it
            slope, lam_p, _ = direction(state, p)
            u0, q_end = None, q + (eps * slope) * lam_p
        remaining, reflections = eps, 0
        while True:
            # a finite q.q shows every entry finite; only when it is not
            # (an entry is not finite, or the sum overflows) are the entries
            # checked one by one
            if not (math.isfinite(q_end.dot(q_end)) or np.isfinite(q_end).all()):
                raise DivergenceError("non-finite position during integration")
            if not values:
                break
            c_end = [float(value(q_end)) for value in values]
            for c in c_end:
                if not c > 0.0:
                    break
            else:
                # the scan shows q_end strictly feasible: the step's drift ends
                c_start = c_end
                break
            if implicit:
                raise DivergenceError(_GRAPH_CROSSING)
            reflections += 1
            if reflections > _REFLECTION_MAX_EVENTS:
                raise DivergenceError(
                    f"more than {_REFLECTION_MAX_EVENTS} reflections in one step"
                )
            if u0 is None:
                u0 = slope * (state.base_dot(p) if lam_p is None else lam_p)
            q, p, s_hit = _reflect(model, q, p, u0, remaining, c_start, c_end, state)
            c_start = None
            remaining -= s_hit
            # a reflection conserves p.Lam p, so the drift keeps its speed
            u0 = slope * state.base_dot(p)
            q_end = q + remaining * u0
        count += reflections
        q = q_end
        if implicit:
            dv, state = _point(model, kinetic, q)
            p = p - half_eps * (dv + kinetic.grad_q(state, p))
        else:
            dv = np.asarray(gradient(q), dtype=float)
            # an interior point's two half-kicks, end and start, as one kick
            p = p - (full if k < steps else half) * dv
    return q, p, (dv, state), count


def generalized_leapfrog_step(model: TargetModel, kinetic, q, p, step_size: float):
    """One implicit kick / implicit drift / explicit kick step, with reflections.

    The symmetric composition makes the map second order and reversible up to
    the fixed-point tolerance; with a constant metric every implicit equation
    becomes explicit and the step reduces to the plain leapfrog.  Returns the
    end (q, p) of ``integrate`` over one step, and raises as it does.
    """
    end = integrate(model, kinetic, PhaseState(q, p), IntegratorConfig(step_size, 1)).state
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
    DivergenceError when the trajectory fails numerically.
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

