"""Kinetic energies compatible with a Metropolis-corrected Hamiltonian kernel.

Each is a scalar profile f of the quadratic form s(q, p) = p.Lam(q) p of an
inverse-metric field, normalized by -log|Lam(q)|/2 so that the momentum
conditional exp(-T(q, .)) integrates to a position-independent constant:

    Student-t:  T = (nu+n)/2 log(1 + s/nu) - log|Lam|/2   p | q ~ t_nu
    Gaussian:   T = s/2 - log|Lam|/2  (nu -> inf)         p | q ~ N(0, Lam^{-1})

T is even in p with odd momentum gradient, which is what the reversible
transition kernel requires.  Both derivatives follow from f' alone,
grad_p = 2 f' Lam p and grad_q = f' ds/dq + d(log|Sigma|/2)/dq, and the
conditional is drawn exactly: a Gaussian, over a chi-square scale for finite nu.

T depends on q only through Lam(q), so energy and both gradients take the
field's state at q (with its Hessian, for grad_q on a moving field) and p.
Energy and grad_p compute w = Lam p once, through the state's operator, and
read s = p.w from it.  On a graph state the position force has one home,
``_force_map``, a closure x, offset -> offset + scale f'(s) ds/dq over the
state's arrays: grad_q is it at scale 1 with the log-determinant term as
offset, and the integrator builds one at scale -eps/2 per graph point, whose
end kick and next implicit kick share it.
The implicit drift iterates ``_drift_map``, a closure y -> c + s/2 grad_p(y, p0)
that reads the field's raised gradient at y and scalars of the segment's
lam p0, and ``_direction`` gives a segment's 2 f' and Lam(q0) p0, whose
product is u0 = grad_p(q0, p0), with that lam p0, so every use of f' stays in
this module.  Each map ends its iterates in one product by 2 rows of its
own, after one product by the state's stacked [H; g] (a kick) or the raised
gradient (a drift); each iterate is a new array.
"""

import math
import numbers

import numpy as np

from .errors import DivergenceError, UsageError, ValidationError
from .metric import ConstantMetric, GraphMetric, _pass_through, _rank1_dot

__all__ = ["Kinetic", "euclidean_quadratic", "riemannian_quadratic", "student_t"]


class Kinetic:
    """Student-t profile with ``nu`` degrees of freedom; nu = inf is the Gaussian."""

    def __init__(self, field, nu: float = math.inf):
        if not isinstance(nu, numbers.Real) or isinstance(nu, bool):
            raise ValidationError(f"degrees of freedom nu must be a real number, got {nu!r}")
        nu = float(nu)
        if not nu > 0.0:
            raise ValidationError(f"degrees of freedom must be positive, got {nu}")
        self.field = field
        self.n = field.n
        self.nu = nu

    @property
    def position_dependent(self) -> bool:
        return self.field.position_dependent

    def _slope(self, p, w, scale=1.0) -> float:
        # 2 f'(s) with s = scale p.w, the factor of w = Lam p in grad_p; a
        # constant-field drift in units of P = p/eps reads it at scale eps^2
        if self.nu == math.inf:
            return 1.0
        return (self.nu + self.n) / (self.nu + scale * float(w.dot(p)))

    def energy(self, state, p) -> float:
        s = float(state.lam_dot(p).dot(p))
        if s < 0.0:
            # p.Lam p cancelled below 0, as it can on an ill-conditioned graph
            # Lam: an energy that the sampler reads as a rejection
            return math.inf
        if self.nu == math.inf:
            f = 0.5 * s
        else:
            f = 0.5 * (self.nu + self.n) * math.log1p(s / self.nu)
        return f + 0.5 * state.logdet_sigma

    def grad_p(self, state, p) -> np.ndarray:
        w = state.lam_dot(p)
        return self._slope(p, w) * w

    def _direction(self, state, p, scale=1.0):
        # (2 f', w, lam p) at a drift segment's start: its direction
        # u0 = grad_p(state, p) is 2 f' w with w = Lam(q) p, and lam p = base p
        # is the background product that a graph drift's iterates share, w
        # itself on a constant state, whose 2 f' is read from scale p.w
        lam_p = state.base_dot(p)
        if state.grad_up is None:
            return self._slope(p, lam_p, scale), lam_p, lam_p
        w = _rank1_dot(lam_p, state.grad_up, state.denom, p)
        return self._slope(p, w), w, lam_p

    def grad_q(self, state, p) -> np.ndarray:
        # on the graph field, in O(n^2): the p-dependent part f' ds/dq plus
        # d(log|Sigma|/2)/dq = H grad_up / denom, the state's dlogdet
        if not self.position_dependent:
            return np.zeros(self.n)
        if state.hessian is None:
            raise UsageError("grad_q needs a metric state built with_hessian=True")
        return self._force_map(state, 1.0)(np.asarray(p, dtype=float), state.dlogdet)

    def _force_map(self, state, scale):
        # x, offset -> offset + scale f'(s) ds/dq on a graph state with its
        # Hessian, where s = x.w, ds/dq = -2 (g.w) H w and w = Lam x.  With
        # z = lam x (x on the identity, bound once) and r = g.z = g_up.x,
        # Sherman-Morrison gives g.w = t = r / denom, H w = H z - r dlogdet and
        # s = x.z - r t: one product by the state's stacked [H; g] into the
        # map's row [Hz, r], a dot for the Student-t slope, and the 2-row
        # product (k, -k r).[Hz, r; dlogdet, 0], k = -scale 2f' t, onto offset.
        n, stacked, denom = self.n, state.stacked, state.denom
        lam_dot = None if state.base_dot is _pass_through else state.base_dot
        gaussian, nu, nu_n = self.nu == math.inf, self.nu, self.nu + self.n
        rows, coef = np.zeros((2, n + 1)), np.empty(2)
        rows[1, :n] = state.dlogdet
        hz_r = rows[0]

        def force(x, offset):
            z = x if lam_dot is None else lam_dot(x)
            stacked.dot(z, out=hz_r)
            r = float(hz_r[n])
            t = r / denom
            slope = 1.0 if gaussian else _t_slope(nu_n, nu + (float(x.dot(z)) - r * t))
            coef[0] = k = -scale * slope * t
            coef[1] = -k * r
            return offset + coef.dot(rows)[:n]
        return force

    def _drift_map(self, q0, p0, u0, lam_p0, s):
        # y -> q0 + s/2 (u0 + grad_p(y, p0)) over a drift of length s on a
        # graph field, u0 = grad_p(q0, p0).  At y, with r = g_up.p0 and
        # t = r / denom, Lam(y) p0 = lam p0 - t g_up and p0.Lam(y) p0 = s0 - r t,
        # where c = q0 + s/2 u0 and s0 = p0.lam p0 are computed once per solve.
        # An iterate reads the field's raised gradient at y, builds no state
        # and is c + (a, -a t).[lam p0; g_up], a = s/2 2f', one 2-row product
        # over the map's rows.
        half_s = 0.5 * s
        c = q0 + half_s * u0
        raised = self.field._raised_gradient
        gaussian, nu_n = self.nu == math.inf, self.nu + self.n
        nu_s0 = self.nu + float(lam_p0.dot(p0))
        rows, coef = np.empty((2, self.n)), np.empty(2)
        rows[0] = lam_p0

        def drift(y):
            _, g_up, denom = raised(y)
            r = float(g_up.dot(p0))
            t = r / denom
            slope = 1.0 if gaussian else _t_slope(nu_n, nu_s0 - r * t)
            rows[1] = g_up
            coef[0] = a = half_s * slope
            coef[1] = -a * t
            return c + coef.dot(rows)
        return drift

    def sample_momentum(self, q, rng) -> np.ndarray:
        """Exact draw: N(0, Lam^{-1}), over a chi-square scale for finite nu."""
        z = self.field.sample_gaussian(q, rng)
        if self.nu == math.inf:
            return z
        u = rng.chisquare(self.nu)
        # a scale that underflows to 0, as it can for a tiny nu, puts p at
        # infinity, where the sampler reads an infinite energy as a divergence
        return z * math.sqrt(self.nu / u) if u > 0.0 else z * math.inf

    def lambda_at(self, q) -> np.ndarray:
        """Inverse metric at q.

        The engine does not call it: a reflection applies the step state's
        Lam to the normal as an operator.
        It stays because the benchmark's tracer counts its calls.
        """
        return self.field.state_at(q).lam


def _t_slope(nu_n, d):
    # 2 f' = (nu + n) / d of the Student-t profile at d = nu + x.Lam(y) x.
    # In exact arithmetic d > nu; on a graph Lam it can cancel to d <= 0 when
    # dV is large or the background near-singular, and the iterate diverges.
    if not d > 0.0:
        raise DivergenceError("a Student-t quadratic form cancelled to a non-positive nu + p.Lam p")
    return nu_n / d


def _as_field(field_or_matrix):
    if isinstance(field_or_matrix, (ConstantMetric, GraphMetric)):
        return field_or_matrix
    return ConstantMetric(np.asarray(field_or_matrix, dtype=float))


def euclidean_quadratic(lam) -> Kinetic:
    """Gaussian kinetic with a constant SPD inverse metric (matrix or field)."""
    field = _as_field(lam)
    if field.position_dependent:
        raise UsageError("euclidean_quadratic requires a constant inverse metric")
    return Kinetic(field)


def riemannian_quadratic(field) -> Kinetic:
    """Gaussian kinetic driven by an inverse-metric field (constant or graph)."""
    return Kinetic(_as_field(field))


def student_t(field_or_matrix, nu: float = 5.0) -> Kinetic:
    """Heavy-tailed kinetic over a constant matrix or an inverse-metric field."""
    return Kinetic(_as_field(field_or_matrix), nu=nu)
