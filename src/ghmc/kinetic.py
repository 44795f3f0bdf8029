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
Each computes w = Lam p once, through the state's operator, and reads
s = p.w from it; grad_q adds the state's p-independent log-determinant term
to its p-dependent part, ``_scaled_force``, which the integrator's implicit
kick calls on its own at each iterate.
"""

import math

import numpy as np

from .errors import UsageError, ValidationError
from .metric import ConstantMetric, GraphMetric

__all__ = ["Kinetic", "euclidean_quadratic", "riemannian_quadratic", "student_t"]


class Kinetic:
    """Student-t profile with ``nu`` degrees of freedom; nu = inf is the Gaussian."""

    def __init__(self, field, nu: float = math.inf):
        nu = float(nu)
        if not nu > 0.0:
            raise ValidationError(f"degrees of freedom must be positive, got {nu}")
        self.field = field
        self.n = field.n
        self.nu = nu

    @property
    def position_dependent(self) -> bool:
        return self.field.position_dependent

    def _slope(self, p, w) -> float:
        # 2 f'(s) with s = p.w, the factor of w = Lam p in grad_p
        if self.nu == math.inf:
            return 1.0
        return (self.nu + self.n) / (self.nu + float(w.dot(p)))

    def energy(self, state, p) -> float:
        s = float(state.lam_dot(p).dot(p))
        if self.nu == math.inf:
            f = 0.5 * s
        else:
            f = 0.5 * (self.nu + self.n) * math.log1p(s / self.nu)
        return f + 0.5 * state.logdet_sigma

    def grad_p(self, state, p) -> np.ndarray:
        w = state.lam_dot(p)
        return self._slope(p, w) * w

    def grad_q(self, state, p) -> np.ndarray:
        # on the graph field, in O(n^2): the p-dependent part f' ds/dq plus
        # d(log|Sigma|/2)/dq = H grad_up / denom, the state's dlogdet
        if not self.position_dependent:
            return np.zeros(self.n)
        if state.hessian is None:
            raise UsageError("grad_q needs a metric state built with_hessian=True")
        return self._scaled_force(state, p, 1.0) + state.dlogdet

    def _scaled_force(self, state, p, scale) -> np.ndarray:
        # scale times f' ds/dq on a graph state with its Hessian, where
        # ds/dq = -2 (g.w) H w and w = Lam p.  Sherman-Morrison gives
        # g.w = t = g_up.p / denom, so w = lam p - t g_up and the whole term
        # costs one lam matvec, one Hessian matvec and a dot or two
        t = float(state.grad_up.dot(p)) / state.denom
        w = state.base.dot(p) - t * state.grad_up
        return (-scale * self._slope(p, w) * t) * state.hessian.dot(w)

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
        """Inverse metric at q, as used by reflections."""
        return self.field.state_at(q).lam


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
