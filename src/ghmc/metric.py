"""Inverse-metric fields backing position-dependent kinetic energies.

Two fields are provided.  ``ConstantMetric`` is a fixed SPD metric, as in
classic HMC mass matrices.  ``GraphMetric`` is the metric induced on the graph
of the potential over a background ``ConstantMetric`` sigma:

    Sigma(q) = sigma + grad(q) grad(q)^T,      grad = dV/dq,

a rank-1 update of the background, so its inverse follows from the
Sherman-Morrison-Woodbury identity in O(n^2) work,

    Lam(q) = lam - (lam g)(lam g)^T / (1 + g.lam g),     lam = sigma^{-1},

its log-determinant from the matrix determinant lemma,
log|Sigma(q)| = log|sigma| + log(1 + g.lam g), and its Christoffel
coefficients from the outer product of the raised gradient with the Hessian
of V divided by the same denominator.  Only homogeneous (position-independent)
backgrounds are supported; for those the log|sigma| correction to the
potential is constant and drops out of every gradient.

A field's state at q is an operator: it keeps (lam, g_up = lam g, denom) and
applies Lam(q) v = lam v - g_up (g_up.v) / denom with one matrix-vector
product, so no n x n array is formed per position.  The dense
Lam(q) is built only on request, by the dense-algebra checks.
Since Lam g = g_up / denom, the scalar g.Lam x is g_up.x / denom.
``GraphMetric._raised_gradient`` gives (g, g_up, denom) at a point without a
state, for the kinetic's drift iterates.

A ``ConstantMetric`` chooses once, when it is built, how it applies lam: a
lam that is exactly the identity applies as a pass-through, and any other
lam as a matrix-vector product.  BLAS forms I v by adding exact zeros to the
one product 1 v_i, so for finite v the two agree bit for bit, up to the sign
of a zero.  The graph field's default background is the identity, so with
Sigma = I + g g^T the only n x n work of a step is the Hessian's.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, UsageError, ValidationError
from .model import TargetModel, _hessian_at, as_position, spd_factor

__all__ = ["ConstantMetric", "GraphMetric"]


@dataclass
class MetricState:
    """Per-position snapshot of an inverse-metric field, kept as an operator.

    The inverse metric at q is Lam = base - grad_up grad_up^T / denom, where
    ``base`` is the constant field's matrix or the graph field's background
    inverse, and the rank-1 term exists on the graph field only.
    ``base_dot(v)`` is base v, as its field applies it: on the identity it
    returns v itself.  ``lam_dot(v)`` applies Lam without forming it and
    returns an array of its own; the dense ``lam`` is built on first
    request.  ``logdet_sigma`` is the log-determinant of the metric itself.
    The graph field also carries the potential gradient ``grad``, its raised
    version ``grad_up``, the denominator ``denom`` = 1 + grad.grad_up >= 1
    and, on request, the Hessian of V with the momentum-independent term
    ``dlogdet`` = hessian grad_up / denom, the position gradient of
    log|Sigma|/2.
    """

    base: np.ndarray
    base_dot: Callable
    logdet_sigma: float
    grad: Optional[np.ndarray] = None
    grad_up: Optional[np.ndarray] = None
    denom: float = 1.0
    hessian: Optional[np.ndarray] = None
    dlogdet: Optional[np.ndarray] = None

    def lam_dot(self, v) -> np.ndarray:
        """Lam v, in O(n^2) work and with no n x n temporary."""
        if self.grad_up is None:
            # the dense product, which refuses a v of the wrong length and
            # never hands v back: the pass-through serves the step's own
            # iterates, not the caller's arrays
            return self.base.dot(v)
        return _rank1_dot(self.base_dot(v), self.grad_up, self.denom, v)

    @cached_property
    def lam(self) -> np.ndarray:
        """The dense inverse metric at q."""
        if self.grad_up is None:
            return self.base
        return self.base - np.outer(self.grad_up, self.grad_up) / self.denom


def _pass_through(v) -> np.ndarray:
    # I v: v itself as a float array, as lam.dot(v) accepts it
    return np.asarray(v, float)


def _rank1_dot(base_v, grad_up, denom, v) -> np.ndarray:
    # Lam v = base v - grad_up (grad_up.v) / denom, from base v
    return base_v - grad_up * (float(grad_up.dot(v)) / denom)


class ConstantMetric:
    """Fixed SPD metric sigma: its inverse lam, log|sigma|, chol(sigma), arrays frozen."""

    position_dependent = False

    def __init__(self, lam):
        lam, chol_lam, sigma, chol_sigma = spd_factor(lam, "inverse metric")
        # log|Sigma| = -log|Lam|
        logdet = -2.0 * float(np.sum(np.log(np.diag(chol_lam))))
        self._set(lam, sigma, logdet, chol_sigma)

    @classmethod
    def from_sigma(cls, sigma) -> "ConstantMetric":
        """The field whose metric, the momentum covariance, is sigma."""
        sigma, chol, lam, _ = spd_factor(sigma, "background metric")
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return cls.__new__(cls)._set(lam, sigma, logdet, chol)

    def _set(self, lam, sigma, logdet_sigma, chol_sigma):
        # the initializer both constructors end in; returns the field
        for arr in (lam, sigma, chol_sigma):
            arr.flags.writeable = False
        self.lam = lam
        self.sigma = sigma
        self.logdet_sigma = logdet_sigma
        self.chol_sigma = chol_sigma
        self.n = len(lam)
        # lam = I, and with it chol(sigma) = I, applies as a pass-through
        eye = np.eye(self.n)
        if np.array_equal(lam, eye) and np.array_equal(chol_sigma, eye):
            self._lam_dot = self._chol_dot = _pass_through
        else:
            self._lam_dot, self._chol_dot = lam.dot, chol_sigma.dot
        self._state = MetricState(base=lam, base_dot=self._lam_dot, logdet_sigma=logdet_sigma)
        return self

    def state_at(self, q, with_hessian: bool = False) -> MetricState:
        # the field is the same everywhere: one state serves every position
        as_position(q, self.n)
        return self._state

    def sample_gaussian(self, q, rng) -> np.ndarray:
        """Draw from N(0, sigma)."""
        return self._chol_dot(rng.standard_normal(self.n))


class GraphMetric:
    """Inverse of the potential-graph metric sigma + grad grad^T.

    Requires the target to provide a Hessian: the flow derivatives and the
    Christoffel coefficients both need it, and falling back to finite
    differences inside the integrator loop would silently destroy the O(n^2)
    per-step cost.
    """

    position_dependent = True

    def __init__(self, model: TargetModel, background: Optional[ConstantMetric] = None):
        if background is None:
            background = ConstantMetric(np.eye(model.n))
        if not isinstance(background, ConstantMetric):
            raise UsageError("the background must be a ConstantMetric, e.g. "
                             f"ConstantMetric.from_sigma(sigma), got {type(background).__name__}")
        if background.n != model.n:
            raise UsageError("background metric dimension does not match the target")
        if model.hessian is None:
            raise ValidationError(
                "the graph-induced metric requires a target Hessian; "
                f"target {model.name!r} has none"
            )
        self.model = model
        self.background = background

    @property
    def n(self) -> int:
        return self.model.n

    def state_at(self, q, with_hessian: bool = False) -> MetricState:
        # one shape check and one finite check before the model sees q
        q = as_position(q, self.n)
        if not np.isfinite(q).all():
            raise DivergenceError("position has non-finite entries; metric undefined")
        g, g_up, denom = self._raised_gradient(q)
        state = MetricState(
            base=self.background.lam,
            base_dot=self.background._lam_dot,
            logdet_sigma=self.background.logdet_sigma + math.log(denom),
            grad=g,
            grad_up=g_up,
            denom=denom,
        )
        if with_hessian:
            state.hessian = _hessian_at(self.model, q)
            state.dlogdet = state.hessian.dot(g_up) / denom
        return state

    def _raised_gradient(self, q):
        # (g, g_up = lam g, denom = 1 + g.g_up) at a shaped, finite q, which
        # a drift iterate may put past a wall: the integrator alone scans
        g = np.asarray(self.model.gradient(q), dtype=float)
        g_up = self.background._lam_dot(g)
        denom = 1.0 + float(g.dot(g_up))
        # a non-finite entry of g makes the quadratic form non-finite
        if not math.isfinite(denom):
            raise DivergenceError("potential gradient is non-finite or overflows; metric undefined")
        return g, g_up, denom

    def sample_gaussian(self, q, rng) -> np.ndarray:
        """Draw from N(0, sigma + g g^T) by adding a rank-1 scalar draw.

        The background's draw chol(sigma) z1 plus g z2 has exactly the required
        covariance, keeping the draw at O(n^2) without factorizing the update.
        """
        g = np.asarray(self.model.gradient(as_position(q, self.n)), dtype=float)
        return self.background.sample_gaussian(q, rng) + g * rng.standard_normal()

    def christoffel(self, q) -> np.ndarray:
        """Connection coefficients G[i, j, k] = grad_up[i] H[j, k] / denom."""
        state = self.state_at(q, with_hessian=True)
        return np.einsum("i,jk->ijk", state.grad_up / state.denom, state.hessian)
