"""Inverse-metric fields backing position-dependent kinetic energies.

Two fields are provided.  ``ConstantMetric`` wraps a fixed SPD inverse metric
and recovers classic HMC mass matrices.  ``GraphMetric`` is the metric induced
on the graph of the potential over a homogeneous SPD background sigma:

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
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, MetricDegeneracyError, NumericError, UsageError
from .model import TargetModel, as_position, hessian_eval, potential_grad, spd_factor

__all__ = [
    "BackgroundMetric",
    "MetricState",
    "ConstantMetric",
    "GraphMetric",
]


@dataclass(frozen=True)
class BackgroundMetric:
    """Homogeneous SPD background: the matrix, its inverse, log-det, Cholesky."""

    sigma: np.ndarray
    lam: np.ndarray
    logdet_sigma: float
    chol_sigma: np.ndarray

    @classmethod
    def from_matrix(cls, sigma) -> "BackgroundMetric":
        sigma, chol = spd_factor(sigma, "background metric", MetricDegeneracyError)
        lam = np.linalg.inv(sigma)
        lam = 0.5 * (lam + lam.T)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        for arr in (sigma, lam, chol):
            arr.flags.writeable = False
        return cls(sigma=sigma, lam=lam, logdet_sigma=logdet, chol_sigma=chol)

    @classmethod
    def identity(cls, n: int) -> "BackgroundMetric":
        return cls.from_matrix(np.eye(n))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass
class MetricState:
    """Per-position snapshot of an inverse-metric field.

    ``lam`` is the inverse metric at q and ``logdet_sigma`` the log-determinant
    of the metric itself.  The graph field also carries the potential gradient
    ``grad``, its raised version ``grad_up``, the rank-1 denominator
    ``denom`` = 1 + grad.grad_up >= 1, and (on request) the Hessian of V.
    """

    q: np.ndarray
    lam: np.ndarray
    logdet_sigma: float
    grad: Optional[np.ndarray] = None
    grad_up: Optional[np.ndarray] = None
    denom: float = 1.0
    hessian: Optional[np.ndarray] = None


class ConstantMetric:
    """Fixed SPD inverse metric; the momentum covariance is its inverse."""

    position_dependent = False

    def __init__(self, lam):
        lam, chol_lam = spd_factor(lam, "inverse metric", MetricDegeneracyError)
        self.lam = lam
        # log|Sigma| = -log|Lam|
        self.logdet_sigma = -2.0 * float(np.sum(np.log(np.diag(chol_lam))))
        cov = np.linalg.inv(lam)
        self._chol_cov = np.linalg.cholesky(0.5 * (cov + cov.T))
        for arr in (self.lam, self._chol_cov):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    def state_at(self, q, with_hessian: bool = False) -> MetricState:
        q = as_position(q, self.n)
        return MetricState(q=q, lam=self.lam, logdet_sigma=self.logdet_sigma)

    def sample_gaussian(self, q, rng) -> np.ndarray:
        """Draw from N(0, lam^{-1})."""
        return self._chol_cov @ rng.standard_normal(self.n)


class GraphMetric:
    """Inverse of the potential-graph metric sigma + grad grad^T.

    Requires the target to provide a Hessian: the flow derivatives and the
    Christoffel coefficients both need it, and falling back to finite
    differences inside the integrator loop would silently destroy the O(n^2)
    per-step cost.
    """

    position_dependent = True

    def __init__(self, model: TargetModel, background: Optional[BackgroundMetric] = None):
        if background is None:
            background = BackgroundMetric.identity(model.n)
        if background.n != model.n:
            raise UsageError("background metric dimension does not match the target")
        if model.hessian is None:
            raise CapabilityError(
                "the graph-induced metric requires a target Hessian; "
                f"target {model.name!r} has none"
            )
        self.model = model
        self.background = background

    @property
    def n(self) -> int:
        return self.model.n

    def state_at(self, q, with_hessian: bool = False) -> MetricState:
        q = as_position(q, self.n)
        g = potential_grad(self.model, q)
        if not np.all(np.isfinite(g)):
            raise NumericError("potential gradient is non-finite; metric undefined")
        g_up = self.background.lam @ g
        denom = 1.0 + float(g @ g_up)
        lam_bar = self.background.lam - np.outer(g_up, g_up) / denom
        logdet = self.background.logdet_sigma + np.log(denom)
        hess = hessian_eval(self.model, q) if with_hessian else None
        return MetricState(
            q=q,
            lam=lam_bar,
            logdet_sigma=logdet,
            grad=g,
            grad_up=g_up,
            denom=denom,
            hessian=hess,
        )

    def sample_gaussian(self, q, rng) -> np.ndarray:
        """Draw from N(0, sigma + g g^T) by adding a rank-1 scalar draw.

        chol(sigma) z1 + g z2 has exactly the required covariance, keeping the
        draw at O(n^2) without factorizing the updated matrix.
        """
        q = as_position(q, self.n)
        g = potential_grad(self.model, q)
        z1 = rng.standard_normal(self.n)
        z2 = rng.standard_normal()
        return self.background.chol_sigma @ z1 + g * z2

    def christoffel(self, q) -> np.ndarray:
        """Connection coefficients G[i, j, k] = grad_up[i] H[j, k] / denom."""
        state = self.state_at(q, with_hessian=True)
        return np.einsum("i,jk->ijk", state.grad_up / state.denom, state.hessian)
