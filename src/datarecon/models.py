"""Likelihood and loss models with analytic scores, curvature and data
derivatives.

Every likelihood model factorises its log-likelihood as a(theta)^T phi(z)
over a short feature vector phi and declares only phi, its data Jacobian,
the coefficient maps a, da/dtheta and d2a/dtheta2, and its prior terms; the
vectorised batch callbacks (over posterior draws, pseudo-points and slice
directions) are derived from these, and the scalar operations used in tests
and audits are thin wrappers around those. All derivatives are analytic and
validated against a central-difference oracle, see
``finite_difference_audit``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import Layout


class DomainError(ValueError):
    """Parameter outside the model's declared domain (e.g. sigma <= 0)."""


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --- feature maps ------------------------------------------------------------

class IdentityFeatures:
    """psi(x) = x, for an x-part that may carry a fixed intercept coordinate."""

    def __init__(self, px: int):
        self.dim = px
        self.px = px

    def value(self, x):
        return np.asarray(x, dtype=float)

    def jac(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(self.dim)
        return np.broadcast_to(eye, x.shape[:-1] + (self.dim, self.px)).copy()


class PolynomialFeatures:
    """psi(s) = (1, s, s^2, ..., s^degree) for a scalar covariate."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.dim = degree + 1
        self.px = 1

    def value(self, x):
        s = np.asarray(x, dtype=float)[..., 0]
        return np.stack([s**r for r in range(self.degree + 1)], axis=-1)

    def jac(self, x):
        s = np.asarray(x, dtype=float)[..., 0]
        cols = [np.zeros_like(s)] + [
            r * s ** (r - 1) for r in range(1, self.degree + 1)
        ]
        return np.stack(cols, axis=-1)[..., None]


def _intercept_regression(x_dim: int):
    """psi and layout for data points (1, x_1..x_dim, y), psi the raw x-part."""
    layout = Layout(p=x_dim + 2, x_idx=tuple(range(x_dim + 1)), y_idx=x_dim + 1,
                    frozen_idx=(0,))
    return IdentityFeatures(x_dim + 1), layout


def _polynomial_regression(degree: int):
    """psi and layout for data points (s, y), psi(s) = (1, s, ..., s^degree)."""
    return PolynomialFeatures(degree), Layout(p=2, x_idx=(0,), y_idx=1)


# --- likelihood model contract ----------------------------------------------

class LikelihoodModel:
    """Contract: a log-likelihood that factorises as a(theta)^T phi(z) over a
    short vector of K data features phi, plus the prior terms entering the
    weighted posterior.

    A model declares the primitives ``phi`` and ``phi_jac`` (features and
    their Jacobian over the free data coordinates), the coefficient maps
    ``loglik_coef`` (a), ``score_coef`` (A = da/dtheta) and ``hess_coef``
    (B = d2a/dtheta2), and the prior's log density, score and Hessian. The
    per-point callbacks (scores, curvatures, data derivatives) are derived
    from these, and so is the statistic-space objective: the weighted
    pseudo-posterior depends on a measure only through its feature sums
    Phi = sum_m w_m phi(z_m).
    """

    param_dim: int
    layout: Layout

    # whether every row of ``thetas`` (T, d) lies in the parameter domain;
    # subclasses restrict the domain here
    def in_domain(self, thetas: np.ndarray) -> bool:
        return True

    def check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta must have length {self.param_dim}")
        if not np.isfinite(theta).all():
            raise DomainError("theta contains non-finite entries")
        if not self.in_domain(theta[None, :]):
            raise DomainError("theta outside model domain")
        return theta

    def check_draws(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] != self.param_dim:
            raise ValueError(f"draws must have {self.param_dim} columns")
        if not np.all(np.isfinite(thetas)):
            raise DomainError("draws contain non-finite entries")
        if not self.in_domain(thetas):
            raise DomainError("a draw lies outside the model domain")
        return thetas

    # primitives, implemented per model ---------------------------------------
    def phi(self, points):                            # (M, K)
        raise NotImplementedError

    def phi_jac(self, points):                        # (M, K, p_free)
        raise NotImplementedError

    def loglik_coef(self, thetas):                    # (T, K)
        raise NotImplementedError

    def score_coef(self, thetas):                     # (T, d, K)
        raise NotImplementedError

    def hess_coef(self, thetas):                      # (T, K, d, d)
        raise NotImplementedError

    def log_prior(self, theta) -> float:
        raise NotImplementedError

    def prior_score_batch(self, thetas):              # (T, d)
        raise NotImplementedError

    def prior_hess_batch(self, thetas):               # (T, d, d)
        raise NotImplementedError

    # per-point batch callbacks, derived from the primitives --------------------
    def log_lik_batch(self, theta, points):           # (M,)
        theta = np.asarray(theta, dtype=float).ravel()
        return self.phi(points) @ self.loglik_coef(theta[None, :])[0]

    def score_batch(self, thetas, points):            # (T, M, d)
        return np.einsum("tdk,mk->tmd", self.score_coef(thetas), self.phi(points))

    def trace_batch(self, thetas, points):            # (T, M)
        return np.einsum("tkii->tk", self.hess_coef(thetas)) @ self.phi(points).T

    def quad_batch(self, thetas, points, vs):         # (T, L, M)
        return self._quad_coef(thetas, vs) @ self.phi(points).T

    def jac_score_batch(self, thetas, points):        # (T, M, d, p_free)
        return np.einsum("tdk,mkp->tmdp", self.score_coef(thetas), self.phi_jac(points))

    def grad_trace_batch(self, thetas, points):       # (T, M, p_free)
        trace = np.einsum("tkii->tk", self.hess_coef(thetas))
        return np.einsum("tk,mkp->tmp", trace, self.phi_jac(points))

    def grad_quad_batch(self, thetas, points, vs):    # (T, L, M, p_free)
        return np.einsum("tlk,mkp->tlmp", self._quad_coef(thetas, vs), self.phi_jac(points))

    def _quad_coef(self, thetas, vs):                 # (T, L, K): v^T B_k v
        vs = np.asarray(vs, dtype=float)
        return np.einsum("tkij,tli,tlj->tlk", self.hess_coef(thetas), vs, vs)

    def prior_trace_batch(self, thetas):              # (T,)
        return np.einsum("tii->t", self.prior_hess_batch(thetas))

    def prior_quad_batch(self, thetas, vs):           # (T, L)
        vs = np.asarray(vs, dtype=float)
        return np.einsum("tij,tli,tlj->tl", self.prior_hess_batch(thetas), vs, vs)

    # y-part initialisation hooks (regression models override)
    def predict_mean(self, theta, x_part):
        raise NotImplementedError

    def noise_scale(self, theta) -> float:
        raise NotImplementedError

    # scalar wrappers ----------------------------------------------------------
    def log_lik(self, theta, x) -> float:
        theta = self.check_theta(theta)
        return float(self.log_lik_batch(theta, np.atleast_2d(x))[0])

    def score_theta(self, theta, x) -> np.ndarray:
        theta = self.check_theta(theta)
        return self.score_batch(theta[None, :], np.atleast_2d(x))[0, 0]

    def curvature(self, theta, x, v=None) -> float:
        theta = self.check_theta(theta)
        pts = np.atleast_2d(x)
        if v is None:
            return float(self.trace_batch(theta[None, :], pts)[0, 0])
        v = np.asarray(v, dtype=float)
        return float(self.quad_batch(theta[None, :], pts, v[None, None, :])[0, 0, 0])

    def data_derivatives(self, theta, x, v=None) -> dict:
        theta = self.check_theta(theta)
        pts = np.atleast_2d(x)
        out = {
            "jac_score": self.jac_score_batch(theta[None, :], pts)[0, 0],
            "grad_trace": self.grad_trace_batch(theta[None, :], pts)[0, 0],
        }
        if v is not None:
            v = np.asarray(v, dtype=float)
            out["grad_quad"] = self.grad_quad_batch(
                theta[None, :], pts, v[None, None, :]
            )[0, 0, 0]
        return out

    def prior_terms(self, theta, v=None) -> dict:
        theta = self.check_theta(theta)
        out = {
            "score": self.prior_score_batch(theta[None, :])[0],
            "trace": float(self.prior_trace_batch(theta[None, :])[0]),
        }
        if v is not None:
            v = np.asarray(v, dtype=float)
            out["quad"] = float(self.prior_quad_batch(theta[None, :], v[None, None, :])[0, 0])
        return out


class _StandardNormalPrior:
    """Standard Gaussian prior on all parameters."""

    def log_prior(self, theta) -> float:
        return -0.5 * float(np.sum(np.asarray(theta) ** 2))

    def prior_score_batch(self, thetas):
        return -np.asarray(thetas, dtype=float)

    def prior_hess_batch(self, thetas):
        T, d = np.shape(thetas)
        return np.broadcast_to(-np.eye(d), (T, d, d))


# --- bundled likelihood models -----------------------------------------------

class GaussianMeanLocation(_StandardNormalPrior, LikelihoodModel):
    """Infer the mean of observed vectors: l(theta, x) = exp(-||theta - x||^2 / 2)
    with a standard Gaussian prior. Score is x - theta, Hessian is -I.

    Features phi(x) = (1, x, ||x||^2) with a(theta) = (-||theta||^2 / 2, theta, -1/2).
    """

    def __init__(self, dim: int):
        self.param_dim = dim
        self.layout = Layout(p=dim, x_idx=tuple(range(dim)))

    def phi(self, points):
        x = np.asarray(points, dtype=float)
        return np.column_stack([np.ones(len(x)), x, np.sum(x**2, axis=1)])

    def phi_jac(self, points):
        x = np.asarray(points, dtype=float)
        d = self.param_dim
        out = np.zeros((len(x), d + 2, d))
        out[:, 1:d + 1, :] = np.eye(d)
        out[:, d + 1, :] = 2.0 * x
        return out

    def loglik_coef(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        return np.column_stack([-0.5 * np.sum(thetas**2, axis=1), thetas,
                                np.full(len(thetas), -0.5)])

    def score_coef(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        d = self.param_dim
        out = np.zeros((len(thetas), d, d + 2))
        out[:, :, 0] = -thetas
        out[:, :, 1:d + 1] = np.eye(d)
        return out

    def hess_coef(self, thetas):
        d = self.param_dim
        out = np.zeros((len(thetas), d + 2, d, d))
        out[:, 0] = -np.eye(d)
        return out


class _GaussianRegression(LikelihoodModel):
    """Gaussian regression of the response u on features psi(x) of the
    x-part, with coefficients beta and noise scale s:

        log l = c(s) - (<beta, psi(x)> - u)^2 / (2 s^2).

    Expanding the square gives the features
    phi(z) = (1, psi_i psi_j for i <= j, u psi, u^2) and
    a = c(s) e_1 + q(beta) / s^2, with q quadratic in beta; ``_q``, ``_dq``
    and ``_d2q`` hold q and its first and (constant) second derivatives.
    """

    def __init__(self, features, layout: Layout):
        if layout.y_idx is None:
            raise ValueError("a regression model requires a y coordinate in the layout")
        if features.px != layout.px:
            raise ValueError("feature map input size must match the layout x-part")
        self.features = features
        self.layout = layout
        q = features.dim
        self._I, self._J = np.triu_indices(q)
        n_pairs = len(self._I)
        # <beta, psi>^2 / 2 = sum over pairs i <= j of half_ij beta_i beta_j psi_i psi_j
        self._half = np.where(self._I == self._J, 0.5, 1.0)
        self._pairs = slice(1, 1 + n_pairs)
        self._lin = slice(1 + n_pairs, 1 + n_pairs + q)
        self.n_features = 2 + n_pairs + q
        self._q_const = np.zeros(self.n_features)        # q's only constant: -u^2 / 2
        self._q_const[-1] = -0.5
        d2q = np.zeros((self.n_features, q, q))
        rows = 1 + np.arange(n_pairs)
        d2q[rows, self._I, self._J] -= self._half
        d2q[rows, self._J, self._I] -= self._half
        self._d2q = d2q

    def _q(self, beta):                               # (T, K)
        out = self._q_const[None, :].repeat(len(beta), axis=0)
        out[:, self._pairs] = -self._half * beta[:, self._I] * beta[:, self._J]
        out[:, self._lin] = beta
        return out

    def _dq(self, beta):                              # (T, q, K)
        eye = np.eye(beta.shape[1])
        out = np.zeros((len(beta), beta.shape[1], self.n_features))
        out[:, :, self._pairs] = -self._half * (
            eye[:, self._I] * beta[:, None, self._J]
            + eye[:, self._J] * beta[:, None, self._I])
        out[:, :, self._lin] = eye
        return out

    def _split(self, points):
        pts = np.asarray(points, dtype=float)
        x = pts[:, list(self.layout.x_idx)]
        return x, pts[:, self.layout.y_idx], self.features.value(x)

    def phi(self, points):
        _, u, psi = self._split(points)
        return np.column_stack([np.ones(len(u)), psi[:, self._I] * psi[:, self._J],
                                u[:, None] * psi, u**2])

    def phi_jac(self, points):
        x, u, psi = self._split(points)
        jpsi = self.features.jac(x)                   # (M, q, px)
        xs, y = list(self.layout.x_idx), self.layout.y_idx
        out = np.zeros((len(u), self.n_features, self.layout.p))
        out[:, self._pairs, xs] = (jpsi[:, self._I] * psi[:, self._J, None]
                                   + psi[:, self._I, None] * jpsi[:, self._J])
        out[:, self._lin, xs] = u[:, None, None] * jpsi
        out[:, self._lin, y] = psi
        out[:, -1, y] = 2.0 * u
        return out[:, :, list(self.layout.free_idx)]

    def predict_mean(self, theta, x_part):
        beta = np.asarray(theta, dtype=float).ravel()[: self.features.dim]
        return self.features.value(np.atleast_2d(x_part)) @ beta


class BayesLinReg(_StandardNormalPrior, _GaussianRegression):
    """Bayesian linear regression on a feature vector psi(x) with unit noise:
    l(theta, x) proportional to exp(-(  <theta, psi(x)> - y )^2 / 2) and a
    standard Gaussian prior on the coefficients."""

    def __init__(self, features, layout: Layout):
        super().__init__(features, layout)
        self.param_dim = features.dim

    @classmethod
    def identity_with_intercept(cls, x_dim: int) -> "BayesLinReg":
        """Data points (1, x_1..x_dim, y) with psi(x) the raw x-part."""
        return cls(*_intercept_regression(x_dim))

    @classmethod
    def polynomial(cls, degree: int) -> "BayesLinReg":
        """Data points (s, y) with psi(s) = (1, s, ..., s^degree)."""
        return cls(*_polynomial_regression(degree))

    def loglik_coef(self, thetas):
        return self._q(np.asarray(thetas, dtype=float))

    def score_coef(self, thetas):
        return self._dq(np.asarray(thetas, dtype=float))

    def hess_coef(self, thetas):
        return np.broadcast_to(self._d2q, (len(thetas),) + self._d2q.shape)

    def noise_scale(self, theta) -> float:
        return 1.0


class KidScoreModel(_GaussianRegression):
    """Linear regression with unknown noise scale, theta = (beta_0, beta_1, sigma).

    Data points are (1, r, u): fixed intercept, covariate score, response
    score. Gaussian likelihood with scale sigma, flat prior on beta and a
    half-line Cauchy prior (configurable scale) on sigma.
    """

    def __init__(self, prior_scale: float = 2.5):
        if prior_scale <= 0:
            raise ValueError("prior_scale must be positive")
        self.prior_scale = prior_scale
        self.param_dim = 3
        super().__init__(IdentityFeatures(2), Layout(
            p=3, x_idx=(0, 1), y_idx=2, frozen_idx=(0,),
            names=("intercept", "r", "u"),
        ))

    def in_domain(self, thetas):
        return bool((thetas[:, 2] > 0).all())

    @staticmethod
    def _split_theta(thetas):
        thetas = np.asarray(thetas, dtype=float)
        return thetas[:, :2], thetas[:, 2]

    # a = c(s) e_1 + q(beta) / s^2 with c(s) = -log(2 pi s^2) / 2
    def loglik_coef(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        s2 = thetas[:, 2:] ** 2
        out = self._q(thetas[:, :2]) / s2
        out[:, :1] = -0.5 * np.log(2.0 * np.pi * s2)
        return out

    def score_coef(self, thetas):
        beta, s = self._split_theta(thetas)
        out = np.empty((len(s), 3, self.n_features))
        out[:, :2] = self._dq(beta) / (s**2)[:, None, None]
        out[:, 2] = -2.0 * self._q(beta) / (s**3)[:, None]
        out[:, 2, 0] = -1.0 / s
        return out

    def hess_coef(self, thetas):
        beta, s = self._split_theta(thetas)
        out = np.empty((len(s), self.n_features, 3, 3))
        out[:, :, :2, :2] = self._d2q / (s**2)[:, None, None, None]
        cross = -2.0 * self._dq(beta).transpose(0, 2, 1) / (s**3)[:, None, None]
        out[:, :, :2, 2] = cross
        out[:, :, 2, :2] = cross
        out[:, :, 2, 2] = 6.0 * self._q(beta) / (s**4)[:, None]
        out[:, 0, 2, 2] = 1.0 / s**2
        return out

    def log_prior(self, theta) -> float:
        sigma = float(np.asarray(theta).ravel()[2])
        return -float(np.log1p((sigma / self.prior_scale) ** 2))

    def prior_score_batch(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        sigma = thetas[:, 2]
        out = np.zeros_like(thetas)
        out[:, 2] = -2.0 * sigma / (self.prior_scale**2 + sigma**2)
        return out

    def prior_hess_batch(self, thetas):
        sigma = np.asarray(thetas, dtype=float)[:, 2]
        g2 = self.prior_scale**2
        out = np.zeros((len(sigma), 3, 3))
        out[:, 2, 2] = 2.0 * (sigma**2 - g2) / (g2 + sigma**2) ** 2
        return out

    def noise_scale(self, theta) -> float:
        return float(np.asarray(theta).ravel()[2])


# --- loss model contract -----------------------------------------------------

class LossModel:
    """Contract for trained (non-Bayesian) models: per-datum loss, its
    parameter gradient and the data-Jacobian of that gradient, plus an
    optional regularizer."""

    param_dim: int
    layout: Layout
    ridge: float = 0.0

    def loss_batch(self, theta, points):            # (M,)
        raise NotImplementedError

    def grad_theta_batch(self, theta, points):      # (M, d)
        raise NotImplementedError

    def jac_data_batch(self, theta, points):        # (M, d, p_free)
        return self.grad_and_jac_batch(theta, points)[1]

    def grad_and_jac_batch(self, theta, points):    # (M, d), (M, d, p_free)
        raise NotImplementedError

    def reg_value(self, theta) -> float:
        return self.ridge * float(np.sum(np.asarray(theta) ** 2))

    def reg_grad(self, theta) -> np.ndarray:
        return 2.0 * self.ridge * np.asarray(theta, dtype=float)

    def loss_terms(self, theta, x) -> dict:
        theta = np.asarray(theta, dtype=float).ravel()
        pts = np.atleast_2d(x)
        return {
            "value": float(self.loss_batch(theta, pts)[0]),
            "grad_theta": self.grad_theta_batch(theta, pts)[0],
            "jac_data": self.jac_data_batch(theta, pts)[0],
        }

    def predict_mean(self, theta, x_part):
        return np.zeros(len(np.atleast_2d(x_part)))

    def noise_scale(self, theta) -> float:
        return 1.0


class SquaredErrorLoss(LossModel):
    """l(theta, x) = (<theta, psi(x)> - y)^2, optional ridge regularizer.

    This is -2 times the unit-noise regression log-likelihood of
    ``BayesLinReg``, so its gradients come from that feature factorisation.
    """

    def __init__(self, features, layout: Layout, ridge: float = 0.0):
        self._lik = BayesLinReg(features, layout)
        self.features = features
        self.layout = layout
        self.param_dim = features.dim
        self.ridge = ridge

    @classmethod
    def identity_with_intercept(cls, x_dim: int, ridge: float = 0.0):
        return cls(*_intercept_regression(x_dim), ridge)

    @classmethod
    def polynomial(cls, degree: int, ridge: float = 0.0):
        return cls(*_polynomial_regression(degree), ridge)

    def loss_batch(self, theta, points):
        return -2.0 * self._lik.log_lik_batch(theta, points)

    def grad_theta_batch(self, theta, points):
        A = self._lik.score_coef(np.atleast_2d(np.asarray(theta, dtype=float)))[0]
        return -2.0 * self._lik.phi(points) @ A.T

    def grad_and_jac_batch(self, theta, points):
        A = self._lik.score_coef(np.atleast_2d(np.asarray(theta, dtype=float)))[0]
        return (-2.0 * self._lik.phi(points) @ A.T,
                -2.0 * np.einsum("dk,mkp->mdp", A, self._lik.phi_jac(points)))

    def predict_mean(self, theta, x_part):
        return self._lik.predict_mean(theta, x_part)


class LogisticLoss(LossModel):
    """l(theta, x) = log(1 + exp(-y <theta, x>)), optional ridge regularizer.

    A second analytic loss; y is treated as a real coordinate so the data
    derivatives stay well defined during optimisation.
    """

    def __init__(self, dim: int, ridge: float = 0.0):
        self.param_dim = dim
        self.layout = Layout(p=dim + 1, x_idx=tuple(range(dim)), y_idx=dim)
        self.ridge = ridge

    def _parts(self, theta, points):
        pts = np.asarray(points, dtype=float)
        x = pts[:, : self.param_dim]
        y = pts[:, self.param_dim]
        z = y * (x @ np.asarray(theta, dtype=float))
        s = _sigmoid(-z)
        return x, y, z, s

    def loss_batch(self, theta, points):
        _, _, z, _ = self._parts(theta, points)
        return np.logaddexp(0.0, -z)

    def grad_theta_batch(self, theta, points):
        x, y, _, s = self._parts(theta, points)
        return -(y * s)[:, None] * x

    def grad_and_jac_batch(self, theta, points):
        theta = np.asarray(theta, dtype=float)
        x, y, _, s = self._parts(theta, points)
        ds = s * (1.0 - s)
        M, d = x.shape
        out = np.zeros((M, d, d + 1))
        # d grad_i / d x_j = y^2 s(1-s) theta_j x_i - y s delta_ij
        out[:, :, :d] = (y**2 * ds)[:, None, None] * x[:, :, None] * theta[None, None, :]
        out[:, :, :d] -= (y * s)[:, None, None] * np.eye(d)[None, :, :]
        # d grad_i / d y = -s x_i + y s(1-s) <theta, x> x_i
        tx = x @ theta
        out[:, :, d] = (-s + y * ds * tx)[:, None] * x
        return -(y * s)[:, None] * x, out


# --- finite-difference audit ---------------------------------------------------

@dataclass
class AuditReport:
    max_rel_error: float
    per_check: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def _steps(values, h_scale):
    return h_scale * np.maximum(1.0, np.abs(values))


def _rel_err(analytic, numeric):
    analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=float))
    den = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / den))


def finite_difference_audit(model, theta, x, h_scale: float = 1e-5,
                            v=None, tol: float = 1e-5) -> AuditReport:
    """Validate every analytic callback against central differences.

    Works for both likelihood models (scores, curvature, data derivatives,
    prior terms) and loss models (parameter gradient, data Jacobian). The
    step is scaled per coordinate: h = h_scale * max(1, |coordinate|).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    checks: dict[str, float] = {}

    if isinstance(model, LossModel):
        _audit_loss(model, theta, x, h_scale, checks)
    else:
        _audit_likelihood(model, theta, x, h_scale, v, checks)

    max_err = max(checks.values())
    return AuditReport(max_err, checks, tol)


def _central(f, x, steps, coords=None):
    """Central differences of f at x along each coordinate in ``coords``
    (default: all), stacked along the last axis."""
    cols = []
    for i in range(len(x)) if coords is None else coords:
        xp, xm = x.copy(), x.copy()
        xp[i] += steps[i]
        xm[i] -= steps[i]
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * steps[i]))
    return np.stack(cols, axis=-1)


def _audit_likelihood(model, theta, x, h_scale, v, checks):
    d = model.param_dim
    if v is None:
        v = np.full(d, 1.0 / np.sqrt(d))
    v = np.asarray(v, dtype=float)
    hs_t = _steps(theta, h_scale)

    def prior_score(t):
        return model.prior_terms(t)["score"]

    # score and prior score vs FD of log_lik and log_prior
    num = _central(lambda t: model.log_lik(t, x), theta, hs_t)
    checks["score_theta"] = _rel_err(model.score_theta(theta, x), num)
    num = _central(model.log_prior, theta, hs_t)
    checks["prior_score"] = _rel_err(prior_score(theta), num)

    # trace vs sum of FD diagonal of the score Jacobian
    tr = np.trace(_central(lambda t: model.score_theta(t, x), theta, hs_t))
    checks["trace"] = _rel_err(model.curvature(theta, x), tr)

    # quad vs directional FD of <v, score>
    h = h_scale
    qp = v @ model.score_theta(theta + h * v, x)
    qm = v @ model.score_theta(theta - h * v, x)
    checks["quad"] = _rel_err(model.curvature(theta, x, v), (qp - qm) / (2 * h))

    # prior trace / quad via FD of prior score
    tr = np.trace(_central(prior_score, theta, hs_t))
    checks["prior_trace"] = _rel_err(model.prior_terms(theta)["trace"], tr)
    qp = v @ prior_score(theta + h * v)
    qm = v @ prior_score(theta - h * v)
    checks["prior_quad"] = _rel_err(model.prior_terms(theta, v)["quad"], (qp - qm) / (2 * h))

    # data derivatives vs FD over the free coordinates
    free = model.layout.free_idx
    hs_x = _steps(x, h_scale)
    deriv = model.data_derivatives(theta, x, v)
    jac_num = _central(lambda z: model.score_theta(theta, z), x, hs_x, free)
    gtr_num = _central(lambda z: model.curvature(theta, z), x, hs_x, free)
    gq_num = _central(lambda z: model.curvature(theta, z, v), x, hs_x, free)
    checks["jac_score"] = _rel_err(deriv["jac_score"], jac_num)
    checks["grad_trace"] = _rel_err(deriv["grad_trace"], gtr_num)
    checks["grad_quad"] = _rel_err(deriv["grad_quad"], gq_num)


def _audit_loss(model, theta, x, h_scale, checks):
    hs_t = _steps(theta, h_scale)
    terms = model.loss_terms(theta, x)

    num = _central(lambda t: model.loss_terms(t, x)["value"], theta, hs_t)
    checks["grad_theta"] = _rel_err(terms["grad_theta"], num)
    num = _central(model.reg_value, theta, hs_t)
    checks["reg_grad"] = _rel_err(model.reg_grad(theta), num)

    hs_x = _steps(x, h_scale)
    jac_num = _central(lambda z: model.loss_terms(theta, z)["grad_theta"], x, hs_x,
                       model.layout.free_idx)
    checks["jac_data"] = _rel_err(terms["jac_data"], jac_num)
