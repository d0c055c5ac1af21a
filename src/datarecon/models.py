"""Likelihood and loss models with analytic derivatives.

Every likelihood model factorises its log-likelihood as a(theta)^T phi(z)
over a short feature vector phi and declares only the primitives: phi with
its pullback through the data, the log density theta -> a(theta) . phi1 of
a weighted posterior, and the coefficient maps da/dtheta and d2a/dtheta2,
whose last entry holds the prior. The map a itself is read off the log
density at unit vectors phi1. The objectives work on these directly; the
per-point log-likelihood and score kept here are their oracle.
Loss models declare the per-datum loss, and its parameter gradient with that
gradient's pullback through the data: the same feature contract, with
phi(z) = grad_theta l(theta, z). ``finite_difference_audit`` checks every
analytic derivative against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import integer, number
from .measures import Layout


class DomainError(ValueError):
    """Parameter outside the model's declared domain (e.g. sigma <= 0)."""


def _sigmoid(z):
    # exp of -|z| never overflows; both branches are evaluated, then one kept
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --- feature maps ------------------------------------------------------------
#
# A feature map psi is a table of exponents E (q, px): psi_i(x) is the
# monomial prod_c x_c^E_ic of the x-part.

class IdentityFeatures:
    """psi(x) = x, for an x-part that may carry a fixed intercept coordinate."""

    def __init__(self, px: int):
        self.exponents = np.eye(px, dtype=int)


class PolynomialFeatures:
    """psi(s) = (1, s, s^2, ..., s^degree) for a scalar covariate."""

    def __init__(self, degree: int):
        self.exponents = np.arange(integer("degree", degree, 1) + 1)[:, None]


def _powers(z, top):
    """The powers z_c^e, e = 0..top, of each column of z (M, cols), from
    repeated multiplication: (cols, M, top + 1)."""
    powers = np.empty((z.shape[1], len(z), top + 1))
    powers[..., 0] = 1.0
    for e in range(1, top + 1):
        powers[..., e] = powers[..., e - 1] * z.T
    return powers


def _monomials(powers, E):
    """The monomials prod_c z_c^E_kc of each row of z (M, K), from its
    ``_powers`` up to at least E.max()."""
    out = powers[0][:, E[:, 0]]
    for c in range(1, E.shape[1]):
        out *= powers[c][:, E[:, c]]
    return out


class _RegressionLayouts:
    """The two data layouts of a regression class built from (features, layout, **kw)."""

    @classmethod
    def from_keys(cls, **kw):
        """``polynomial(**kw)`` given a degree, else ``identity_with_intercept(**kw)``."""
        if "degree" not in kw:
            return cls.identity_with_intercept(**kw)
        if "x_dim" in kw:
            raise ValueError("x_dim and degree are exclusive: give one")
        return cls.polynomial(**kw)

    @classmethod
    def identity_with_intercept(cls, x_dim: int = 1, **kw):
        """Data points (1, x_1..x_dim, y) with psi(x) the raw x-part."""
        x_dim = integer("x_dim", x_dim, 1)
        return cls(IdentityFeatures(x_dim + 1), Layout(
            p=x_dim + 2, x_idx=tuple(range(x_dim + 1)), y_idx=x_dim + 1, frozen_idx=(0,)),
            **kw)

    @classmethod
    def polynomial(cls, degree: int, **kw):
        """Data points (s, y) with psi(s) = (1, s, ..., s^degree)."""
        return cls(PolynomialFeatures(degree), Layout(p=2, x_idx=(0,), y_idx=1), **kw)


# --- likelihood model contract ----------------------------------------------

class LikelihoodModel:
    """Contract: a log-likelihood that factorises as a(theta)^T phi(z) over a
    short vector of K data features phi.

    A model declares the primitive ``phi_and_pullback`` (the features and
    their pullback through the free data coordinates, as a loss model's
    ``grad_and_pullback``), the log density ``log_density`` of the weighted
    pseudo-posterior, a(theta) . (Phi, w) with Phi = sum_m w_m phi(z_m) the
    feature sums of a measure and w the prior's weight, and the coefficient
    maps ``score_coef`` (A = da/dtheta) and ``hess_coef`` (B = d2a/dtheta2).
    Each map has K+1 entries, K = ``n_features``: the last holds the prior's
    log density, score and Hessian. The sampler scores proposals with
    ``log_density``; the statistic-space objective is built from A and B.
    ``loglik_coef`` (a), ``phi`` and ``phi_jac`` are derived. The per-point
    log-likelihood and score below use the first K entries only; they are
    the reference the objective and the audit compare against.
    """

    param_dim: int
    n_features: int
    layout: Layout

    # per-row mask (T,) of the rows of ``thetas`` (T, d) that lie in the
    # parameter domain; subclasses restrict the domain here
    def in_domain(self, thetas: np.ndarray) -> np.ndarray:
        return np.ones(len(thetas), dtype=bool)

    def check_draws(self, thetas) -> np.ndarray:
        """Parameter vectors as rows (T, d), if finite and in the domain."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] != self.param_dim:
            raise ValueError(f"parameter vectors must have {self.param_dim} entries")
        if not np.all(np.isfinite(thetas)):
            raise DomainError("parameter vectors contain non-finite entries")
        if not self.in_domain(thetas).all():
            raise DomainError("a parameter vector lies outside the model domain")
        return thetas

    def check_theta(self, theta) -> np.ndarray:
        return self.check_draws(np.ravel(theta))[0]

    # primitives, implemented per model ---------------------------------------
    def phi_and_pullback(self, points):               # (M, K), g (K,) -> (M, p_free)
        """The features phi(z_m), and g -> g^T dphi/dz_m over the free data
        coordinates: the Jacobian's work runs only when that is called."""
        raise NotImplementedError

    def log_density(self, phi1):                      # (B, d) -> (B,)
        """The log density theta -> a(theta) . phi1 of the posterior with
        feature sums and prior weight phi1 = (Phi, w), as a function of a
        batch of rows: exactly -inf on rows outside the domain, which are
        evaluated too and then masked (call it under ``np.errstate`` to
        silence their warnings). phi1 is folded into a cheap form once
        here, for the sampler's many calls."""
        raise NotImplementedError

    def score_coef(self, thetas):                     # (T, d, K+1)
        raise NotImplementedError

    def hess_coef(self, thetas):                      # (T, K+1, d, d)
        raise NotImplementedError

    # column k of a(theta) is the log density at phi1 = e_k; -inf outside the domain
    def loglik_coef(self, thetas):                    # (T, K+1)
        thetas = np.asarray(thetas, dtype=float)
        return np.column_stack([self.log_density(e)(thetas)
                                for e in np.eye(self.n_features + 1)])

    def phi(self, points):                            # (M, K)
        return self.phi_and_pullback(points)[0]

    # the pullbacks of the K unit vectors, stacked: for the audit and the tests
    def phi_jac(self, points):                        # (M, K, p_free)
        phi, pullback = self.phi_and_pullback(points)
        return np.stack([pullback(e) for e in np.eye(phi.shape[1])], axis=1)

    # per-point log-likelihood and score, the oracle for the objectives ------
    def log_lik_batch(self, theta, points):           # (M,)
        theta = np.asarray(theta, dtype=float).ravel()
        return self.phi(points) @ self.loglik_coef(theta[None, :])[0, :-1]

    def score_batch(self, thetas, points):            # (T, M, d)
        return np.einsum("tdk,mk->tmd", self.score_coef(thetas)[:, :, :-1], self.phi(points))

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


# --- bundled likelihood models -----------------------------------------------

class GaussianMeanLocation(LikelihoodModel):
    """Infer the mean of observed vectors: l(theta, x) = exp(-||theta - x||^2 / 2)
    with a standard Gaussian prior. Score is x - theta, Hessian is -I.

    Features phi(x) = (1, x, ||x||^2) with a(theta) = (-||theta||^2 / 2, theta, -1/2).
    The prior is a pseudo-point at x = 0, so its entry repeats the first.
    """

    def __init__(self, dim: int = 1):
        self.param_dim = d = integer("dim", dim, 1)
        self.n_features = d + 2
        self.layout = Layout(p=dim, x_idx=tuple(range(dim)))
        self._hess = np.zeros((d + 3, d, d))          # fixed over theta
        self._hess[[0, -1]] = -np.eye(d)

    # dphi/dx is (0, I, 2x), so g^T dphi/dx = g_x + 2 x g_{d+1}
    def phi_and_pullback(self, points):
        x = np.asarray(points, dtype=float)
        d = self.param_dim
        phi = np.column_stack([np.ones(len(x)), x, np.sum(x**2, axis=1)])
        return phi, lambda g: g[1:d + 1] + 2.0 * x * g[d + 1]

    # a . (Phi, w) = theta . Phi_x - (n ||theta||^2 + Phi_xx) / 2, n = Phi_0 + w
    def log_density(self, phi1):
        n, sx, sxx = phi1[0] + phi1[-1], phi1[1:-2], phi1[-2]
        return lambda thetas: thetas @ sx - 0.5 * (n * np.sum(thetas**2, axis=1) + sxx)

    def score_coef(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        d = self.param_dim
        out = np.zeros((len(thetas), d, d + 3))
        out[:, :, 0] = out[:, :, -1] = -thetas
        out[:, :, 1:d + 1] = np.eye(d)
        return out

    def hess_coef(self, thetas):
        return np.broadcast_to(self._hess, (len(thetas),) + self._hess.shape)


class _GaussianRegression(LikelihoodModel):
    """Gaussian regression of the response u on features psi(x) of the
    x-part, with coefficients beta and noise scale s:

        log l = c(s) - (<beta, psi(x)> - u)^2 / (2 s^2).

    With psi~ = (psi(x), u) and beta~ = (beta, -1) the square is
    beta~^T (psi~ psi~^T) beta~. Each product psi~_i psi~_j is a monomial in
    the free data coordinates, since the frozen ones hold
    ``Layout.frozen_value`` = 1 and drop out of every product; phi(z) holds
    each distinct monomial once, the constant first, and the 0/1 matrix Q_k
    marks the products equal to monomial k. Then a = c(s) e_1 + q(beta) / s^2
    with q_k = -beta~^T Q_k beta~ / 2. Everything is read off the one table
    ``_Q`` (K, q+1, q+1): ``_q`` and ``_dq`` give q and its first derivative
    in beta, -Q_k's beta block its (constant) second, and ``_scatter`` folds
    feature sums into the one quadratic form the log density evaluates.
    """

    def __init__(self, features, layout: Layout):
        if layout.y_idx is None:
            raise ValueError("a regression model requires a y coordinate in the layout")
        psi_exp = features.exponents
        if psi_exp.shape[1] != layout.px:
            raise ValueError("feature map input size must match the layout x-part")
        self.features = features
        self.layout = layout
        self._free = list(layout.free_idx)
        q = len(psi_exp)
        tilde = np.zeros((q + 1, layout.p), dtype=int)   # exponents of psi~
        tilde[:q, list(layout.x_idx)] = psi_exp
        tilde[q, layout.y_idx] = 1
        tilde = tilde[:, self._free]
        I, J = np.triu_indices(q + 1)
        self._E, k = np.unique(np.vstack([np.zeros_like(tilde[:1]), tilde[I] + tilde[J]]),
                               axis=0, return_inverse=True)
        k = k.ravel()[1:]                                # monomial of each pair i <= j
        self.n_features = K = len(self._E)
        self._Q = np.zeros((K, q + 1, q + 1))
        self._Q[k, I, J] = self._Q[k, J, I] = 1.0
        # d phi_k / d z_c = E_kc times monomial k with E_kc lowered by one
        f = len(self._free)
        self._jac_E = np.maximum(self._E - np.eye(f, dtype=int)[:, None], 0).reshape(f * K, f)

    @staticmethod
    def _tilde(beta):
        out = np.empty((len(beta), beta.shape[1] + 1))
        out[:, :-1] = beta
        out[:, -1] = -1.0
        return out

    def _q(self, beta):                               # (T, K)
        bt = self._tilde(beta)
        return -0.5 * np.einsum("ktj,tj->tk", bt @ self._Q, bt)

    # one matmul against -Q's beta rows laid out (q+1, q K) gives dq in C order:
    # an einsum, or a transposed copy of a batched matmul, is many times slower
    def _dq(self, beta):                              # (T, q, K)
        T, q = beta.shape
        dq_coef = -self._Q[:, :q].transpose(2, 1, 0).reshape(q + 1, -1)
        return (self._tilde(beta) @ dq_coef).reshape(T, q, -1)

    def _scatter(self, phi):                          # (q+1, q+1)
        """The symmetric S = -sum_k phi_k Q_k / 2, so beta~^T S beta~ = q(beta) . phi."""
        return -0.5 * np.tensordot(phi, self._Q, 1)

    @staticmethod
    def _quadratic(S):
        """beta -> beta~^T S beta~ over rows beta (B, q), with beta~ = (beta, -1)."""
        A, b, c = S[:-1, :-1], 2.0 * S[:-1, -1], S[-1, -1]
        ones = np.ones(len(b))
        return lambda beta: ((beta @ A - b) * beta) @ ones + c

    # one table of powers serves both: the lowered exponents of the
    # Jacobian never exceed the features' own
    def phi_and_pullback(self, points):
        z = np.asarray(points)[:, self._free]
        powers = _powers(z, self._E.max())

        def pullback(g):
            lowered = _monomials(powers, self._jac_E).reshape(len(z), len(self._free), -1)
            return np.einsum("mkp,k->mp", (self._E.T * lowered).transpose(0, 2, 1), g)

        return _monomials(powers, self._E), pullback

    def predict_mean(self, theta, x_part):
        exps = self.features.exponents
        beta = np.asarray(theta, dtype=float).ravel()[: len(exps)]
        x_part = np.atleast_2d(x_part)
        return _monomials(_powers(x_part, exps.max()), exps) @ beta


class BayesLinReg(_RegressionLayouts, _GaussianRegression):
    """Bayesian linear regression on a feature vector psi(x) with unit noise:
    l(theta, x) proportional to exp(-(  <theta, psi(x)> - y )^2 / 2) and a
    standard Gaussian prior on the coefficients."""

    def __init__(self, features, layout: Layout):
        super().__init__(features, layout)
        self.param_dim = d = len(features.exponents)
        self._hess = np.concatenate([-self._Q[:, :d, :d], -np.eye(d)[None]])  # fixed over theta

    # the prior -|theta|^2 / 2 at weight w joins the scatter form's diagonal
    def log_density(self, phi1):
        S = self._scatter(phi1[:-1])
        S[np.diag_indices(self.param_dim)] -= 0.5 * phi1[-1]
        return self._quadratic(S)

    def score_coef(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        return np.concatenate([self._dq(thetas), -thetas[:, :, None]], axis=2)

    def hess_coef(self, thetas):
        return np.broadcast_to(self._hess, (len(thetas),) + self._hess.shape)

    def noise_scale(self, theta) -> float:
        return 1.0


class KidScoreModel(_GaussianRegression):
    """Linear regression with unknown noise scale, theta = (beta_0, beta_1, sigma).

    Data points are (1, r, u): fixed intercept, covariate score, response
    score. Gaussian likelihood with scale sigma, flat prior on beta and a
    half-line Cauchy prior (configurable scale) on sigma.
    """

    # the prior's Hessian entry forms scale^4, which must stay in float range
    MAX_PRIOR_SCALE = 1e75

    def __init__(self, prior_scale: float = 2.5):
        self.prior_scale = number("prior_scale", prior_scale)
        if prior_scale > self.MAX_PRIOR_SCALE:
            raise ValueError(f"prior_scale must be at most {self.MAX_PRIOR_SCALE:g}, "
                             f"got {prior_scale!r}")
        self.param_dim = 3
        super().__init__(IdentityFeatures(2), Layout(
            p=3, x_idx=(0, 1), y_idx=2, frozen_idx=(0,),
            names=("intercept", "r", "u"),
        ))

    def in_domain(self, thetas):
        return thetas[:, 2] > 0

    @staticmethod
    def _split_theta(thetas):
        thetas = np.asarray(thetas, dtype=float)
        return thetas[:, :2], thetas[:, 2]

    # a = c(s) e_1 + q(beta) / s^2 with c(s) = -log(2 pi s^2) / 2 on the
    # constant monomial, and the prior entry -log(1 + (s / scale)^2), flat in
    # beta: a . (Phi, w) = beta~^T S beta~ / s^2 + c(s) Phi_0 + w log prior(s)
    def log_density(self, phi1):
        quadratic = self._quadratic(self._scatter(phi1[:-1]))
        half_n, w, g2 = 0.5 * phi1[0], phi1[-1], self.prior_scale**2

        def f(thetas):
            s = thetas[:, 2]
            s2 = s * s
            out = (quadratic(thetas[:, :2]) / s2 - half_n * np.log(2.0 * np.pi * s2)
                   - w * np.log1p(s2 / g2))
            return np.where(self.in_domain(thetas), out, -np.inf)

        return f

    def score_coef(self, thetas):
        beta, s = self._split_theta(thetas)
        out = np.zeros((len(s), 3, self.n_features + 1))
        out[:, :2, :-1] = self._dq(beta) / (s**2)[:, None, None]
        out[:, 2, :-1] = -2.0 * self._q(beta) / (s**3)[:, None]
        out[:, 2, 0] -= 1.0 / s
        out[:, 2, -1] = -2.0 * s / (self.prior_scale**2 + s**2)
        return out

    def hess_coef(self, thetas):
        beta, s = self._split_theta(thetas)
        out = np.zeros((len(s), self.n_features + 1, 3, 3))
        out[:, :-1, :2, :2] = -self._Q[:, :2, :2] / (s**2)[:, None, None, None]
        cross = -2.0 * self._dq(beta).transpose(0, 2, 1) / (s**3)[:, None, None]
        out[:, :-1, :2, 2] = cross
        out[:, :-1, 2, :2] = cross
        out[:, :-1, 2, 2] = 6.0 * self._q(beta) / (s**4)[:, None]
        out[:, 0, 2, 2] += 1.0 / s**2
        g2 = self.prior_scale**2
        out[:, -1, 2, 2] = 2.0 * (s**2 - g2) / (g2 + s**2) ** 2
        return out

    def noise_scale(self, theta) -> float:
        return float(np.asarray(theta).ravel()[2])


# --- loss model contract -----------------------------------------------------

class LossModel:
    """Contract for trained (non-Bayesian) models: per-datum loss
    (``loss_batch``), its parameter gradient together with the pullback of
    that gradient through the data (``grad_and_pullback``), and a ridge
    regularizer. The gradient alone (``grad_theta_batch``) is derived."""

    param_dim: int
    layout: Layout
    ridge: float

    def loss_batch(self, theta, points):            # (M,)
        raise NotImplementedError

    def grad_and_pullback(self, theta, points):     # (M, d), g (d,) -> (M, p_free)
        """The per-point gradients grad_theta l(theta, z_m) and a function
        taking g to the vector-Jacobian products g^T d(grad_theta l)/dz_m
        over the free data coordinates."""
        raise NotImplementedError

    def grad_theta_batch(self, theta, points):      # (M, d)
        return self.grad_and_pullback(theta, points)[0]

    def reg_value(self, theta) -> float:
        return self.ridge * float(np.sum(np.asarray(theta) ** 2))

    def reg_grad(self, theta) -> np.ndarray:
        return 2.0 * self.ridge * np.asarray(theta, dtype=float)

    def predict_mean(self, theta, x_part):
        return np.zeros(len(np.atleast_2d(x_part)))

    def noise_scale(self, theta) -> float:
        return 1.0


class SquaredErrorLoss(_RegressionLayouts, LossModel):
    """l(theta, x) = (<theta, psi(x)> - y)^2, optional ridge regularizer.

    This is -2 times the unit-noise regression log-likelihood of
    ``BayesLinReg``, so its gradients come from that feature factorisation.
    """

    def __init__(self, features, layout: Layout, ridge: float = 0.0):
        self._lik = BayesLinReg(features, layout)
        self.layout = layout
        self.param_dim = self._lik.param_dim
        self.ridge = number("ridge", ridge, positive=False)

    def loss_batch(self, theta, points):
        return -2.0 * self._lik.log_lik_batch(theta, points)

    def grad_and_pullback(self, theta, points):
        A = self._lik.score_coef(np.atleast_2d(np.asarray(theta, dtype=float)))[0, :, :-1]
        phi, pullback = self._lik.phi_and_pullback(points)
        return -2.0 * phi @ A.T, lambda g: -2.0 * pullback(g @ A)

    def predict_mean(self, theta, x_part):
        return self._lik.predict_mean(theta, x_part)


class LogisticLoss(LossModel):
    """l(theta, x) = log(1 + exp(-y <theta, x>)), optional ridge regularizer.

    A second analytic loss; y is treated as a real coordinate so the data
    derivatives stay well defined during optimisation.
    """

    def __init__(self, dim: int = 1, ridge: float = 0.0):
        self.param_dim = integer("dim", dim, 1)
        self.layout = Layout(p=dim + 1, x_idx=tuple(range(dim)), y_idx=dim)
        self.ridge = number("ridge", ridge, positive=False)

    def _margins(self, theta, points):
        pts = np.asarray(points, dtype=float)
        x = pts[:, : self.param_dim]
        y = pts[:, self.param_dim]
        tx = x @ np.asarray(theta, dtype=float)
        return x, y, tx, y * tx

    def loss_batch(self, theta, points):
        z = self._margins(theta, points)[3]
        return np.logaddexp(0.0, -z)

    def grad_and_pullback(self, theta, points):
        theta = np.asarray(theta, dtype=float)
        x, y, tx, z = self._margins(theta, points)
        s = _sigmoid(-z)
        ys = y * s

        def pullback(g):
            # d grad_i / d x_j = y^2 s(1-s) theta_j x_i - y s delta_ij
            # d grad_i / d y = -s x_i + y s(1-s) <theta, x> x_i
            gx = x @ g
            c = ys * (1.0 - s) * gx                   # y s(1-s) <g, x>
            out = np.empty((len(x), self.param_dim + 1))
            np.multiply.outer(y * c, theta, out=out[:, :-1])
            out[:, :-1] -= ys[:, None] * g
            out[:, -1] = c * tx - s * gx
            return out

        return -ys[:, None] * x, pullback


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
                            tol: float = 1e-5) -> AuditReport:
    """Validate every analytic derivative against central differences.

    For likelihood models these are the factor primitives, each against
    differences of the one it differentiates (a -> A -> B in theta, the
    prior entry included, and phi -> phi_jac over the free data
    coordinates), plus the per-point score against differences of the
    log-likelihood (check ``score_theta``). For loss models: the parameter
    gradient, the regularizer gradient and the data Jacobian. Data Jacobians
    are rebuilt from unit-vector pullbacks. The step is scaled per coordinate:
    h = h_scale * max(1, |coordinate|).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    checks: dict[str, float] = {}

    if isinstance(model, LossModel):
        _audit_loss(model, theta, x, h_scale, checks)
    else:
        _audit_likelihood(model, theta, x, h_scale, checks)

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


def _single(batch_fn):
    """A batch method (leading axis over rows) evaluated at one row."""
    return lambda row: batch_fn(row[None, :])[0]


def _audit_likelihood(model, theta, x, h_scale, checks):
    hs_t = _steps(theta, h_scale)
    a, A = _single(model.loglik_coef), _single(model.score_coef)

    num = _central(lambda t: model.log_lik(t, x), theta, hs_t)
    checks["score_theta"] = _rel_err(model.score_theta(theta, x), num)

    # _central stacks the theta derivative last: (K+1, d) for a, (d, K+1, d) for A
    checks["score_coef"] = _rel_err(A(theta), _central(a, theta, hs_t).T)
    checks["hess_coef"] = _rel_err(_single(model.hess_coef)(theta),
                                   _central(A, theta, hs_t).transpose(1, 0, 2))

    num = _central(_single(model.phi), x, _steps(x, h_scale), model.layout.free_idx)
    checks["phi_jac"] = _rel_err(_single(model.phi_jac)(x), num)


def _audit_loss(model, theta, x, h_scale, checks):
    hs_t = _steps(theta, h_scale)

    def grad(z):
        return model.grad_theta_batch(theta, z[None, :])[0]

    num = _central(lambda t: model.loss_batch(t, x[None, :])[0], theta, hs_t)
    checks["grad_theta"] = _rel_err(grad(x), num)
    num = _central(model.reg_value, theta, hs_t)
    checks["reg_grad"] = _rel_err(model.reg_grad(theta), num)

    jac_num = _central(grad, x, _steps(x, h_scale), model.layout.free_idx)
    # the Jacobian (d, p_free) rebuilt row by row from pullbacks of the unit vectors
    pullback = model.grad_and_pullback(theta, x[None, :])[1]
    jac = np.stack([pullback(e)[0] for e in np.eye(model.param_dim)])
    checks["jac_data"] = _rel_err(jac, jac_num)
