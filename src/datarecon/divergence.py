"""Score-matching divergences and the model-induced MMD kernels.

The attacker-facing objectives (integration-by-parts and sliced forms) drop
the additive constant that does not depend on the reconstruction; the flag
``constant_note`` on the returned estimate records this. ``fd_direct`` needs
the target measure and is a test-side oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import WeightedEmpiricalMeasure


@dataclass(frozen=True)
class PosteriorDraws:
    """Parameter vectors treated as samples from the target posterior."""

    draws: np.ndarray  # (T, d)
    source: str = "exact"
    names: tuple[str, ...] | None = None
    acceptance_rate: float | None = None

    @property
    def T(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    std_error: float
    # True when the additive data-independent constant has been dropped
    constant_note: bool = False


def _estimate(per_draw: np.ndarray, constant_note: bool) -> DivergenceEstimate:
    T = len(per_draw)
    se = float(np.std(per_draw, ddof=1) / np.sqrt(T)) if T > 1 else 0.0
    return DivergenceEstimate(float(np.mean(per_draw)), se, constant_note)


def fd_direct(model, draws: PosteriorDraws, target_measure, recon_measure) -> DivergenceEstimate:
    """Score-gap divergence computed with the (test-known) target measure.

    The prior score cancels in the gap, so only likelihood scores enter.
    """
    thetas = model.check_draws(draws.draws)
    s_target = np.einsum(
        "m,tmd->td", target_measure.weights,
        model.score_batch(thetas, target_measure.points),
    )
    s_recon = np.einsum(
        "m,tmd->td", recon_measure.weights,
        model.score_batch(thetas, recon_measure.points),
    )
    per_draw = 0.5 * np.sum((s_target - s_recon) ** 2, axis=1)
    return _estimate(per_draw, constant_note=False)


class PosteriorCoefficients:
    """Per-draw coefficients of the weighted pseudo-posterior in feature space.

    For a measure with feature sums Phi = sum_m w_m phi(z_m), the weighted
    pseudo-posterior at draw t has score S_t = prior_score[t] + A[t] @ Phi
    and Hessian prior_hess[t] + sum_k Phi_k B[t, k]. Built once per draw
    set; the trace (fd) curvature coefficients are fixed with it.
    """

    def __init__(self, model, thetas):
        thetas = model.check_draws(thetas)
        self.A = model.score_coef(thetas)                        # (T, d, K)
        self.B = model.hess_coef(thetas)                         # (T, K, d, d)
        self.prior_score = model.prior_score_batch(thetas)       # (T, d)
        self.prior_hess = model.prior_hess_batch(thetas)         # (T, d, d)
        self.trace_c = np.einsum("tkii->tk", self.B)
        self.trace_prior = np.einsum("tii->t", self.prior_hess)

    @property
    def T(self) -> int:
        return len(self.A)

    def curvature(self, slices=None):
        """Curvature coefficients c (T, K) and the prior's curvature (T,):
        <B_tk, V_t> and <P_t, V_t> with V_t = I (trace form) or, for slices
        of shape (T, L, d) with L >= 1, the slice average of v v^T. Slices
        of any other shape raise ``ValueError``."""
        if slices is None:
            return self.trace_c, self.trace_prior
        slices = np.asarray(slices, dtype=float)
        T, d = self.prior_score.shape
        if slices.ndim != 3 or slices.shape[0] != T or slices.shape[1] < 1 or slices.shape[2] != d:
            raise ValueError(f"slices must have shape (T={T}, L>=1, d={d}), got {slices.shape}")
        V = slices.transpose(0, 2, 1) @ slices / slices.shape[1]
        return (np.einsum("tkij,tij->tk", self.B, V),
                np.einsum("tij,tij->t", self.prior_hess, V))

    def per_draw(self, Phi, slices=None):
        """Per-draw objective <P_t, V_t> + c_t . Phi + |S_t|^2 / 2, with the
        curvature coefficients c and the weighted scores S it used."""
        c, c_prior = self.curvature(slices)
        S = self.prior_score + self.A @ Phi
        return c_prior + c @ Phi + 0.5 * np.sum(S**2, axis=1), c, S

    def value_and_grad(self, Phi, slices=None):
        """The draw-averaged objective at feature sums Phi and its gradient
        in Phi: the mean of c_t + A_t^T S_t."""
        per_draw, c, S = self.per_draw(Phi, slices)
        g = c.mean(axis=0) + np.einsum("tdk,td->k", self.A, S) / self.T
        return float(np.mean(per_draw)), g


def fd_ibp_objective(model, draws: PosteriorDraws, recon_measure) -> DivergenceEstimate:
    """Target-free objective: trace of the weighted-posterior Hessian plus
    half the squared weighted-posterior score, averaged over draws."""
    coef = PosteriorCoefficients(model, draws.draws)
    Phi = recon_measure.weights @ model.phi(recon_measure.points)
    return _estimate(coef.per_draw(Phi)[0], constant_note=True)


def sfd_objective(model, draws: PosteriorDraws, slices, recon_measure) -> DivergenceEstimate:
    """Sliced form: the trace term is replaced by quadratic forms along the
    provided slice directions (shape (T, L, d)), averaged over the slices."""
    coef = PosteriorCoefficients(model, draws.draws)
    Phi = recon_measure.weights @ model.phi(recon_measure.points)
    return _estimate(coef.per_draw(Phi, slices)[0], constant_note=True)


# --- model-induced kernels ---------------------------------------------------

class BayesKernel:
    """k(x, x') = average over the draw set of the inner product of
    likelihood scores. One fixed draw set is reused for a whole run so the
    divergence/MMD identity is exact rather than statistical."""

    def __init__(self, model, draws: PosteriorDraws):
        self.model = model
        self.thetas = model.check_draws(draws.draws)

    def gram(self, points_a, points_b) -> np.ndarray:
        sa = self.model.score_batch(self.thetas, np.atleast_2d(points_a))
        sb = self.model.score_batch(self.thetas, np.atleast_2d(points_b))
        return np.einsum("tad,tbd->ab", sa, sb) / len(self.thetas)

    def __call__(self, x, xp) -> float:
        return float(self.gram(np.atleast_2d(x), np.atleast_2d(xp))[0, 0])


class NonBayesKernel:
    """k(x, x') = inner product of per-datum loss gradients at the released
    parameters."""

    def __init__(self, loss_model, theta_star):
        self.model = loss_model
        self.theta_star = np.asarray(theta_star, dtype=float).ravel()

    def gram(self, points_a, points_b) -> np.ndarray:
        ga = self.model.grad_theta_batch(self.theta_star, np.atleast_2d(points_a))
        gb = self.model.grad_theta_batch(self.theta_star, np.atleast_2d(points_b))
        return ga @ gb.T

    def __call__(self, x, xp) -> float:
        return float(self.gram(np.atleast_2d(x), np.atleast_2d(xp))[0, 0])


def mmd_squared(kernel, measure_a: WeightedEmpiricalMeasure,
                measure_b: WeightedEmpiricalMeasure) -> float:
    """Squared kernel discrepancy between two un-normalised weighted
    measures. May come out tiny-negative from rounding; values below
    -1e-9 relative would indicate a broken kernel."""
    a, b = measure_a.weights, measure_b.weights
    k_aa = kernel.gram(measure_a.points, measure_a.points)
    k_bb = kernel.gram(measure_b.points, measure_b.points)
    k_ab = kernel.gram(measure_a.points, measure_b.points)
    return float(a @ k_aa @ a + b @ k_bb @ b - 2.0 * (a @ k_ab @ b))


def loss_gradient_gap(loss_model, theta_star, target_measure, recon_measure) -> float:
    """Norm of the difference of weighted loss-gradient sums (test oracle for
    the kernel identity; the regularizer cancels in the difference)."""
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    g_t = target_measure.weights @ loss_model.grad_theta_batch(theta_star, target_measure.points)
    g_r = recon_measure.weights @ loss_model.grad_theta_batch(theta_star, recon_measure.points)
    return float(np.linalg.norm(g_t - g_r))
