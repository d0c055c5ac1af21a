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
    s_target, s_recon = (np.einsum("m,tmd->td", m.weights, model.score_batch(thetas, m.points))
                         for m in (target_measure, recon_measure))
    per_draw = 0.5 * np.sum((s_target - s_recon) ** 2, axis=1)
    return _estimate(per_draw, constant_note=False)


class PosteriorCoefficients:
    """Per-draw coefficients of the weighted pseudo-posterior in feature space.

    For a measure with feature sums Phi = sum_m w_m phi(z_m), the weighted
    pseudo-posterior at draw t has score S_t = p_t + A_t Phi (p_t the prior
    score) and Hessian P_t + sum_k Phi_k B_tk (P_t the prior Hessian). The
    draw average of |S_t|^2 / 2 is therefore the quadratic
    Phi^T G Phi / 2 + h . Phi + mean_t |p_t|^2 / 2 with G = mean_t A_t^T A_t
    and h = mean_t A_t^T p_t, computed once per draw set together with the
    trace (fd) curvature, so an fd evaluation costs O(K^2) whatever T is.
    """

    def __init__(self, model, thetas):
        thetas = model.check_draws(thetas)
        self.A = model.score_coef(thetas)                        # (T, d, K)
        self.B = model.hess_coef(thetas)                         # (T, K, d, d)
        self.prior_score = model.prior_score_batch(thetas)       # (T, d)
        self.prior_hess = model.prior_hess_batch(thetas)         # (T, d, d)
        self.trace_c = np.einsum("tkii->tk", self.B)
        self.trace_prior = np.einsum("tii->t", self.prior_hess)
        T, d, K = self.A.shape
        A = self.A.reshape(T * d, K)
        self.G = A.T @ A / T
        self.h = self.prior_score.ravel() @ A / T
        self.half_prior_sq = 0.5 * float(np.sum(self.prior_score**2)) / T
        self.c_bar = self.trace_c.mean(axis=0)
        self.c_prior_bar = float(self.trace_prior.mean())
        self._slice_table = None

    @property
    def T(self) -> int:
        return len(self.A)

    def _check_slices(self, slices) -> np.ndarray:
        slices = np.asarray(slices, dtype=float)
        T, d = self.prior_score.shape
        if slices.ndim != 3 or slices.shape[0] != T or slices.shape[1] < 1 or slices.shape[2] != d:
            raise ValueError(f"slices must have shape (T={T}, L>=1, d={d}), got {slices.shape}")
        return slices

    def curvature(self, slices=None):
        """Curvature coefficients c (T, K) and the prior's curvature (T,):
        <B_tk, V_t> and <P_t, V_t> with V_t = I (trace form) or, for slices
        of shape (T, L, d) with L >= 1, the slice average of v v^T. Slices
        of any other shape raise ``ValueError``."""
        if slices is None:
            return self.trace_c, self.trace_prior
        slices = self._check_slices(slices)
        V = slices.transpose(0, 2, 1) @ slices / slices.shape[1]
        return (np.einsum("tkij,tij->tk", self.B, V),
                np.einsum("tij,tij->t", self.prior_hess, V))

    def mean_curvature(self, slices=None):
        """The draw averages of ``curvature(slices)``: c-bar (K,) and the
        prior's (scalar).

        For slices, each V_t is reduced to its d(d+1)/2 distinct entries and
        contracted in one matrix-vector product with a table of the matching
        entries of B and P, off-diagonal ones doubled. The table is built at
        the first sliced call only, so the trace form never holds it."""
        if slices is None:
            return self.c_bar, self.c_prior_bar
        slices = self._check_slices(slices)
        if self._slice_table is None:
            I, J = np.triu_indices(slices.shape[2])
            table = np.concatenate([self.B[:, :, I, J], self.prior_hess[:, None, I, J]],
                                   axis=1)                       # (T, K + 1, pairs)
            table = table.transpose(2, 0, 1) * np.where(I == J, 1.0, 2.0)[:, None, None]
            self._slice_table = table.reshape(-1, table.shape[2])
        # (pairs, T): the sums over l of v_i v_j for each pair i <= j
        by_coord = np.ascontiguousarray(np.moveaxis(slices, 2, 0))
        sums = np.concatenate([np.einsum("tl,ptl->pt", by_coord[i], by_coord[i:])
                               for i in range(len(by_coord))])
        c = sums.ravel() @ self._slice_table / (self.T * slices.shape[1])
        return c[:-1], float(c[-1])

    def per_draw(self, Phi, slices=None):
        """Per-draw objective <P_t, V_t> + c_t . Phi + |S_t|^2 / 2, with the
        curvature coefficients c and the weighted scores S it used."""
        c, c_prior = self.curvature(slices)
        S = self.prior_score + self.A @ Phi
        return c_prior + c @ Phi + 0.5 * np.sum(S**2, axis=1), c, S

    def value_and_grad(self, Phi, slices=None):
        """The draw-averaged objective at feature sums Phi and its gradient
        in Phi, from the precomputed quadratic: the value
        c_prior + |p|^2 / 2 + (c + h) . Phi + Phi^T G Phi / 2 and the
        gradient c + h + G Phi, with c and c_prior the mean curvature."""
        c, c_prior = self.mean_curvature(slices)
        lin = c + self.h
        G_Phi = self.G @ Phi
        value = c_prior + self.half_prior_sq + lin @ Phi + 0.5 * (Phi @ G_Phi)
        return float(value), lin + G_Phi


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
