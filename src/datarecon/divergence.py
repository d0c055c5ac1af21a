"""Score-matching divergences and the model-induced MMD kernels.

The attacker-facing objectives (integration-by-parts and sliced forms) drop
the additive constant that does not depend on the reconstruction.
``fd_direct`` needs the target measure and is a test-side oracle only.
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
class SliceMoments:
    """The slice directions of each draw's block, reduced to what the sliced
    objective uses: ``sums[p, t]`` is sum_l v_i v_j over the L directions of
    draw t, for the p-th pair i <= j in ``np.triu_indices(d)`` order, so
    V_t = sums[:, t] / L. A (pairs, T) array with its L cannot pass for the
    (T, L, d) directions themselves."""

    sums: np.ndarray  # (d(d+1)/2, T)
    L: int

    @classmethod
    def of(cls, slices: np.ndarray) -> "SliceMoments":
        """The pair sums of raw slice directions of shape (T, L, d)."""
        by_coord = np.ascontiguousarray(np.moveaxis(slices, 2, 0))
        return cls(np.concatenate([np.einsum("tl,ptl->pt", by_coord[i], by_coord[i:])
                                   for i in range(len(by_coord))]), slices.shape[1])


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    std_error: float


def _estimate(per_draw: np.ndarray) -> DivergenceEstimate:
    T = len(per_draw)
    se = float(np.std(per_draw, ddof=1) / np.sqrt(T)) if T > 1 else 0.0
    return DivergenceEstimate(float(np.mean(per_draw)), se)


def fd_direct(model, draws: PosteriorDraws, target_measure, recon_measure) -> DivergenceEstimate:
    """Score-gap divergence computed with the (test-known) target measure.

    The prior score cancels in the gap, so only likelihood scores enter.
    """
    thetas = model.check_draws(draws.draws)
    s_target, s_recon = (np.einsum("m,tmd->td", m.weights, model.score_batch(thetas, m.points))
                         for m in (target_measure, recon_measure))
    per_draw = 0.5 * np.sum((s_target - s_recon) ** 2, axis=1)
    return _estimate(per_draw)


class PosteriorCoefficients:
    """Per-draw coefficients of the weighted pseudo-posterior in feature space.

    For a measure with feature sums Phi = sum_m w_m phi(z_m), the weighted
    pseudo-posterior has log density log pi(theta) + a(theta) . Phi: the
    prior is feature K+1, held at weight 1. With Phi1 = (Phi, 1), its score
    at draw t is S_t = A_t Phi1 and its Hessian sum_k Phi1_k B_tk, where
    A (T, d, K+1) and B (T, K+1, d, d) are the model's ``score_coef`` and
    ``hess_coef``, which end with the prior score and Hessian. A B that is
    fixed over the draws stays the model's broadcast view.
    The draw average of |S_t|^2 / 2 is therefore Phi1^T G Phi1 / 2 with
    G = mean_t A_t^T A_t, computed once per draw set together with the trace
    (fd) curvature, so an fd evaluation costs O(K^2) whatever T is.
    """

    def __init__(self, model, thetas):
        thetas = model.check_draws(thetas)
        self.A = model.score_coef(thetas)
        self.B = model.hess_coef(thetas)
        self.trace_c = np.einsum("tkii->tk", self.B)
        T, d, K1 = self.A.shape
        A = self.A.reshape(T * d, K1)
        self.G = A.T @ A / T
        self.c_bar = self.trace_c.mean(axis=0)
        self._slice_table = None

    def _check_slices(self, slices) -> np.ndarray:
        slices = np.asarray(slices, dtype=float)
        T, d = self.A.shape[:2]
        if slices.ndim != 3 or slices.shape[0] != T or slices.shape[1] < 1 or slices.shape[2] != d:
            raise ValueError(f"slices must have shape (T={T}, L>=1, d={d}), got {slices.shape}")
        return slices

    def curvature(self, slices=None):
        """Curvature coefficients c (T, K+1), <B_tk, V_t> with V_t = I (trace
        form) or, for slices of shape (T, L, d) with L >= 1, the slice
        average of v v^T. Slices of any other shape raise ``ValueError``."""
        if slices is None:
            return self.trace_c
        slices = self._check_slices(slices)
        V = slices.transpose(0, 2, 1) @ slices / slices.shape[1]
        return np.einsum("tkij,tij->tk", self.B, V)

    def mean_curvature(self, slices=None):
        """The draw average of ``curvature(slices)``, c-bar (K+1,).
        ``slices`` may also be their ``SliceMoments``.

        Each V_t enters through its d(d+1)/2 distinct entries, contracted in
        one matrix-vector product with a table of the matching entries of B,
        off-diagonal ones doubled. The table is built at the first sliced
        call only, so the trace form never holds it."""
        if slices is None:
            return self.c_bar
        T, d = self.A.shape[:2]
        if isinstance(slices, SliceMoments):
            if slices.sums.shape != (d * (d + 1) // 2, T):
                raise ValueError(f"slice moments must have shape (d(d+1)/2, T={T}) with "
                                 f"d={d}, got {slices.sums.shape}")
            moments = slices
        else:
            moments = SliceMoments.of(self._check_slices(slices))
        if self._slice_table is None:
            I, J = np.triu_indices(d)
            table = self.B[:, :, I, J].transpose(2, 0, 1) * np.where(I == J, 1.0, 2.0)[:, None, None]
            self._slice_table = table.reshape(-1, table.shape[2])  # (pairs * T, K + 1)
        # V_t = sums / L first: sums times the table could overflow at L near float max
        return (moments.sums / moments.L).ravel() @ self._slice_table / T

    def per_draw(self, Phi, slices=None):
        """Per-draw objective c_t . Phi1 + |S_t|^2 / 2, with the curvature
        coefficients c and the weighted scores S it used."""
        c = self.curvature(slices)
        Phi1 = np.concatenate((Phi, (1.0,)))
        S = self.A @ Phi1
        return c @ Phi1 + 0.5 * np.sum(S**2, axis=1), c, S

    def value_and_grad(self, Phi, slices=None):
        """The draw-averaged objective at feature sums Phi and its gradient
        in Phi, from the precomputed quadratic: with c the mean curvature,
        the value c . Phi1 + Phi1^T G Phi1 / 2 and the gradient
        (c + G Phi1)[:K]."""
        c = self.mean_curvature(slices)
        Phi1 = np.concatenate((Phi, (1.0,)))
        G_Phi1 = self.G @ Phi1
        return float(c @ Phi1 + 0.5 * (Phi1 @ G_Phi1)), (c + G_Phi1)[:-1]


def fd_ibp_objective(model, draws: PosteriorDraws, recon_measure) -> DivergenceEstimate:
    """Target-free objective: trace of the weighted-posterior Hessian plus
    half the squared weighted-posterior score, averaged over draws. It drops
    the constant half mean squared target score, so it equals ``fd_direct``
    minus that constant."""
    coef = PosteriorCoefficients(model, draws.draws)
    Phi = recon_measure.weights @ model.phi(recon_measure.points)
    return _estimate(coef.per_draw(Phi)[0])


def sfd_objective(model, draws: PosteriorDraws, slices, recon_measure) -> DivergenceEstimate:
    """Sliced form: the trace term is replaced by quadratic forms along the
    provided slice directions (shape (T, L, d)), averaged over the slices.
    Like ``fd_ibp_objective`` it drops the constant half mean squared target
    score."""
    coef = PosteriorCoefficients(model, draws.draws)
    Phi = recon_measure.weights @ model.phi(recon_measure.points)
    return _estimate(coef.per_draw(Phi, slices)[0])


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
