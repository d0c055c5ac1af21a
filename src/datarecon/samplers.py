"""Posterior draw generation and file I/O.

Exact conjugate sampling covers the Gaussian mean location model; a
random-walk Metropolis chain covers everything else (dimensions here are
small, so gradient-free MCMC is enough). Externally produced draws are
ingested from CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import integer, number
from .divergence import PosteriorDraws
from .measures import load_dataset, write_rows

# The chain draws its random numbers RWM_CHUNK steps at a time and scores up
# to RWM_BLOCK proposals from the current state per batched call.
RWM_CHUNK = 1024
RWM_BLOCK = 16


@dataclass(frozen=True)
class SamplerConfig:
    T: int = 1000                # draws kept
    burn_in: int | None = None   # defaults to 10 * T
    thinning: int = 10
    step_scale: float = 0.1
    seed: int = 0
    init: tuple[float, ...] | None = None

    def __post_init__(self):
        integer("T", self.T, 1)
        if self.burn_in is not None:
            integer("burn_in", self.burn_in, 0)
        integer("thinning", self.thinning, 0)
        number("step_scale", self.step_scale)
        integer("seed", self.seed, 0)


def exact_gaussian_mean_draws(X, T: int, seed: int = 0) -> PosteriorDraws:
    """I.i.d. draws from the conjugate posterior of the Gaussian mean
    location model: N(sum(x) / (N+1), I / (N+1))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, d = X.shape
    if N == 0:
        raise ValueError("dataset is empty")
    mu = X.sum(axis=0) / (N + 1)
    std = 1.0 / np.sqrt(N + 1)
    rng = np.random.default_rng(seed)
    draws = mu + std * rng.standard_normal((T, d))
    return PosteriorDraws(draws, source="exact")


def rwm_draws(model, X, config: SamplerConfig) -> PosteriorDraws:
    """Random-walk Metropolis chain targeting the posterior of ``model``
    given dataset ``X``. Proposals are isotropic Gaussian; proposals outside
    the model domain are auto-rejected. The dataset enters the likelihood
    only through its feature sums, so it is reduced to them once and the
    model folds them, with the prior at weight 1, into its ``log_density``;
    each proposal then costs O(K), not O(N). A proposal whose log density
    overflows to +inf is rejected too: it holds no evidence, and accepting
    it would stall the chain there.

    Every proposal made before the next acceptance starts from the current
    state, so the next ``RWM_BLOCK`` of them are scored in one batched call
    and the first accepted one is taken (pre-fetching along the all-reject
    branch). The random numbers are drawn step by step in the usual order,
    ``RWM_CHUNK`` steps at a time, so the accept/reject decisions, and thus
    the draws, are those of the one-proposal-per-step chain. A model's
    ``log_density`` may round a log posterior differently from its
    coefficient map and from a per-point sum (the regression models use one
    quadratic form in the data's scatter matrix); that matters only for a
    uniform within that rounding of the acceptance threshold.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if config.init is None:
        raise ValueError("rwm_draws needs an initial parameter vector")
    theta = model.check_theta(np.asarray(config.init, dtype=float))
    phi1 = np.append(model.phi(X).sum(axis=0), 1.0)

    burn_in = 10 * config.T if config.burn_in is None else config.burn_in
    thin = max(config.thinning, 1)
    n_steps = burn_in + config.T * thin
    rng = np.random.default_rng(config.seed)
    d = model.param_dim
    log_post = model.log_density(phi1)                 # (B, d) -> (B,)

    def n_kept(step):                                  # draws kept before ``step``
        return max(step - burn_in, 0) // thin

    kept = np.empty((config.T, d))
    accepted = 0
    since = 0                                          # step at which theta was set
    z = np.empty((RWM_CHUNK, d))
    u = np.empty(RWM_CHUNK)
    normal, uniform = rng.standard_normal, rng.random
    # rows outside the domain are evaluated too, then masked to -inf
    with np.errstate(all="ignore"):
        lp = log_post(theta[None, :])[0]
        if not np.isfinite(lp):
            raise ValueError(f"init {list(config.init)} has zero posterior probability")
        for start in range(0, n_steps, RWM_CHUNK):
            n = min(RWM_CHUNK, n_steps - start)
            for i in range(n):
                normal(out=z[i])
                u[i] = uniform()
            moves = config.step_scale * z[:n]
            log_u = np.log(u[:n])
            i = 0
            while i < n:
                props = theta + moves[i:i + RWM_BLOCK]
                lp_props = log_post(props)
                accept = log_u[i:i + RWM_BLOCK] < lp_props - lp
                j = int(accept.argmax())
                if not accept[j]:
                    i += len(props)
                    continue
                if lp_props[j] == np.inf:
                    i += j + 1
                    continue
                kept[n_kept(since):n_kept(start + i + j)] = theta
                theta, lp, since = props[j], lp_props[j], start + i + j
                accepted += 1
                i += j + 1
    kept[n_kept(since):] = theta
    return PosteriorDraws(kept, source="rwm", acceptance_rate=accepted / n_steps)


def save_draws(path, draws: PosteriorDraws) -> None:
    """Write draws to CSV at full float64 precision (17 significant digits),
    under ``draws.names`` or, without them, theta0, theta1, ..."""
    write_rows(path, draws.names or tuple(f"theta{i}" for i in range(draws.dim)), draws.draws)


def load_draws(path) -> PosteriorDraws:
    data, header = load_dataset(path)
    return PosteriorDraws(data, source="file", names=header)
