"""Posterior draw generation and file I/O.

Exact conjugate sampling covers the Gaussian mean location model; a
random-walk Metropolis chain covers everything else (dimensions here are
small, so gradient-free MCMC is enough). Externally produced draws are
ingested from CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .divergence import PosteriorDraws


@dataclass(frozen=True)
class SamplerConfig:
    T: int
    burn_in: int | None = None   # defaults to 10 * T
    thinning: int = 10
    step_scale: float = 0.1
    seed: int = 0
    init: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 0:
            raise ValueError("thinning must be >= 0")
        if not (np.isfinite(self.step_scale) and self.step_scale > 0):
            raise ValueError("step_scale must be finite and positive")


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
    only through its feature sums, so it is reduced to them once and each
    proposal costs O(K), not O(N)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if config.init is None:
        raise ValueError("rwm_draws needs an initial parameter vector")
    theta = model.check_theta(np.asarray(config.init, dtype=float))
    phi_data = model.phi(X).sum(axis=0)

    def log_post(t):
        if not model.in_domain(t[None, :]):
            return -np.inf
        return float(model.loglik_coef(t[None, :])[0] @ phi_data) + model.log_prior(t)

    lp = log_post(theta)
    if not np.isfinite(lp):
        raise ValueError("initial parameter has zero posterior probability")

    burn_in = 10 * config.T if config.burn_in is None else config.burn_in
    thin = max(config.thinning, 1)
    n_steps = burn_in + config.T * thin
    rng = np.random.default_rng(config.seed)
    d = model.param_dim

    kept = np.empty((config.T, d))
    n_kept = 0
    accepted = 0
    for step in range(n_steps):
        prop = theta + config.step_scale * rng.standard_normal(d)
        lp_prop = log_post(prop)
        if np.log(rng.random()) < lp_prop - lp:
            theta, lp = prop, lp_prop
            accepted += 1
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            kept[n_kept] = theta
            n_kept += 1
    if n_kept != config.T:
        raise RuntimeError(f"rwm chain kept {n_kept} draws, expected {config.T}")
    return PosteriorDraws(kept, source="rwm", acceptance_rate=accepted / n_steps)


def save_draws(path, draws: PosteriorDraws, names=None) -> None:
    """Write draws to CSV at full float64 precision (17 significant digits)."""
    d = draws.dim
    if names is None:
        names = draws.names or tuple(f"theta{i}" for i in range(d))
    if len(names) != d:
        raise ValueError("column names must match the draw dimension")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in draws.draws:
            writer.writerow([f"{v:.17g}" for v in row])


def load_draws(path) -> PosteriorDraws:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} columns, expected {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}: row {lineno} contains a non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no draws")
    return PosteriorDraws(np.asarray(rows), source="file", names=tuple(header))
