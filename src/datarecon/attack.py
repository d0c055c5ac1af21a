"""Reconstruction attack loop: objective gradients over (weights, pseudo-data),
Adam updates and convergence traces of the recoverable statistics.

Three objective modes: 'fd' (integration-by-parts trace form), 'sfd'
(sliced quadratic forms, fresh slice directions every iteration) and
'nonbayes' (squared norm of the weighted loss-gradient sum at the released
parameters). The fd and sfd values and gradients are assembled in statistic
space, from the feature sums of the pseudo-measure and per-draw coefficients
computed once per run; the nonbayes ones from the loss callbacks.
Coordinates marked frozen in the layout receive no gradient and never move.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .divergence import PosteriorCoefficients, PosteriorDraws
from .measures import (
    ReconStats,
    WeightedEmpiricalMeasure,
    build_measure,
    recon_statistics,
    stat_errors,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AttackConfig:
    objective: str                # 'fd' | 'sfd' | 'nonbayes'
    M: int
    iters: int
    lr_w: float = 1e-3
    lr_z: float = 1e-3
    L: int = 10                   # slices per draw (sfd only)
    seed: int = 0
    trace_every: int = 100

    def __post_init__(self):
        if self.objective not in ("fd", "sfd", "nonbayes"):
            raise ValueError(f"unknown objective: {self.objective!r}")
        for name in ("M", "iters", "L", "seed", "trace_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("lr_w", "lr_z"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (np.isfinite(value) and value > 0)):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.objective == "sfd" and self.L < 1:
            raise ValueError("L must be >= 1 for the sliced objective")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


def adam_update(state: AdamState, params: np.ndarray, grads: np.ndarray,
                lr: np.ndarray) -> np.ndarray:
    """One Adam step with bias correction; ``lr`` may be a per-parameter
    vector (used here for separate weight / pseudo-data rates)."""
    if params.shape != grads.shape or state.m.shape != params.shape:
        raise ValueError("parameter, gradient and state shapes must match")
    state.step += 1
    state.m = state.beta1 * state.m + (1 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1 - state.beta2) * grads**2
    m_hat = state.m / (1 - state.beta1**state.step)
    v_hat = state.v / (1 - state.beta2**state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def draw_slices(rng: np.random.Generator, T: int, L: int, d: int) -> np.ndarray:
    """One block of L standard-normal slice directions per draw."""
    return rng.standard_normal((T, L, d))


def initialize_pseudo(model, config: AttackConfig, draws: PosteriorDraws | None = None,
                      theta_star=None) -> WeightedEmpiricalMeasure:
    """Initial measure: unit weights, standard-normal free x-coordinates and,
    for regression layouts, responses set to the model prediction at the
    mean parameters plus mean-noise-scale Gaussian perturbations."""
    layout = model.layout
    rng = np.random.default_rng([config.seed, 0])
    points = np.zeros((config.M, layout.p))
    for idx, val in zip(layout.frozen_idx, layout.frozen_values):
        points[:, idx] = val
    free_x = [i for i in layout.x_idx if i not in layout.frozen_idx]
    if free_x:
        points[:, free_x] = rng.standard_normal((config.M, len(free_x)))
    if layout.y_idx is not None:
        if theta_star is not None:
            theta_bar = np.asarray(theta_star, dtype=float).ravel()
        elif draws is not None and draws.T >= 1:
            theta_bar = draws.draws.mean(axis=0)
        else:
            raise ValueError("regression initialisation needs draws or theta_star")
        x_part = points[:, list(layout.x_idx)]
        mean = np.asarray(model.predict_mean(theta_bar, x_part)).ravel()
        scale = model.noise_scale(theta_bar)
        points[:, layout.y_idx] = mean + scale * rng.standard_normal(config.M)
    return build_measure(points, np.ones(config.M))


# --- objective values and gradients ------------------------------------------

def _bayes_value_and_grads(model, coef, measure, slices=None, want_grads=True):
    """fd/sfd objective in statistic space: the measure enters only through
    its feature sums Phi = sum_m w_m phi(z_m). ``coef`` holds the per-draw
    coefficients; ``slices is None`` selects the trace (fd) form."""
    w = measure.weights
    phi = model.phi(measure.points)                              # (M, K)
    per_draw, c, S = coef.per_draw(w @ phi, slices)
    value = float(np.mean(per_draw))
    if not want_grads:
        return value, None, None
    g = c.mean(axis=0) + np.einsum("tdk,td->k", coef.A, S) / coef.T   # d value / d Phi
    grad_w = phi @ g
    grad_z = w[:, None] * np.einsum("mkp,k->mp", model.phi_jac(measure.points), g)
    return value, grad_w, grad_z


def _nonbayes_value_and_grads(loss_model, theta_star, measure, want_grads=True):
    w = measure.weights
    if want_grads:
        grads, jac = loss_model.grad_and_jac_batch(theta_star, measure.points)
    else:
        grads = loss_model.grad_theta_batch(theta_star, measure.points)   # (M, d)
    G = loss_model.reg_grad(theta_star) + w @ grads
    value = float(G @ G)
    if not want_grads:
        return value, None, None
    grad_w = 2.0 * grads @ G
    grad_z = 2.0 * w[:, None] * np.einsum("mdj,d->mj", jac, G)
    return value, grad_w, grad_z


def objective_value(objective: str, model, measure, *, draws=None, slices=None,
                    theta_star=None) -> float:
    """Scalar objective being minimised (nonbayes mode: the squared gradient
    norm, whose gradients are smooth at the optimum)."""
    v, _, _ = _dispatch(objective, model, measure, draws, slices, theta_star,
                        want_grads=False)
    return v


def objective_gradients(objective: str, model, measure, *, draws=None, slices=None,
                        theta_star=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the scalar objective with respect to the weights (M,) and
    the free pseudo-data coordinates (M, p_free)."""
    _, gw, gz = _dispatch(objective, model, measure, draws, slices, theta_star,
                          want_grads=True)
    return gw, gz


def _evaluator(objective, model, draws, theta_star):
    """Check the run-level inputs of an objective once and return
    ``f(measure, slices, want_grads) -> (value, grad_w, grad_z)``."""
    if objective in ("fd", "sfd"):
        if draws is None:
            raise ValueError(f"{objective} objective requires posterior draws")
        coef = PosteriorCoefficients(model, draws.draws)
        return lambda meas, slices, want: _bayes_value_and_grads(model, coef, meas, slices, want)
    if objective == "nonbayes":
        if theta_star is None:
            raise ValueError("nonbayes objective requires released parameters")
        theta_star = np.asarray(theta_star, dtype=float).ravel()
        return lambda meas, slices, want: _nonbayes_value_and_grads(model, theta_star, meas, want)
    raise ValueError(f"unknown objective: {objective!r}")


def _dispatch(objective, model, measure, draws, slices, theta_star, want_grads):
    evaluate = _evaluator(objective, model, draws, theta_star)
    if objective == "sfd":
        if slices is None:
            raise ValueError("sfd objective requires slice directions")
        slices = np.asarray(slices, dtype=float)
        if slices.shape[0] != draws.T or slices.shape[2] != model.param_dim:
            raise ValueError("slices must have shape (T, L, d)")
    elif objective == "fd" and slices is not None:
        raise ValueError("fd objective takes no slices")
    return evaluate(measure, slices, want_grads)


# --- attack loop ---------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    iteration: int
    objective: float
    stats: ReconStats
    errors: dict[str, float] | None


@dataclass
class AttackTrace:
    header: dict
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def columns(self) -> list[str]:
        if not self.checkpoints:
            return []
        first = self.checkpoints[0]
        cols = ["iteration", "objective", "total_mass"]
        cols += list(first.stats.moments().keys())
        px = first.stats.layout.px
        cols += [f"gram_{i}_{j}" for i in range(px) for j in range(i, px)]
        if first.stats.layout.y_idx is not None:
            cols += [f"xy_{i}" for i in range(px)] + ["yy"]
        if first.errors is not None:
            cols += [f"err_{k}" for k in first.errors]
        return cols

    def rows(self):
        for cp in self.checkpoints:
            row = [float(cp.iteration), cp.objective, cp.stats.total_mass]
            row += list(cp.stats.moments().values())
            px = cp.stats.layout.px
            row += [cp.stats.weighted_gram[i, j] for i in range(px) for j in range(i, px)]
            if cp.stats.layout.y_idx is not None:
                row += list(cp.stats.weighted_xy) + [cp.stats.weighted_yy]
            if cp.errors is not None:
                row += list(cp.errors.values())
            yield row

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns())
            for row in self.rows():
                writer.writerow([f"{v:.17g}" for v in row])


def run_attack(model, config: AttackConfig, *, draws: PosteriorDraws | None = None,
               theta_star=None, target_points=None
               ) -> tuple[AttackTrace, WeightedEmpiricalMeasure]:
    """Run the full reconstruction: initialise, iterate gradient steps with
    Adam, record trace checkpoints. ``target_points`` (test mode only)
    enables per-checkpoint relative-error reporting against the true data."""
    layout = model.layout
    measure = initialize_pseudo(model, config, draws=draws, theta_star=theta_star)
    free_idx = list(layout.free_idx)
    M, pf = config.M, layout.p_free

    w = measure.weights.copy()
    points = measure.points.copy()
    params = np.concatenate([w, points[:, free_idx].ravel()])
    lr = np.concatenate([np.full(M, config.lr_w), np.full(M * pf, config.lr_z)])
    state = AdamState.zeros(len(params))

    slice_rng = np.random.default_rng([config.seed, 1])
    target_stats = None
    if target_points is not None:
        target_stats = recon_statistics(build_measure(target_points), layout)

    header = {
        "objective": config.objective,
        "M": config.M,
        "iters": config.iters,
        "lr_w": config.lr_w,
        "lr_z": config.lr_z,
        "L": config.L if config.objective == "sfd" else None,
        "seed": config.seed,
        "trace_every": config.trace_every,
        "adam_beta1": ADAM_BETA1,
        "adam_beta2": ADAM_BETA2,
        "adam_eps": ADAM_EPS,
    }
    trace = AttackTrace(header)

    def current_measure():
        pts = points.copy()
        pts[:, free_idx] = params[M:].reshape(M, pf)
        return WeightedEmpiricalMeasure(params[:M].copy(), pts)

    def record(iteration, value, meas):
        stats = recon_statistics(meas, layout)
        errs = stat_errors(target_stats, stats) if target_stats is not None else None
        trace.checkpoints.append(Checkpoint(iteration, value, stats, errs))

    evaluate = _evaluator(config.objective, model, draws, theta_star)
    T = draws.T if draws is not None else 0
    for it in range(config.iters):
        slices = None
        if config.objective == "sfd":
            slices = draw_slices(slice_rng, T, config.L, model.param_dim)
        meas = current_measure()
        value, gw, gz = evaluate(meas, slices, True)
        if not np.isfinite(value):
            raise RuntimeError(f"objective became non-finite at iteration {it}")
        if it % config.trace_every == 0:
            record(it, value, meas)
        grads = np.concatenate([gw, gz.ravel()])
        params = adam_update(state, params, grads, lr)

    final = current_measure()
    slices = None
    if config.objective == "sfd":
        slices = draw_slices(slice_rng, T, config.L, model.param_dim)
    final_value = objective_value(config.objective, model, final, draws=draws,
                                  slices=slices, theta_star=theta_star)
    record(config.iters, final_value, final)
    return trace, final
