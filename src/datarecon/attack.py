"""Reconstruction attack loop: objective gradients over (weights, pseudo-data),
Adam updates and convergence traces of the recoverable statistics.

Three objective modes: 'fd' (integration-by-parts trace form), 'sfd'
(sliced quadratic forms, a fresh draw of each slice block's second moment
every iteration) and
'nonbayes' (squared norm of the weighted loss-gradient sum at the released
parameters). All three are assembled in statistic space by one evaluator:
the pseudo-measure enters only through a feature sum, which a per-mode head
(for fd/sfd a quadratic in the feature sums, averaged over the draws once per
run; the regularizer gradient for nonbayes) maps to the value and its gradient.
Coordinates marked frozen in the layout receive no gradient and never move.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .checks import integer, number
from .divergence import PosteriorCoefficients, PosteriorDraws, SliceMoments
from .measures import (
    ReconStats,
    WeightedEmpiricalMeasure,
    build_measure,
    recon_statistics,
    stat_errors,
    write_rows,
)
from .models import LossModel

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AttackDiverged(RuntimeError):
    """The objective became non-finite during an attack. Carries the work
    done so far: the iteration that diverged, the trace recorded before it
    and the last measure whose objective was finite (the initial measure if
    the first evaluation already failed)."""

    def __init__(self, iteration: int, trace: AttackTrace,
                 measure: WeightedEmpiricalMeasure):
        super().__init__(f"objective became non-finite at iteration {iteration}")
        self.iteration = iteration
        self.trace = trace
        self.measure = measure


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
            raise ValueError(f"objective must be fd, sfd or nonbayes, got {self.objective!r}")
        for name, low in (("M", 1), ("iters", 1), ("L", 1), ("seed", 0), ("trace_every", 1)):
            integer(name, getattr(self, name), low)
        number("L", self.L)           # draw_slices takes L as a float
        number("lr_w", self.lr_w)
        number("lr_z", self.lr_z)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

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
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads**2
    m_hat = state.m / (1 - ADAM_BETA1**state.step)
    v_hat = state.v / (1 - ADAM_BETA2**state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@functools.lru_cache(maxsize=32)
def _slice_plan(L: int, d: int):
    """What ``draw_slices`` needs of (L, d), built once: the number of
    below-diagonal normals, the gamma shapes (L - k) / 2 of the diagonal,
    the number of pairs p <= q, and per k < min(L, d) the terms A_pk A_qk
    that are not zero by construction. Those are the pairs with p >= k, a
    tail of the ``np.triu_indices(d)`` order: the plan holds where the tail
    starts and the rows of A_pk and A_qk in A's packed rows (normals in
    ``np.tril_indices(d, -1)`` order, then the diagonal)."""
    m = min(L, d)
    below = [(i, j) for i in range(d) for j in range(i) if j < m]
    row = {entry: r for r, entry in enumerate(below)}
    row.update({(k, k): len(below) + k for k in range(m)})
    shapes = tuple((float(L) - k) / 2.0 for k in range(m))
    pairs = [(p, q) for p in range(d) for q in range(p, d)]
    terms = []
    for k in range(m):
        start = pairs.index((k, k))
        rows = np.array([[row[p, k] for p, _ in pairs[start:]],
                         [row[q, k] for _, q in pairs[start:]]])
        rows.setflags(write=False)                   # shared by every call
        terms.append((start, *rows))
    return len(below), shapes, len(pairs), tuple(terms)


def draw_slices(rng: np.random.Generator, T: int, L: int, d: int) -> SliceMoments:
    """The second moments of one block of L standard-normal slice directions
    per draw, drawn directly rather than from the directions.

    The block sum of v v^T is Wishart_d(L, I), which equals A A^T in law
    (Bartlett; Odell & Feiveson, JASA 1966) for the lower-trapezoidal
    A (d, min(L, d)) whose entries below the diagonal are N(0, 1) and whose
    diagonal entries are sqrt(chi^2_{L-i}) = sqrt(2 Gamma((L - i) / 2)). This
    is exact for every L >= 1, L < d included, and takes at most d(d+1)/2
    variates per draw whatever L is: one call draws all the normals, then
    one call per diagonal entry its gammas. Each pair sum adds its terms
    A_pk A_qk in ascending k."""
    n_below, shapes, n_pairs, terms = _slice_plan(L, d)
    A = np.empty((n_below + len(shapes), T))     # A's nonzero entries, packed by row
    rng.standard_normal(out=A[:n_below])
    for r, shape in enumerate(shapes, n_below):
        rng.standard_gamma(shape, size=T, out=A[r])
    diag = A[n_below:]
    np.sqrt(np.multiply(diag, 2.0, out=diag), out=diag)
    sums = np.empty((n_pairs, T))
    (_, a, b), *rest = terms                     # k = 0 reaches every pair
    np.multiply(A[a], A[b], out=sums)
    for start, a, b in rest:
        sums[start:] += A[a] * A[b]
    return SliceMoments(sums, L)


def initialize_pseudo(model, config: AttackConfig, draws: PosteriorDraws | None = None,
                      theta_star=None) -> WeightedEmpiricalMeasure:
    """Initial measure: unit weights, standard-normal free x-coordinates and,
    for regression layouts, responses set to the model prediction at the
    mean parameters plus mean-noise-scale Gaussian perturbations."""
    layout = model.layout
    rng = np.random.default_rng([config.seed, 0])
    points = np.zeros((config.M, layout.p))
    points[:, list(layout.frozen_idx)] = layout.frozen_value
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

def objective_value(objective: str, model, measure, *, draws=None, slices=None,
                    theta_star=None) -> float:
    """Scalar objective being minimised (nonbayes mode: the squared gradient
    norm, whose gradients are smooth at the optimum)."""
    return _evaluator(objective, model, draws, theta_star)(measure, slices, False)[0]


def objective_gradients(objective: str, model, measure, *, draws=None, slices=None,
                        theta_star=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the scalar objective with respect to the weights (M,) and
    the free pseudo-data coordinates (M, p_free)."""
    _, gw, gz = _evaluator(objective, model, draws, theta_star)(measure, slices, True)
    return gw, gz


def check_model_fits(objective: str, model) -> None:
    """The objective/model rule: fd and sfd take a likelihood model, nonbayes
    a loss model. A ``ValueError`` names the objective otherwise."""
    if objective not in ("fd", "sfd", "nonbayes"):
        raise ValueError(f"unknown objective: {objective!r}")
    if isinstance(model, LossModel) != (objective == "nonbayes"):
        kind = "loss" if objective == "nonbayes" else "likelihood"
        raise ValueError(f"objective {objective!r} takes a {kind} model, "
                         f"not {type(model).__name__}")


def _evaluator(objective, model, draws, theta_star):
    """Check the run-level inputs of an objective once and return
    ``f(measure, slices, want_grads) -> (value, grad_w, grad_z)``, which
    takes slices in sfd mode only.

    Every mode depends on the measure only through the feature sum
    Phi = w @ phi(Z). ``features`` gives phi (M, K) and its data Jacobian
    (M, K, p_free), which fd/sfd build only on request; ``head`` maps Phi to
    the value and its gradient g in Phi. fd/sfd: phi is the model's features
    (``phi_and_jac``) and the head is the posterior coefficients. nonbayes:
    phi(z) = grad_theta loss(theta*, z) and the value is |G|^2 with
    G = reg_grad(theta*) + Phi, so g = 2G.
    """
    check_model_fits(objective, model)
    sliced = objective == "sfd"
    if objective in ("fd", "sfd"):
        if draws is None:
            raise ValueError(f"{objective} objective requires posterior draws")
        features = model.phi_and_jac
        head = PosteriorCoefficients(model, draws.draws).value_and_grad
    else:
        if theta_star is None:
            raise ValueError("nonbayes objective requires released parameters")
        theta_star = np.asarray(theta_star, dtype=float).ravel()
        reg = model.reg_grad(theta_star)

        def features(points, want_jac):
            return model.grad_and_jac_batch(theta_star, points)

        def head(Phi, slices):
            G = reg + Phi
            return float(G @ G), 2.0 * G

    def evaluate(measure, slices, want_grads):
        if (slices is None) == sliced:
            raise ValueError("sfd objective requires slice directions" if sliced
                             else f"{objective} objective takes no slices")
        w = measure.weights
        phi, phi_jac = features(measure.points, want_grads)
        value, g = head(w @ phi, slices)
        if not want_grads:
            return value, None, None
        return value, phi @ g, w[:, None] * np.einsum("mkp,k->mp", phi_jac, g)

    return evaluate


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

    def rows(self):
        """One list of (column name, value) pairs per checkpoint: iteration,
        objective, ``ReconStats.columns()``, then any ``err_*`` errors."""
        for cp in self.checkpoints:
            row = [("iteration", float(cp.iteration)), ("objective", cp.objective),
                   *cp.stats.columns()]
            if cp.errors is not None:
                row += [(f"err_{k}", v) for k, v in cp.errors.items()]
            yield row

    def write_csv(self, path) -> None:
        # streamed row by row: holding all of logistic_nonbayes' 401 rows of
        # 34 (name, value) pairs at once raised its peak RSS from 37.9 to
        # 39.8 MB (+5.1%, medians of 10 perfbench runs on a 2-vCPU VM),
        # beyond the benchmark's 5% bound
        rows = self.rows()
        first = next(rows, [])
        write_rows(path, [name for name, _ in first],
                   ([v for _, v in row] for row in itertools.chain([first], rows) if row))


def run_attack(model, config: AttackConfig, *, draws: PosteriorDraws | None = None,
               theta_star=None, target_points=None
               ) -> tuple[AttackTrace, WeightedEmpiricalMeasure]:
    """Run the full reconstruction: initialise, iterate gradient steps with
    Adam, record trace checkpoints. ``target_points`` (test mode only)
    enables per-checkpoint relative-error reporting against the true data.
    Raises ``AttackDiverged`` at the first non-finite objective value."""
    evaluate = _evaluator(config.objective, model, draws, theta_star)
    layout = model.layout
    measure = initialize_pseudo(model, config, draws=draws, theta_star=theta_star)
    free_idx = list(layout.free_idx)
    M, pf = config.M, layout.p_free

    params = np.concatenate([measure.weights, measure.points[:, free_idx].ravel()])
    lr = np.concatenate([np.full(M, config.lr_w), np.full(M * pf, config.lr_z)])
    state = AdamState.zeros(len(params))

    slice_rng = np.random.default_rng([config.seed, 1])
    target_stats = (None if target_points is None
                    else recon_statistics(build_measure(target_points), layout))

    header = {**asdict(config), "L": config.L if config.objective == "sfd" else None,
              "adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS}
    trace = AttackTrace(header)

    good = measure
    # pass `iters` only evaluates and records the final measure
    for it in range(config.iters + 1):
        last = it == config.iters
        slices = (draw_slices(slice_rng, draws.T, config.L, model.param_dim)
                  if config.objective == "sfd" else None)
        pts = measure.points.copy()
        pts[:, free_idx] = params[M:].reshape(M, pf)
        meas = WeightedEmpiricalMeasure(params[:M].copy(), pts)
        value, gw, gz = evaluate(meas, slices, not last)
        if not np.isfinite(value):
            raise AttackDiverged(it, trace, good)
        good = meas
        if last or it % config.trace_every == 0:
            stats = recon_statistics(meas, layout)
            errs = stat_errors(target_stats, stats) if target_stats is not None else None
            trace.checkpoints.append(Checkpoint(it, value, stats, errs))
        if not last:
            params = adam_update(state, params, np.concatenate([gw, gz.ravel()]), lr)
    return trace, good
