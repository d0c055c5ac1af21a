"""Hermetic verification suite: the divergence/kernel identities and the
derivative audits, with all fixtures constructed internally.

These checks double as the acceptance harness: the CLI ``verify`` command and
the test suite call the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import objective_gradients, objective_value
from .divergence import (
    BayesKernel,
    NonBayesKernel,
    PosteriorCoefficients,
    PosteriorDraws,
    fd_direct,
    fd_ibp_objective,
    loss_gradient_gap,
    mmd_squared,
    sfd_objective,
)
from .measures import build_measure
from .models import (
    BayesLinReg,
    GaussianMeanLocation,
    KidScoreModel,
    LogisticLoss,
    SquaredErrorLoss,
    _central,
    finite_difference_audit,
)
from .samplers import exact_gaussian_mean_draws


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_bayes_instance(rng):
    """Random model + data + draws + weighted recon measure, small sizes."""
    if rng.random() < 0.5:
        d = int(rng.integers(1, 4))
        model = GaussianMeanLocation(d)
        N = int(rng.integers(1, 11))
        M = int(rng.integers(1, 11))
        X = rng.standard_normal((N, d))
        Z = rng.standard_normal((M, d))
    else:
        x_dim = int(rng.integers(1, 3))
        model = BayesLinReg.identity_with_intercept(x_dim)
        N = int(rng.integers(1, 11))
        M = int(rng.integers(1, 11))
        X = np.column_stack([np.ones(N), rng.standard_normal((N, x_dim + 1))])
        Z = np.column_stack([np.ones(M), rng.standard_normal((M, x_dim + 1))])
    T = int(rng.integers(10, 201))
    draws = PosteriorDraws(rng.standard_normal((T, model.param_dim)))
    w = rng.standard_normal(M)
    return model, build_measure(X), build_measure(Z, w), draws


def check_fd_mmd_identity(n_instances: int = 50, tol: float = 1e-9,
                          seed: int = 20240817) -> CheckResult:
    """Exact identity: score-gap divergence equals half the squared MMD with
    the draw-averaged score kernel, per draw set."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        model, target, recon, draws = _random_bayes_instance(rng)
        fd = fd_direct(model, draws, target, recon).value
        mmd2 = mmd_squared(BayesKernel(model, draws), target, recon)
        rel = abs(fd - 0.5 * mmd2) / max(abs(fd), 1e-300)
        worst = max(worst, rel)
    return CheckResult("fd_equals_half_mmd_squared", worst < tol,
                       f"max rel err {worst:.3e} (tol {tol:g})")


def _random_loss_instance(rng):
    if rng.random() < 0.5:
        x_dim = int(rng.integers(1, 3))
        model = SquaredErrorLoss.identity_with_intercept(x_dim, ridge=float(rng.random()))
        N = int(rng.integers(1, 11))
        M = int(rng.integers(1, 11))
        X = np.column_stack([np.ones(N), rng.standard_normal((N, x_dim + 1))])
        Z = np.column_stack([np.ones(M), rng.standard_normal((M, x_dim + 1))])
    else:
        d = int(rng.integers(1, 4))
        model = LogisticLoss(d, ridge=float(rng.random()))
        N = int(rng.integers(1, 11))
        M = int(rng.integers(1, 11))
        X = np.column_stack([rng.standard_normal((N, d)), rng.choice([-1.0, 1.0], N)])
        Z = np.column_stack([rng.standard_normal((M, d)), rng.standard_normal(M)])
    theta_star = rng.standard_normal(model.param_dim)
    w = rng.standard_normal(M)
    return model, theta_star, build_measure(X), build_measure(Z, w)


def check_nonbayes_identity(n_instances: int = 50, tol: float = 1e-10,
                            seed: int = 20240818) -> CheckResult:
    """Exact identity: the loss-gradient gap norm equals the square root of
    the MMD with the loss-gradient kernel."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        model, theta_star, target, recon = _random_loss_instance(rng)
        gap = loss_gradient_gap(model, theta_star, target, recon)
        mmd2 = mmd_squared(NonBayesKernel(model, theta_star), target, recon)
        root = np.sqrt(max(mmd2, 0.0))
        rel = abs(gap - root) / max(abs(gap), 1e-300)
        worst = max(worst, rel)
    return CheckResult("nonbayes_gap_equals_sqrt_mmd", worst < tol,
                       f"max rel err {worst:.3e} (tol {tol:g})")


def _sfd_fd_instance(T, L, seed):
    """Gaussian-mean draws, a weighted recon measure with its feature sums,
    and L standard-normal slices per draw."""
    rng = np.random.default_rng(seed)
    d = 2
    model = GaussianMeanLocation(d)
    X = rng.standard_normal((6, d))
    Z = rng.standard_normal((4, d))
    recon = build_measure(Z, rng.standard_normal(4))
    draws = exact_gaussian_mean_draws(X, T, seed=seed + 1)
    slices = rng.standard_normal((T, L, d))
    Phi = recon.weights @ model.phi(recon.points)
    return model, draws, recon, Phi, slices


def check_sfd_fd_agreement(T: int = 100, L: int = 10_000,
                           seed: int = 20240819) -> CheckResult:
    """Statistical identity: the sliced objective converges to the trace-form
    objective as the slice count grows; tested at 3 combined MC errors."""
    model, draws, recon, Phi, slices = _sfd_fd_instance(T, L, seed)
    sfd = sfd_objective(model, draws, slices, recon)
    fd = fd_ibp_objective(model, draws, recon)
    # slice-MC error of the quadratic-form term v^T H_t v, on top of the
    # shared draws; H_t = P_t + sum_k Phi_k B_tk is the pseudo-posterior Hessian
    coef = PosteriorCoefficients(model, draws.draws)
    H = coef.prior_hess + np.einsum("tkij,k->tij", coef.B, Phi)
    quads = np.einsum("tij,tli,tlj->tl", H, slices, slices)
    se_slice = float(np.std(quads.mean(axis=0), ddof=1) / np.sqrt(L))
    se = np.sqrt(se_slice**2 + sfd.std_error**2 + fd.std_error**2)
    gap = abs(sfd.value - fd.value)
    return CheckResult("sfd_matches_fd_ibp", gap <= 3 * se,
                       f"gap {gap:.3e} vs 3*se {3 * se:.3e}")


def check_sfd_fd_agreement_paired(T: int = 100, L: int = 10_000,
                                  seed: int = 20240819) -> CheckResult:
    """The sfd/fd agreement on the attack's objective path, within 3 paired
    standard errors. Per draw the two objectives differ only by
    <H_t, V_t - I>, whose slice expectation is zero, so the error of the
    mean difference excludes the draw-to-draw spread both share."""
    model, draws, recon, Phi, slices = _sfd_fd_instance(T, L, seed)
    sfd = objective_value("sfd", model, recon, draws=draws, slices=slices)
    fd = objective_value("fd", model, recon, draws=draws)
    coef = PosteriorCoefficients(model, draws.draws)
    diff = coef.per_draw(Phi, slices)[0] - coef.per_draw(Phi)[0]
    se = float(np.std(diff, ddof=1) / np.sqrt(T))
    gap = abs(sfd - fd)
    return CheckResult("sfd_matches_fd_ibp_paired", gap <= 3 * se,
                       f"gap {gap:.3e} vs 3*paired se {3 * se:.3e}")


def check_sfd_axis_slices(n_draws: int = 100, tol: float = 1e-12,
                          seed: int = 20240824) -> CheckResult:
    """Exact identity: the L = d slices sqrt(d) e_i average v v^T to I, so the
    sliced objective equals the trace form (Gaussian mean, regression, kid score)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model in (GaussianMeanLocation(2), BayesLinReg.identity_with_intercept(1),
                  KidScoreModel()):
        d = model.param_dim
        thetas = rng.standard_normal((n_draws, d))
        draws = PosteriorDraws(thetas[model.in_domain(thetas)])
        recon = build_measure(rng.standard_normal((5, model.layout.p)), rng.standard_normal(5))
        slices = np.broadcast_to(np.sqrt(d) * np.eye(d), (draws.T, d, d))
        sfd = sfd_objective(model, draws, slices, recon).value
        fd = fd_ibp_objective(model, draws, recon).value
        worst = max(worst, abs(sfd - fd) / max(abs(fd), 1e-300))
    return CheckResult("sfd_equals_fd_at_axis_slices", worst < tol,
                       f"max rel err {worst:.3e} (tol {tol:g})")


def _statistic_space_instance(model, rng, T=60, M=7):
    """Draws inside the model's domain and a weighted measure whose frozen
    coordinates hold their pinned value."""
    thetas = 0.7 * rng.standard_normal((T, model.param_dim))
    if isinstance(model, KidScoreModel):
        thetas[:, 2] = 0.4 + rng.random(T)
    pts = rng.standard_normal((M, model.layout.p))
    pts[:, list(model.layout.frozen_idx)] = model.layout.frozen_value
    return thetas, build_measure(pts, rng.standard_normal(M))


def check_sfd_slice_table(n_instances: int = 5, L: int = 3, tol: float = 1e-12,
                          seed: int = 20240825) -> CheckResult:
    """Exact identity: at random normal slices the attack's sliced objective,
    which contracts a table of the distinct Hessian entries, equals the
    per-draw quadratic forms of ``sfd_objective``. The regression Hessians
    have off-diagonal entries, so an error in those table rows shows."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    models = (BayesLinReg.identity_with_intercept(2), BayesLinReg.polynomial(3), KidScoreModel())
    for model in n_instances * models:
        thetas, recon = _statistic_space_instance(model, rng)
        draws = PosteriorDraws(thetas)
        slices = rng.standard_normal((draws.T, L, model.param_dim))
        table = objective_value("sfd", model, recon, draws=draws, slices=slices)
        ref = sfd_objective(model, draws, slices, recon).value
        worst = max(worst, abs(table - ref) / max(abs(ref), 1e-300))
    return CheckResult("sfd_slice_table_matches_per_draw", worst < tol,
                       f"max rel err {worst:.3e} (tol {tol:g})")


def _ibp_instance(T, seed):
    """One-dimensional Gaussian-mean data, a weighted recon measure, exact
    posterior draws and the target-data posterior score at each draw (the
    oracle constant is half its mean square)."""
    rng = np.random.default_rng(seed)
    model = GaussianMeanLocation(1)
    X = rng.standard_normal((5, 1))
    target = build_measure(X)
    Z = rng.standard_normal((3, 1))
    w = rng.standard_normal(3)
    recon = build_measure(Z, w)
    draws = exact_gaussian_mean_draws(X, T, seed=seed + 1)
    thetas = draws.draws
    S_target = model.prior_score_batch(thetas) + np.einsum(
        "m,tmd->td", target.weights, model.score_batch(thetas, target.points))
    return model, target, recon, draws, S_target


def check_ibp_constant(T: int = 100_000, seed: int = 20240820) -> CheckResult:
    """The target-free objective plus the oracle constant (half the mean
    squared target score over the same draws) matches the direct divergence,
    and both match the closed-form Gaussian-moment value, within 3 SE."""
    model, target, recon, draws, S_target = _ibp_instance(T, seed)
    fd = fd_direct(model, draws, target, recon)
    ibp = fd_ibp_objective(model, draws, recon)
    c_per_draw = 0.5 * np.sum(S_target**2, axis=1)
    c_oracle = float(np.mean(c_per_draw))
    c_se = float(np.std(c_per_draw, ddof=1) / np.sqrt(T))

    se = np.sqrt(fd.std_error**2 + ibp.std_error**2 + c_se**2)
    gap = abs(ibp.value + c_oracle - fd.value)
    ok1 = gap <= 3 * se

    # closed form under the conjugate posterior N(mu, s2): the score gap is
    # (sum x - sum w z) - (N - S_w) * theta, an affine function of theta
    X, Z, w = target.points, recon.points, recon.weights
    N = len(X)
    mu = float(X.sum() / (N + 1))
    s2 = 1.0 / (N + 1)
    a = float(X.sum() - w @ Z.ravel())
    b = float(N - w.sum())
    fd_closed = 0.5 * ((a - b * mu) ** 2 + b**2 * s2)
    ok2 = abs(fd.value - fd_closed) <= 3 * fd.std_error
    detail = (f"ibp+C vs fd gap {gap:.3e} (3*se {3 * se:.3e}); "
              f"fd vs closed form gap {abs(fd.value - fd_closed):.3e} "
              f"(3*se {3 * fd.std_error:.3e})")
    return CheckResult("ibp_constant_consistency", ok1 and ok2, detail)


def check_ibp_constant_paired(T: int = 100_000, seed: int = 20240820) -> CheckResult:
    """The attack's fd objective plus the oracle constant matches the direct
    divergence within 3 paired standard errors: those of the per-draw
    difference of the two sides over the same draws."""
    model, target, recon, draws, S_target = _ibp_instance(T, seed)
    fd = fd_direct(model, draws, target, recon)
    ibp = objective_value("fd", model, recon, draws=draws)
    c_per_draw = 0.5 * np.sum(S_target**2, axis=1)
    coef = PosteriorCoefficients(model, draws.draws)
    ibp_per_draw, _, S_recon = coef.per_draw(recon.weights @ model.phi(recon.points))
    diff = ibp_per_draw + c_per_draw - 0.5 * np.sum((S_target - S_recon) ** 2, axis=1)
    se = float(np.std(diff, ddof=1) / np.sqrt(T))
    gap = abs(ibp + float(np.mean(c_per_draw)) - fd.value)
    return CheckResult("ibp_constant_consistency_paired", gap <= 3 * se,
                       f"ibp+C vs fd gap {gap:.3e} (3*paired se {3 * se:.3e})")


def _audit_models(rng):
    yield GaussianMeanLocation(2), rng.standard_normal(2), rng.standard_normal(2)
    m = BayesLinReg.identity_with_intercept(1)
    yield m, rng.standard_normal(2), np.array([1.0, *rng.standard_normal(2)])
    m = BayesLinReg.polynomial(3)
    yield m, rng.standard_normal(4), rng.standard_normal(2)
    m = KidScoreModel()
    theta = np.array([*rng.standard_normal(2), 0.5 + rng.random()])
    yield m, theta, np.array([1.0, *rng.standard_normal(2)])
    m = SquaredErrorLoss.identity_with_intercept(1, ridge=0.3)
    yield m, rng.standard_normal(2), np.array([1.0, *rng.standard_normal(2)])
    m = LogisticLoss(2, ridge=0.1)
    yield m, rng.standard_normal(2), rng.standard_normal(3)


def check_fd_audits(n_rounds: int = 10, seed: int = 20240821) -> CheckResult:
    """Central-difference audit of every bundled model at random interior
    points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_rounds):
        for model, theta, x in _audit_models(rng):
            report = finite_difference_audit(model, theta, x)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                return CheckResult(
                    "finite_difference_audits", False,
                    f"{type(model).__name__}: max rel err {report.max_rel_error:.3e}")
    return CheckResult("finite_difference_audits", True,
                       f"max rel err {worst:.3e} (tol 1e-5)")


def check_objective_gradients(n_states: int = 100, tol: float = 1e-5,
                              seed: int = 20240822) -> CheckResult:
    """Analytic objective gradients vs central differences of the scalar
    objective, for every objective mode."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_states):
        mode = ("fd", "sfd", "nonbayes")[i % 3]
        if mode == "nonbayes":
            model, theta_star, _, recon = _random_loss_instance(rng)
            kwargs = {"theta_star": theta_star}
        else:
            model, _, recon, draws = _random_bayes_instance(rng)
            kwargs = {"draws": draws}
            if mode == "sfd":
                kwargs["slices"] = rng.standard_normal((draws.T, 3, model.param_dim))
        rel = _gradcheck(mode, model, recon, kwargs)
        worst = max(worst, rel)
    return CheckResult("objective_gradients", worst < tol,
                       f"max rel err {worst:.3e} (tol {tol:g})")


def _gradcheck(mode, model, measure, kwargs, h: float = 1e-6) -> float:
    """Largest deviation of the analytic gradients from central differences
    of the objective over the flattened (weights, free pseudo-data) vector,
    relative to max(1, largest gradient entry)."""
    gw, gz = objective_gradients(mode, model, measure, **kwargs)
    M = measure.size
    free_idx = list(model.layout.free_idx)

    def value(x):
        pts = measure.points.copy()
        pts[:, free_idx] = x[M:].reshape(M, len(free_idx))
        return objective_value(mode, model, measure.replace(weights=x[:M], points=pts),
                               **kwargs)

    x = np.concatenate([measure.weights, measure.points[:, free_idx].ravel()])
    analytic = np.concatenate([gw, gz.ravel()])
    num = _central(value, x, np.full(len(x), h))
    return float(np.max(np.abs(analytic - num)) / max(1.0, np.max(np.abs(analytic))))


def check_norm_growth(n_trials: int = 20, seed: int = 20240823) -> CheckResult:
    """The squared measure norm sum_n k(x_n, x_n) strictly increases as data
    points are appended, for the draw-averaged score kernel."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        d = int(rng.integers(1, 4))
        model = GaussianMeanLocation(d)
        X = rng.standard_normal((8, d)) + rng.standard_normal(d)
        draws = PosteriorDraws(rng.standard_normal((50, d)))
        kernel = BayesKernel(model, draws)
        norms = []
        for n in range(1, len(X) + 1):
            g = kernel.gram(X[:n], X[:n])
            norms.append(float(np.trace(g)))
        diffs = np.diff(norms)
        if not np.all(diffs > 0):
            return CheckResult("norm_growth", False,
                               f"non-increasing step: min diff {diffs.min():.3e}")
    return CheckResult("norm_growth", True, f"{n_trials} trials, all strictly increasing")


ALL_CHECKS = (
    check_fd_mmd_identity,
    check_nonbayes_identity,
    check_sfd_fd_agreement,
    check_sfd_fd_agreement_paired,
    check_sfd_axis_slices,
    check_sfd_slice_table,
    check_ibp_constant,
    check_ibp_constant_paired,
    check_fd_audits,
    check_objective_gradients,
    check_norm_growth,
)


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        if name_filter and name_filter not in fn.__name__:
            continue
        results.append(fn())
    return results
