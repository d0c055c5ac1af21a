"""Output checks on one workload's artifacts.

Every check compares the program's output with a computation made here with
plain numpy, apart from the program, or with a property the method must
have. None compares with a stored copy of an earlier output. Each check
returns ``(name, passed, detail)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from workloads import Workload, logistic_grad_sum, poly_features


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Artifacts:
    """trace.csv, measure.csv and (Bayesian workloads) the posterior draws
    the attack sampled, saved as .npy."""

    def __init__(self, outdir: Path, draws_path: Path | None):
        self.cols, self.trace = read_csv(outdir / "trace.csv")
        self.measure_cols, measure = read_csv(outdir / "measure.csv")
        self.w, self.pts = measure[:, 0], measure[:, 1:]
        self.draws = np.load(draws_path) if draws_path is not None else None

    def column(self, name: str) -> np.ndarray:
        return self.trace[:, self.cols.index(name)]

    @property
    def objectives(self) -> np.ndarray:
        return self.column("objective")


def check_final_statistics(art: Artifacts):
    """The trace's final mass and moments against a recomputation from
    measure.csv."""
    w, pts = art.w, art.pts
    mass = w.sum()
    expected = {"total_mass": mass}
    for i, name in enumerate(art.measure_cols[1:]):
        if f"mean_{name}" not in art.cols:     # frozen coordinates have no moments
            continue
        mean = w @ pts[:, i] / mass
        expected[f"mean_{name}"] = mean
        expected[f"var_{name}"] = w @ pts[:, i] ** 2 / mass - mean**2
    worst = max(abs(art.column(k)[-1] - v) / max(1.0, abs(v)) for k, v in expected.items())
    return ("final_mass_and_moments", worst <= 1e-9,
            f"{len(expected)} statistics, worst rel diff {worst:.2e} (limit 1e-9)")


# --- kidscore_sfd ------------------------------------------------------------

def kidscore_sfd_value(thetas, slices, w, pts, prior_scale) -> float:
    """Sliced Fisher-divergence objective of the kid-score model, written
    out from the model's log-density: mean over draws of the slice-averaged
    v'Hv terms (prior plus weighted likelihood) plus half the squared
    weighted pseudo-posterior score."""
    b0, b1, sig = thetas[:, 0:1], thetas[:, 1:2], thetas[:, 2:3]
    x, u = pts[:, :2], pts[:, 2]
    e = b0 * x[:, 0] + b1 * x[:, 1] - u                          # (T, M)
    score = np.concatenate([
        -(e / sig**2) @ (w[:, None] * x),                          # beta part
        (e**2 / sig**3 - 1.0 / sig) @ w[:, None],                  # sigma part
    ], axis=1)
    g2 = prior_scale**2
    score[:, 2] -= 2.0 * sig[:, 0] / (g2 + sig[:, 0] ** 2)
    vb, vs = slices[..., :2], slices[..., 2]                       # (T, L, 2), (T, L)
    a = vb @ x.T                                                   # (T, L, M)
    s2, s3, s4 = (sig[:, :, None] ** k for k in (2, 3, 4))
    quad = (-(a**2) / s2 + 4.0 * vs[..., None] * a * e[:, None, :] / s3
            + vs[..., None] ** 2 * (1.0 / s2 - 3.0 * e[:, None, :] ** 2 / s4))
    prior_quad = 2.0 * (sig**2 - g2) / (g2 + sig**2) ** 2 * vs**2  # (T, L)
    per_draw = prior_quad.mean(axis=1) + quad.mean(axis=1) @ w + 0.5 * np.sum(score**2, axis=1)
    return float(per_draw.mean())


def check_kidscore(wl: Workload, art: Artifacts):
    D, w, pts = art.draws, art.w, art.pts
    beta, sd = D[:, :2].mean(axis=0), D[:, :2].std(axis=0)
    dev = np.abs(beta - wl.ref["beta_ols"]) / sd
    yield ("beta_draw_means_at_ols", bool(np.all(dev <= 0.25)),
           f"|mean - OLS| / posterior sd = {np.round(dev, 4).tolist()} (limit 0.25)")
    obj = art.objectives
    yield ("objective_decreases", bool(obj[-1] < obj[0]),
           f"first checkpoint {obj[0]:.6g}, last {obj[-1]:.6g}")
    ones = bool(np.all(pts[:, 0] == 1.0))
    yield ("intercept_exactly_one", ones, f"{len(pts)} rows of measure.csv")
    yield check_kidscore_gradients(wl, D, w, pts)


def check_kidscore_gradients(wl: Workload, D, w, pts):
    """The program's analytic sfd gradients at the final measure against
    central differences of ``kidscore_sfd_value`` at fixed slices."""
    from datarecon.attack import objective_gradients, objective_value
    from datarecon.divergence import PosteriorDraws
    from datarecon.measures import WeightedEmpiricalMeasure
    from datarecon.models import KidScoreModel

    gamma = wl.ref["prior_scale"]
    L = wl.config["attack"]["L"]
    slices = np.random.default_rng([wl.seed, 99]).standard_normal((len(D), L, 3))
    model, draws = KidScoreModel(gamma), PosteriorDraws(D)
    meas = WeightedEmpiricalMeasure(w, pts)
    prog = objective_value("sfd", model, meas, draws=draws, slices=slices)
    gw, gz = objective_gradients("sfd", model, meas, draws=draws, slices=slices)
    mine = kidscore_sfd_value(D, slices, w, pts, gamma)
    value_err = _rel(prog, mine)

    def f(dw, dz):
        return kidscore_sfd_value(D, slices, w + dw, pts + dz, gamma)

    M = len(w)
    errs = []
    for m in (0, M // 3, 2 * M // 3, M - 1):       # weights
        h = 1e-5 * max(1.0, abs(w[m]))
        dw = np.zeros(M)
        dw[m] = h
        num = (f(dw, 0.0) - f(-dw, 0.0)) / (2 * h)
        errs.append(abs(gw[m] - num) / max(1.0, abs(gw[m])))
    for m in (M // 10, M // 2, M - 2):             # free coordinates r and u
        for j in (0, 1):
            h = 1e-5 * max(1.0, abs(pts[m, j + 1]))
            dz = np.zeros_like(pts)
            dz[m, j + 1] = h
            num = (f(0.0, dz) - f(0.0, -dz)) / (2 * h)
            errs.append(abs(gz[m, j] - num) / max(1.0, abs(gz[m, j])))
    rng = np.random.default_rng([wl.seed, 98])
    vw, vz = rng.standard_normal(M), rng.standard_normal((M, 2))
    h = 1e-6
    dz = np.zeros_like(pts)
    dz[:, 1:] = h * vz
    num = (f(h * vw, dz) - f(-h * vw, -dz)) / (2 * h)
    ana = gw @ vw + np.sum(gz * vz)
    errs.append(abs(ana - num) / max(1.0, abs(ana)))
    worst = max(errs)
    return ("sfd_gradients_vs_central_differences", worst <= 1e-5 and value_err <= 1e-10,
            f"{len(errs)} probes, worst rel err {worst:.2e} (limit 1e-5); "
            f"value vs numpy recomputation rel diff {value_err:.1e} (limit 1e-10)")


# --- linreg_fd ---------------------------------------------------------------

def check_linreg(wl: Workload, art: Artifacts):
    D = art.draws
    mu, sigma = D.mean(axis=0), np.cov(D.T, bias=True)
    # Whiten by the exact posterior, then take the Monte Carlo standard
    # error of each mean from 25 batch means (the chain is autocorrelated).
    chol = np.linalg.cholesky(wl.ref["post_cov"])
    white = np.linalg.solve(chol, (D - wl.ref["post_mean"]).T).T
    z = white.mean(axis=0)
    batches = np.array([b.mean(axis=0) for b in np.array_split(white, 25)])
    se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    eig = np.linalg.eigvalsh(np.cov(white.T, bias=True))
    worst = float(np.max(np.abs(z) / se))
    yield ("draws_match_exact_posterior",
           worst <= 6.0 and 0.5 <= eig.min() and eig.max() <= 2.0,
           f"whitened mean offsets {np.round(z, 3).tolist()} posterior sd, at most "
           f"{worst:.2f} Monte Carlo SE (limit 6); whitened covariance eigenvalues "
           f"{eig.min():.3f}..{eig.max():.3f} (limits 0.5..2)")

    w, s, y = art.w, art.pts[:, 0], art.pts[:, 1]
    psi = poly_features(s)
    P = np.eye(psi.shape[1]) + (psi * w[:, None]).T @ psi
    b = psi.T @ (w * y)
    r = b - P @ mu
    closed = -np.trace(P) + 0.5 * (r @ r + np.trace(P @ sigma @ P))
    final = art.objectives[-1]
    err = _rel(final, closed)
    yield ("final_objective_closed_form", err <= 1e-9,
           f"program {final:.12g}, closed form {closed:.12g}, rel diff {err:.1e} (limit 1e-9)")

    floor = -0.5 * np.trace(np.linalg.inv(sigma))
    lowest = art.objectives.min()
    yield ("objective_above_exact_minimum", lowest >= floor - 1e-9 * abs(floor),
           f"lowest checkpoint {lowest:.6g}, exact minimum -tr(inv(cov))/2 = {floor:.6g}")


# --- logistic_nonbayes -------------------------------------------------------

def check_logistic(wl: Workload, art: Artifacts):
    theta, ridge = wl.ref["theta_star"], wl.ref["ridge"]
    x, y, w = art.pts[:, :-1], art.pts[:, -1], art.w
    G = logistic_grad_sum(theta, x, y, w, ridge)
    mine = float(G @ G)
    final, first = art.objectives[-1], art.objectives[0]
    # Both are squared norms of the same sum; their roots may differ by
    # the rounding of that sum, which is bounded by the size of its terms.
    term_size = (2 * ridge * np.linalg.norm(theta)
                 + np.abs(w * y) @ np.linalg.norm(x, axis=1))
    gap = abs(np.sqrt(mine) - np.sqrt(final))
    yield ("gradient_gap_matches_objective", gap <= 1e-12 * term_size,
           f"numpy |G|^2 {mine:.6g}, program {final:.6g}; root gap {gap:.1e} "
           f"(limit 1e-12 * {term_size:.3g})")
    yield ("objective_far_below_first", final <= 1e-6 * first,
           f"first checkpoint {first:.6g}, final {final:.6g} (limit 1e-6 x first)")


def run_checks(wl: Workload, outdir: Path, draws_path: Path | None):
    art = Artifacts(outdir, draws_path)
    results = [check_final_statistics(art)]
    per_workload = {"kidscore_sfd": check_kidscore, "linreg_fd": check_linreg,
                    "logistic_nonbayes": check_logistic}[wl.name]
    results.extend(per_workload(wl, art))
    return results
