"""End-to-end acceptance checks. Each test prints a single PASS/FAIL line
(run pytest with -s to see them) and asserts the stated tolerance.

The two attack reproductions (criteria 5 and 6) are full optimization runs
and take under a minute each; everything else finishes in seconds.
"""

import numpy as np
import pytest

from datarecon.attack import AttackConfig, run_attack
from datarecon.measures import build_measure, recon_statistics, stat_errors
from datarecon.models import GaussianMeanLocation, KidScoreModel
from datarecon.samplers import SamplerConfig, exact_gaussian_mean_draws, rwm_draws
from datarecon.verification import (
    check_fd_audits,
    check_fd_mmd_identity,
    check_ibp_constant,
    check_nonbayes_identity,
    check_norm_growth,
    check_objective_gradients,
    check_sfd_fd_agreement,
)


def _report(label, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  {label}: {detail}")
    assert passed, f"{label}: {detail}"


class TestAcceptance:
    def test_01_fd_half_mmd_identity(self):
        res = check_fd_mmd_identity(n_instances=50, tol=1e-9)
        _report("criterion 1 (fd = 0.5 * mmd^2, 50 instances, rtol 1e-9)",
                res.passed, res.detail)

    def test_02_nonbayes_gap_identity(self):
        res = check_nonbayes_identity(n_instances=50, tol=1e-10)
        _report("criterion 2 (grad gap = sqrt(mmd^2), 50 instances, rtol 1e-10)",
                res.passed, res.detail)

    def test_03_sfd_matches_fd(self):
        res = check_sfd_fd_agreement(T=100, L=10_000)
        _report("criterion 3 (sliced vs trace objective, T=100, L=1e4, 3 paired SE)",
                res.passed, res.detail)

    def test_04_ibp_constant_consistency(self):
        res = check_ibp_constant(T=100_000)
        _report("criterion 4 (ibp + oracle constant vs direct, 3 paired SE, & closed form, 3 SE)",
                res.passed, res.detail)

    @pytest.mark.slow
    def test_05_gaussian_mean_recovery(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((20, 2)) + np.array([0.5, -0.3])
        draws = exact_gaussian_mean_draws(X, 1000, seed=77)
        cfg = AttackConfig(objective="sfd", M=5, iters=20_000,
                           lr_w=1e-3, lr_z=1e-3, L=10, seed=3, trace_every=1000)
        _, measure = run_attack(GaussianMeanLocation(2), cfg, draws=draws)
        mass_err = abs(measure.weights.sum() - 20) / 20
        target_sum = X.sum(axis=0)
        recon_sum = measure.weights @ measure.points
        sum_err = float(np.max(np.abs(recon_sum - target_sum) / np.abs(target_sum)))
        passed = mass_err < 0.01 and sum_err < 0.01
        _report("criterion 5 (gaussian mean: mass and weighted sum within 1%)",
                passed,
                f"mass rel err {mass_err:.4f}, weighted-sum rel err {sum_err:.4f}")

    @pytest.mark.slow
    def test_06_kidscore_reproduction(self):
        rng = np.random.default_rng(11)
        N = 100
        raw = rng.normal(100.0, 15.0, size=N)
        mother = (raw - 70.0) / 15.0
        child = 0.3 + 0.6 * mother + 0.8 * rng.standard_normal(N)
        X = np.column_stack([np.ones(N), mother, child])

        model = KidScoreModel()
        draws = rwm_draws(model, X, SamplerConfig(
            T=1000, seed=9, thinning=30, init=(0.0, 0.0, 1.0), step_scale=0.1))
        cfg = AttackConfig(objective="sfd", M=50, iters=20_000,
                           lr_w=1e-3, lr_z=1e-3, L=10, seed=9, trace_every=1000)
        _, measure = run_attack(model, cfg, draws=draws)
        target = recon_statistics(build_measure(X), model.layout)
        recon = recon_statistics(measure, model.layout)
        errs = stat_errors(target, recon)
        tracked = {k: errs[k] for k in
                   ("total_mass", "mean_r", "var_r", "mean_u", "var_u")}
        passed = all(v < 0.05 for v in tracked.values())
        detail = ", ".join(f"{k} {v:.4f}" for k, v in tracked.items())
        _report("criterion 6 (kidscore: five tracked statistics within 5%)",
                passed, detail)

    def test_07_objective_gradients(self):
        res = check_objective_gradients(n_states=100, tol=1e-5)
        _report("criterion 7 (objective gradients vs central differences, 1e-5)",
                res.passed, res.detail)

    def test_08_norm_growth(self):
        res = check_norm_growth(n_trials=20)
        _report("criterion 8 (measure norm strictly grows, 20 trials)",
                res.passed, res.detail)

    def test_09_determinism(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 2)) + 0.2
        draws = exact_gaussian_mean_draws(X, 100, seed=2)
        cfg = AttackConfig(objective="sfd", M=4, iters=200, seed=6, trace_every=50)
        contents = []
        for run in range(2):
            trace, _ = run_attack(GaussianMeanLocation(2), cfg, draws=draws,
                                  target_points=X)
            path = tmp_path / f"trace{run}.csv"
            trace.write_csv(path)
            contents.append(path.read_bytes())
        passed = contents[0] == contents[1]
        _report("criterion 9 (equal seeds give bitwise-identical trace CSVs)",
                passed, f"{len(contents[0])} bytes compared")
