import numpy as np
import pytest

from datarecon.divergence import PosteriorDraws
from datarecon.models import BayesLinReg, GaussianMeanLocation, KidScoreModel
from datarecon.samplers import (
    RWM_BLOCK,
    RWM_CHUNK,
    SamplerConfig,
    exact_gaussian_mean_draws,
    load_draws,
    rwm_draws,
    save_draws,
)


class TestExactSampler:
    def test_moments_match_conjugate_posterior(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((9, 2)) + 0.7
        draws = exact_gaussian_mean_draws(X, 200_000, seed=1)
        mu = X.sum(axis=0) / 10
        se_mean = 1.0 / np.sqrt(10 * 200_000)
        assert np.all(np.abs(draws.draws.mean(axis=0) - mu) < 4 * se_mean)
        assert np.allclose(draws.draws.var(axis=0), 0.1, rtol=0.02)

    def test_deterministic_in_seed(self):
        X = np.array([[1.0], [2.0]])
        a = exact_gaussian_mean_draws(X, 10, seed=3)
        b = exact_gaussian_mean_draws(X, 10, seed=3)
        c = exact_gaussian_mean_draws(X, 10, seed=4)
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)

    def test_metadata(self):
        draws = exact_gaussian_mean_draws(np.zeros((2, 3)), 5)
        assert draws.T == 5
        assert draws.dim == 3
        assert draws.source == "exact"
        assert draws.acceptance_rate is None

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            exact_gaussian_mean_draws(np.zeros((0, 1)), 10)


class TestRwm:
    def test_matches_conjugate_closed_form(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 1)) + 1.0
        model = GaussianMeanLocation(1)
        cfg = SamplerConfig(T=4000, step_scale=0.7, seed=6, init=(0.0,))
        draws = rwm_draws(model, X, cfg)
        mu = float(X.sum()) / 7
        var = 1.0 / 7
        # conservative 5-sigma band with an effective-sample-size discount
        se = np.sqrt(var / 4000) * 3
        assert abs(draws.draws.mean() - mu) < 5 * se
        assert draws.draws.var() == pytest.approx(var, rel=0.15)

    def test_acceptance_rate_reasonable(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 1))
        cfg = SamplerConfig(T=500, step_scale=0.7, seed=8, init=(0.0,))
        draws = rwm_draws(GaussianMeanLocation(1), X, cfg)
        assert 0.1 < draws.acceptance_rate < 0.8
        assert draws.source == "rwm"

    def test_domain_violations_auto_rejected(self):
        rng = np.random.default_rng(9)
        N = 20
        s = rng.standard_normal(N)
        y = 0.2 + 0.5 * s + rng.standard_normal(N)
        X = np.column_stack([np.ones(N), s, y])
        # large steps so sigma <= 0 gets proposed often; chain must stay valid
        cfg = SamplerConfig(T=200, burn_in=200, step_scale=2.0, seed=10,
                            init=(0.0, 0.0, 1.0))
        draws = rwm_draws(KidScoreModel(), X, cfg)
        assert np.all(draws.draws[:, 2] > 0)
        # rows with sigma <= 0 are masked out of the batched log posterior,
        # which would otherwise accept some; the chain is the step-by-step one
        kept, rate = _step_by_step_chain(KidScoreModel(), X, cfg)
        np.testing.assert_array_equal(draws.draws, kept)
        assert draws.acceptance_rate == rate

    def test_deterministic_in_seed(self):
        X = np.array([[0.5], [1.5]])
        cfg = SamplerConfig(T=50, seed=11, init=(0.0,))
        a = rwm_draws(GaussianMeanLocation(1), X, cfg)
        b = rwm_draws(GaussianMeanLocation(1), X, cfg)
        assert np.array_equal(a.draws, b.draws)

    def test_missing_init_rejected(self):
        with pytest.raises(ValueError):
            rwm_draws(GaussianMeanLocation(1), np.zeros((2, 1)), SamplerConfig(T=5))

    def test_tiny_steps_stay_near_init(self):
        X = np.array([[0.0]])
        cfg = SamplerConfig(T=20, burn_in=0, thinning=1, step_scale=1e-8,
                            seed=12, init=(5.0,))
        draws = rwm_draws(GaussianMeanLocation(1), X, cfg)
        assert np.max(np.abs(draws.draws - 5.0)) < 1e-5

    def test_plus_inf_density_rejected(self):
        # a proposal whose log density overflows to +inf is rejected, as one
        # outside the domain is, instead of stalling the chain there
        class Capped(GaussianMeanLocation):
            def __init__(self, fill):
                super().__init__(1)
                self.fill = fill

            def log_density(self, phi1):
                f = super().log_density(phi1)
                return lambda thetas: np.where(thetas[:, 0] > 0.5, self.fill, f(thetas))

        X = np.array([[0.5], [1.5]])
        cfg = SamplerConfig(T=300, step_scale=0.7, seed=17, init=(0.0,))
        a = rwm_draws(Capped(np.inf), X, cfg)
        b = rwm_draws(Capped(-np.inf), X, cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate > 0.1
        assert a.draws.max() <= 0.5

    @pytest.mark.parametrize("name", ["kidscore", "bayes_linreg_poly"])
    def test_feature_sum_chain_matches_per_point_chain(self, name):
        # the chain evaluates the likelihood from the data's feature sums;
        # the same chain with the per-point log-likelihood summed over the
        # data must accept the same proposals
        model, X, init = _chain_problem(name)
        cfg = SamplerConfig(T=100, burn_in=100, thinning=2, step_scale=0.2, seed=15, init=init)
        draws = rwm_draws(model, X, cfg)
        kept, _ = _step_by_step_chain(model, X, cfg)
        np.testing.assert_array_equal(draws.draws, kept)


def _chain_problem(name):
    """A model, a 40-point dataset and an initial parameter."""
    rng = np.random.default_rng(list(name.encode()))
    N = 40
    if name == "gaussian_mean":
        return GaussianMeanLocation(2), rng.standard_normal((N, 2)) + 0.5, (0.0, 0.0)
    s = rng.standard_normal(N)
    y = 0.2 + 0.5 * s + rng.standard_normal(N)
    if name == "kidscore":
        return KidScoreModel(), np.column_stack([np.ones(N), s, y]), (0.0, 0.0, 1.0)
    return BayesLinReg.polynomial(3), np.column_stack([s, y]), (0.0,) * 4


def _step_by_step_chain(model, X, cfg):
    """Reference random-walk Metropolis: one proposal per step, scored with
    the per-point log-likelihood summed over the data. Returns the kept
    draws and the acceptance rate."""
    def log_post(t):
        if not model.in_domain(t[None, :]):
            return -np.inf
        # extreme step sizes overflow here, which is not an error for the reference
        with np.errstate(all="ignore"):
            return float(np.sum(model.log_lik_batch(t, X))) + model.loglik_coef(t[None, :])[0, -1]

    burn_in = 10 * cfg.T if cfg.burn_in is None else cfg.burn_in
    thin = max(cfg.thinning, 1)
    n_steps = burn_in + cfg.T * thin
    step_rng = np.random.default_rng(cfg.seed)
    theta = np.array(cfg.init)
    lp = log_post(theta)
    kept = []
    accepted = 0
    for step in range(n_steps):
        prop = theta + cfg.step_scale * step_rng.standard_normal(model.param_dim)
        lp_prop = log_post(prop)
        if np.log(step_rng.random()) < lp_prop - lp:
            theta, lp = prop, lp_prop
            accepted += 1
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            kept.append(theta)
    return np.array(kept), accepted / n_steps


class TestBlockedChain:
    """rwm_draws scores proposals in blocks from the current state; its
    draws and acceptance rate must be those of the step-by-step chain."""

    @pytest.mark.parametrize("name", ["gaussian_mean", "kidscore", "bayes_linreg_poly"])
    @pytest.mark.parametrize("case", ["chunks", "no_burn_in_thin0", "no_burn_in_thin1",
                                      "rejects", "accepts", "overflow", "underflow"])
    def test_matches_step_by_step_chain(self, name, case):
        model, X, init = _chain_problem(name)
        settings = {
            # 2617 steps: past two chunk boundaries, not a multiple of a block
            "chunks": dict(T=700, burn_in=517, thinning=3, step_scale=0.2),
            "no_burn_in_thin0": dict(T=300, burn_in=0, thinning=0, step_scale=0.2),
            "no_burn_in_thin1": dict(T=300, burn_in=0, thinning=1, step_scale=0.2),
            "rejects": dict(T=150, burn_in=100, thinning=2, step_scale=2.0),
            "accepts": dict(T=150, burn_in=100, thinning=2, step_scale=1e-8),
            # proposals whose squares overflow, and proposals that round to the state
            "overflow": dict(T=150, burn_in=100, thinning=2, step_scale=1e300),
            "underflow": dict(T=150, burn_in=100, thinning=2, step_scale=1e-300),
        }[case]
        cfg = SamplerConfig(seed=16, init=init, **settings)
        draws = rwm_draws(model, X, cfg)
        kept, rate = _step_by_step_chain(model, X, cfg)
        np.testing.assert_array_equal(draws.draws, kept)
        assert draws.acceptance_rate == rate
        if case == "chunks":
            n_steps = cfg.burn_in + cfg.T * cfg.thinning
            assert n_steps > 2 * RWM_CHUNK and n_steps % RWM_BLOCK != 0
        elif case == "rejects":
            assert rate < 0.05
        elif case == "accepts":
            assert rate > 0.99
        elif case == "overflow":
            assert rate == 0.0
        elif case == "underflow":
            assert rate == 1.0
        assert np.all(np.isfinite(draws.draws))


class TestSamplerConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(T=0)
        with pytest.raises(ValueError):
            SamplerConfig(T=5, burn_in=-1)
        with pytest.raises(ValueError):
            SamplerConfig(T=5, step_scale=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(T=5, step_scale=float("nan"))
        with pytest.raises(ValueError, match="T must be an integer"):
            SamplerConfig(T=2.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SamplerConfig(T=5, seed=-1)


class TestDrawsIo:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(13)
        draws = exact_gaussian_mean_draws(rng.standard_normal((4, 2)), 25, seed=14)
        path = tmp_path / "draws.csv"
        save_draws(path, PosteriorDraws(draws.draws, names=("a", "b")))
        loaded = load_draws(path)
        assert np.array_equal(loaded.draws, draws.draws)
        assert loaded.names == ("a", "b")
        assert loaded.source == "file"

    def test_default_column_names(self, tmp_path):
        draws = exact_gaussian_mean_draws(np.zeros((1, 2)), 3)
        path = tmp_path / "draws.csv"
        save_draws(path, draws)
        assert load_draws(path).names == ("theta0", "theta1")

    def test_malformed_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta0,theta1\n0.1,0.2\n0.3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_draws(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta0\n0.1\nxyz\n")
        with pytest.raises(ValueError, match="row 3"):
            load_draws(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_draws(path)
