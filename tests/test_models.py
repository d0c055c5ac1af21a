import numpy as np
import pytest

from datarecon.measures import Layout
from datarecon.models import (
    BayesLinReg,
    DomainError,
    GaussianMeanLocation,
    IdentityFeatures,
    KidScoreModel,
    LogisticLoss,
    SquaredErrorLoss,
    finite_difference_audit,
)


class TestGaussianMeanLocation:
    model = GaussianMeanLocation(2)

    def test_log_lik_zero_residual(self):
        assert self.model.log_lik([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_log_lik_value(self):
        m = GaussianMeanLocation(1)
        assert m.log_lik([0.0], [2.0]) == -2.0

    def test_score_closed_form(self):
        np.testing.assert_array_equal(
            self.model.score_theta([0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])
        rng = np.random.default_rng(0)
        theta, x = rng.standard_normal(2), rng.standard_normal(2)
        np.testing.assert_array_equal(self.model.score_theta(theta, x), x - theta)

    def test_curvature(self):
        assert self.model.curvature([0.0, 0.0], [1.0, 2.0], [1.0, 0.0]) == -1.0
        assert self.model.curvature([0.0, 0.0], [1.0, 2.0]) == -2.0

    def test_data_derivatives(self):
        d = self.model.data_derivatives([0.3, 0.1], [1.0, 2.0], v=[0.5, 0.5])
        np.testing.assert_array_equal(d["jac_score"], np.eye(2))
        np.testing.assert_array_equal(d["grad_quad"], np.zeros(2))
        np.testing.assert_array_equal(d["grad_trace"], np.zeros(2))


class TestBayesLinReg:
    def test_score_psi_y_term_only(self):
        m = BayesLinReg.identity_with_intercept(1)
        np.testing.assert_array_equal(
            m.score_theta([0.0, 0.0], [1.0, 3.0, 2.0]), [2.0, 6.0])

    def test_score_closed_form(self):
        m = BayesLinReg.identity_with_intercept(1)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(2)
        x = np.array([1.0, 1.7])
        y = 0.4
        psi = x
        expected = -np.outer(psi, psi) @ theta + psi * y
        np.testing.assert_allclose(
            m.score_theta(theta, [*x, y]), expected, rtol=1e-14)

    def test_quad(self):
        m = BayesLinReg.identity_with_intercept(1)
        assert m.curvature([0.0, 0.0], [1.0, 3.0, 0.0], [1.0, 1.0]) == -16.0

    def test_score_jac_wrt_y_is_psi(self):
        m = BayesLinReg.identity_with_intercept(1)
        d = m.data_derivatives([0.2, -0.5], [1.0, 3.0, 2.0])
        np.testing.assert_array_equal(d["jac_score"][:, -1], [1.0, 3.0])

    def test_polynomial_features(self):
        m = BayesLinReg.polynomial(2)
        assert m.param_dim == 3
        # psi(s) = (1, s, s^2) at s=2
        np.testing.assert_array_equal(
            m.score_theta([0.0, 0.0, 0.0], [2.0, 1.0]), [1.0, 2.0, 4.0])


class TestKidScore:
    model = KidScoreModel()

    def test_log_lik_gaussian_normalizer(self):
        # beta fitted so the residual is zero, sigma = 1
        val = self.model.log_lik([0.0, 0.0, 1.0], [1.0, 0.5, 0.0])
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_score(self):
        s = self.model.score_theta([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0])

    def test_beta_block_curvature(self):
        # beta_0 direction at sigma=2, x=(1,1): H_bb[0,0] = -x_0^2 / sigma^2
        q = self.model.curvature([0.0, 0.0, 2.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        assert q == pytest.approx(-0.25, rel=1e-12)

    def test_sigma_score_derivative_wrt_u(self):
        d = self.model.data_derivatives([0.0, 0.0, 1.0], [1.0, 0.0, 2.0])
        # -(2/sigma^3)(<beta,x> - u) = 4 at beta=0, sigma=1, u=2
        assert d["jac_score"][2, 1] == pytest.approx(4.0, rel=1e-12)

    def test_domain_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            self.model.log_lik([0.0, 0.0, -1.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            self.model.score_theta([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestPriors:
    def test_standard_gaussian_prior(self):
        m = GaussianMeanLocation(2)
        terms = m.prior_terms([1.0, -1.0])
        np.testing.assert_array_equal(terms["score"], [-1.0, 1.0])
        assert terms["trace"] == -2.0

    def test_flat_beta_prior_is_zero(self):
        m = KidScoreModel()
        terms = m.prior_terms([3.0, -2.0, 1.0])
        np.testing.assert_array_equal(terms["score"][:2], [0.0, 0.0])

    def test_cauchy_sigma_prior(self):
        m = KidScoreModel(prior_scale=2.5)
        terms = m.prior_terms([0.0, 0.0, 2.5])
        assert terms["score"][2] == pytest.approx(-0.4, rel=1e-12)


class TestLossModels:
    def test_squared_error_zero_residual(self):
        m = SquaredErrorLoss(IdentityFeatures(1), Layout(p=2, x_idx=(0,), y_idx=1))
        np.testing.assert_array_equal(
            m.loss_terms([1.0], [1.0, 1.0])["grad_theta"], [0.0])

    def test_squared_error_gradient(self):
        m = SquaredErrorLoss(IdentityFeatures(1), Layout(p=2, x_idx=(0,), y_idx=1))
        np.testing.assert_array_equal(
            m.loss_terms([0.0], [2.0, 1.0])["grad_theta"], [-4.0])

    def test_logistic_gradient_at_zero(self):
        m = LogisticLoss(2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2)
        for y in (-1.0, 1.0):
            g = m.loss_terms([0.0, 0.0], [*x, y])["grad_theta"]
            np.testing.assert_allclose(g, -y * x / 2, rtol=1e-14)

    def test_ridge_regularizer(self):
        m = SquaredErrorLoss.identity_with_intercept(1, ridge=0.5)
        theta = np.array([1.0, -2.0])
        assert m.reg_value(theta) == pytest.approx(2.5)
        np.testing.assert_array_equal(m.reg_grad(theta), [1.0, -2.0])


def _gauss_logpdf(x, mean, sd):
    return -0.5 * ((x - mean) / sd) ** 2 - np.log(sd) - 0.5 * np.log(2.0 * np.pi)


def _poly3(s):
    return np.stack([np.ones_like(s), s, s**2, s**3], axis=-1)


# (model, theta sampler, density written out per point). The unit-noise
# models drop the constant Gaussian normaliser from their log-likelihood.
LIKELIHOOD_DENSITIES = [
    ("gaussian_mean", GaussianMeanLocation(3), lambda rng: rng.standard_normal(3),
     lambda th, pts: _gauss_logpdf(pts, th, 1.0).sum(axis=1) + 1.5 * np.log(2 * np.pi)),
    ("bayes_linreg_identity", BayesLinReg.identity_with_intercept(2),
     lambda rng: rng.standard_normal(3),
     lambda th, pts: _gauss_logpdf(pts[:, 3], pts[:, :3] @ th, 1.0) + 0.5 * np.log(2 * np.pi)),
    ("bayes_linreg_poly", BayesLinReg.polynomial(3), lambda rng: rng.standard_normal(4),
     lambda th, pts: _gauss_logpdf(pts[:, 1], _poly3(pts[:, 0]) @ th, 1.0)
     + 0.5 * np.log(2 * np.pi)),
    ("kidscore", KidScoreModel(), lambda rng: np.array([*rng.standard_normal(2), 0.3 + rng.random()]),
     lambda th, pts: _gauss_logpdf(pts[:, 2], pts[:, :2] @ th[:2], th[2])),
]


class TestLogLikelihoodDensity:
    """The log-likelihood coefficients a(theta) against the density written
    out with plain numpy; the central-difference audit only sees their
    theta-derivatives."""

    @pytest.mark.parametrize("name,model,draw_theta,density", LIKELIHOOD_DENSITIES,
                             ids=[c[0] for c in LIKELIHOOD_DENSITIES])
    def test_log_lik_batch_matches_density(self, name, model, draw_theta, density):
        rng = np.random.default_rng(list(name.encode()))
        for _ in range(20):
            theta = draw_theta(rng)
            pts = 1.5 * rng.standard_normal((7, model.layout.p))
            for idx, val in zip(model.layout.frozen_idx, model.layout.frozen_values):
                pts[:, idx] = val
            np.testing.assert_allclose(model.log_lik_batch(theta, pts),
                                       density(theta, pts), rtol=1e-12, atol=1e-12)


ALL_MODELS = [
    ("gaussian_mean", GaussianMeanLocation(3)),
    ("bayes_linreg_identity", BayesLinReg.identity_with_intercept(2)),
    ("bayes_linreg_poly", BayesLinReg.polynomial(3)),
    ("kidscore", KidScoreModel()),
    ("squared_error", SquaredErrorLoss.identity_with_intercept(1, ridge=0.3)),
    ("logistic", LogisticLoss(2, ridge=0.1)),
]


def _random_point(model, rng):
    theta = rng.standard_normal(model.param_dim)
    if isinstance(model, KidScoreModel):
        theta[2] = 0.5 + rng.random()
    x = rng.standard_normal(model.layout.p)
    for idx, val in zip(model.layout.frozen_idx, model.layout.frozen_values):
        x[idx] = val
    return theta, x


class TestFiniteDifferenceAudit:
    @pytest.mark.parametrize("name,model", ALL_MODELS, ids=[n for n, _ in ALL_MODELS])
    def test_audit_passes_100_random_states(self, name, model):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        worst = 0.0
        for _ in range(100):
            theta, x = _random_point(model, rng)
            report = finite_difference_audit(model, theta, x)
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-5

    def test_curvature_trace_decomposition(self):
        rng = np.random.default_rng(7)
        for _, model in ALL_MODELS:
            if not hasattr(model, "curvature"):
                continue
            theta, x = _random_point(model, rng)
            d = model.param_dim
            total = sum(
                model.curvature(theta, x, np.eye(d)[i]) for i in range(d))
            trace = model.curvature(theta, x)
            assert abs(total - trace) <= 1e-10 * max(1.0, abs(trace))

    def test_corrupted_score_detected(self):
        class Corrupted(GaussianMeanLocation):
            def score_batch(self, thetas, points):
                return super().score_batch(thetas, points) + 0.1

        model = Corrupted(2)
        report = finite_difference_audit(
            model, np.array([0.3, -0.2]), np.array([1.0, 2.0]))
        assert not report.passed
        assert report.per_check["score_theta"] == pytest.approx(0.1, rel=0.01)
