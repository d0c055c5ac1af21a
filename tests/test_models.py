import zlib

import numpy as np
import pytest

from datarecon.divergence import PosteriorCoefficients
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


# Per-point second-order quantities written out from the factor primitives:
# with log l = a(theta)^T phi(x), the parameter Hessian is sum_k phi_k B_k,
# the score's data Jacobian A phi_jac, and the data gradient of v^T H v is
# sum_k (v^T B_k v) phi_jac_k (trace form: tr B_k). The sums run over the K
# likelihood entries; entry K+1 is the prior.
def _hessian(model, theta, x):
    B = model.hess_coef(np.atleast_2d(theta))[0, :-1]
    return np.einsum("kij,k->ij", B, model.phi(np.atleast_2d(x))[0])


def _jac_score(model, theta, x):
    A = model.score_coef(np.atleast_2d(theta))[0, :, :-1]
    return A @ model.phi_jac(np.atleast_2d(x))[0]


def _grad_curvature(model, theta, x, v=None):
    B = model.hess_coef(np.atleast_2d(theta))[0, :-1]
    coef = np.einsum("kii->k", B) if v is None else np.einsum("kij,i,j->k", B, v, v)
    return coef @ model.phi_jac(np.atleast_2d(x))[0]


def _prior_score(model, theta):
    return model.score_coef(np.atleast_2d(theta))[0, :, -1]


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
        H = _hessian(self.model, [0.0, 0.0], [1.0, 2.0])
        v = np.array([1.0, 0.0])
        assert v @ H @ v == -1.0
        assert np.trace(H) == -2.0

    def test_data_derivatives(self):
        theta, x = [0.3, 0.1], [1.0, 2.0]
        np.testing.assert_array_equal(_jac_score(self.model, theta, x), np.eye(2))
        np.testing.assert_array_equal(
            _grad_curvature(self.model, theta, x, np.array([0.5, 0.5])), np.zeros(2))
        np.testing.assert_array_equal(_grad_curvature(self.model, theta, x), np.zeros(2))


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
        v = np.array([1.0, 1.0])
        assert v @ _hessian(m, [0.0, 0.0], [1.0, 3.0, 0.0]) @ v == -16.0

    def test_score_jac_wrt_y_is_psi(self):
        m = BayesLinReg.identity_with_intercept(1)
        jac = _jac_score(m, [0.2, -0.5], [1.0, 3.0, 2.0])
        np.testing.assert_array_equal(jac[:, -1], [1.0, 3.0])

    def test_layout_must_fit_the_features(self):
        with pytest.raises(ValueError, match="requires a y coordinate"):
            BayesLinReg(IdentityFeatures(1), Layout(p=1, x_idx=(0,)))
        with pytest.raises(ValueError, match="feature map input size must match"):
            BayesLinReg(IdentityFeatures(2), Layout(p=2, x_idx=(0,), y_idx=1))

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
        H = _hessian(self.model, [0.0, 0.0, 2.0], [1.0, 1.0, 0.0])
        assert H[0, 0] == pytest.approx(-0.25, rel=1e-12)

    def test_sigma_score_derivative_wrt_u(self):
        jac = _jac_score(self.model, [0.0, 0.0, 1.0], [1.0, 0.0, 2.0])
        # -(2/sigma^3)(<beta,x> - u) = 4 at beta=0, sigma=1, u=2
        assert jac[2, 1] == pytest.approx(4.0, rel=1e-12)

    def test_check_draws_rejects_short_and_nan_rows(self):
        with pytest.raises(ValueError, match="parameter vectors must have 3 entries"):
            self.model.check_draws([[0.0, 1.0]])
        with pytest.raises(DomainError, match="non-finite entries"):
            self.model.check_draws([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]])

    def test_domain_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            self.model.log_lik([0.0, 0.0, -1.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            self.model.score_theta([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestPriors:
    def test_standard_gaussian_prior(self):
        m = GaussianMeanLocation(2)
        np.testing.assert_array_equal(_prior_score(m, [1.0, -1.0]), [-1.0, 1.0])
        assert np.trace(m.hess_coef(np.array([[1.0, -1.0]]))[0, -1]) == -2.0

    def test_flat_beta_prior_is_zero(self):
        m = KidScoreModel()
        np.testing.assert_array_equal(_prior_score(m, [3.0, -2.0, 1.0])[:2], [0.0, 0.0])

    def test_cauchy_sigma_prior(self):
        m = KidScoreModel(prior_scale=2.5)
        assert _prior_score(m, [0.0, 0.0, 2.5])[2] == pytest.approx(-0.4, rel=1e-12)


class TestRowwiseDomainAndPrior:
    def test_in_domain_is_a_per_row_mask(self):
        thetas = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [3.0, -2.0, 0.0],
                           [0.0, 0.0, 1e-300]])
        np.testing.assert_array_equal(KidScoreModel().in_domain(thetas),
                                      [True, False, False, True])
        for model in (GaussianMeanLocation(3), BayesLinReg.polynomial(2)):
            np.testing.assert_array_equal(model.in_domain(thetas), [True] * 4)

    @pytest.mark.parametrize("model, density", [
        (GaussianMeanLocation(3), lambda t: -0.5 * np.dot(t, t)),
        (BayesLinReg.polynomial(2), lambda t: -0.5 * np.dot(t, t)),
        (KidScoreModel(prior_scale=2.5), lambda t: -np.log(1.0 + (t[2] / 2.5) ** 2)),
    ])
    def test_log_prior_is_row_wise(self, model, density):
        # the log prior is the last entry of a(theta)
        thetas = np.random.default_rng(17).standard_normal((5, 3)) + [0.0, 0.0, 2.0]
        rows = model.loglik_coef(thetas)[:, -1]
        assert rows.shape == (5,)
        for theta, value in zip(thetas, rows):
            assert value == pytest.approx(density(theta), rel=1e-12)
            assert model.loglik_coef(theta[None, :])[0, -1] == pytest.approx(value, rel=1e-14)


class TestLossModels:
    def test_squared_error_zero_residual(self):
        m = SquaredErrorLoss(IdentityFeatures(1), Layout(p=2, x_idx=(0,), y_idx=1))
        np.testing.assert_array_equal(
            m.grad_theta_batch([1.0], [[1.0, 1.0]])[0], [0.0])

    def test_squared_error_gradient(self):
        m = SquaredErrorLoss(IdentityFeatures(1), Layout(p=2, x_idx=(0,), y_idx=1))
        np.testing.assert_array_equal(
            m.grad_theta_batch([0.0], [[2.0, 1.0]])[0], [-4.0])

    def test_logistic_gradient_at_zero(self):
        m = LogisticLoss(2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2)
        for y in (-1.0, 1.0):
            g = m.grad_theta_batch([0.0, 0.0], [[*x, y]])[0]
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


def _no_intercept_regression():
    """y on x with no intercept: the constant monomial is not a product of
    (psi(x), y) = (x, y)."""
    return BayesLinReg(IdentityFeatures(1), Layout(p=2, x_idx=(0,), y_idx=1))


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
    ("bayes_linreg_no_intercept", _no_intercept_regression(), lambda rng: rng.standard_normal(1),
     lambda th, pts: _gauss_logpdf(pts[:, 1], pts[:, 0] * th[0], 1.0) + 0.5 * np.log(2 * np.pi)),
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
            pts[:, list(model.layout.frozen_idx)] = model.layout.frozen_value
            np.testing.assert_allclose(model.log_lik_batch(theta, pts),
                                       density(theta, pts), rtol=1e-12, atol=1e-12)


ALL_MODELS = [
    ("gaussian_mean", GaussianMeanLocation(3)),
    ("bayes_linreg_identity", BayesLinReg.identity_with_intercept(2)),
    ("bayes_linreg_poly", BayesLinReg.polynomial(3)),
    ("kidscore", KidScoreModel()),
    ("bayes_linreg_no_intercept", _no_intercept_regression()),
    ("squared_error", SquaredErrorLoss.identity_with_intercept(1, ridge=0.3)),
    ("logistic", LogisticLoss(2, ridge=0.1)),
]


def _random_point(model, rng):
    theta = rng.standard_normal(model.param_dim)
    if isinstance(model, KidScoreModel):
        theta[2] = 0.5 + rng.random()
    x = rng.standard_normal(model.layout.p)
    x[list(model.layout.frozen_idx)] = model.layout.frozen_value
    return theta, x


class TestFiniteDifferenceAudit:
    @pytest.mark.parametrize("name,model", ALL_MODELS, ids=[n for n, _ in ALL_MODELS])
    def test_audit_passes_100_random_states(self, name, model):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(100):
            theta, x = _random_point(model, rng)
            report = finite_difference_audit(model, theta, x)
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-5

    def test_curvature_trace_decomposition(self):
        # slices sqrt(d) e_i, one block per draw: the slice average of v v^T
        # is I, so the sliced curvature coefficients equal the trace form
        rng = np.random.default_rng(7)
        for _, model in ALL_MODELS:
            if not hasattr(model, "hess_coef"):
                continue
            d = model.param_dim
            thetas = np.array([_random_point(model, rng)[0] for _ in range(5)])
            coef = PosteriorCoefficients(model, thetas)
            slices = np.broadcast_to(np.sqrt(d) * np.eye(d), (5, d, d))
            total, trace = coef.curvature(slices), coef.curvature()
            assert np.all(np.abs(total - trace) <= 1e-10 * np.maximum(1.0, np.abs(trace)))

    @pytest.mark.parametrize("method,check", [
        ("score_batch", "score_theta"),
        ("score_coef", "score_coef"),
        ("hess_coef", "hess_coef"),
        ("phi_jac", "phi_jac"),
        ("hess_coef_prior", "hess_coef"),
    ])
    def test_corrupted_score_detected(self, method, check):
        # +0.1 on the whole output, or on B's last row (the prior Hessian) only
        name = method.removesuffix("_prior")
        rows = np.s_[:] if name == method else np.s_[:, -1]

        def corrupted(self, *args):
            out = np.array(getattr(GaussianMeanLocation, name)(self, *args))
            out[rows] += 0.1
            return out

        model = type("Corrupted", (GaussianMeanLocation,), {name: corrupted})(2)
        report = finite_difference_audit(
            model, np.array([0.3, -0.2]), np.array([1.0, 2.0]))
        assert not report.passed
        assert report.per_check[check] == pytest.approx(0.1, rel=0.01)


LIKELIHOOD_MODELS = [(n, m) for n, m in ALL_MODELS if hasattr(m, "phi")]


def _monomial_reference(row, E):
    """prod_c z_c^E_kc of one row, each power by repeated multiplication from
    1.0 and the product taken in coordinate order, as ``_monomials`` does."""
    def power(x, e):
        out = 1.0
        for _ in range(e):
            out *= x
        return out

    out = np.array([power(row[0], e) for e in E[:, 0]])
    for c in range(1, E.shape[1]):
        out *= [power(row[c], e) for e in E[:, c]]
    return out


class TestFeaturesAndJacobianInOneCall:
    """``phi_and_jac`` is the call the objectives make; it must give exactly
    what ``phi`` and ``phi_jac`` give."""

    @pytest.mark.parametrize("name,model", LIKELIHOOD_MODELS,
                             ids=[n for n, _ in LIKELIHOOD_MODELS])
    @pytest.mark.parametrize("want_jac", [True, False])
    def test_equals_phi_and_phi_jac(self, name, model, want_jac):
        points = _layout_points(model, 7, np.random.default_rng(zlib.crc32(name.encode())))
        phi, jac = model.phi_and_jac(points, want_jac)
        assert np.array_equal(phi, model.phi(points))
        if want_jac:
            assert np.array_equal(jac, model.phi_jac(points))
        else:
            assert jac is None

    @pytest.mark.parametrize("name,model", [(n, m) for n, m in LIKELIHOOD_MODELS
                                            if hasattr(m, "_E")],
                             ids=[n for n, m in LIKELIHOOD_MODELS if hasattr(m, "_E")])
    def test_regression_features_from_one_power_table(self, name, model):
        # the regression models derive phi and phi_jac from phi_and_jac, so
        # check it bitwise against monomials built one entry at a time
        points = _layout_points(model, 5, np.random.default_rng(zlib.crc32(name.encode())))
        phi, jac = model.phi_and_jac(points, True)
        E, f = model._E, len(model._free)
        for m, row in enumerate(points[:, model._free]):
            assert np.array_equal(phi[m], _monomial_reference(row, E))
            for c in range(f):
                lowered = np.maximum(E - np.eye(f, dtype=int)[c], 0)
                assert np.array_equal(jac[m, :, c], E[:, c] * _monomial_reference(row, lowered))


class TestLogDensity:
    """``log_density`` is what the sampler scores proposals with; the
    coefficient map contracted with (Phi, w) is its oracle."""

    @staticmethod
    def _phi1(model, rng):
        # feature sums of a positively weighted measure, and a prior weight
        points = _layout_points(model, 30, rng)
        return np.append(rng.random(30) @ model.phi(points), 0.5 + rng.random())

    @pytest.mark.parametrize("name,model", LIKELIHOOD_MODELS,
                             ids=[n for n, _ in LIKELIHOOD_MODELS])
    def test_matches_coefficient_map(self, name, model):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        phi1 = self._phi1(model, rng)
        thetas = np.array([_random_point(model, rng)[0] for _ in range(200)])
        values = model.log_density(phi1)(thetas)
        np.testing.assert_allclose(values, model.loglik_coef(thetas) @ phi1, rtol=1e-12, atol=0)

    def test_outside_the_domain_is_minus_inf(self):
        model = KidScoreModel()
        rng = np.random.default_rng(21)
        thetas = rng.standard_normal((40, 3))
        thetas[:10, 2] = 0.0
        thetas[10:20, 2] = -np.abs(thetas[10:20, 2])
        thetas[20:, 2] = 0.5 + rng.random(20)
        with np.errstate(all="ignore"):                 # sigma = 0 divides by zero
            values = model.log_density(self._phi1(model, rng))(thetas)
        assert np.all(values[:20] == -np.inf)
        assert np.all(np.isfinite(values[20:]))

    @pytest.mark.parametrize("name,model", LIKELIHOOD_MODELS,
                             ids=[n for n, _ in LIKELIHOOD_MODELS])
    def test_overflow_never_gives_plus_inf(self, name, model):
        # rows far enough out that squares overflow: -inf or nan, which the
        # sampler's test rejects, but never +inf
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        f = model.log_density(self._phi1(model, rng))
        for scale in (1e152, 1e154, 1e160, 1e300):
            thetas = scale * rng.standard_normal((5000, model.param_dim))
            with np.errstate(all="ignore"):
                assert not np.any(f(thetas) == np.inf), scale


class TestFixedHessianBroadcast:
    """A Hessian block fixed over theta is handed out as one broadcast view,
    by the model and through PosteriorCoefficients: writing out T copies of
    B made the fd attack on cubic regression markedly slower."""

    @pytest.mark.parametrize("model", [
        BayesLinReg.identity_with_intercept(2),
        BayesLinReg.polynomial(3),
        GaussianMeanLocation(3),
    ], ids=["bayes_linreg_identity", "bayes_linreg_poly", "gaussian_mean"])
    def test_fixed_hessian_is_not_materialised(self, model):
        thetas = np.random.default_rng(19).standard_normal((50, model.param_dim))
        assert model.hess_coef(thetas).strides[0] == 0
        assert PosteriorCoefficients(model, thetas).B.strides[0] == 0


def _layout_points(model, n, rng):
    return np.array([_random_point(model, rng)[1] for _ in range(n)])


def _release_gram(model, rng, T=40):
    """G = mean_t A_t^T A_t over random draws of the likelihood block A of
    the scores (the first K entries): the directions in feature-sum space
    that the posterior scores see."""
    thetas = np.array([_random_point(model, rng)[0] for _ in range(T)])
    A = model.score_coef(thetas)[:, :, :-1]
    return np.einsum("tdk,tdl->kl", A, A) / T


class TestMinimalFeatureBasis:
    """phi holds each distinct monomial once, so its columns are linearly
    independent and G's null space is exactly what the release hides."""

    @pytest.mark.parametrize("model,K", [
        (KidScoreModel(), 6),
        (BayesLinReg.identity_with_intercept(1), 6),
        (BayesLinReg.identity_with_intercept(2), 10),
        (BayesLinReg.polynomial(3), 12),
    ])
    def test_feature_count(self, model, K):
        assert model.n_features == K
        assert model.phi(np.zeros((1, model.layout.p))).shape == (1, K)

    @pytest.mark.parametrize("name,model", LIKELIHOOD_MODELS,
                             ids=[n for n, _ in LIKELIHOOD_MODELS])
    def test_phi_has_full_column_rank(self, name, model):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        K = model.phi(_layout_points(model, 1, rng)).shape[1]
        assert np.linalg.matrix_rank(model.phi(_layout_points(model, K + 5, rng))) == K

    def test_kidscore_monomial_order(self):
        r, u = 0.7, -1.3
        np.testing.assert_array_equal(KidScoreModel().phi([[1.0, r, u]]),
                                      [[1.0, u, u * u, r, r * u, r * r]])

    def test_kidscore_release_exposes_every_statistic(self):
        ev = np.linalg.eigvalsh(_release_gram(KidScoreModel(), np.random.default_rng(3)))
        assert ev[0] > 1e-3 * ev[-1]

    @pytest.mark.parametrize("model", [
        BayesLinReg.polynomial(3),
        BayesLinReg.identity_with_intercept(1),
        BayesLinReg.identity_with_intercept(2),
    ], ids=["cubic", "identity_1", "identity_2"])
    def test_unit_noise_regression_hides_only_sum_of_squared_responses(self, model):
        # the posterior sees Psi^T Psi and Psi^T y but not y^T y
        rng = np.random.default_rng(4)
        ev, vecs = np.linalg.eigh(_release_gram(model, rng))
        assert np.sum(ev < 1e-10 * ev[-1]) == 1
        pts = _layout_points(model, 8, rng)
        u2 = [k for k, col in enumerate(model.phi(pts).T)
              if np.array_equal(col, pts[:, model.layout.y_idx] ** 2)]
        assert len(u2) == 1
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.eye(len(ev))[u2[0]], atol=1e-10)

    def test_gaussian_mean_hides_only_sum_of_squared_norms(self):
        model = GaussianMeanLocation(3)
        ev, vecs = np.linalg.eigh(_release_gram(model, np.random.default_rng(5)))
        assert np.sum(ev < 1e-10 * ev[-1]) == 1
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.eye(len(ev))[-1], atol=1e-10)


class TestConstructorSettings:
    @pytest.mark.parametrize("build,key", [
        (lambda: KidScoreModel(prior_scale=float("nan")), "prior_scale"),
        (lambda: KidScoreModel(prior_scale=0), "prior_scale"),
        (lambda: GaussianMeanLocation(0), "dim"),
        (lambda: GaussianMeanLocation(2.0), "dim"),
        (lambda: BayesLinReg.identity_with_intercept(0), "x_dim"),
        (lambda: BayesLinReg.polynomial(True), "degree"),
        (lambda: LogisticLoss(2, ridge=-1), "ridge"),
        (lambda: SquaredErrorLoss.identity_with_intercept(1, ridge=float("inf")), "ridge"),
    ], ids=["prior_scale_nan", "prior_scale_zero", "dim_zero", "dim_float", "x_dim_zero",
            "degree_bool", "logistic_ridge_negative", "squared_error_ridge_infinite"])
    def test_bad_setting_rejected_naming_it(self, build, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            build()

    def test_defaults(self):
        assert GaussianMeanLocation().param_dim == 1
        assert LogisticLoss().param_dim == 1 and LogisticLoss().ridge == 0.0
        assert BayesLinReg.identity_with_intercept().param_dim == 2
        assert KidScoreModel().prior_scale == 2.5
