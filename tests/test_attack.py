import functools

import numpy as np
import pytest

from datarecon import attack
from datarecon.attack import (
    AdamState,
    AttackConfig,
    AttackDiverged,
    adam_update,
    check_model_fits,
    draw_slices,
    initialize_pseudo,
    objective_gradients,
    objective_value,
    run_attack,
)
from datarecon.divergence import PosteriorCoefficients, PosteriorDraws, SliceMoments
from datarecon.measures import ReconStats, build_measure
from datarecon.models import (
    BayesLinReg,
    GaussianMeanLocation,
    KidScoreModel,
    LogisticLoss,
    SquaredErrorLoss,
)
from datarecon.samplers import exact_gaussian_mean_draws
from datarecon.verification import _statistic_space_instance


class TestAdam:
    def test_first_step_has_learning_rate_magnitude(self):
        # bias correction makes the very first update lr * sign(grad)
        state = AdamState.zeros(3)
        params = np.zeros(3)
        grads = np.array([0.5, -2.0, 1e-3])
        lr = np.full(3, 0.01)
        new = adam_update(state, params, grads, lr)
        np.testing.assert_allclose(new, -0.01 * np.sign(grads), rtol=1e-5)

    def test_zero_gradient_fixed_point(self):
        state = AdamState.zeros(2)
        params = np.array([1.0, -3.0])
        for _ in range(5):
            params = adam_update(state, params, np.zeros(2), np.full(2, 0.1))
        np.testing.assert_array_equal(params, [1.0, -3.0])

    def test_per_parameter_rates(self):
        state = AdamState.zeros(2)
        new = adam_update(state, np.zeros(2), np.ones(2), np.array([0.1, 0.001]))
        assert abs(new[0]) == pytest.approx(0.1, rel=1e-6)
        assert abs(new[1]) == pytest.approx(0.001, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_update(AdamState.zeros(2), np.zeros(3), np.zeros(3), np.ones(3))

    def test_converges_on_quadratic(self):
        state = AdamState.zeros(1)
        x = np.array([4.0])
        for _ in range(5000):
            x = adam_update(state, x, 2 * x, np.array([0.05]))
        assert abs(x[0]) < 1e-3


class TestInitialization:
    def test_unit_weights_and_seeded_points(self):
        model = GaussianMeanLocation(2)
        cfg = AttackConfig(objective="fd", M=4, iters=1, seed=5)
        m = initialize_pseudo(model, cfg)
        assert np.all(m.weights == 1.0)
        expected = np.random.default_rng([5, 0]).standard_normal((4, 2))
        np.testing.assert_array_equal(m.points, expected)

    def test_frozen_intercept_column(self):
        model = BayesLinReg.identity_with_intercept(1)
        draws = exact_gaussian_mean_draws(np.zeros((3, 2)), 10, seed=0)
        cfg = AttackConfig(objective="fd", M=6, iters=1, seed=1)
        m = initialize_pseudo(model, cfg, draws=draws)
        assert np.all(m.points[:, 0] == 1.0)

    def test_responses_track_mean_prediction(self):
        model = BayesLinReg.identity_with_intercept(1)
        theta_bar = np.array([2.0, 0.0])
        from datarecon.divergence import PosteriorDraws
        draws = PosteriorDraws(np.tile(theta_bar, (5, 1)))
        cfg = AttackConfig(objective="fd", M=200, iters=1, seed=2)
        m = initialize_pseudo(model, cfg, draws=draws)
        # slope is zero so y ~ N(intercept, noise^2) regardless of x
        assert m.points[:, 2].mean() == pytest.approx(2.0, abs=0.3)

    def test_regression_without_draws_rejected(self):
        model = BayesLinReg.identity_with_intercept(1)
        cfg = AttackConfig(objective="fd", M=2, iters=1)
        with pytest.raises(ValueError):
            initialize_pseudo(model, cfg)


def _fd_gradcheck(objective, model, measure, h=1e-6, **kw):
    gw, gz = objective_gradients(objective, model, measure, **kw)
    free = list(model.layout.free_idx)
    num_gw = np.empty_like(gw)
    for m in range(len(measure.weights)):
        wp, wm = measure.weights.copy(), measure.weights.copy()
        wp[m] += h
        wm[m] -= h
        num_gw[m] = (
            objective_value(objective, model, measure.replace(weights=wp), **kw)
            - objective_value(objective, model, measure.replace(weights=wm), **kw)
        ) / (2 * h)
    num_gz = np.empty_like(gz)
    for m in range(len(measure.weights)):
        for j, col in enumerate(free):
            pp, pm = measure.points.copy(), measure.points.copy()
            pp[m, col] += h
            pm[m, col] -= h
            num_gz[m, j] = (
                objective_value(objective, model, measure.replace(points=pp), **kw)
                - objective_value(objective, model, measure.replace(points=pm), **kw)
            ) / (2 * h)
    scale = max(1.0, np.max(np.abs(gw)), np.max(np.abs(gz)))
    err_w = np.max(np.abs(gw - num_gw)) / scale
    err_z = np.max(np.abs(gz - num_gz)) / scale
    return max(err_w, err_z)


def _per_point_value_and_grads(model, thetas, measure, slices=None):
    """The fd/sfd objective and its gradients assembled point by point
    (score, curvature and data-derivative arrays over draws, slices and
    pseudo-points, each written out from the factor primitives): the
    reference for the statistic-space path. ``slices is None`` selects the
    trace (fd) form."""
    w = measure.weights
    points = measure.points
    T = len(thetas)
    phi, phi_jac = model.phi(points), model.phi_jac(points)      # (M, K), (M, K, pf)
    A, B = model.score_coef(thetas), model.hess_coef(thetas)     # entry K+1 is the prior
    A, p, B, P = A[:, :, :-1], A[:, :, -1], B[:, :-1], B[:, -1]
    scores = model.score_batch(thetas, points)                   # (T, M, d)
    S = p + np.einsum("m,tmd->td", w, scores)
    if slices is None:
        curv_coef = np.einsum("tkii->tk", B)                     # (T, K)
        curv_m = curv_coef @ phi.T                               # (T, M)
        curv_prior = np.einsum("tii->t", P)                      # (T,)
    else:
        curv_coef = np.einsum("tkij,tli,tlj->tlk", B, slices, slices)       # (T, L, K)
        curv_m = (curv_coef @ phi.T).mean(axis=1)                           # (T, M)
        curv_prior = np.einsum("tij,tli,tlj->tl", P, slices, slices).mean(axis=1)
    per_draw = curv_prior + curv_m @ w + 0.5 * np.sum(S**2, axis=1)
    value = float(np.mean(per_draw))
    grad_w = curv_m.mean(axis=0) + np.einsum("td,tmd->m", S, scores) / T
    jac = np.einsum("tdk,mkp->tmdp", A, phi_jac)                 # (T, M, d, pf)
    grad_z = np.einsum("tmdj,td->mj", jac, S) / T
    if slices is None:
        grad_z += np.einsum("tk,mkp->tmp", curv_coef, phi_jac).mean(axis=0)
    else:
        grad_z += np.einsum("tlk,mkp->tlmp", curv_coef, phi_jac).mean(axis=(0, 1))
    grad_z *= w[:, None]
    return value, grad_w, grad_z


STATISTIC_SPACE_MODELS = [
    ("gaussian_mean", GaussianMeanLocation(2)),
    ("bayes_linreg_identity", BayesLinReg.identity_with_intercept(2)),
    ("bayes_linreg_poly", BayesLinReg.polynomial(3)),
    ("kidscore", KidScoreModel()),
]


def _max_rel(x, ref):
    return np.max(np.abs(np.asarray(x) - ref)) / np.max(np.abs(ref))


class TestStatisticSpaceObjective:
    @pytest.mark.parametrize("objective", ["fd", "sfd"])
    @pytest.mark.parametrize("name,model", STATISTIC_SPACE_MODELS,
                             ids=[n for n, _ in STATISTIC_SPACE_MODELS])
    def test_matches_per_point_assembly(self, name, model, objective):
        from datarecon.divergence import PosteriorDraws
        rng = np.random.default_rng(list((name + objective).encode()))
        for _ in range(5):
            T, L, d = 60, 4, model.param_dim
            thetas, meas = _statistic_space_instance(model, rng, T)
            slices = rng.standard_normal((T, L, d)) if objective == "sfd" else None
            kw = {"draws": PosteriorDraws(thetas), "slices": slices}
            value = objective_value(objective, model, meas, **kw)
            gw, gz = objective_gradients(objective, model, meas, **kw)
            ref_value, ref_gw, ref_gz = _per_point_value_and_grads(model, thetas, meas, slices)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.max(np.abs(gw - ref_gw)) <= 1e-12 * np.max(np.abs(ref_gw))
            assert np.max(np.abs(gz - ref_gz)) <= 1e-12 * np.max(np.abs(ref_gz))


class TestPrecomputedQuadratic:
    @pytest.mark.parametrize("name,model", STATISTIC_SPACE_MODELS,
                             ids=[n for n, _ in STATISTIC_SPACE_MODELS])
    def test_coefficients_match_per_draw_definitions(self, name, model):
        rng = np.random.default_rng(list((name + "quadratic").encode()))
        thetas, _ = _statistic_space_instance(model, rng)
        # the prior is feature K+1: G's last row and column and c-bar's last
        # entry hold the prior terms
        coef = PosteriorCoefficients(model, thetas)
        T, K = len(thetas), coef.A.shape[2] - 1
        A, B = model.score_coef(thetas), model.hess_coef(thetas)
        A, p, B, P = A[:, :, :-1], A[:, :, -1], B[:, :-1], B[:, -1]
        G = sum(A[t].T @ A[t] for t in range(T)) / T
        h = sum(A[t].T @ p[t] for t in range(T)) / T
        half_prior_sq = sum(p[t] @ p[t] for t in range(T)) / (2 * T)
        c_bar = np.array([sum(np.trace(B[t, k]) for t in range(T)) for k in range(K)]) / T
        c_prior_bar = sum(np.trace(P[t]) for t in range(T)) / T
        assert coef.G.shape == (K + 1, K + 1) and coef.c_bar.shape == (K + 1,)
        assert _max_rel(coef.G[:K, :K], G) <= 1e-12
        assert _max_rel(coef.G[:K, K], h) <= 1e-12
        assert _max_rel(coef.G[K, K] / 2, half_prior_sq) <= 1e-12
        assert _max_rel(coef.c_bar[:K], c_bar) <= 1e-12
        assert _max_rel(coef.c_bar[K], c_prior_bar) <= 1e-12

    @pytest.mark.parametrize("L", [None, 4, 1], ids=["fd", "sfd", "sfd_L1"])
    @pytest.mark.parametrize("name,model", STATISTIC_SPACE_MODELS,
                             ids=[n for n, _ in STATISTIC_SPACE_MODELS])
    def test_value_and_grad_match_per_draw_mean(self, name, model, L):
        rng = np.random.default_rng(list((name + str(L)).encode()))
        for _ in range(3):
            thetas, meas = _statistic_space_instance(model, rng)
            coef = PosteriorCoefficients(model, thetas)
            Phi = meas.weights @ model.phi(meas.points)
            slices = None if L is None else rng.standard_normal((len(thetas), L,
                                                                 model.param_dim))
            value, g = coef.value_and_grad(Phi, slices)
            per_draw, c, S = coef.per_draw(Phi, slices)
            ref_g = np.mean(c + np.einsum("tdk,td->tk", coef.A, S), axis=0)[:-1]
            assert abs(value - per_draw.mean()) <= 1e-12 * abs(per_draw.mean())
            assert _max_rel(g, ref_g) <= 1e-12


class TestObjectiveGradients:
    def test_fd_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        model = GaussianMeanLocation(2)
        draws = exact_gaussian_mean_draws(rng.standard_normal((5, 2)), 30, seed=4)
        m = build_measure(rng.standard_normal((3, 2)), rng.standard_normal(3))
        assert _fd_gradcheck("fd", model, m, draws=draws) < 1e-7

    def test_sfd_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = KidScoreModel()
        thetas = np.column_stack([
            rng.standard_normal((20, 2)), 0.5 + rng.random(20)])
        from datarecon.divergence import PosteriorDraws
        draws = PosteriorDraws(thetas)
        pts = np.column_stack([
            np.ones(3), rng.standard_normal((3, 2))])
        m = build_measure(pts, rng.standard_normal(3))
        slices = rng.standard_normal((20, 4, 3))
        assert _fd_gradcheck("sfd", model, m, draws=draws, slices=slices) < 1e-7

    def test_nonbayes_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        model = SquaredErrorLoss.identity_with_intercept(1, ridge=0.3)
        pts = np.column_stack([np.ones(4), rng.standard_normal((4, 2))])
        m = build_measure(pts, rng.standard_normal(4))
        theta = rng.standard_normal(2)
        assert _fd_gradcheck("nonbayes", model, m, theta_star=theta) < 1e-7

    def test_fd_grad_z_vanishes_at_exact_reconstruction(self):
        # draws recentred on the exact posterior mean make the stationarity
        # of the pseudo-data gradient hold to numerical precision
        rng = np.random.default_rng(7)
        model = GaussianMeanLocation(2)
        X = rng.standard_normal((4, 2))
        mu = X.sum(axis=0) / 5
        raw = exact_gaussian_mean_draws(X, 100, seed=8).draws
        from datarecon.divergence import PosteriorDraws
        draws = PosteriorDraws(raw - raw.mean(axis=0) + mu)
        m = build_measure(X)
        _, gz = objective_gradients("fd", model, m, draws=draws)
        assert np.max(np.abs(gz)) < 1e-9

    def test_weight_multiplicity_objective_equivalence(self):
        rng = np.random.default_rng(9)
        model = GaussianMeanLocation(1)
        draws = exact_gaussian_mean_draws(rng.standard_normal((3, 1)), 20, seed=10)
        z = rng.standard_normal((1, 1))
        v1 = objective_value("fd", model, build_measure(z, [2.0]), draws=draws)
        v2 = objective_value(
            "fd", model, build_measure(np.vstack([z, z]), [1.0, 1.0]), draws=draws)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_missing_inputs_rejected(self):
        model = GaussianMeanLocation(1)
        m = build_measure([[0.0]])
        draws = exact_gaussian_mean_draws([[0.0]], 5)
        with pytest.raises(ValueError, match="^fd objective requires posterior draws"):
            objective_value("fd", model, m)
        with pytest.raises(ValueError, match="^sfd objective requires slice directions"):
            objective_value("sfd", model, m, draws=draws)
        # a loss model passes the objective/model rule, so the missing
        # released parameters are what is reported
        loss, m_loss = LogisticLoss(2), build_measure([[0.5, -1.0, 1.0]])
        with pytest.raises(ValueError, match="^nonbayes objective requires released parameters"):
            objective_value("nonbayes", loss, m_loss)
        # only sfd takes slices
        with pytest.raises(ValueError, match="^fd objective takes no slices"):
            objective_value("fd", model, m, draws=draws, slices=np.ones((5, 2, 1)))
        with pytest.raises(ValueError, match="^nonbayes objective takes no slices"):
            objective_value("nonbayes", loss, m_loss, theta_star=[1.0, 2.0],
                            slices=np.ones((3, 2, 2)))
        # slices of shape (T, d) or with no slice per draw (L = 0)
        for shape in ((5, 1), (5, 0, 1)):
            with pytest.raises(ValueError, match="slices must have shape"):
                objective_value("sfd", model, m, draws=draws, slices=np.zeros(shape))
            with pytest.raises(ValueError, match="slices must have shape"):
                objective_gradients("sfd", model, m, draws=draws, slices=np.zeros(shape))

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective: 'bogus'"):
            check_model_fits("bogus", GaussianMeanLocation(1))

    def test_objective_model_mismatch_rejected(self):
        m = build_measure([[0.0, 1.0]])
        draws = exact_gaussian_mean_draws([[0.0, 0.0]], 5)
        # fd/sfd take a likelihood model
        with pytest.raises(ValueError, match="objective 'fd' takes a likelihood model"):
            objective_value("fd", LogisticLoss(1), m, draws=draws)
        with pytest.raises(ValueError, match="objective 'sfd' takes a likelihood model"):
            objective_gradients("sfd", LogisticLoss(1), m, draws=draws,
                                slices=np.zeros((5, 1, 1)))
        with pytest.raises(ValueError, match="takes a likelihood model"):
            run_attack(LogisticLoss(1), AttackConfig(objective="fd", M=2, iters=1),
                       draws=draws)
        # nonbayes takes a loss model
        with pytest.raises(ValueError, match="objective 'nonbayes' takes a loss model"):
            objective_value("nonbayes", GaussianMeanLocation(2), m, theta_star=[0.0, 0.0])
        with pytest.raises(ValueError, match="takes a loss model"):
            run_attack(GaussianMeanLocation(2),
                       AttackConfig(objective="nonbayes", M=2, iters=1),
                       theta_star=[0.0, 0.0])


class TestSliceMoments:
    """``draw_slices`` draws each block's sum of v v^T directly. Its law must
    be that of L standard-normal directions per draw, Wishart_d(L, I)."""

    T = 200_000

    @staticmethod
    def _matrices(moments, d):
        I, J = np.triu_indices(d)
        W = np.zeros((moments.sums.shape[1], d, d))
        W[:, I, J] = moments.sums.T
        W[:, J, I] = moments.sums.T
        return W

    @pytest.mark.parametrize("L,d", [(10, 3), (3, 3), (2, 3), (1, 3), (7, 2), (1, 1)])
    def test_law_of_the_pair_sums(self, L, d):
        T = self.T
        moments = draw_slices(np.random.default_rng([L, d]), T, L, d)
        I, J = np.triu_indices(d)
        diag = I == J
        assert isinstance(moments, SliceMoments) and moments.L == L
        assert moments.sums.shape == (len(I), T)
        # each pair sum is a sum of L iid terms v_i v_j: for i = j a
        # chi^2_L (mean L, variance 2L, fourth central moment 12L(L+4)),
        # for i != j mean 0, variance L and fourth moment 3L^2 + 6L
        mean, var = moments.sums.mean(axis=1), moments.sums.var(axis=1, ddof=1)
        true_var = L * (1.0 + diag)
        fourth = np.where(diag, 12.0 * L * (L + 4), 3.0 * L**2 + 6.0 * L)
        assert np.all(np.abs(mean - L * diag) <= 4 * np.sqrt(true_var / T)), mean
        assert np.all(np.abs(var - true_var) <= 4 * np.sqrt((fourth - true_var**2) / T)), var
        det = np.linalg.det(self._matrices(moments, d))
        if L >= d:
            # E det W = L! / (L - d)! for W ~ Wishart_d(L, I)
            expected = float(np.prod(np.arange(L - d + 1, L + 1)))
            assert abs(det.mean() - expected) <= 4 * det.std(ddof=1) / np.sqrt(T)
        else:
            # rank L < d: singular up to rounding
            trace = moments.sums[diag].sum(axis=0)
            assert np.max(np.abs(det) / trace**3) < 1e-12

    def test_equal_seeds_give_identical_arrays(self):
        a, b = (draw_slices(np.random.default_rng(3), 100, 4, 3) for _ in range(2))
        np.testing.assert_array_equal(a.sums, b.sums)

    def test_slice_count_far_beyond_memory(self):
        # the draw costs the same whatever L is; V_t = sums / L is near I
        moments = draw_slices(np.random.default_rng(4), 50, 10**9, 2)
        assert moments.sums.shape == (3, 50)
        assert np.all(np.isfinite(moments.sums))
        np.testing.assert_allclose(moments.sums.mean(axis=1) / 10**9, [1.0, 0.0, 1.0],
                                   atol=1e-3)

    @pytest.mark.parametrize("model", [GaussianMeanLocation(2), KidScoreModel()],
                             ids=["gaussian_mean", "kidscore"])
    def test_slice_count_near_float_max_matches_fd(self, model):
        # an integer L just inside float range: V_t = sums / L is I to
        # rounding, so the sliced objective is the trace form
        rng = np.random.default_rng(6)
        thetas, meas = _statistic_space_instance(model, rng)
        draws = PosteriorDraws(thetas)
        slices = draw_slices(rng, draws.T, 10**308, model.param_dim)
        sfd = objective_value("sfd", model, meas, draws=draws, slices=slices)
        fd = objective_value("fd", model, meas, draws=draws)
        assert abs(sfd - fd) <= 1e-12 * abs(fd)

    def test_moments_and_raw_slices_give_the_same_curvature(self):
        rng = np.random.default_rng(5)
        model = KidScoreModel()
        thetas = np.column_stack([rng.standard_normal((30, 2)), 0.5 + rng.random(30)])
        coef = PosteriorCoefficients(model, thetas)
        slices = rng.standard_normal((30, 4, 3))
        np.testing.assert_array_equal(coef.mean_curvature(slices),
                                      coef.mean_curvature(SliceMoments.of(slices)))
        with pytest.raises(ValueError, match="slice moments must have shape"):
            coef.mean_curvature(SliceMoments(np.zeros((6, 29)), 4))


def _draw_slices_reference(rng, T, L, d):
    """``draw_slices`` as it was before its plan was cached: index arrays
    rebuilt per call, A zero-filled as (m, d, T), both pair gathers and one
    einsum."""
    m = min(L, d)
    I, J = np.tril_indices(d, -1)
    below = J < m
    cols = np.zeros((m, d, T))                   # cols[k, i] = A_ik
    cols[J[below], I[below]] = rng.standard_normal((int(below.sum()), T))
    k = np.arange(m)
    cols[k, k] = np.sqrt(2.0 * rng.standard_gamma((float(L) - k)[:, None] / 2.0, size=(m, T)))
    P, Q = np.triu_indices(d)
    return np.einsum("kpt,kpt->pt", cols[:, P], cols[:, Q])


class TestSlicePlan:
    """The cached plan changes no random number, and for T > 1 no summation
    order: einsum added the k terms of a pair in ascending k, as the plan
    does. With one draw einsum added three or more terms in SIMD lanes, so
    one-draw sums may differ from it in the last bits."""

    @pytest.mark.parametrize("T", [1, 37, 1000])
    @pytest.mark.parametrize("L,d", [(10, 3), (3, 3), (2, 3), (1, 3), (7, 2), (1, 1), (3, 5),
                                     (10**9, 3), (4, 9)])
    def test_same_sums_as_the_gathered_einsum(self, L, d, T):
        for seed in range(5):
            new = draw_slices(np.random.default_rng([seed, d, T]), T, L, d).sums
            old = _draw_slices_reference(np.random.default_rng([seed, d, T]), T, L, d)
            if T > 1:
                assert np.array_equal(new, old)
            else:
                np.testing.assert_allclose(new, old, rtol=4 * np.finfo(float).eps,
                                           atol=4 * np.finfo(float).eps * np.abs(old).max())

    def test_plan_built_once_per_shape(self):
        rng = np.random.default_rng(0)
        draw_slices(rng, 5, 6, 4)
        before = attack._slice_plan.cache_info()
        draw_slices(rng, 9, 6, 4)
        after = attack._slice_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestRunAttack:
    @pytest.mark.parametrize("objective", ["fd", "sfd", "nonbayes"])
    def test_slices_drawn_through_the_module_on_every_pass(self, monkeypatch, objective):
        # run_attack must look draw_slices up on the attack module each pass,
        # so that a wrapper put there (a profiler's span) sees every draw
        calls = []

        def counting(*args):
            calls.append(args)
            return draw_slices(*args)

        monkeypatch.setattr(attack, "draw_slices", counting)
        cfg = AttackConfig(objective=objective, M=2, iters=7, L=3, seed=1)
        if objective == "nonbayes":
            run_attack(SquaredErrorLoss.identity_with_intercept(1, ridge=0.5), cfg,
                       theta_star=[0.1, 0.2])
        else:
            draws = exact_gaussian_mean_draws(np.ones((3, 2)), 10, seed=2)
            run_attack(GaussianMeanLocation(2), cfg, draws=draws)
        assert len(calls) == (cfg.iters + 1 if objective == "sfd" else 0)
        assert all(args[1:] == (10, 3, 2) for args in calls)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        model = GaussianMeanLocation(2)
        X = rng.standard_normal((4, 2))
        draws = exact_gaussian_mean_draws(X, 50, seed=12)
        cfg = AttackConfig(objective="sfd", M=3, iters=40, seed=13, trace_every=10)
        t1, m1 = run_attack(model, cfg, draws=draws)
        t2, m2 = run_attack(model, cfg, draws=draws)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.points, m2.points)
        assert [c.objective for c in t1.checkpoints] == [
            c.objective for c in t2.checkpoints]

    def test_frozen_intercept_never_moves(self):
        rng = np.random.default_rng(14)
        model = BayesLinReg.identity_with_intercept(1)
        X = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
        thetas = rng.standard_normal((30, 2)) * 0.3
        from datarecon.divergence import PosteriorDraws
        draws = PosteriorDraws(thetas)
        cfg = AttackConfig(objective="fd", M=4, iters=60, seed=15)
        _, measure = run_attack(model, cfg, draws=draws)
        assert np.all(measure.points[:, 0] == 1.0)

    def test_nonbayes_attack_drives_objective_down(self):
        rng = np.random.default_rng(16)
        model = SquaredErrorLoss.identity_with_intercept(1, ridge=0.5)
        X = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
        psi, y = X[:, :2], X[:, 2]
        theta_star = np.linalg.solve(psi.T @ psi + 0.5 * np.eye(2), psi.T @ y)
        cfg = AttackConfig(objective="nonbayes", M=5, iters=3000,
                           lr_w=1e-2, lr_z=1e-2, seed=17, trace_every=500)
        trace, _ = run_attack(model, cfg, theta_star=theta_star)
        first = trace.checkpoints[0].objective
        last = trace.checkpoints[-1].objective
        assert last < 1e-6 * first

    def test_fd_attack_recovers_sufficient_statistics(self):
        rng = np.random.default_rng(18)
        model = GaussianMeanLocation(2)
        X = rng.standard_normal((6, 2)) + 0.4
        draws = exact_gaussian_mean_draws(X, 400, seed=19)
        cfg = AttackConfig(objective="fd", M=3, iters=4000, lr_w=5e-3,
                           lr_z=5e-3, seed=20, trace_every=1000)
        _, measure = run_attack(model, cfg, draws=draws)
        # the attack optimum implied by the finite draw set: total mass
        # 1 + S_w = d / tr(Cov), weighted sum (1 + S_w) * mean(draws)
        theta_bar = draws.draws.mean(axis=0)
        tr_cov = float(np.trace(np.cov(draws.draws.T)))
        implied_mass = 2 / tr_cov
        implied_sum = implied_mass * theta_bar
        recon_sum = measure.weights @ measure.points
        assert measure.weights.sum() + 1 == pytest.approx(implied_mass, rel=0.01)
        assert np.max(np.abs(recon_sum - implied_sum)) < 0.05
        # and the implied optimum sits near the true sufficient statistics
        assert np.max(np.abs(recon_sum - X.sum(axis=0))) < 0.5

    def test_trace_checkpoints_and_errors(self):
        rng = np.random.default_rng(21)
        model = GaussianMeanLocation(1)
        X = rng.standard_normal((3, 1))
        draws = exact_gaussian_mean_draws(X, 20, seed=22)
        cfg = AttackConfig(objective="fd", M=2, iters=25, seed=23, trace_every=10)
        trace, _ = run_attack(model, cfg, draws=draws, target_points=X)
        assert [c.iteration for c in trace.checkpoints] == [0, 10, 20, 25]
        assert trace.checkpoints[0].errors is not None
        assert "total_mass" in trace.checkpoints[0].errors

    def test_moments_computed_once_per_stats(self, monkeypatch):
        # the target is fixed, and the trace rows read every checkpoint's
        # moments again after stat_errors did: each ReconStats computes
        # its moments once
        computed = []
        compute = ReconStats.__dict__["moments"].func

        def counting(stats):
            computed.append(stats)
            return compute(stats)

        counted = functools.cached_property(counting)
        counted.__set_name__(ReconStats, "moments")
        monkeypatch.setattr(ReconStats, "moments", counted)
        rng = np.random.default_rng(21)
        X = rng.standard_normal((3, 1))
        draws = exact_gaussian_mean_draws(X, 20, seed=22)
        cfg = AttackConfig(objective="fd", M=2, iters=25, seed=23, trace_every=5)
        trace, _ = run_attack(GaussianMeanLocation(1), cfg, draws=draws, target_points=X)
        rows = list(trace.rows())
        assert len(rows) == len(trace.checkpoints) == 6
        assert len(computed) == 1 + len(rows)
        assert len({id(stats) for stats in computed}) == len(computed)

    def test_divergence_at_the_last_step_is_raised(self):
        # one Adam step of 1e200 leaves a measure whose objective overflows:
        # the final evaluation gets the same check as every other
        rng = np.random.default_rng(6)
        model = GaussianMeanLocation(2)
        draws = exact_gaussian_mean_draws(rng.standard_normal((6, 2)), 50, seed=5)
        cfg = AttackConfig(objective="sfd", M=3, iters=1, L=2, lr_w=1e200, lr_z=1e200,
                           seed=4)
        with np.errstate(all="ignore"), pytest.raises(AttackDiverged) as info:
            run_attack(model, cfg, draws=draws)
        assert info.value.iteration == 1
        assert [c.iteration for c in info.value.trace.checkpoints] == [0]
        initial = initialize_pseudo(model, cfg, draws=draws)
        np.testing.assert_array_equal(info.value.measure.weights, initial.weights)
        np.testing.assert_array_equal(info.value.measure.points, initial.points)

    def test_trace_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        model = GaussianMeanLocation(1)
        X = rng.standard_normal((3, 1))
        draws = exact_gaussian_mean_draws(X, 20, seed=25)
        cfg = AttackConfig(objective="fd", M=2, iters=12, seed=26, trace_every=5)
        trace, _ = run_attack(model, cfg, draws=draws)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["iteration", "objective", "total_mass"]
        assert len(lines) == 1 + len(trace.checkpoints)
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == trace.checkpoints[0].objective


class TestAttackConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(objective="bogus", M=1, iters=1)
        with pytest.raises(ValueError):
            AttackConfig(objective="fd", M=0, iters=1)
        with pytest.raises(ValueError):
            AttackConfig(objective="fd", M=1, iters=1, lr_w=0.0)
        with pytest.raises(ValueError):
            AttackConfig(objective="sfd", M=1, iters=1, L=0)
        with pytest.raises(ValueError, match="seed"):
            AttackConfig(objective="fd", M=1, iters=1, seed=-1)
