import numpy as np
import pytest

from datarecon.attack import (
    AdamState,
    AttackConfig,
    AttackDiverged,
    adam_update,
    draw_slices,
    initialize_pseudo,
    objective_gradients,
    objective_value,
    run_attack,
)
from datarecon.divergence import PosteriorCoefficients
from datarecon.measures import build_measure
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
    B, P = model.hess_coef(thetas), model.prior_hess_batch(thetas)
    scores = model.score_batch(thetas, points)                   # (T, M, d)
    S = model.prior_score_batch(thetas) + np.einsum("m,tmd->td", w, scores)
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
    jac = np.einsum("tdk,mkp->tmdp", model.score_coef(thetas), phi_jac)  # (T, M, d, pf)
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
        coef = PosteriorCoefficients(model, thetas)
        T, K = len(thetas), coef.A.shape[2]
        A, p = model.score_coef(thetas), model.prior_score_batch(thetas)
        B, P = model.hess_coef(thetas), model.prior_hess_batch(thetas)
        G = sum(A[t].T @ A[t] for t in range(T)) / T
        h = sum(A[t].T @ p[t] for t in range(T)) / T
        half_prior_sq = sum(p[t] @ p[t] for t in range(T)) / (2 * T)
        c_bar = np.array([sum(np.trace(B[t, k]) for t in range(T)) for k in range(K)]) / T
        c_prior_bar = sum(np.trace(P[t]) for t in range(T)) / T
        assert _max_rel(coef.G, G) <= 1e-12
        assert _max_rel(coef.h, h) <= 1e-12
        assert _max_rel(coef.half_prior_sq, half_prior_sq) <= 1e-12
        assert _max_rel(coef.c_bar, c_bar) <= 1e-12
        assert _max_rel(coef.c_prior_bar, c_prior_bar) <= 1e-12

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
            ref_g = np.mean(c + np.einsum("tdk,td->tk", coef.A, S), axis=0)
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
        slices = draw_slices(rng, 20, 4, 3)
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
        with pytest.raises(ValueError):
            objective_value("fd", model, m)
        with pytest.raises(ValueError):
            objective_value("sfd", model, m, draws=draws)
        with pytest.raises(ValueError):
            objective_value("nonbayes", model, m)
        # slices of shape (T, d) or with no slice per draw (L = 0)
        for shape in ((5, 1), (5, 0, 1)):
            with pytest.raises(ValueError, match="slices must have shape"):
                objective_value("sfd", model, m, draws=draws, slices=np.zeros(shape))
            with pytest.raises(ValueError, match="slices must have shape"):
                objective_gradients("sfd", model, m, draws=draws, slices=np.zeros(shape))

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


class TestRunAttack:
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
