"""Refinement: chart correctness, LM behavior, weighting rules, local optimization."""

import numpy as np
import pytest

from caransac.geometry import (
    ESSENTIAL,
    FUNDAMENTAL,
    Matches,
    ModelHypothesis,
    homogenize,
    normalize_matches,
    sampson_sq_arrays,
)
from caransac.refinement import (
    RefineConfig,
    RefineUnderdetermined,
    _EssentialChart,
    _FundamentalChart,
    _JacobianWork,
    _lm_refine_arrays,
    _residual_jacobian,
    _sampson_residuals,
    refine_alpha_arrays,
)
from caransac.engine import local_optimize_topk_arrays
from caransac.scoring import score_matrix_arrays
from caransac.training import model_pose_error, PairSpec, generate_synthetic, pair_labels
from reference_refinement import _cost

from conftest import fit, make_scene, score_columns, take

CFG = RefineConfig()
SCALE = 2.25  # Cauchy scale, squared pixels


def hpoints(matches):
    return homogenize(matches.p1), homogenize(matches.p2)


def cauchy_lm(model, matches, weights, cfg=CFG):
    """The final-refinement LM (Cauchy loss, full iteration cap) over all matches."""
    p1h, p2h = hpoints(matches)
    return _lm_refine_arrays(
        model, p1h, p2h, np.asarray(weights, dtype=np.float64), cfg, "cauchy",
        SCALE, cfg.max_iterations,
    )


def fit_matches(matches, kind=FUNDAMENTAL):
    return fit(matches.p1, matches.p2, kind)


class TestCharts:
    def test_fundamental_chart_reproduces_input(self, rng):
        scene = make_scene(rng, n_inliers=12, noise_px=1.0)
        model = fit_matches(scene["data"])
        chart = _FundamentalChart.from_matrix(model.m)
        assert np.abs(chart.matrix() - model.m).max() < 1e-12

    def test_essential_chart_reproduces_input(self, rng):
        scene = make_scene(rng, n_inliers=12)
        e = scene["e_gt"]
        chart = _EssentialChart.from_matrix(e.m)
        assert np.abs(chart.matrix() - e.m).max() < 1e-9

    def test_retraction_stays_on_manifolds(self, rng):
        scene = make_scene(rng, n_inliers=12, noise_px=1.0)
        f = fit_matches(scene["data"])
        chart = _FundamentalChart.from_matrix(f.m)
        for _ in range(10):
            chart = chart.retract(rng.normal(scale=0.1, size=7))
            sv = np.linalg.svd(chart.matrix(), compute_uv=False)
            assert sv[2] < 1e-12
            assert np.linalg.norm(chart.matrix()) == pytest.approx(1.0, abs=1e-12)
        echart = _EssentialChart.from_matrix(scene["e_gt"].m)
        for _ in range(10):
            echart = echart.retract(rng.normal(scale=0.1, size=5))
            sv = np.linalg.svd(echart.matrix(), compute_uv=False)
            assert abs(sv[0] - sv[1]) < 1e-12 and sv[2] < 1e-12

    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    def test_jacobian_matches_finite_differences(self, rng, kind):
        scene = make_scene(rng, n_inliers=15, noise_px=1.0)
        if kind == FUNDAMENTAL:
            data = scene["data"]
            model = fit_matches(data, kind)
            chart = _FundamentalChart.from_matrix(model.m)
        else:
            data = normalize_matches(scene["data"], scene["k1"], scene["k2"])
            chart = _EssentialChart.from_matrix(fit_matches(data, kind).m)
        p1h, p2h = hpoints(data)
        work = _JacobianWork(p1h, p2h)
        d0, jac = _residual_jacobian(chart, _sampson_residuals(chart.matrix(), work), work)
        h = 1e-7
        for axis in range(jac.shape[1]):
            delta = np.zeros(jac.shape[1])
            delta[axis] = h
            m_up = chart.retract(delta).matrix()
            m_dn = chart.retract(-delta).matrix()

            def signed_residual(m):
                mx1 = p1h @ m.T
                mtx2 = p2h @ m
                r = np.einsum("ni,ni->n", p2h, mx1)
                g = mx1[:, 0] ** 2 + mx1[:, 1] ** 2 + mtx2[:, 0] ** 2 + mtx2[:, 1] ** 2
                return r / np.sqrt(g)

            fd = (signed_residual(m_up) - signed_residual(m_dn)) / (2 * h)
            err = np.abs(fd - jac[:, axis])
            scale = np.maximum(np.abs(fd), np.abs(jac[:, axis]))
            assert (err <= 1e-5 + 1e-4 * scale).all()


class TestLmMinimize:
    def test_ground_truth_is_fixed_point(self, rng):
        scene = make_scene(rng, n_inliers=40)
        model = scene["f_gt"]
        refined = cauchy_lm(model, scene["data"], np.ones(40))
        assert np.abs(refined.m - model.m).max() < 1e-9
        p1h, p2h = hpoints(scene["data"])
        assert _cost(refined.m, p1h, p2h, np.ones(40), "cauchy", 2.25) < 1e-18

    def test_noisy_refinement_improves_pose(self):
        # cost can never rise; pose improves on >= 90% of 200 random starts
        start_rng = np.random.default_rng(99)
        improved = 0
        total = 0
        for seed in range(200):
            pair = generate_synthetic(
                PairSpec(n=60, inlier_rate=1.0, noise_sigma_px=0.5, seed=seed)
            )
            inliers = take(pair.matches, pair.matches.labels)
            if len(inliers) < 20:
                continue
            idx = start_rng.choice(len(inliers), 8, replace=False)
            start = fit_matches(take(inliers, idx))
            if start is None:
                continue
            refined = cauchy_lm(start, inliers, np.ones(len(inliers)))
            p1h, p2h = hpoints(inliers)
            w = np.ones(len(inliers))
            assert (
                _cost(refined.m, p1h, p2h, w, "cauchy", 2.25)
                <= _cost(start.m, p1h, p2h, w, "cauchy", 2.25) + 1e-15
            )
            total += 1
            if model_pose_error(refined, pair) <= model_pose_error(start, pair) + 1e-9:
                improved += 1
        assert total >= 180
        assert improved / total >= 0.9

    def test_cauchy_bounds_outlier_influence(self, rng):
        # one gross outlier at weight 1 among many inliers barely moves the fit
        pair = generate_synthetic(PairSpec(n=101, inlier_rate=1.0, noise_sigma_px=0.3, seed=11))
        inliers = take(pair.matches, np.flatnonzero(pair.matches.labels)[:100])
        with_outlier = Matches(
            np.vstack([inliers.p1, [50.0, 400.0]]),
            np.vstack([inliers.p2, [600.0, 30.0]]),
            np.append(inliers.side, 0.5),
        )
        start = fit_matches(inliers)
        clean = cauchy_lm(start, inliers, np.ones(len(inliers)))
        mixed = cauchy_lm(start, with_outlier, np.ones(len(inliers) + 1))
        err_clean = model_pose_error(clean, pair)
        err_mixed = model_pose_error(mixed, pair)
        assert err_mixed <= max(2.0 * err_clean, 0.05)

    def test_underdetermined_raises(self, rng):
        scene = make_scene(rng, n_inliers=10)
        weights = np.zeros(10)
        weights[:5] = 1.0  # fundamental needs 7 effective points
        with pytest.raises(RefineUnderdetermined):
            cauchy_lm(scene["f_gt"], scene["data"], weights)

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    def test_zero_model_is_underdetermined_whatever_the_weights(self, rng, kind, weight):
        # the zero model has no chart, so it is refused before the points are
        # counted and every caller falls back through REFINE_ERRORS
        scene = make_scene(rng, n_inliers=10)
        with pytest.raises(RefineUnderdetermined):
            cauchy_lm(ModelHypothesis.zero(kind), scene["data"], np.full(10, weight))

    def test_manifold_invariants_after_refinement(self, rng):
        for seed in range(5):
            pair = generate_synthetic(PairSpec(n=80, inlier_rate=0.7, noise_sigma_px=1.0, seed=seed))
            labels = pair_labels(pair)
            start = fit_matches(take(pair.matches, np.flatnonzero(labels)[:10]))
            refined = cauchy_lm(start, pair.matches, labels.astype(float))
            sv = np.linalg.svd(refined.m, compute_uv=False)
            assert sv[2] < 1e-12
            assert np.linalg.norm(refined.m) == pytest.approx(1.0, abs=1e-12)


class TestRefineAlpha:
    def test_alpha_zero_is_unweighted(self, rng):
        scene = make_scene(rng, n_inliers=30, noise_px=0.5)
        model = fit_matches(scene["data"])
        probs = rng.uniform(0.2, 0.9, 30)
        a = refine_alpha_arrays(model, *hpoints(scene["data"]), probs, 0.0, CFG, SCALE, CFG.max_iterations)
        b = cauchy_lm(model, scene["data"], np.ones(30))
        assert np.abs(a.m - b.m).max() < 1e-12

    def test_large_alpha_keeps_confident_inliers_only(self, rng):
        scene = make_scene(rng, n_inliers=30, noise_px=0.5)
        model = fit_matches(scene["data"])
        probs = np.full(30, 0.4)
        probs[:10] = 0.99
        # alpha large enough that 0.4 ** alpha falls below the weight cutoff
        a = refine_alpha_arrays(model, *hpoints(scene["data"]), probs, 8.0, CFG, SCALE, CFG.max_iterations)
        confident = take(scene["data"], slice(0, 10))
        b = cauchy_lm(model, confident, np.full(10, 0.99**8.0))
        assert np.abs(a.m - b.m).max() < 1e-12

    def test_true_probabilities_recover_model(self):
        pair = generate_synthetic(PairSpec(n=60, inlier_rate=0.5, noise_sigma_px=0.0, seed=4))
        labels = pair_labels(pair)
        inl = take(pair.matches, labels)
        start = fit_matches(take(inl, slice(0, 8)))
        probs = np.where(labels, 1.0 - 1e-9, 1e-9)
        refined = refine_alpha_arrays(start, *hpoints(pair.matches), probs, 1.0, CFG, SCALE, CFG.max_iterations)
        res = sampson_sq_arrays(refined.m, *hpoints(inl))
        assert res.max() < 1e-8

    def test_excluded_points_have_zero_influence(self, rng):
        scene = make_scene(rng, n_inliers=40, noise_px=0.5)
        model = fit_matches(scene["data"])
        probs = rng.uniform(0.5, 1.0, 40)
        probs[-5:] = 1e-4  # below the cutoff after ** alpha
        p1h, p2h = hpoints(scene["data"])
        a = refine_alpha_arrays(model, p1h, p2h, probs, 1.0, CFG, SCALE, CFG.max_iterations)
        moved = scene["data"].p1.copy()
        for i in range(35, 40):
            moved[i] = moved[i] + rng.uniform(-300, 300, 2)
        b = refine_alpha_arrays(model, homogenize(moved), p2h, probs, 1.0, CFG, SCALE, CFG.max_iterations)
        assert np.array_equal(a.m, b.m)

    def test_cutoff_set_monotone_in_alpha(self):
        probs = np.linspace(0.01, 0.99, 50)
        cutoff = 1e-3
        prev = None
        for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
            kept = set(np.flatnonzero(probs**alpha > cutoff).tolist())
            if prev is not None:
                assert kept.issubset(prev)
            prev = kept


class TestLocalOptimizeTopK:
    def _scene_models(self, rng, n_models=6):
        pair = generate_synthetic(PairSpec(n=80, inlier_rate=0.6, noise_sigma_px=0.8, seed=9))
        data = pair.matches
        models = []
        idx = 0
        while len(models) < n_models:
            sample = (idx + np.arange(8)) % len(data)
            idx += 3
            m = fit_matches(take(data, sample))
            if m is not None:
                models.append(m)
        return pair, data, models

    def test_k_at_least_m_refines_all(self, rng):
        pair, data, models = self._scene_models(rng, n_models=3)
        s = score_columns(models, data.p1, data.p2, 2.25)
        cfg = RefineConfig(top_k=10)
        stack = np.stack([m.m for m in models])
        new_models, new_s, touched = local_optimize_topk_arrays(
            stack, s, *hpoints(data), 2.25, cfg, FUNDAMENTAL
        )
        for j in range(len(models)):
            if (s[:, j] > 0).sum() >= 7:
                assert j in touched
                assert not np.array_equal(new_models[j], stack[j])

    def test_all_zero_scores_unchanged(self, rng):
        scene = make_scene(rng, n_inliers=20)
        models = np.zeros((3, 3, 3))
        s = np.zeros((20, 3))
        new_models, new_s, touched = local_optimize_topk_arrays(
            models, s, *hpoints(scene["data"]), 2.25, CFG, FUNDAMENTAL
        )
        assert np.array_equal(new_s, s)
        assert np.array_equal(new_models, models)
        assert touched == []

        # a zero column among live models in the top k stays as given
        _, data, live = self._scene_models(rng, n_models=3)
        stack = np.concatenate([np.stack([m.m for m in live]), np.zeros((1, 3, 3))])
        s = score_matrix_arrays(stack, *hpoints(data), 2.25)
        assert CFG.top_k >= len(stack)
        new_models, new_s, touched = local_optimize_topk_arrays(
            stack, s, *hpoints(data), 2.25, CFG, FUNDAMENTAL
        )
        assert touched and 3 not in touched
        assert not new_models[3].any()
        assert np.array_equal(new_s[:, 3], s[:, 3])

    def test_only_topk_columns_change(self, rng):
        pair, data, models = self._scene_models(rng, n_models=6)
        s = score_columns(models, data.p1, data.p2, 2.25)
        cfg = RefineConfig(top_k=2)
        stack = np.stack([m.m for m in models])
        new_models, new_s, _ = local_optimize_topk_arrays(
            stack, s, *hpoints(data), 2.25, cfg, FUNDAMENTAL
        )
        totals = s.sum(axis=0)
        order = np.lexsort((np.arange(len(models)), -totals))
        touched = set(order[:2].tolist())
        for j in range(len(models)):
            if j not in touched:
                assert np.array_equal(new_s[:, j], s[:, j])
                assert np.array_equal(new_models[j], stack[j])

    def test_inputs_not_mutated(self, rng):
        pair, data, models = self._scene_models(rng, n_models=4)
        s = score_columns(models, data.p1, data.p2, 2.25)
        stack = np.stack([m.m for m in models])
        s_before, stack_before = s.copy(), stack.copy()
        _, _, touched = local_optimize_topk_arrays(stack, s, *hpoints(data), 2.25, CFG, FUNDAMENTAL)
        assert touched
        assert np.array_equal(s, s_before)
        assert np.array_equal(stack, stack_before)

    def test_rescored_columns_come_from_the_score_kernel(self):
        # a refined column is the one-model score_matrix_arrays column, bit for bit
        pair = generate_synthetic(PairSpec(n=2000, inlier_rate=0.5, noise_sigma_px=0.8, seed=9))
        data = pair.matches
        p1h, p2h = hpoints(data)
        models = [fit_matches(take(data, np.arange(8 * i, 8 * i + 8))) for i in range(16)]
        stack = np.stack([m.m for m in models if m is not None])
        s = score_matrix_arrays(stack, p1h, p2h, 2.25)
        new_models, new_s, touched = local_optimize_topk_arrays(stack, s, p1h, p2h, 2.25, CFG, FUNDAMENTAL)
        assert touched
        for j in touched:
            assert np.array_equal(new_s[:, j], score_matrix_arrays(new_models[j][None], p1h, p2h, 2.25)[:, 0])

    def test_refined_columns_not_worse(self, rng):
        pair, data, models = self._scene_models(rng, n_models=5)
        s = score_columns(models, data.p1, data.p2, 2.25)
        stack = np.stack([m.m for m in models])
        new_models, new_s, _ = local_optimize_topk_arrays(
            stack, s, *hpoints(data), 2.25, CFG, FUNDAMENTAL
        )
        # local optimization cannot reduce a model's truncated consensus
        # on its own inlier set arbitrarily; totals should not collapse
        assert new_s.sum() >= 0.5 * s.sum()


class TestRefineConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            # a rejected step that does not raise the damping retries forever
            {"lambda_up": 1.0},
            {"lambda_up": 0.5},
            {"min_rel_decrease": -1e-3},
        ],
    )
    def test_rejects_settings_that_hang_or_give_nan(self, bad):
        # construction only: LM is never run with these values
        with pytest.raises(ValueError):
            RefineConfig(**bad)

    def test_defaults_and_edge_values_accepted(self):
        assert RefineConfig() == CFG
        assert RefineConfig(lambda_up=1.5, min_rel_decrease=0.0).lambda_up == 1.5

    def test_cauchy_scale_is_not_a_setting(self):
        # the scale is the caller's MSAC threshold, passed to each LM call
        with pytest.raises(TypeError):
            RefineConfig(cauchy_scale=2.25)
