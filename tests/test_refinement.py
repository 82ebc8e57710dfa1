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
    _cost,
    _lm_refine_arrays,
    _residual_jacobian,
    local_optimize_topk_arrays,
    refine_alpha_arrays,
)
from caransac.training import model_pose_error, PairSpec, generate_synthetic, pair_labels

from conftest import fit, make_scene, score_columns, take

CFG = RefineConfig(cauchy_scale=2.25)


def hpoints(matches):
    return homogenize(matches.p1), homogenize(matches.p2)


def cauchy_lm(model, matches, weights, cfg=CFG):
    """The final-refinement LM (Cauchy loss, full iteration cap) over all matches."""
    p1h, p2h = hpoints(matches)
    return _lm_refine_arrays(
        model, p1h, p2h, np.asarray(weights, dtype=np.float64), cfg, "cauchy",
        cfg.cauchy_scale, cfg.max_iterations,
    )


def fit_matches(matches, kind=FUNDAMENTAL):
    return fit(matches.p1, matches.p2, kind)


class TestCharts:
    def test_fundamental_chart_reproduces_input(self, rng):
        scene = make_scene(rng, n_inliers=12, noise_px=1.0)
        model = fit_matches(scene["data"])
        chart = _FundamentalChart(model.m)
        assert np.abs(chart.matrix() - model.m).max() < 1e-12

    def test_essential_chart_reproduces_input(self, rng):
        scene = make_scene(rng, n_inliers=12)
        e = scene["e_gt"]
        chart = _EssentialChart(e.m)
        assert np.abs(chart.matrix() - e.m).max() < 1e-9

    def test_retraction_stays_on_manifolds(self, rng):
        scene = make_scene(rng, n_inliers=12, noise_px=1.0)
        f = fit_matches(scene["data"])
        chart = _FundamentalChart(f.m)
        for _ in range(10):
            chart = chart.retract(rng.normal(scale=0.1, size=7))
            sv = np.linalg.svd(chart.matrix(), compute_uv=False)
            assert sv[2] < 1e-12
            assert np.linalg.norm(chart.matrix()) == pytest.approx(1.0, abs=1e-12)
        echart = _EssentialChart(scene["e_gt"].m)
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
            chart = _FundamentalChart(model.m)
        else:
            data = normalize_matches(scene["data"], scene["k1"], scene["k2"])
            chart = _EssentialChart(fit_matches(data, kind).m)
        p1h, p2h = hpoints(data)
        d0, jac = _residual_jacobian(chart, p1h, p2h)
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
        a = refine_alpha_arrays(model, *hpoints(scene["data"]), probs, 0.0, CFG)
        b = cauchy_lm(model, scene["data"], np.ones(30))
        assert np.abs(a.m - b.m).max() < 1e-12

    def test_large_alpha_keeps_confident_inliers_only(self, rng):
        scene = make_scene(rng, n_inliers=30, noise_px=0.5)
        model = fit_matches(scene["data"])
        probs = np.full(30, 0.4)
        probs[:10] = 0.99
        # alpha large enough that 0.4 ** alpha falls below the weight cutoff
        a = refine_alpha_arrays(model, *hpoints(scene["data"]), probs, 8.0, CFG)
        confident = take(scene["data"], slice(0, 10))
        b = cauchy_lm(model, confident, np.full(10, 0.99**8.0))
        assert np.abs(a.m - b.m).max() < 1e-12

    def test_true_probabilities_recover_model(self):
        pair = generate_synthetic(PairSpec(n=60, inlier_rate=0.5, noise_sigma_px=0.0, seed=4))
        labels = pair_labels(pair)
        inl = take(pair.matches, labels)
        start = fit_matches(take(inl, slice(0, 8)))
        probs = np.where(labels, 1.0 - 1e-9, 1e-9)
        refined = refine_alpha_arrays(start, *hpoints(pair.matches), probs, 1.0, CFG)
        res = sampson_sq_arrays(refined.m, *hpoints(inl))
        assert res.max() < 1e-8

    def test_excluded_points_have_zero_influence(self, rng):
        scene = make_scene(rng, n_inliers=40, noise_px=0.5)
        model = fit_matches(scene["data"])
        probs = rng.uniform(0.5, 1.0, 40)
        probs[-5:] = 1e-4  # below the cutoff after ** alpha
        p1h, p2h = hpoints(scene["data"])
        a = refine_alpha_arrays(model, p1h, p2h, probs, 1.0, CFG)
        moved = scene["data"].p1.copy()
        for i in range(35, 40):
            moved[i] = moved[i] + rng.uniform(-300, 300, 2)
        b = refine_alpha_arrays(model, homogenize(moved), p2h, probs, 1.0, CFG)
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
        cfg = RefineConfig(cauchy_scale=2.25, top_k=10)
        new_models, new_s, _ = local_optimize_topk_arrays(models, s, *hpoints(data), 2.25, cfg)
        for j, new in enumerate(new_models):
            if (s[:, j] > 0).sum() >= 7:
                assert new.provenance == "refined"

    def test_all_zero_scores_unchanged(self, rng):
        scene = make_scene(rng, n_inliers=20)
        models = [ModelHypothesis.zero(FUNDAMENTAL) for _ in range(3)]
        s = np.zeros((20, 3))
        new_models, new_s, _ = local_optimize_topk_arrays(
            models, s, *hpoints(scene["data"]), 2.25, CFG
        )
        assert np.array_equal(new_s, s)
        assert all(m.is_zero for m in new_models)

    def test_only_topk_columns_change(self, rng):
        pair, data, models = self._scene_models(rng, n_models=6)
        s = score_columns(models, data.p1, data.p2, 2.25)
        cfg = RefineConfig(cauchy_scale=2.25, top_k=2)
        new_models, new_s, _ = local_optimize_topk_arrays(models, s, *hpoints(data), 2.25, cfg)
        totals = s.sum(axis=0)
        order = np.lexsort((np.arange(len(models)), -totals))
        touched = set(order[:2].tolist())
        for j in range(len(models)):
            if j not in touched:
                assert np.array_equal(new_s[:, j], s[:, j])
                assert new_models[j] is models[j]

    def test_refined_columns_not_worse(self, rng):
        pair, data, models = self._scene_models(rng, n_models=5)
        s = score_columns(models, data.p1, data.p2, 2.25)
        new_models, new_s, _ = local_optimize_topk_arrays(models, s, *hpoints(data), 2.25, CFG)
        # local optimization cannot reduce a model's truncated consensus
        # on its own inlier set arbitrarily; totals should not collapse
        assert new_s.sum() >= 0.5 * s.sum()
