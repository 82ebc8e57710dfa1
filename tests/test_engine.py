"""Engines: the consensus-adaptive loop and the classical baselines."""

import numpy as np
import pytest

import caransac.engine as engine_mod
import caransac.refinement as refinement_mod
from caransac.engine import (
    EngineConfig,
    ForwardRecord,
    ca_ransac,
    essential_threshold,
    lm_lo_baseline,
    msac_ransac_baseline,
    pixel_threshold,
)
from caransac.geometry import (
    ESSENTIAL,
    FUNDAMENTAL,
    MIN_SAMPLE_SIZE,
    ModelHypothesis,
    eight_point_batch,
    homogenize,
    sampson_sq_arrays,
)
from caransac.neural import MlpBundle
from caransac.refinement import REFINE_ERRORS, RefineUnderdetermined, _lm_refine_arrays
from caransac.sampling import InsufficientData, SamplerConfig, prosac_schedule
from caransac.scoring import msac_score
from caransac.training import (
    PairSpec,
    engine_inputs,
    generate_synthetic,
    model_pose_error,
)

from conftest import make_scene, take


def fundamental_config(seed=0, **kw) -> EngineConfig:
    return EngineConfig(
        model_kind=FUNDAMENTAL,
        msac_threshold=pixel_threshold(1.5),
        sampler=SamplerConfig(rng_seed=seed),
        **kw,
    )


@pytest.fixture(scope="module")
def bundle():
    return MlpBundle.initialize(0)


class TestCaRansac:
    def test_eight_noise_free_points_exact(self, rng, bundle):
        scene = make_scene(rng, n_inliers=8)
        res = ca_ransac(scene["data"], bundle, fundamental_config())
        p1, p2 = scene["data"].p1, scene["data"].p2
        residuals = sampson_sq_arrays(res.model.m, homogenize(p1), homogenize(p2))
        assert residuals.max() < 1e-8

    def test_insufficient_data(self, rng, bundle):
        scene = make_scene(rng, n_inliers=7)
        with pytest.raises(InsufficientData):
            ca_ransac(scene["data"], bundle, fundamental_config())

    def test_deterministic_given_seed(self, bundle):
        pair = generate_synthetic(PairSpec(n=120, inlier_rate=0.6, noise_sigma_px=0.5, seed=2))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            model_kind=ESSENTIAL, msac_threshold=thr, sampler=SamplerConfig(rng_seed=9)
        )
        a = ca_ransac(data, bundle, cfg)
        b = ca_ransac(data, bundle, cfg)
        assert np.array_equal(a.model.m, b.model.m)
        assert np.array_equal(a.inlier_probs, b.inlier_probs)
        assert a.per_batch_best_score == b.per_batch_best_score

    def test_budget_exactness(self, bundle, monkeypatch):
        counted = {"calls": 0, "samples": 0}
        original = engine_mod.eight_point_batch

        def counting(p1, p2, kind):
            counted["calls"] += 1
            counted["samples"] += p1.shape[0]
            return original(p1, p2, kind)

        monkeypatch.setattr(engine_mod, "eight_point_batch", counting)
        pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.7, noise_sigma_px=0.5, seed=5))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            batches=3,
            batch_size=64,
            model_kind=ESSENTIAL,
            msac_threshold=thr,
            sampler=SamplerConfig(rng_seed=1),
        )
        ca_ransac(data, bundle, cfg)
        assert counted == {"calls": 3, "samples": 3 * 64}

        # the PROSAC+LM baseline solves one batch per call as well
        counted.update(calls=0, samples=0)
        lm_lo_baseline(data, 1.0 - data.side, cfg)
        assert counted == {"calls": 3, "samples": 3 * 64}

    def test_high_inlier_sanity_untrained(self, bundle):
        # untrained probabilities are near-uniform, so the final weighted
        # refinement runs over everything; the loop must still land close.
        # The tight accuracy claim (>= 95% under 1 degree) is asserted with
        # trained weights in the acceptance suite.
        errors = []
        for seed in range(60):
            pair = generate_synthetic(
                PairSpec(n=200, inlier_rate=0.8, noise_sigma_px=0.5, seed=1000 + seed)
            )
            data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
            cfg = EngineConfig(
                model_kind=ESSENTIAL,
                msac_threshold=thr,
                sampler=SamplerConfig(rng_seed=seed),
            )
            res = ca_ransac(data, bundle, cfg)
            try:
                errors.append(model_pose_error(res.model, pair))
            except Exception:
                errors.append(180.0)
        errors = np.asarray(errors)
        assert np.median(errors) < 1.0
        assert (errors < 5.0).mean() >= 0.9

    def test_record_captures_per_batch_outputs(self, bundle):
        pair = generate_synthetic(PairSpec(n=80, inlier_rate=0.7, noise_sigma_px=0.5, seed=3))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            model_kind=ESSENTIAL, msac_threshold=thr, sampler=SamplerConfig(rng_seed=4)
        )
        record = ForwardRecord()
        res = ca_ransac(data, bundle, cfg, record=record)
        assert len(record.probs_per_batch) == cfg.batches
        assert len(record.model_per_batch) == cfg.batches
        assert len(record.tape.steps) == cfg.batches
        for probs in record.probs_per_batch:
            assert (probs > 0).all() and (probs < 1).all()
        assert np.array_equal(record.probs_per_batch[-1], res.inlier_probs)
        assert record.last_prerefine_model is not None

    def test_consensus_update_disabled_keeps_initial_probs(self, bundle):
        pair = generate_synthetic(PairSpec(n=80, inlier_rate=0.7, noise_sigma_px=0.5, seed=3))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            model_kind=ESSENTIAL,
            msac_threshold=thr,
            sampler=SamplerConfig(rng_seed=4),
            consensus_update=False,
        )
        record = ForwardRecord()
        from caransac.neural import decode_inliers, init_state

        res = ca_ransac(data, bundle, cfg, record=record)
        initial = decode_inliers(bundle, init_state(bundle, data.side))
        assert np.array_equal(res.inlier_probs, initial)
        assert all(step.attention is None for step in record.tape.steps)

    def test_side_column_seeds_the_state(self, bundle, rng):
        # the side column alone seeds the state: replacing it changes the
        # initial probabilities exactly as decoding the new column does
        from dataclasses import replace

        from caransac.neural import decode_inliers, init_state

        scene = make_scene(rng, n_inliers=30, noise_px=0.5)
        override = rng.uniform(0.1, 0.9, 30)
        replaced = replace(scene["data"], side=override)
        cfg = fundamental_config(seed=2, consensus_update=False)
        a = ca_ransac(replaced, bundle, cfg)
        b = ca_ransac(scene["data"], bundle, cfg)
        assert np.array_equal(a.inlier_probs, decode_inliers(bundle, init_state(bundle, override)))
        assert not np.array_equal(a.inlier_probs, b.inlier_probs)

    def test_timing_sums_to_total(self, bundle):
        pair = generate_synthetic(PairSpec(n=150, inlier_rate=0.6, noise_sigma_px=0.5, seed=6))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            model_kind=ESSENTIAL, msac_threshold=thr, sampler=SamplerConfig(rng_seed=2)
        )
        res = ca_ransac(data, bundle, cfg)
        total = res.timing_breakdown["total"]
        parts = sum(v for k, v in res.timing_breakdown.items() if k != "total")
        assert abs(parts - total) / total < 0.01


class TestThresholds:
    def test_essential_threshold_scales_by_focal(self):
        from caransac.geometry import CameraIntrinsics

        k = CameraIntrinsics(600.0, 600.0, 0.0, 0.0)
        assert essential_threshold(1.5, k, k) == pytest.approx((1.5 / 600.0) ** 2)

    def test_pixel_threshold_squares(self):
        assert pixel_threshold(1.5) == 2.25


class TestMsacBaseline:
    def test_noise_free_exact(self, rng):
        scene = make_scene(rng, n_inliers=60)
        res = msac_ransac_baseline(scene["data"], fundamental_config(seed=3))
        p1, p2 = scene["data"].p1, scene["data"].p2
        residuals = sampson_sq_arrays(res.model.m, homogenize(p1), homogenize(p2))
        assert residuals.max() < 1e-8

    def test_deterministic(self, rng):
        pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.5, noise_sigma_px=0.5, seed=8))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            model_kind=ESSENTIAL, msac_threshold=thr, sampler=SamplerConfig(rng_seed=5)
        )
        a = msac_ransac_baseline(data, cfg)
        b = msac_ransac_baseline(data, cfg)
        assert np.array_equal(a.model.m, b.model.m)

    def test_probs_in_open_interval(self, rng):
        scene = make_scene(rng, n_inliers=40, n_outliers=20, noise_px=0.5)
        res = msac_ransac_baseline(scene["data"], fundamental_config(seed=1))
        assert (res.inlier_probs > 0).all() and (res.inlier_probs < 1).all()


class TestLmLoBaseline:
    def test_noise_free_exact(self, rng):
        scene = make_scene(rng, n_inliers=60)
        quality = 1.0 - scene["data"].side
        res = lm_lo_baseline(scene["data"], quality, fundamental_config(seed=3))
        p1, p2 = scene["data"].p1, scene["data"].p2
        residuals = sampson_sq_arrays(res.model.m, homogenize(p1), homogenize(p2))
        assert residuals.max() < 1e-8

    def test_equal_quality_runs(self, rng):
        pair = generate_synthetic(PairSpec(n=90, inlier_rate=0.6, noise_sigma_px=0.5, seed=12))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            batches=2,
            batch_size=128,
            model_kind=ESSENTIAL,
            msac_threshold=thr,
            sampler=SamplerConfig(rng_seed=7),
        )
        res = lm_lo_baseline(data, np.full(90, 0.5), cfg)
        assert model_pose_error(res.model, pair) < 5.0

    def test_deterministic(self, rng):
        pair = generate_synthetic(PairSpec(n=90, inlier_rate=0.6, noise_sigma_px=0.5, seed=12))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            model_kind=ESSENTIAL, msac_threshold=thr, sampler=SamplerConfig(rng_seed=7)
        )
        quality = 1.0 - data.side
        a = lm_lo_baseline(data, quality, cfg)
        b = lm_lo_baseline(data, quality, cfg)
        assert np.array_equal(a.model.m, b.model.m)


def reference_lm_lo(data, quality, cfg):
    """One sample at a time: draw, solve, score, and LO on every new best.

    Returns (model, probs, per_batch_best_score, number of invalid samples).
    """
    n = len(data)
    p1, p2 = data.p1, data.p2
    p1h, p2h = homogenize(p1), homogenize(p2)
    thr = cfg.msac_threshold
    refine_cfg = cfg.resolved_refine()
    rng = np.random.default_rng(cfg.resolved_sampler().rng_seed)

    def total_score(m):
        return float(msac_score(sampson_sq_arrays(m, p1h, p2h), thr).sum())

    best = ModelHypothesis.zero(cfg.model_kind)
    best_score = -1.0
    invalid = 0
    for sample in prosac_schedule(quality, cfg.total_iterations, MIN_SAMPLE_SIZE, rng):
        models, valid = eight_point_batch(p1[sample][None], p2[sample][None], cfg.model_kind)
        if not valid[0]:
            invalid += 1
            continue
        score = total_score(models[0])
        if score <= best_score:
            continue
        best = ModelHypothesis(models[0], cfg.model_kind, "minimal")
        best_score = score
        weights = (sampson_sq_arrays(best.m, p1h, p2h) < thr).astype(np.float64)
        try:
            refined = _lm_refine_arrays(
                best, p1h, p2h, weights, refine_cfg, "truncated", thr,
                refine_cfg.intermediate_iterations,
            )
        except REFINE_ERRORS:
            continue
        refined_score = total_score(refined.m)
        if refined_score > best_score:
            best, best_score = refined, refined_score
    best = engine_mod._final_inlier_refine(best, p1h, p2h, thr, refine_cfg)
    probs = engine_mod._result_probs(best, p1h, p2h, thr, n)
    return best, probs, [best_score], invalid


def _lmlo_case(name):
    rng = np.random.default_rng(31)
    if name == "essential":
        pair = generate_synthetic(PairSpec(n=150, inlier_rate=0.4, noise_sigma_px=0.5, seed=21))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(model_kind=ESSENTIAL, msac_threshold=thr, sampler=SamplerConfig(rng_seed=6))
    elif name == "fundamental":
        data = make_scene(rng, n_inliers=70, n_outliers=50, noise_px=0.8)["data"]
        cfg = fundamental_config(seed=4)
    elif name == "small_batches":
        # few inliers and many batch boundaries: new best models keep arriving
        data = make_scene(rng, n_inliers=25, n_outliers=75, noise_px=1.0)["data"]
        cfg = fundamental_config(seed=8, batches=100, batch_size=3)
    else:
        # every point appears three times, so many minimal samples repeat a
        # point and are rank-deficient
        data = make_scene(rng, n_inliers=14, n_outliers=6, noise_px=0.5)["data"]
        data = take(data, np.tile(np.arange(len(data)), 3))
        cfg = fundamental_config(seed=2)
    return data, 1.0 - data.side, cfg


class TestLmLoBatchedEquivalence:
    @pytest.mark.parametrize("case", ["essential", "fundamental", "small_batches", "duplicated_points"])
    def test_matches_per_sample_loop(self, case):
        data, quality, cfg = _lmlo_case(case)
        model, probs, best_scores, invalid = reference_lm_lo(data, quality, cfg)
        if case == "duplicated_points":
            assert 0 < invalid < cfg.total_iterations
        res = lm_lo_baseline(data, quality, cfg)
        assert res.model.provenance == model.provenance
        assert np.array_equal(res.model.m, model.m)
        assert np.array_equal(res.inlier_probs, probs)
        assert res.per_batch_best_score == best_scores


def _raise_in_lm(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("refinement failed")

    # the engines reach LM directly and through refine_alpha_arrays and
    # local_optimize_topk_arrays
    monkeypatch.setattr(refinement_mod, "_lm_refine_arrays", failing)
    monkeypatch.setattr(engine_mod, "_lm_refine_arrays", failing)


class TestRefinementFailures:
    @pytest.mark.parametrize("method", ["ca", "msac", "lmlo"])
    def test_either_refinement_error_keeps_unrefined_model(self, bundle, monkeypatch, method):
        pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.6, noise_sigma_px=0.5, seed=4))
        data, thr = engine_inputs(pair, ESSENTIAL, 1.5)
        cfg = EngineConfig(
            batches=2,
            batch_size=64,
            model_kind=ESSENTIAL,
            msac_threshold=thr,
            sampler=SamplerConfig(rng_seed=3),
        )
        run = {
            "ca": lambda: ca_ransac(data, bundle, cfg),
            "msac": lambda: msac_ransac_baseline(data, cfg),
            "lmlo": lambda: lm_lo_baseline(data, 1.0 - data.side, cfg),
        }[method]
        results = []
        for error in (RefineUnderdetermined, np.linalg.LinAlgError):
            with monkeypatch.context() as patch:
                _raise_in_lm(patch, error)
                results.append(run())
        underdetermined, linalg = results
        for res in results:
            assert res.model.provenance == "minimal"
        assert np.array_equal(linalg.model.m, underdetermined.model.m)
        assert np.array_equal(linalg.inlier_probs, underdetermined.inlier_probs)
        assert linalg.per_batch_best_score == underdetermined.per_batch_best_score
