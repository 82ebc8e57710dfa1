"""Engines: the consensus-adaptive loop and the classical baselines."""

import dataclasses
import inspect

import numpy as np
import pytest

import caransac.engine as engine_mod
import caransac.refinement as refinement_mod
from caransac.engine import (
    EngineConfig,
    ca_ransac,
    engine_inputs,
    essential_threshold,
    lm_lo_baseline,
    msac_ransac_baseline,
)
from caransac.geometry import (
    ESSENTIAL,
    FUNDAMENTAL,
    Matches,
    ModelHypothesis,
    eight_point_batch,
    homogenize,
    normalize_matches,
    sampson_sq_arrays,
)
from caransac.neural import ForwardTape, MlpBundle
from caransac.refinement import (
    REFINE_ERRORS,
    RefineConfig,
    RefineUnderdetermined,
    _lm_refine_arrays,
    refine_alpha_arrays,
)
from caransac.sampling import InsufficientData, draw_minimal_batch, prosac_schedule
from caransac.scoring import score_matrix_arrays
from caransac.training import PairSpec, generate_synthetic, model_pose_error

from conftest import make_scene, take


def fundamental_config(seed=0, **kw) -> EngineConfig:
    return EngineConfig(model_kind=FUNDAMENTAL, msac_threshold=1.5**2, seed=seed, **kw)


def essential_inputs(pair, seed, budget=(4, 256), consensus_update=True):
    """The normalized matches and the essential config of a synthetic pair
    at a 1.5 px threshold."""
    return engine_inputs(
        pair.matches, ESSENTIAL, 1.5, (pair.k1, pair.k2), budget, seed, consensus_update
    )


def best_scores(res) -> list[float]:
    return [b.best_score for b in res.batches]


def assert_same_records(a, b):
    """Two runs' batch records are equal field for field."""
    assert len(a.batches) == len(b.batches)
    for x, y in zip(a.batches, b.batches):
        assert x.best_score == y.best_score
        for u, v in zip(x[1:], y[1:]):
            if u is None or v is None:
                assert u is v
            else:
                u, v = (u.m, v.m) if isinstance(u, ModelHypothesis) else (u, v)
                assert np.array_equal(u, v)


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
        data, cfg = essential_inputs(pair, 9)
        for run in (
            lambda: ca_ransac(data, bundle, cfg),
            lambda: msac_ransac_baseline(data, cfg),
            lambda: lm_lo_baseline(data, cfg),
        ):
            a, b = run(), run()
            assert np.array_equal(a.model.m, b.model.m)
            assert np.array_equal(a.inlier_probs, b.inlier_probs)
            assert_same_records(a, b)

    def test_budget_exactness(self, bundle, monkeypatch):
        counted = {"calls": 0, "samples": 0}
        original = engine_mod.eight_point_batch

        def counting(p1, p2, kind):
            counted["calls"] += 1
            counted["samples"] += p1.shape[0]
            return original(p1, p2, kind)

        monkeypatch.setattr(engine_mod, "eight_point_batch", counting)
        pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.7, noise_sigma_px=0.5, seed=5))
        data, cfg = essential_inputs(pair, 1, (3, 64))
        ca_ransac(data, bundle, cfg)
        assert counted == {"calls": 3, "samples": 3 * 64}

        # both baselines solve one batch per call as well
        counted.update(calls=0, samples=0)
        lm_lo_baseline(data, cfg)
        assert counted == {"calls": 3, "samples": 3 * 64}
        counted.update(calls=0, samples=0)
        msac_ransac_baseline(data, cfg)
        assert counted == {"calls": 3, "samples": 3 * 64}

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)

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
            data, cfg = essential_inputs(pair, seed)
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
        data, cfg = essential_inputs(pair, 4)
        tape = ForwardTape()
        res = ca_ransac(data, bundle, cfg, tape)
        assert len(res.batches) == cfg.batches
        assert len(tape.steps) == cfg.batches
        for b in res.batches:
            assert (b.probs > 0).all() and (b.probs < 1).all()
            assert b.selected is not None
        # the last record is the result
        assert res.model is res.batches[-1].model
        assert res.inlier_probs is res.batches[-1].probs

    def test_alpha_lm_budget_per_batch(self, bundle, monkeypatch):
        # an earlier batch's alpha LM only seeds the next batch's best column
        # and stops at the local optimization's cap; the last one is the
        # estimate and gets the final cap
        pair = generate_synthetic(PairSpec(n=300, inlier_rate=0.5, noise_sigma_px=0.5, seed=5))
        data, cfg = essential_inputs(pair, 6)
        original = engine_mod.refine_alpha_arrays
        caps = []

        def spy(*args, **kwargs):
            caps.append(inspect.signature(original).bind(*args, **kwargs).arguments["max_iterations"])
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "refine_alpha_arrays", spy)
        res = ca_ransac(data, bundle, cfg)
        defaults = engine_mod.REFINE_DEFAULTS
        assert caps == [defaults.intermediate_iterations] * (cfg.batches - 1) + [defaults.max_iterations]
        # training re-runs the final refinement from the last record alone
        last = res.batches[-1]
        assert not np.array_equal(last.model.m, last.selected.m)
        again = refine_alpha_arrays(
            last.selected, homogenize(data.p1), homogenize(data.p2), last.probs,
            bundle.alpha, defaults, cfg.msac_threshold, defaults.max_iterations,
        )
        assert np.array_equal(again.m, last.model.m)

    def test_consensus_update_disabled_keeps_initial_probs(self, bundle):
        pair = generate_synthetic(PairSpec(n=80, inlier_rate=0.7, noise_sigma_px=0.5, seed=3))
        data, cfg = essential_inputs(pair, 4, consensus_update=False)
        tape = ForwardTape()
        from caransac.neural import decode_inliers, init_state

        res = ca_ransac(data, bundle, cfg, tape)
        initial = decode_inliers(bundle, init_state(bundle, data.side))
        assert np.array_equal(res.inlier_probs, initial)
        assert all(step.attention is None for step in tape.steps)

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

    @pytest.mark.parametrize("scene", ["pair", "identical"])
    def test_float32_bundle_runs_in_float32(self, bundle, scene):
        # "identical" gives no valid model, so every batch's consensus total
        # is zero and the attention returns zeros: they must not promote the
        # state to float64 either
        if scene == "pair":
            pair = generate_synthetic(PairSpec(n=120, inlier_rate=0.6, noise_sigma_px=0.5, seed=5))
            data, cfg = essential_inputs(pair, 4)
        else:
            n = 20
            data = Matches(np.tile([10.0, 20.0], (n, 1)), np.tile([30.0, 40.0], (n, 1)), np.full(n, 0.5))
            cfg = EngineConfig(model_kind=ESSENTIAL, msac_threshold=1.5**2, seed=4)
        tape = ForwardTape()
        res = ca_ransac(data, bundle.astype(np.float32), cfg, tape)
        assert res.model.is_zero == (scene == "identical")
        assert res.model.m.dtype == np.float64
        for b in res.batches:
            assert b.probs.dtype == np.float64 and ((b.probs > 0) & (b.probs < 1)).all()
        activations = list(tape.init)
        for step in tape.steps:
            assert step.attention.s.dtype == np.float32
            activations += step.mlp3 + step.mlp2 + step.mlp1 + step.decoder
        assert all(x.dtype == y.dtype == np.float32 for x, y in activations)

    def test_timing_sums_to_total(self, bundle):
        pair = generate_synthetic(PairSpec(n=150, inlier_rate=0.6, noise_sigma_px=0.5, seed=6))
        data, cfg = essential_inputs(pair, 2)
        res = ca_ransac(data, bundle, cfg)
        total = res.timing_breakdown["total"]
        parts = sum(v for k, v in res.timing_breakdown.items() if k != "total")
        assert abs(parts - total) / total < 0.01


class TestThresholds:
    def test_essential_threshold_scales_by_focal(self):
        from caransac.geometry import CameraIntrinsics

        k = CameraIntrinsics(600.0, 600.0, 0.0, 0.0)
        assert essential_threshold(1.5, k, k) == pytest.approx((1.5 / 600.0) ** 2)


class TestEngineInputs:
    def test_fundamental_config_field_for_field(self):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=0.5, noise_sigma_px=0.5, seed=3))
        data, cfg = engine_inputs(pair.matches, FUNDAMENTAL, 1.5, (pair.k1, pair.k2), (3, 64), 5, False)
        assert data is pair.matches
        assert dataclasses.asdict(cfg) == {
            "batches": 3, "batch_size": 64, "model_kind": FUNDAMENTAL, "msac_threshold": 2.25,
            "seed": 5, "consensus_update": False,
        }

    def test_essential_config_field_for_field(self):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=0.5, noise_sigma_px=0.5, seed=3))
        calib = (pair.k1, pair.k2)
        data, cfg = engine_inputs(pair.matches, ESSENTIAL, 1.5, calib, (2, 128), 11)
        assert np.array_equal(data.p1, normalize_matches(pair.matches, *calib).p1)
        assert np.array_equal(data.p2, normalize_matches(pair.matches, *calib).p2)
        assert dataclasses.asdict(cfg) == {
            "batches": 2, "batch_size": 128, "model_kind": ESSENTIAL,
            "msac_threshold": essential_threshold(1.5, *calib), "seed": 11, "consensus_update": True,
        }
        focal4 = pair.k1.fx * pair.k1.fy * pair.k2.fx * pair.k2.fy
        assert cfg.msac_threshold == pytest.approx(2.25 / focal4**0.5)

    def test_essential_needs_calibration(self):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=0.5, noise_sigma_px=0.5, seed=3))
        with pytest.raises(ValueError, match="calibration"):
            engine_inputs(pair.matches, ESSENTIAL, 1.5, None, (4, 256), 0)

    # a negative tolerance would square to a valid one, and an infinite one
    # makes the Cauchy loss of the final refinement NaN
    @pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
    @pytest.mark.parametrize("bad", [0.0, -1.5, float("inf"), float("nan")])
    def test_threshold_px_must_be_finite_and_positive(self, kind, bad):
        pair = generate_synthetic(PairSpec(n=40, inlier_rate=0.5, noise_sigma_px=0.5, seed=3))
        with pytest.raises(ValueError, match="threshold_px"):
            engine_inputs(pair.matches, kind, bad, (pair.k1, pair.k2), (4, 256), 0)


class TestEngineConfig:
    def test_six_settings(self):
        names = {f.name for f in dataclasses.fields(EngineConfig)}
        assert names == {
            "batches", "batch_size", "model_kind", "msac_threshold", "seed", "consensus_update"
        }

    @pytest.mark.parametrize("removed", ["refine", "sampler"])
    def test_removed_settings_rejected(self, removed):
        with pytest.raises(TypeError):
            EngineConfig(**{removed: None})

    # the threshold is also the Cauchy scale of the final refinement, whose
    # loss divides by it and takes log1p(s / scale)
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_threshold_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="msac_threshold"):
            EngineConfig(msac_threshold=bad)

    # range() and numpy would reject these later with an undocumented TypeError
    @pytest.mark.parametrize("name", ["batches", "batch_size"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "4", None])
    def test_budget_must_be_an_integer(self, name, bad):
        with pytest.raises(ValueError, match=name):
            EngineConfig(**{name: bad})

    def test_numpy_integer_budget_accepted(self):
        cfg = EngineConfig(batches=np.int64(2), batch_size=np.int32(16))
        assert cfg.total_iterations == 32


class TestPerBatchBestScore:
    # an all-degenerate scene gives [0.0] * 4 for every engine: see the
    # "identical" scene in test_robustness.py
    @pytest.mark.parametrize("method", ["ca", "msac", "lmlo"])
    def test_one_total_per_batch(self, rng, bundle, method):
        data = make_scene(rng, n_inliers=40, n_outliers=20, noise_px=0.5)["data"]
        cfg = fundamental_config(seed=3)
        assert (cfg.batches, cfg.batch_size) == (4, 256)
        res = {
            "ca": lambda: ca_ransac(data, bundle, cfg),
            "msac": lambda: msac_ransac_baseline(data, cfg),
            "lmlo": lambda: lm_lo_baseline(data, cfg),
        }[method]()
        scores = best_scores(res)
        assert len(scores) == 4
        assert scores[0] > 0.0
        if method != "ca":  # ca refines its best between batches, which can lower its total
            assert scores == sorted(scores)

    @pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
    @pytest.mark.parametrize("method", [msac_ransac_baseline, lm_lo_baseline])
    def test_baseline_best_score_never_falls(self, method, kind):
        # a baseline only replaces its best by a higher total, so the record
        # of every batch holds a total at least the last one's, and the model
        # it reports is non-zero once a total is
        for seed in range(4):
            pair = generate_synthetic(PairSpec(n=150, inlier_rate=0.3, noise_sigma_px=0.5, seed=40 + seed))
            data, cfg = engine_inputs(pair.matches, kind, 1.5, (pair.k1, pair.k2), (4, 32), seed)
            res = method(data, cfg)
            scores = best_scores(res)
            assert scores == sorted(scores)
            for b in res.batches:
                assert b.model.kind == kind and b.model.is_zero == (b.best_score == 0.0)
                assert b.selected is None and b.probs is None


class TestMsacBaseline:
    def test_noise_free_exact(self, rng):
        scene = make_scene(rng, n_inliers=60)
        res = msac_ransac_baseline(scene["data"], fundamental_config(seed=3))
        p1, p2 = scene["data"].p1, scene["data"].p2
        residuals = sampson_sq_arrays(res.model.m, homogenize(p1), homogenize(p2))
        assert residuals.max() < 1e-8

    def test_deterministic(self, rng):
        pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.5, noise_sigma_px=0.5, seed=8))
        data, cfg = essential_inputs(pair, 5)
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
        res = lm_lo_baseline(scene["data"], fundamental_config(seed=3))
        p1, p2 = scene["data"].p1, scene["data"].p2
        residuals = sampson_sq_arrays(res.model.m, homogenize(p1), homogenize(p2))
        assert residuals.max() < 1e-8

    def test_equal_quality_runs(self, rng):
        pair = generate_synthetic(PairSpec(n=90, inlier_rate=0.6, noise_sigma_px=0.5, seed=12))
        data, cfg = essential_inputs(pair, 7, (2, 128))
        res = lm_lo_baseline(dataclasses.replace(data, side=np.full(90, 0.5)), cfg)
        assert model_pose_error(res.model, pair) < 5.0

    def test_prosac_order_is_one_minus_side(self, monkeypatch):
        pair = generate_synthetic(PairSpec(n=90, inlier_rate=0.6, noise_sigma_px=0.5, seed=12))
        data, cfg = essential_inputs(pair, 7)
        seen = []

        def spy(quality, *args):
            seen.append(quality)
            return prosac_schedule(quality, *args)

        monkeypatch.setattr(engine_mod, "prosac_schedule", spy)
        lm_lo_baseline(data, cfg)
        assert len(seen) == 1
        assert np.array_equal(seen[0], 1.0 - data.side)

    def test_deterministic(self, rng):
        pair = generate_synthetic(PairSpec(n=90, inlier_rate=0.6, noise_sigma_px=0.5, seed=12))
        data, cfg = essential_inputs(pair, 7)
        a = lm_lo_baseline(data, cfg)
        b = lm_lo_baseline(data, cfg)
        assert np.array_equal(a.model.m, b.model.m)


def final_refine(best, p1h, p2h, thr):
    """The baselines' last step: Cauchy LM of a non-zero model on its inliers."""
    if best.is_zero:
        return best
    cfg = RefineConfig()
    return engine_mod._inlier_lm(best, p1h, p2h, thr, cfg, "cauchy", cfg.max_iterations)


def reference_lm_lo(data, cfg):
    """Solve one sample at a time in the PROSAC order of ``1 - data.side``;
    at each batch's end, score the batch's valid models in one kernel call,
    then walk them in sample order with LO on every new best.

    Returns (model, probs, per-batch best scores, number of invalid samples).
    """
    quality = 1.0 - data.side
    p1, p2 = data.p1, data.p2
    p1h, p2h = homogenize(p1), homogenize(p2)
    thr = cfg.msac_threshold
    refine_cfg = RefineConfig()
    rng = np.random.default_rng(cfg.seed)

    def total_score(m):
        return float(score_matrix_arrays(m[None], p1h, p2h, thr).sum())

    best = ModelHypothesis.zero(cfg.model_kind)
    best_score = -1.0
    per_batch = []
    invalid = 0
    for batch in prosac_schedule(quality, cfg.total_iterations, cfg.batch_size, rng):
        pending = []  # the valid models of the current batch, in sample order
        for sample in batch:
            models, valid = eight_point_batch(p1[sample][None], p2[sample][None], cfg.model_kind)
            if valid[0]:
                pending.append(models[0])
            else:
                invalid += 1
        totals = score_matrix_arrays(np.array(pending), p1h, p2h, thr).sum(axis=0) if pending else []
        for model, score in zip(pending, totals):
            if score <= best_score:
                continue
            best, best_score = ModelHypothesis(model, cfg.model_kind), float(score)
            weights = (sampson_sq_arrays(best.m, p1h, p2h) < thr).astype(np.float64)
            try:
                refined = _lm_refine_arrays(
                    best, p1h, p2h, weights, refine_cfg, "truncated", thr,
                    refine_cfg.intermediate_iterations,
                )
            except REFINE_ERRORS:
                refined = None
            if refined is not None and (refined_score := total_score(refined.m)) > best_score:
                best, best_score = refined, refined_score
        per_batch.append(max(best_score, 0.0))
    best = final_refine(best, p1h, p2h, thr)
    probs = engine_mod._result_probs(best, p1h, p2h, thr)
    return best, probs, per_batch, invalid


def reference_msac(data, cfg):
    """The MSAC baseline as its own loop: uniform samples from
    ``draw_minimal_batch``, batch argmax of the score-matrix totals, then the
    final inlier refinement.

    Returns (model, probs, per-batch best scores).
    """
    n = len(data)
    p1, p2 = data.p1, data.p2
    p1h, p2h = homogenize(p1), homogenize(p2)
    rng = np.random.default_rng(cfg.seed)

    best = ModelHypothesis.zero(cfg.model_kind)
    best_score = -1.0
    per_batch = []
    all_indices = np.arange(n)
    for _ in range(cfg.batches):
        rows = draw_minimal_batch(all_indices, cfg.batch_size, rng)
        models, valid = eight_point_batch(p1[rows], p2[rows], cfg.model_kind)
        models = models[valid]
        if len(models):
            totals = score_matrix_arrays(models, p1h, p2h, cfg.msac_threshold).sum(axis=0)
            j = int(np.argmax(totals))
            if totals[j] > best_score:
                best_score = float(totals[j])
                best = ModelHypothesis(models[j], cfg.model_kind)
        per_batch.append(max(best_score, 0.0))

    best = final_refine(best, p1h, p2h, cfg.msac_threshold)
    probs = engine_mod._result_probs(best, p1h, p2h, cfg.msac_threshold)
    return best, probs, per_batch


def _lmlo_case(name):
    rng = np.random.default_rng(31)
    if name == "essential":
        pair = generate_synthetic(PairSpec(n=150, inlier_rate=0.4, noise_sigma_px=0.5, seed=21))
        data, cfg = essential_inputs(pair, 6)
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
    return data, cfg


class TestLmLoBatchedEquivalence:
    @pytest.mark.parametrize("case", ["essential", "fundamental", "small_batches", "duplicated_points"])
    def test_matches_batch_scored_loop(self, case):
        data, cfg = _lmlo_case(case)
        model, probs, expected_scores, invalid = reference_lm_lo(data, cfg)
        if case == "duplicated_points":
            assert 0 < invalid < cfg.total_iterations
        res = lm_lo_baseline(data, cfg)
        assert np.array_equal(res.model.m, model.m)
        assert np.array_equal(res.inlier_probs, probs)
        assert best_scores(res) == expected_scores


class TestMsacEquivalence:
    @pytest.mark.parametrize("case", ["essential", "fundamental", "small_batches", "duplicated_points"])
    def test_matches_argmax_loop(self, case):
        data, cfg = _lmlo_case(case)
        model, probs, expected_scores = reference_msac(data, cfg)
        res = msac_ransac_baseline(data, cfg)
        assert np.array_equal(res.model.m, model.m)
        assert np.array_equal(res.inlier_probs, probs)
        assert best_scores(res) == expected_scores

    def test_ties_keep_the_first_model(self, monkeypatch):
        # every model scores the same, so only the tie rule picks the model
        def flat(models, p1h, p2h, threshold):
            return np.ones((p1h.shape[0], len(models)))

        monkeypatch.setattr(engine_mod, "score_matrix_arrays", flat)
        monkeypatch.setitem(globals(), "score_matrix_arrays", flat)
        data, cfg = _lmlo_case("fundamental")
        model, probs, expected_scores = reference_msac(data, cfg)
        res = msac_ransac_baseline(data, cfg)
        assert np.array_equal(res.model.m, model.m)
        assert np.array_equal(res.inlier_probs, probs)
        assert best_scores(res) == expected_scores == [float(len(data))] * cfg.batches


def _raise_in_lm(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("refinement failed")

    # the engines reach LM through _inlier_lm, which local_optimize_topk_arrays
    # also uses, and through refine_alpha_arrays
    monkeypatch.setattr(refinement_mod, "_lm_refine_arrays", failing)
    monkeypatch.setattr(engine_mod, "_lm_refine_arrays", failing)


def _skip_lm(monkeypatch):
    """Make every LM refinement return its input model unchanged, and ca's
    local optimization return its models and score columns as given: a failed
    refinement leaves a column unscored, where a no-op LM would rescore it
    alone and could move its last bits."""

    def unchanged(model, *args, **kwargs):
        # a new object, as LM returns: lmlo takes its input model itself
        # back as a failed refinement and skips the rescoring
        return ModelHypothesis(model.m.copy(), model.kind)

    def untouched(models, scores, *args):
        return models, scores, []

    monkeypatch.setattr(refinement_mod, "_lm_refine_arrays", unchanged)
    monkeypatch.setattr(engine_mod, "_lm_refine_arrays", unchanged)
    monkeypatch.setattr(engine_mod, "local_optimize_topk_arrays", untouched)


class TestRefinementFailures:
    @pytest.mark.parametrize("method", ["ca", "msac", "lmlo"])
    def test_either_refinement_error_keeps_unrefined_model(self, bundle, monkeypatch, method):
        pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.6, noise_sigma_px=0.5, seed=4))
        data, cfg = essential_inputs(pair, 3, (2, 64))
        run = {
            "ca": lambda: ca_ransac(data, bundle, cfg),
            "msac": lambda: msac_ransac_baseline(data, cfg),
            "lmlo": lambda: lm_lo_baseline(data, cfg),
        }[method]
        results = []
        for error in (RefineUnderdetermined, np.linalg.LinAlgError):
            with monkeypatch.context() as patch:
                _raise_in_lm(patch, error)
                results.append(run())
        underdetermined, linalg = results
        assert np.array_equal(linalg.model.m, underdetermined.model.m)
        assert np.array_equal(linalg.inlier_probs, underdetermined.inlier_probs)
        assert best_scores(linalg) == best_scores(underdetermined)
        # the same run with every refinement a no-op: what "unrefined" means
        with monkeypatch.context() as patch:
            _skip_lm(patch)
            unrefined = run()
        assert np.array_equal(linalg.model.m, unrefined.model.m)
        assert np.array_equal(linalg.inlier_probs, unrefined.inlier_probs)
        if method == "lmlo":
            # a no-op LO rescores the unchanged model alone, one GEMM row
            # instead of the batch's, so its total can gain a last bit and
            # be reported; the failed LO reports the batch total
            assert np.allclose(best_scores(linalg), best_scores(unrefined), rtol=1e-12, atol=0.0)
        else:
            assert best_scores(linalg) == best_scores(unrefined)
