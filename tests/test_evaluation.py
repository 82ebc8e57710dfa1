"""Evaluation: metric arithmetic and the paired benchmark harness."""

import numpy as np
import pytest

from caransac.engine import (
    EstimationResult,
    ca_ransac,
    engine_inputs,
    lm_lo_baseline,
    msac_ransac_baseline,
)
from caransac.evaluation import (
    MetricReport,
    auc_at,
    benchmark,
    learned_runtime_share,
    make_ca_method,
    make_lmlo_method,
    make_msac_method,
    map_at,
    pair_seed,
)
from caransac.geometry import fundamental_from_pose
from caransac.neural import INFERENCE_DTYPE, MlpBundle
from caransac.training import PairSpec, generate_synthetic


class TestAucAt:
    def test_all_zero_errors(self):
        assert auc_at([0.0, 0.0, 0.0], 5.0) == 100.0

    def test_all_beyond_threshold(self):
        assert auc_at([5.0, 20.0, 180.0], 5.0) == 0.0

    def test_two_pair_arithmetic(self):
        assert auc_at([0.0, 2.5], 5.0) == pytest.approx(75.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            auc_at([], 5.0)

    def test_monotone_in_threshold(self, rng):
        for _ in range(30):
            errors = rng.uniform(0, 30, 25)
            assert auc_at(errors, 1.0) <= auc_at(errors, 5.0)

    def test_adding_extreme_pairs(self, rng):
        errors = rng.uniform(0, 30, 20).tolist()
        for thr in (1.0, 5.0):
            assert auc_at(errors + [0.0], thr) >= auc_at(errors, thr)
            assert auc_at(errors + [180.0], thr) <= auc_at(errors, thr)
        assert map_at(errors + [0.0], 20.0) >= map_at(errors, 20.0)
        assert map_at(errors + [180.0], 20.0) <= map_at(errors, 20.0)


class TestMapAt:
    def test_all_below(self):
        assert map_at([1.0, 5.0, 19.9], 20.0) == 100.0

    def test_half_below(self):
        assert map_at([1.0, 30.0], 20.0) == 50.0

    def test_empty(self):
        with pytest.raises(ValueError):
            map_at([], 20.0)


@pytest.fixture(scope="module")
def dataset():
    return [
        generate_synthetic(PairSpec(n=100, inlier_rate=0.7, noise_sigma_px=0.5, seed=600 + i))
        for i in range(4)
    ]


class TestBenchmark:

    def test_oracle_method_scores_perfectly(self, dataset):
        def oracle(pair, budget, seed):
            model = fundamental_from_pose(pair.pose, pair.k1, pair.k2)
            return EstimationResult(model, np.full(1, 0.5), [], {"total": 0.0})

        reports = benchmark({"oracle": oracle}, dataset, (1, 8), [0])
        assert reports["oracle"].auc5 == pytest.approx(100.0, abs=1e-3)
        assert reports["oracle"].map20 == 100.0

    def test_failing_method_clamps(self, dataset):
        def broken(pair, budget, seed):
            raise np.linalg.LinAlgError("boom")

        reports = benchmark({"broken": broken}, dataset, (1, 8), [0])
        assert reports["broken"].per_pair_errors == [180.0] * len(dataset)
        assert reports["broken"].map20 == 0.0

    def test_repeated_run_identical(self, dataset):
        method = make_msac_method("fundamental")
        a = benchmark({"msac": method}, dataset, (2, 64), [3])["msac"]
        b = benchmark({"msac": method}, dataset, (2, 64), [3])["msac"]
        assert a.per_pair_errors == b.per_pair_errors

    def test_seeds_shared_across_methods(self, dataset):
        seen = {}

        def spy_factory(name):
            def spy(pair, budget, seed):
                seen.setdefault(name, []).append(seed)
                model = fundamental_from_pose(pair.pose, pair.k1, pair.k2)
                return EstimationResult(model, np.full(1, 0.5), [], {})

            return spy

        benchmark({"a": spy_factory("a"), "b": spy_factory("b")}, dataset, (1, 8), [1, 2])
        assert seen["a"] == seen["b"]

    def test_timing_aggregated(self, dataset):
        method = make_msac_method("fundamental")
        report = benchmark({"msac": method}, dataset, (1, 64), [0])["msac"]
        assert report.timing["total"] > 0
        assert learned_runtime_share(report.timing) == 0.0  # no learned parts

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            benchmark({}, [], (1, 8), [0])

    def test_pair_seed_deterministic(self):
        assert pair_seed(3, 7) == pair_seed(3, 7)
        assert pair_seed(3, 7) != pair_seed(4, 7)


def test_ca_method_runs_a_float32_copy():
    bundle = MlpBundle.initialize(0)
    pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.6, noise_sigma_px=0.5, seed=4))
    res = make_ca_method(bundle, "essential")(pair, (2, 64), 9)
    assert bundle.dtype == np.float64  # the caller's bundle is untouched
    data, cfg = engine_inputs(pair.matches, "essential", 1.5, (pair.k1, pair.k2), (2, 64), 9)
    direct = ca_ransac(data, bundle.astype(INFERENCE_DTYPE), cfg)
    assert INFERENCE_DTYPE == np.float32
    assert np.array_equal(res.model.m, direct.model.m)
    assert np.array_equal(res.inlier_probs, direct.inlier_probs)
    assert res.inlier_probs.dtype == np.float64


@pytest.mark.parametrize(
    "make_method, engine",
    [(make_msac_method, msac_ransac_baseline), (make_lmlo_method, lm_lo_baseline)],
    ids=["msac", "lmlo"],
)
def test_baseline_methods_match_a_direct_run(make_method, engine):
    pair = generate_synthetic(PairSpec(n=100, inlier_rate=0.6, noise_sigma_px=0.5, seed=4))
    res = make_method("essential")(pair, (2, 64), 9)
    direct = engine(*engine_inputs(pair.matches, "essential", 1.5, (pair.k1, pair.k2), (2, 64), 9))
    assert np.array_equal(res.model.m, direct.model.m)
    assert np.array_equal(res.inlier_probs, direct.inlier_probs)
    assert [b.best_score for b in res.batches] == [b.best_score for b in direct.batches]
