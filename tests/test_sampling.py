"""Sampling: pool construction, batched draws, and the progressive schedule."""

import numpy as np
import pytest

from caransac.sampling import (
    InsufficientData,
    SamplerConfig,
    build_pool,
    draw_minimal_batch,
    floyd_batch,
    prosac_schedule,
)


def assert_uniform_inclusion(counts, draws, p):
    """Every index's inclusion count within 3 sigma of its binomial
    expectation over ``draws`` draws with inclusion probability ``p``."""
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.abs(counts - draws * p).max() < 3 * sigma


class TestBuildPool:
    def test_direct_thresholding(self):
        # eight of ten clear the threshold, which meets the minimum pool
        cfg = SamplerConfig(pool_threshold=0.4, min_pool=8)
        pool = build_pool(np.array([0.9, 0.5, 0.3, 0.8, 0.7, 0.6, 0.95, 0.41, 0.55, 0.2]), cfg)
        assert pool.tolist() == [0, 1, 3, 4, 5, 6, 7, 8]

    def test_top_up_with_tie_rule(self):
        cfg = SamplerConfig(pool_threshold=0.4, min_pool=15)
        pool = build_pool(np.full(20, 0.1), cfg)
        assert pool.tolist() == list(range(15))

    def test_all_high_probabilities(self):
        cfg = SamplerConfig()
        pool = build_pool(np.full(30, 1.0 - 1e-9), cfg)
        assert pool.tolist() == list(range(30))

    def test_minimum_size_invariant(self, rng):
        cfg = SamplerConfig()
        for _ in range(50):
            n = int(rng.integers(8, 60))
            probs = rng.uniform(0, 1, n)
            pool = build_pool(probs, cfg)
            assert pool.size >= min(cfg.min_pool, n)

    def test_insufficient_data(self):
        cfg = SamplerConfig()
        with pytest.raises(InsufficientData):
            build_pool(np.array([0.5] * 7), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(pool_threshold=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(min_pool=4)


class TestFloydBatch:
    def test_rows_are_distinct_and_in_range(self, rng):
        high = rng.integers(8, 40, 2000)
        rows = floyd_batch(high, 8, np.random.default_rng(1))
        assert rows.shape == (2000, 8)
        assert (rows >= 0).all() and (rows < high[:, None]).all()
        assert all(len(set(row.tolist())) == 8 for row in rows)

    def test_k_of_k_rows_are_permutations(self):
        rows = floyd_batch(np.full(50, 8), 8, np.random.default_rng(2))
        for row in rows:
            assert sorted(row.tolist()) == list(range(8))

    def test_uniform_inclusion_per_bound(self):
        # rows with different bounds share each step's one draw; every
        # bound still gives each of its indices probability k / bound
        bounds = (8, 9, 13, 20, 57)
        per_bound = 20_000
        high = np.repeat(bounds, per_bound)
        rows = floyd_batch(high, 7, np.random.default_rng(4))
        for bound in bounds:
            picked = rows[high == bound]
            counts = np.bincount(picked.ravel(), minlength=bound)
            assert counts.size == bound
            assert_uniform_inclusion(counts, per_bound, 7 / bound)

    def test_consumes_one_draw_per_step(self):
        rng = np.random.default_rng(9)
        floyd_batch(np.full(100, 30), 8, rng)
        expected = np.random.default_rng(9)
        for s in range(8):
            expected.integers(0, np.full(100, 30 - 8 + s + 1))
        assert rng.integers(1 << 30) == expected.integers(1 << 30)


class TestDrawMinimalBatch:
    def test_exact_pool_rows_are_permutations(self):
        pool = np.arange(10, 18)
        rows = draw_minimal_batch(pool, 32, np.random.default_rng(0))
        assert rows.shape == (32, 8)
        for row in rows:
            assert sorted(row.tolist()) == pool.tolist()

    def test_deterministic_given_seed(self):
        pool = np.arange(40)
        a = draw_minimal_batch(pool, 16, np.random.default_rng(7))
        b = draw_minimal_batch(pool, 16, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_no_replacement_within_rows(self, rng):
        pool = np.arange(20)
        rows = draw_minimal_batch(pool, 64, rng)
        for row in rows:
            assert len(set(row.tolist())) == 8

    def test_uniform_inclusion_frequencies(self):
        # chi-square-style bound: every point's inclusion frequency within
        # 3 sigma of its binomial expectation over many draws
        batch_size = 100_000
        pool = np.arange(20)
        rows = draw_minimal_batch(pool, batch_size, np.random.default_rng(5))
        counts = np.bincount(rows.ravel(), minlength=20)
        assert_uniform_inclusion(counts, batch_size, 8 / 20)

    def test_small_pool_raises(self):
        with pytest.raises(InsufficientData):
            draw_minimal_batch(np.arange(5), 256, np.random.default_rng(0))


def prosac_samples(quality, total, batch_size, seed):
    """Every sample of a PROSAC budget, the yielded batches concatenated."""
    return np.concatenate(list(prosac_schedule(quality, total, batch_size, np.random.default_rng(seed))))


class TestProsacSchedule:
    def test_first_iteration_top_points(self, rng):
        quality = rng.uniform(0, 1, 30)
        top = set(np.argsort(-quality, kind="stable")[:8].tolist())
        first = next(prosac_schedule(quality, 1000, 64, np.random.default_rng(0)))[0]
        assert set(first.tolist()) == top

    def test_yields_exactly_budget(self, rng):
        quality = rng.uniform(0, 1, 25)
        samples = prosac_samples(quality, 500, 64, 0)
        assert samples.shape == (500, 8)
        for s in samples:
            assert len(set(s.tolist())) == 8

    def test_every_batch_has_the_batch_shape(self, rng):
        quality = rng.uniform(0, 1, 40)
        batches = list(prosac_schedule(quality, 12 * 32, 32, np.random.default_rng(1)))
        assert len(batches) == 12
        assert all(batch.shape == (32, 8) for batch in batches)

    def test_exhausted_schedule_uniform_tail(self, rng):
        # with a budget far beyond the growth schedule, late samples span all points
        quality = rng.uniform(0, 1, 12)
        samples = prosac_samples(quality, 4000, 256, 0)
        tail = samples[-200:]
        assert set(tail.ravel().tolist()) == set(range(12))

    def test_equal_quality_matches_uniform_in_distribution(self):
        # aggregate inclusion frequencies over a full budget match uniform
        # sampling: the growth function spends on each subset size exactly
        # what uniform sampling would have
        n, m, total = 20, 8, 100_000
        quality = np.full(n, 0.5)
        counts = np.bincount(prosac_samples(quality, total, 256, 3).ravel(), minlength=n)
        assert_uniform_inclusion(counts, total, m / n)

    def test_sampler_success_probability_note(self):
        # the documented pool threshold (0.4) gives ~15.5% odds of one
        # all-inlier 8-point sample in 256 draws at that inlier ratio; the
        # 90% target would need a ratio near 0.56
        p_hit = 1.0 - (1.0 - 0.4**8) ** 256
        assert p_hit == pytest.approx(0.1546, abs=2e-3)
        p56 = 1.0 - (1.0 - 0.5546**8) ** 256
        assert p56 == pytest.approx(0.9, abs=5e-3)
