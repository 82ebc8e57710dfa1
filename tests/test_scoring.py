"""Scoring: MSAC mapping, score matrices, and consensus-attention properties."""

import numpy as np
import pytest

from caransac.geometry import FUNDAMENTAL, ModelHypothesis, sampson_sq_arrays
from caransac.scoring import ConsensusProduct, score_matrix_arrays

from conftest import dense_attention, fit, make_scene, point_matches, score_columns


def attention_brute_force(s: np.ndarray) -> np.ndarray:
    """Double-loop transcription of the consensus attention definition."""
    n, m = s.shape
    total = sum(s[i, j] for i in range(n) for j in range(m))
    a = np.zeros((n, n))
    if total == 0:
        return a
    for i in range(n):
        for k in range(n):
            a[i, k] = sum(s[i, j] * s[k, j] for j in range(m)) / total
    return a


class TestMsacScore:
    """The truncated-linear score 1 - min(r, t)/t on one-model score matrices
    with exact residuals: the model y1 = y2 has r = (y1 - y2)^2 / 2."""

    MODEL = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]])

    def score(self, p1, p2, t, model=MODEL):
        return score_matrix_arrays(model, point_matches(np.array([p1]), np.array([p2])), t)[0, 0]

    def test_zero_residual(self):
        assert self.score([3.0, 1.0], [-2.0, 1.0], 2.0) == 1.0

    def test_residual_at_threshold(self):
        assert self.score([0.0, 0.0], [0.0, 2.0], 2.0) == 0.0

    def test_half_threshold(self):
        assert self.score([0.0, 0.0], [0.0, 2.0], 4.0) == 0.5

    def test_infinite_residual(self):
        # every line gradient of diag(1, 1, 0) vanishes at the origin, so the
        # denominator is zero there: the residual is +inf
        assert self.score([0.0, 0.0], [0.0, 0.0], 2.0, np.diag([1.0, 1.0, 0.0])[None]) == 0.0


class TestScoreModels:
    def test_zero_model_column_is_zero(self, rng):
        scene = make_scene(rng, n_inliers=10)
        p1, p2 = scene["data"].p1, scene["data"].p2
        model = fit(p1[:8], p2[:8], FUNDAMENTAL)
        zero = ModelHypothesis.zero(FUNDAMENTAL)
        s = score_columns([model, zero], p1, p2, t=2.25)
        assert np.all(s[:, 1] == 0.0)
        assert s[:, 0].max() > 0.0

    def test_noise_free_inliers_column_of_ones(self, rng):
        scene = make_scene(rng, n_inliers=30)
        s = score_columns([scene["f_gt"]], scene["data"].p1, scene["data"].p2, t=2.25)
        assert np.allclose(s, 1.0)

    def test_single_point_double_threshold(self, rng):
        scene = make_scene(rng, n_inliers=9)
        model = scene["f_gt"]
        p1, p2 = scene["data"].p1[:1], scene["data"].p2[:1]
        # displace the point orthogonally until its squared residual is 2t

        def residual(shifted_p1):
            return sampson_sq_arrays(model.m, point_matches(shifted_p1, p2))[0]

        t = 2.0
        lo, hi = 0.0, 50.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if residual(p1 + np.array([0.0, mid])) < 2 * t:
                lo = mid
            else:
                hi = mid
        s = score_columns([model], p1 + np.array([0.0, hi]), p2, t=t)
        assert s[0, 0] == 0.0

    def test_matrix_shape_and_threshold(self, rng):
        scene = make_scene(rng, n_inliers=12, n_outliers=5)
        p1, p2 = scene["data"].p1, scene["data"].p2
        model = fit(p1[:8], p2[:8], FUNDAMENTAL)
        s = score_columns([model], p1, p2, t=2.25)
        assert s.shape == (17, 1)
        # the column is the MSAC score at exactly this threshold
        direct = 1.0 - np.minimum(sampson_sq_arrays(model.m, scene["data"]), 2.25) / 2.25
        assert np.array_equal(s[:, 0], direct)
        assert (s >= 0).all() and (s <= 1).all()

    def test_stacked_degenerate_denominator_scores_zero(self, rng):
        # both line gradients of diag(1, 1, 0) vanish at the origin only, and
        # the zero matrix has no gradient anywhere; under a threshold far
        # above every finite distance only a +inf distance scores 0
        degenerate = np.diag([1.0, 1.0, 0.0])
        models = np.stack([rng.normal(size=(3, 3)), degenerate, np.zeros((3, 3))])
        pts = np.array([[0.0, 0.0], [3.0, -2.0]])
        s = score_matrix_arrays(models, point_matches(pts, pts), 1e300)
        assert s.shape == (2, 3)
        assert not np.isnan(s).any()
        assert (s[:, 0] > 0.0).all()
        assert s[0, 1] == 0.0 and s[1, 1] > 0.0
        assert (s[:, 2] == 0.0).all()


class TestScoresAgreeWithMasks:
    """A one-model score column and the Sampson inlier mask share their
    arithmetic, so a point scores above 0 exactly where its distance is
    below the threshold, even at a threshold equal to a point's own distance."""

    @pytest.mark.parametrize("n", [60, 2000, 65_536])
    def test_positive_score_iff_distance_below_threshold(self, rng, n):
        scene = make_scene(rng, n_inliers=n // 2, n_outliers=n - n // 2, noise_px=1.0)
        data = scene["data"]
        model = fit(data.p1[:8], data.p2[:8], FUNDAMENTAL).m
        d = sampson_sq_arrays(model, data)
        own = d[rng.choice(n, 40, replace=False)]
        for t in (2.25, *own[(own > 0.0) & np.isfinite(own)]):
            s = score_matrix_arrays(model[None], data, t)
            assert np.array_equal(s[:, 0] > 0.0, d < t)


class TestConsensusAttention:
    def test_two_points_one_model(self):
        a = dense_attention(np.array([[1.0], [0.0]]))
        assert np.allclose(a, [[1.0, 0.0], [0.0, 0.0]])

    def test_perfect_consensus_row_sums_to_one(self, rng):
        s_arr = rng.uniform(0, 1, size=(6, 4))
        s_arr[2, :] = 1.0
        a = dense_attention(s_arr)
        # a point agreeing with every model reaches the row-sum upper bound
        assert a[2].sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        s_arr = rng.uniform(0, 1, size=(4, 3))
        a = dense_attention(s_arr)
        assert np.abs(a - attention_brute_force(s_arr)).max() < 1e-12

    def test_zero_consensus_gives_zero_matrix(self):
        a = dense_attention(np.zeros((5, 3)))
        assert np.all(a == 0.0)

    def test_row_sum_identity(self, rng):
        # row sums equal the consensus-weighted per-point score totals
        for _ in range(50):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 20))
            s = rng.uniform(0, 1, size=(n, m))
            a = s @ s.T / s.sum()
            totals = s.sum(axis=0)
            expected = s @ (totals / totals.sum())
            assert np.abs(a.sum(axis=1) - expected).max() < 1e-12

    def test_row_sums_bounded(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 50))
            m = int(rng.integers(1, 25))
            s = rng.uniform(0, 1, size=(n, m))
            a = dense_attention(s)
            sums = a.sum(axis=1)
            assert sums.min() >= -1e-12 and sums.max() <= 1.0 + 1e-12

    def test_symmetry_and_psd(self, rng):
        for _ in range(20):
            s = rng.uniform(0, 1, size=(12, 6))
            a = dense_attention(s)
            assert np.abs(a - a.T).max() < 1e-12
            assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_zero_consensus_rows_exactly_zero(self, rng):
        # no hidden row normalization: zero-scoring points keep all-zero rows
        s = rng.uniform(0.2, 1.0, size=(6, 3))
        s[4, :] = 0.0
        a = dense_attention(s)
        assert np.all(a[4] == 0.0) and np.all(a[:, 4] == 0.0)


class TestConsensusProduct:
    def test_factored_apply_matches_dense(self, rng):
        s = rng.uniform(0, 1, size=(30, 9))
        y = rng.normal(size=(30, 5))
        op = ConsensusProduct(s, float(s.sum()))
        assert np.abs(op.dot(y) - dense_attention(s) @ y).max() < 1e-12

    def test_zero_total(self):
        op = ConsensusProduct(np.zeros((4, 2)), 0.0)
        assert np.all(op.dot(np.ones((4, 3))) == 0.0)
        assert np.all(dense_attention(op.s) == 0.0)

    def test_zero_total_keeps_the_dtype(self):
        # a batch with no valid model must not promote a float32 state
        op = ConsensusProduct(np.zeros((4, 2), dtype=np.float32), 0.0)
        out = op.dot(np.ones((4, 3), dtype=np.float32))
        assert out.dtype == np.float32 and np.all(out == 0.0)
        assert dense_attention(op.s).dtype == np.float32
        assert op.dot(np.ones((4, 3))).dtype == np.float64

    def test_float32_apply_stays_float32(self, rng):
        s = rng.uniform(0, 1, size=(30, 9))
        y = rng.normal(size=(30, 5))
        op = ConsensusProduct(s.astype(np.float32), float(s.sum()))
        out = op.dot(y.astype(np.float32))
        assert out.dtype == np.float32
        assert np.abs(out - ConsensusProduct(s, float(s.sum())).dot(y)).max() < 1e-5
