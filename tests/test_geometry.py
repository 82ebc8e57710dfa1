"""Geometry: residuals, the 8-point solver, pose extraction, and error measures."""

import math

import numpy as np
import pytest

from caransac.geometry import (
    ESSENTIAL,
    FUNDAMENTAL,
    CameraIntrinsics,
    Matches,
    ModelHypothesis,
    PoseUndecidable,
    RelativePose,
    decompose_essential_arrays,
    eight_point_batch,
    essential_from_pose,
    f_to_e_upgrade,
    fundamental_from_pose,
    homogenize,
    normalize_matches,
    pixels_from_normalized,
    normalize_points_by_intrinsics,
    pose_error,
    rodrigues,
    sampson_sq_arrays,
)
from conftest import fit, make_pose, make_scene, score_columns


def sampson_one(m, p1, p2):
    """Squared Sampson distance of a single (2,) point pair via the array API."""
    return float(sampson_sq_arrays(m, homogenize(p1[None]), homogenize(p2[None]))[0])


def sampson_sq_reference(m, p1, p2):
    """Straight-line transcription of the first-order epipolar error formula.

    Kept deliberately independent of the library implementation: explicit
    homogeneous vectors, explicit line coefficients, scalar arithmetic.
    """
    x1 = np.array([p1[0], p1[1], 1.0])
    x2 = np.array([p2[0], p2[1], 1.0])
    line2 = m @ x1
    line1 = m.T @ x2
    algebraic = float(x2 @ line2)
    denom = line2[0] ** 2 + line2[1] ** 2 + line1[0] ** 2 + line1[1] ** 2
    return algebraic**2 / denom


class TestSampson:
    def test_point_on_epipolar_constraint_is_zero(self, rng):
        scene = make_scene(rng, n_inliers=10)
        f = scene["f_gt"]
        data = scene["data"]
        assert sampson_one(f.m, data.p1[0], data.p2[0]) < 1e-18

    def test_noise_free_synthetic_pairs(self, rng):
        scene = make_scene(rng, n_inliers=40)
        f = scene["f_gt"]
        data = scene["data"]
        for i in range(len(data)):
            assert sampson_one(f.m, data.p1[i], data.p2[i]) < 1e-10

    def test_matches_independent_formula(self, rng):
        for _ in range(30):
            m = rng.normal(size=(3, 3))
            p1 = rng.uniform(-100, 100, 2)
            p2 = rng.uniform(-100, 100, 2)
            model = ModelHypothesis(m / np.linalg.norm(m), FUNDAMENTAL, "refined")
            ref = sampson_sq_reference(model.m, p1, p2)
            assert sampson_one(model.m, p1, p2) == pytest.approx(ref, abs=1e-12, rel=1e-12)

    def test_sign_and_scale_invariance(self, rng):
        scene = make_scene(rng, n_inliers=5, noise_px=1.0)
        p1, p2 = scene["data"].p1, scene["data"].p2
        p1h, p2h = homogenize(p1), homogenize(p2)
        m = scene["f_gt"].m
        a = sampson_sq_arrays(m, p1h, p2h)
        b = sampson_sq_arrays(-2.0 * m, p1h, p2h)
        assert np.abs(a - b).max() < 1e-10 * max(a.max(), 1.0)

    def test_degenerate_denominator_gives_inf(self):
        m = np.zeros((3, 3))
        m[2, 2] = 1.0  # all four line gradients vanish for any finite point
        out = sampson_sq_arrays(m, homogenize(np.zeros((1, 2))), homogenize(np.zeros((1, 2))))
        assert np.isinf(out[0]) and not np.isnan(out[0])

    def test_stacked_rows_equal_single_calls(self, rng):
        scene = make_scene(rng, n_inliers=40, n_outliers=25, noise_px=1.0)
        p1, p2 = scene["data"].p1, scene["data"].p2
        p1h, p2h = homogenize(p1), homogenize(p2)
        models = rng.normal(size=(9, 3, 3))
        models[0] = scene["f_gt"].m
        stacked = sampson_sq_arrays(models, p1h, p2h)
        assert stacked.shape == (9, 65)
        for j in range(9):
            single = sampson_sq_arrays(models[j], p1h, p2h)
            assert single.shape == (65,)
            assert np.array_equal(stacked[j], single)

    def test_stacked_degenerate_denominator_gives_inf(self, rng):
        # both line gradients vanish at the origin only
        degenerate = np.diag([1.0, 1.0, 0.0])
        models = np.stack([rng.normal(size=(3, 3)), degenerate, np.zeros((3, 3))])
        pts = homogenize(np.array([[0.0, 0.0], [3.0, -2.0]]))
        out = sampson_sq_arrays(models, pts, pts)
        assert out.shape == (3, 2)
        assert not np.isnan(out).any()
        assert np.isfinite(out[0]).all()
        assert np.isinf(out[1, 0]) and np.isfinite(out[1, 1])
        assert np.isposinf(out[2]).all()  # the zero matrix has no gradient anywhere


class TestEightPoint:
    def test_noise_free_recovers_model(self, rng):
        for trial in range(5):
            scene = make_scene(rng, n_inliers=30)
            p1, p2 = scene["data"].p1, scene["data"].p2
            model = fit(p1[:8], p2[:8], FUNDAMENTAL)
            assert model is not None
            res = sampson_sq_arrays(model.m, homogenize(p1), homogenize(p2))
            assert res.max() < 1e-8

    def test_reproduces_generator_up_to_sign(self, rng):
        scene = make_scene(rng, n_inliers=12)
        model = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        f_gt = scene["f_gt"].m
        m = model.m
        if np.sum(m * f_gt) < 0:
            m = -m
        assert np.linalg.norm(m - f_gt) < 1e-6

    def test_collinear_points_degenerate(self, rng):
        # all image-1 points on one line
        ts = np.linspace(0.0, 1.0, 8)
        p1 = np.column_stack([100 + 50 * ts, 200 + 30 * ts])
        p2 = rng.uniform(0, 400, size=(8, 2))
        assert fit(p1, p2, FUNDAMENTAL) is None

    def test_scoring_own_sample_perfect(self, rng):
        scene = make_scene(rng, n_inliers=8)
        p1, p2 = scene["data"].p1, scene["data"].p2
        model = fit(p1, p2, FUNDAMENTAL)
        s = score_columns([model], p1, p2, t=1e-6)
        assert np.allclose(s, 1.0)

    def test_fundamental_rank_two(self, rng):
        scene = make_scene(rng, n_inliers=20, noise_px=1.0)
        model = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        sv = np.linalg.svd(model.m, compute_uv=False)
        assert abs(np.linalg.det(model.m)) < 1e-8
        assert sv[2] < 1e-8
        assert np.linalg.norm(model.m) == pytest.approx(1.0, abs=1e-12)

    def test_essential_singular_values(self, rng):
        scene = make_scene(rng, n_inliers=20, noise_px=0.5)
        data = normalize_matches(scene["data"], scene["k1"], scene["k2"])
        model = fit(data.p1, data.p2, ESSENTIAL)
        sv = np.linalg.svd(model.m, compute_uv=False)
        assert abs(sv[0] - sv[1]) < 1e-8
        assert sv[2] < 1e-8

    def test_too_few_points_raises(self, rng):
        scene = make_scene(rng, n_inliers=7)
        with pytest.raises(ValueError):
            eight_point_batch(scene["data"].p1[None], scene["data"].p2[None], FUNDAMENTAL)


class TestIntrinsics:
    def test_principal_point_maps_to_origin(self):
        k = CameraIntrinsics(600.0, 620.0, 320.0, 240.0)
        c = Matches(np.array([[320.0, 240.0]]), np.array([[320.0, 240.0]]), np.array([0.3]))
        n = normalize_matches(c, k, k)
        assert np.allclose(n.p1, 0.0) and np.allclose(n.p2, 0.0)
        assert np.array_equal(n.side, c.side)

    def test_identity_intrinsics(self):
        k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        c = Matches(np.array([[3.0, -2.0]]), np.array([[1.0, 5.0]]), np.array([0.3]))
        n = normalize_matches(c, k, k)
        assert np.allclose(n.p1, c.p1) and np.allclose(n.p2, c.p2)

    def test_round_trip(self, rng):
        k = CameraIntrinsics(512.5, 498.0, 333.0, 201.0)
        p = rng.uniform(0, 640, size=(20, 2))
        back = pixels_from_normalized(normalize_points_by_intrinsics(p, k), k)
        assert np.abs(back - p).max() < 1e-12


class TestDecomposeEssential:
    def test_round_trip_pose(self, rng):
        for _ in range(5):
            scene = make_scene(rng, n_inliers=50)
            data = normalize_matches(scene["data"], scene["k1"], scene["k2"])
            pose = decompose_essential_arrays(scene["e_gt"].m, data.p1, data.p2)
            assert pose_error(pose, scene["pose"]) < math.degrees(1e-6)

    def test_single_inlier_resolves_sign(self, rng):
        scene = make_scene(rng, n_inliers=1)
        data = normalize_matches(scene["data"], scene["k1"], scene["k2"])
        pose = decompose_essential_arrays(scene["e_gt"].m, data.p1[:1], data.p2[:1])
        # translation sign must match the ground truth, not just its axis
        assert float(pose.translation @ scene["pose"].translation) > 0.99

    def test_unanimous_cheirality_vote(self, rng):
        scene = make_scene(rng, n_inliers=50)
        p1, p2 = scene["data"].p1, scene["data"].p2
        p1n = normalize_points_by_intrinsics(p1, scene["k1"])
        p2n = normalize_points_by_intrinsics(p2, scene["k2"])
        from caransac.geometry import _triangulate_midpoint

        pose = scene["pose"]
        # the true candidate gets every vote
        _, d1, d2 = _triangulate_midpoint(
            pose.rotation,
            pose.translation,
            homogenize(p1n),
            homogenize(p2n),
        )
        assert ((d1 > 0) & (d2 > 0)).all()

    def test_undecidable_raises(self):
        e = essential_from_pose(
            RelativePose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        )
        # a point that cannot triangulate in front of both cameras for any candidate
        with pytest.raises(PoseUndecidable):
            decompose_essential_arrays(e.m, np.zeros((1, 2)), np.zeros((1, 2)))


class TestPoseError:
    def test_identical_poses(self, rng):
        pose = make_pose(rng)
        assert pose_error(pose, pose) == pytest.approx(0.0, abs=1e-9)

    def test_rotation_about_z(self, rng):
        gt = make_pose(rng)
        rz = rodrigues(np.array([0.0, 0.0, math.radians(5.0)]))
        est = RelativePose(rz @ gt.rotation, gt.translation)
        assert pose_error(est, gt) == pytest.approx(5.0, abs=1e-9)

    def test_translation_only(self, rng):
        gt = RelativePose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        angle = math.radians(12.0)
        est = RelativePose(np.eye(3), np.array([math.cos(angle), math.sin(angle), 0.0]))
        assert pose_error(est, gt) == pytest.approx(12.0, abs=1e-9)


class TestUpgrade:
    def test_identity_intrinsics_is_projection(self, rng):
        scene = make_scene(rng, n_inliers=15, noise_px=1.0)
        f = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        e = f_to_e_upgrade(f, k, k)
        from caransac.geometry import project_to_essential

        assert np.allclose(e.m, project_to_essential(f.m), atol=1e-12)

    def test_round_trip_from_known_pose(self, rng):
        scene = make_scene(rng, n_inliers=10)
        f = scene["f_gt"]
        e = f_to_e_upgrade(f, scene["k1"], scene["k2"])
        e_gt = scene["e_gt"].m
        m = e.m if np.sum(e.m * e_gt) > 0 else -e.m
        assert np.linalg.norm(m - e_gt) < 1e-8

    def test_unequal_focals_still_on_manifold(self, rng):
        scene = make_scene(rng, n_inliers=15, noise_px=2.0)
        f = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        k1 = CameraIntrinsics(800.0, 650.0, 320.0, 240.0)
        k2 = CameraIntrinsics(500.0, 710.0, 300.0, 260.0)
        e = f_to_e_upgrade(f, k1, k2)
        sv = np.linalg.svd(e.m, compute_uv=False)
        assert abs(sv[0] - sv[1]) < 1e-8 and sv[2] < 1e-8


class TestTypes:
    def test_side_info_range_enforced(self):
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError, match="correspondence 1"):
                Matches(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0.5, bad]))

    def test_non_finite_rejected(self):
        p1 = np.zeros((3, 2))
        p1[2, 0] = np.nan
        with pytest.raises(ValueError, match="correspondence 2"):
            Matches(p1, np.zeros((3, 2)), np.full(3, 0.5))
        with pytest.raises(ValueError, match="finite"):
            Matches(np.zeros((3, 2)), np.full((3, 2), np.inf), np.full(3, 0.5))

    def test_matches_shapes_must_agree(self):
        with pytest.raises(ValueError, match="shapes"):
            Matches(np.zeros((3, 2)), np.zeros((4, 2)), np.full(3, 0.5))
        with pytest.raises(ValueError, match="shapes"):
            Matches(np.zeros((3, 3)), np.zeros((3, 3)), np.full(3, 0.5))
        with pytest.raises(ValueError, match="shapes"):
            Matches(np.zeros((3, 2)), np.zeros((3, 2)), np.full((3, 1), 0.5))
        with pytest.raises(ValueError, match="labels"):
            Matches(np.zeros((3, 2)), np.zeros((3, 2)), np.full(3, 0.5), np.ones(2, bool))
        with pytest.raises(ValueError, match="labels"):
            Matches(np.zeros((3, 2)), np.zeros((3, 2)), np.full(3, 0.5), np.ones(3))

    def test_matches_columns_are_float64(self):
        m = Matches([[1, 2]], [[3, 4]], [1], np.array([True]))
        assert m.p1.dtype == m.p2.dtype == m.side.dtype == np.float64
        assert len(m) == 1 and m.labels.tolist() == [True]

    def test_pose_requires_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            RelativePose(np.ones((3, 3)), np.array([0.0, 0.0, 1.0]))

    def test_pose_normalizes_translation(self):
        pose = RelativePose(np.eye(3), np.array([0.0, 0.0, 5.0]))
        assert np.linalg.norm(pose.translation) == pytest.approx(1.0)

    def test_intrinsics_require_positive_focals(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 1.0, 0.0, 0.0)
