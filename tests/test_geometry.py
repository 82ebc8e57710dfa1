"""Geometry: residuals, the 8-point solver, pose extraction, and error measures."""

import dataclasses
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
    f_to_e_upgrade,
    fundamental_from_pose,
    homogenize,
    normalize_matches,
    normalize_points_by_intrinsics,
    pose_error,
    project_to_essential,
    proper_svd,
    rodrigues,
    sampson_sq_arrays,
    unit_norm,
)
from caransac.refinement import RefineConfig, _lm_refine_arrays
from conftest import essential_from_pose, fit, make_pose, make_scene, point_matches, score_columns


def pixels_from_normalized(p: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """The inverse of ``normalize_points_by_intrinsics``."""
    return np.stack([p[..., 0] * k.fx + k.cx, p[..., 1] * k.fy + k.cy], axis=-1)


def sampson_one(m, p1, p2):
    """Squared Sampson distance of a single (2,) point pair via the array API."""
    return float(sampson_sq_arrays(m, point_matches(p1[None], p2[None]))[0])


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
            model = ModelHypothesis(m / np.linalg.norm(m), FUNDAMENTAL)
            ref = sampson_sq_reference(model.m, p1, p2)
            assert sampson_one(model.m, p1, p2) == pytest.approx(ref, abs=1e-12, rel=1e-12)

    def test_sign_and_scale_invariance(self, rng):
        scene = make_scene(rng, n_inliers=5, noise_px=1.0)
        m = scene["f_gt"].m
        a = sampson_sq_arrays(m, scene["data"])
        b = sampson_sq_arrays(-2.0 * m, scene["data"])
        assert np.abs(a - b).max() < 1e-10 * max(a.max(), 1.0)

    def test_degenerate_denominator_gives_inf(self):
        m = np.zeros((3, 3))
        m[2, 2] = 1.0  # all four line gradients vanish for any finite point
        out = sampson_sq_arrays(m, point_matches(np.zeros((1, 2)), np.zeros((1, 2))))
        assert np.isinf(out[0]) and not np.isnan(out[0])


class TestEightPoint:
    def test_noise_free_recovers_model(self, rng):
        for trial in range(5):
            scene = make_scene(rng, n_inliers=30)
            p1, p2 = scene["data"].p1, scene["data"].p2
            model = fit(p1[:8], p2[:8], FUNDAMENTAL)
            assert model is not None
            res = sampson_sq_arrays(model.m, scene["data"])
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

    @pytest.mark.parametrize("n_points", [7, 9])
    def test_non_minimal_sample_raises(self, rng, n_points):
        scene = make_scene(rng, n_inliers=n_points)
        with pytest.raises(ValueError):
            eight_point_batch(scene["data"].p1[None], scene["data"].p2[None], FUNDAMENTAL)


class TestProperSvd:
    @staticmethod
    def _check_rotations(u, vt):
        for factor in (u, vt):
            assert np.abs(factor @ factor.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(factor) == pytest.approx(1.0, abs=1e-12)

    def test_rank_two_models_reproduced_with_rotation_factors(self, rng):
        flips = set()
        for _ in range(20):
            scene = make_scene(rng, n_inliers=8)
            for m in (scene["e_gt"].m, scene["f_gt"].m, -scene["f_gt"].m):
                u_raw, _, vt_raw = np.linalg.svd(m)
                flips.add((np.linalg.det(u_raw) < 0, np.linalg.det(vt_raw) < 0))
                u, s, vt = proper_svd(m)
                self._check_rotations(u, vt)
                assert np.array_equal(s, np.linalg.svd(m)[1])
                assert np.abs((u * s) @ vt - m).max() < 1e-15
        # both factors were reflections, and neither, for some input
        assert {(False, False), (True, True)} <= flips

    def test_reflection_input(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = q if np.linalg.det(q) < 0 else -q
        u, s, vt = proper_svd(m @ np.diag([3.0, 2.0, 1.0]))
        self._check_rotations(u, vt)
        assert np.allclose(s, [3.0, 2.0, 1.0])


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


class TestProjectToEssential:
    def test_stack_rows_have_equal_singular_values_and_a_null_one(self, rng):
        stack = rng.normal(size=(200, 3, 3))
        sv = np.linalg.svd(project_to_essential(stack), compute_uv=False)
        scale = sv[:, 0]
        assert np.all(np.abs(sv[:, 0] - sv[:, 1]) <= 1e-12 * scale)
        assert np.all(sv[:, 2] <= 1e-12 * scale)

    def test_single_matrix_equals_its_stack_row(self, rng):
        m = rng.normal(size=(3, 3))
        single = project_to_essential(m)
        assert single.shape == (3, 3)
        assert np.allclose(single, project_to_essential(m[None])[0], rtol=0.0, atol=1e-13)


class TestUnitNorm:
    def test_single_matrices_equal_their_stack_rows(self, rng):
        # one reduction over the last two axes normalizes a matrix alone
        # (f_to_e_upgrade, fundamental_from_pose) and the solver's stack
        stack = rng.normal(size=(2000, 3, 3))
        normalized = unit_norm(stack)
        for j in range(len(stack)):
            assert np.array_equal(unit_norm(stack[j]), normalized[j])
        assert np.allclose(np.linalg.norm(normalized, axis=(1, 2)), 1.0, rtol=0.0, atol=1e-15)

    def test_zero_matrix_raises(self, rng):
        with pytest.raises(ValueError, match="zero matrix"):
            unit_norm(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="zero matrix"):
            unit_norm(np.stack([rng.normal(size=(3, 3)), np.zeros((3, 3))]))


class TestUpgrade:
    def test_identity_intrinsics_is_projection(self, rng):
        scene = make_scene(rng, n_inliers=15, noise_px=1.0)
        f = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        e = f_to_e_upgrade(f, k, k)
        assert np.allclose(e.m, unit_norm(project_to_essential(f.m)), atol=1e-12)

    def test_upgrade_is_the_normalized_projection(self, rng):
        scene = make_scene(rng, n_inliers=15, noise_px=1.0)
        f = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        k1, k2 = scene["k1"], scene["k2"]
        expected = unit_norm(project_to_essential(k2.matrix().T @ f.m @ k1.matrix()))
        assert np.array_equal(f_to_e_upgrade(f, k1, k2).m, expected)

    def test_round_trip_from_known_pose(self, rng):
        scene = make_scene(rng, n_inliers=10)
        f = scene["f_gt"]
        e = f_to_e_upgrade(f, scene["k1"], scene["k2"])
        e_gt = scene["e_gt"].m
        m = e.m if np.sum(e.m * e_gt) > 0 else -e.m
        assert np.linalg.norm(m - e_gt) < 1e-8

    def test_zero_model_rejected(self):
        k = CameraIntrinsics(500.0, 500.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="zero model"):
            f_to_e_upgrade(ModelHypothesis.zero(FUNDAMENTAL), k, k)

    def test_unequal_focals_still_on_manifold(self, rng):
        scene = make_scene(rng, n_inliers=15, noise_px=2.0)
        f = fit(scene["data"].p1, scene["data"].p2, FUNDAMENTAL)
        k1 = CameraIntrinsics(800.0, 650.0, 320.0, 240.0)
        k2 = CameraIntrinsics(500.0, 710.0, 300.0, 260.0)
        e = f_to_e_upgrade(f, k1, k2)
        sv = np.linalg.svd(e.m, compute_uv=False)
        assert abs(sv[0] - sv[1]) < 1e-8 and sv[2] < 1e-8


class TestTypes:
    def test_residual_form_built_once_and_not_copied(self, rng):
        data = make_scene(rng, n_inliers=9)["data"]
        assert data.design is data.design and data.p1h is data.p1h and data.p2h is data.p2h
        assert np.array_equal(data.p1h, np.column_stack([data.p1, np.ones(9)]))
        for i in range(9):
            assert np.array_equal(data.design[i], np.outer(data.p2h[i], data.p1h[i]).ravel())
        assert not {"p1h", "p2h", "design"} & set(vars(dataclasses.replace(data, side=data.side)))

    def test_only_the_all_zero_matrix_is_the_zero_model(self, rng):
        for kind in (ESSENTIAL, FUNDAMENTAL):
            assert ModelHypothesis.zero(kind).is_zero
            assert ModelHypothesis(np.zeros((3, 3)), kind).is_zero
        data = make_scene(rng, n_inliers=30, noise_px=0.5)["data"]
        solved = fit(data.p1, data.p2, FUNDAMENTAL)
        assert not solved.is_zero
        cfg = RefineConfig()
        refined = _lm_refine_arrays(solved, data, "cauchy", np.ones(len(data)), cfg, 2.25, cfg.max_iterations)
        assert not refined.is_zero

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

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_intrinsics_require_finite_values(self, field, bad):
        values = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**values)
