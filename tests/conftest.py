"""Shared fixtures: an independent synthetic-scene oracle for geometry tests.

This generator is deliberately separate from the library's dataset
generator: points live in a world-space box (not an image-driven frustum),
cameras are built directly, and no relabeling happens. Tests that verify
library behavior against "known geometry" use this oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_eight_point
from caransac.geometry import (
    MIN_SAMPLE_SIZE,
    CameraIntrinsics,
    Matches,
    ModelHypothesis,
    RelativePose,
    ESSENTIAL,
    eight_point_batch,
    fundamental_from_pose,
    rodrigues,
    skew,
    unit_norm,
)
from caransac.scoring import score_matrix_arrays


def make_pose(rng: np.random.Generator, max_angle_deg: float = 40.0) -> RelativePose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(5.0, max_angle_deg))
    t = rng.normal(size=3)
    return RelativePose(rodrigues(axis * angle), t / np.linalg.norm(t))


def essential_from_pose(pose: RelativePose) -> ModelHypothesis:
    """The unit-norm essential matrix of a relative pose (X2 = R X1 + t)."""
    return ModelHypothesis(unit_norm(skew(pose.translation) @ pose.rotation), ESSENTIAL)


def make_scene(
    rng: np.random.Generator,
    n_inliers: int = 60,
    n_outliers: int = 0,
    noise_px: float = 0.0,
    focal: float = 700.0,
):
    """Random rigid scene viewed by two cameras; returns points + ground truth.

    3D points sit in a box in front of camera 1; camera 2 is displaced by a
    scaled unit translation. Outlier correspondences are uniform in a
    nominal image rectangle. No point is filtered by image bounds, so the
    construction is exact and independent of any frustum logic.
    """
    k1 = CameraIntrinsics(focal, focal, 320.0, 240.0)
    k2 = CameraIntrinsics(focal * 1.05, focal * 0.95, 310.0, 250.0)
    pose = make_pose(rng)
    t_scale = rng.uniform(0.5, 1.5)

    pts = np.column_stack(
        [
            rng.uniform(-1.5, 1.5, n_inliers),
            rng.uniform(-1.0, 1.0, n_inliers),
            rng.uniform(5.0, 9.0, n_inliers),
        ]
    )
    in_cam2 = pts @ pose.rotation.T + t_scale * pose.translation
    # the box and pose ranges keep the scene in front of both cameras
    assert (in_cam2[:, 2] > 0).all() or n_inliers == 0

    def project(p3, k):
        return np.column_stack(
            [p3[:, 0] / p3[:, 2] * k.fx + k.cx, p3[:, 1] / p3[:, 2] * k.fy + k.cy]
        )

    p1 = project(pts, k1)
    p2 = project(in_cam2, k2)
    if noise_px > 0:
        p1 = p1 + rng.normal(scale=noise_px, size=p1.shape)
        p2 = p2 + rng.normal(scale=noise_px, size=p2.shape)
    labels = [True] * n_inliers
    if n_outliers:
        o1 = np.column_stack(
            [rng.uniform(0, 640, n_outliers), rng.uniform(0, 480, n_outliers)]
        )
        o2 = np.column_stack(
            [rng.uniform(0, 640, n_outliers), rng.uniform(0, 480, n_outliers)]
        )
        p1 = np.vstack([p1, o1])
        p2 = np.vstack([p2, o2])
        labels += [False] * n_outliers
    side = rng.uniform(0.0, 1.0, len(labels))
    data = Matches(p1, p2, side, np.array(labels, dtype=bool))
    return {
        "data": data,
        "pose": pose,
        "k1": k1,
        "k2": k2,
        "f_gt": fundamental_from_pose(pose, k1, k2),
        "e_gt": essential_from_pose(pose),
    }


def take(matches: Matches, rows) -> Matches:
    """The matches at ``rows`` (an index array, mask or slice), labels kept."""
    labels = None if matches.labels is None else matches.labels[rows]
    return Matches(matches.p1[rows], matches.p2[rows], matches.side[rows], labels)


def fit(p1: np.ndarray, p2: np.ndarray, kind: str) -> ModelHypothesis | None:
    """One 8-point solve over all given (n >= 8, 2) points; None if degenerate.

    Exactly 8 points take the library's minimal solver. More points take the
    least-squares solution of ``reference_eight_point``, the SVD solver the
    library had before it kept minimal samples only.
    """
    solve = eight_point_batch if len(p1) == MIN_SAMPLE_SIZE else reference_eight_point.eight_point_batch
    models, valid = solve(p1[None], p2[None], kind)
    return ModelHypothesis(models[0], kind) if valid[0] else None


def point_matches(p1, p2) -> Matches:
    """Unlabeled matches of (n, 2) points with zero side information, for the
    kernels that read a ``Matches``' residual form."""
    return Matches(p1, p2, np.zeros(len(p1)))


def score_columns(models, p1: np.ndarray, p2: np.ndarray, t: float) -> np.ndarray:
    """(n, m) MSAC score matrix of ModelHypothesis objects over (n, 2) points."""
    stacked = np.stack([m.m for m in models])
    return score_matrix_arrays(stacked, point_matches(p1, p2), t)


def dense_attention(s: np.ndarray) -> np.ndarray:
    """The explicit (n, n) consensus attention S S^T / total of a score
    matrix; zeros in ``s``'s dtype when the total is not positive."""
    total = float(s.sum())
    if total <= 0.0:
        return np.zeros((s.shape[0], s.shape[0]), dtype=s.dtype)
    return s @ s.T / total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
