"""Two-view epipolar geometry: matches, model types, minimal solver, residuals, pose errors.

All matrices are 64-bit floats. Correspondences travel as one ``Matches``
struct of per-correspondence columns; every operation below takes arrays.
Two model kinds are supported: fundamental matrices (pixel coordinates) and
essential matrices (intrinsics-normalized coordinates). Minimal samples have
8 points for both kinds; essential estimates are obtained by projecting the
8-point solution onto the equal-singular-value manifold. The squared Sampson
distance has one formula, ``sampson_parts``, which the score kernel, the
inlier masks and the LM residuals share, and one normalization,
``unit_norm``, serves single matrices and the solver's stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

FUNDAMENTAL = "fundamental"
ESSENTIAL = "essential"
MODEL_KINDS = (FUNDAMENTAL, ESSENTIAL)

#: Minimal sample size for the linear solver (both model kinds).
MIN_SAMPLE_SIZE = 8

# Relative cutoff below which a sample's design counts as rank-deficient:
# the ratio of the smallest to the largest |diagonal entry| of R in the QR
# factorization of its transpose.
_RANK_TOL = 1e-9


class PoseUndecidable(Exception):
    """No candidate pose places any point in front of both cameras."""


@dataclass(frozen=True)
class Matches:
    """n tentative correspondences between image 1 and image 2, as columns.

    ``p1`` and ``p2`` are (n, 2) finite points. ``side`` is an (n,)
    matcher-provided quality scalar in [0, 1] (e.g. an SNN ratio or a
    matching score). ``labels`` is an optional (n,) boolean ground-truth
    inlier flag used only by synthetic data and training. The arrays are
    treated as read-only.
    """

    p1: np.ndarray
    p2: np.ndarray
    side: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        p1 = np.ascontiguousarray(self.p1, dtype=np.float64)
        p2 = np.ascontiguousarray(self.p2, dtype=np.float64)
        side = np.ascontiguousarray(self.side, dtype=np.float64)
        n = side.shape[0] if side.ndim == 1 else -1
        if n < 0 or p1.shape != (n, 2) or p2.shape != (n, 2):
            raise ValueError(
                f"expected (n, 2) points and (n,) side information, got shapes "
                f"{p1.shape}, {p2.shape} and {side.shape}"
            )
        bad = ~(np.isfinite(p1).all(axis=1) & np.isfinite(p2).all(axis=1))
        if bad.any():
            raise ValueError(f"correspondence {int(np.argmax(bad))}: coordinates must be finite")
        bad = ~((side >= 0.0) & (side <= 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"correspondence {i}: side_info must be in [0, 1], got {side[i]}")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "side", side)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype != np.bool_ or labels.shape != (n,):
                raise ValueError(f"labels must be an ({n},) bool array")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.side.shape[0]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (zero skew)."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError("intrinsics must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class ModelHypothesis:
    """A 3x3 two-view model of one kind.

    Non-zero models carry unit Frobenius norm. Fundamental models are rank 2;
    essential models additionally have two equal singular values. The zero
    model, the null model a consensus loop starts from, is the all-zero matrix.
    """

    m: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64).reshape(3, 3)
        object.__setattr__(self, "m", m)
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return not self.m.any()

    @staticmethod
    def zero(kind: str) -> "ModelHypothesis":
        return ModelHypothesis(np.zeros((3, 3)), kind)


@dataclass(frozen=True)
class RelativePose:
    """Rotation plus unit translation direction (scale-free)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation must be orthonormal")
        if np.linalg.det(r) < 0:
            raise ValueError("rotation must be proper (det +1)")
        norm = np.linalg.norm(t)
        if norm == 0:
            raise ValueError("translation must be nonzero")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t / norm)


# ---------------------------------------------------------------------------
# array helpers


def homogenize(p: np.ndarray) -> np.ndarray:
    """(n,2) points -> (n,3) homogeneous points."""
    p = np.asarray(p, dtype=np.float64)
    return np.concatenate([p, np.ones((p.shape[0], 1))], axis=1)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rodrigues(axis_angle: np.ndarray) -> np.ndarray:
    """Rotation matrix from an axis-angle 3-vector."""
    w = np.asarray(axis_angle, dtype=np.float64).reshape(3)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        k = skew(w)
        return np.eye(3) + k + 0.5 * (k @ k)
    k = skew(w / theta)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def rotation_angle_deg(r: np.ndarray) -> float:
    """Rotation angle of an orthonormal matrix, in degrees."""
    c = (np.trace(r) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


# ---------------------------------------------------------------------------
# residuals


def epipolar_design(p1h: np.ndarray, p2h: np.ndarray) -> np.ndarray:
    """(n, 9) per-point Kronecker rows x2 (x) x1, so that x2^T M x1 = design @ vec(M)."""
    return np.einsum("ni,nj->nij", p2h, p1h).reshape(p1h.shape[0], 9)


def sampson_parts(models, design, p1h, p2h, r, g, lines, sq) -> None:
    """The parts of the squared Sampson distance r^2 / g of an (m, 3, 3) stack
    at n points whose ``epipolar_design`` is ``design``, into (m, n) buffers.

    r = design @ vec(M). g sums the squares of rows 0 and 1 of M x1 and of
    M^T x2, each term one GEMM written unsquared into one of the four
    ``lines`` and squared through ``sq``. The buffers may alias: with
    ``lines = (g, sq, sq, sq)`` every term is squared in place.
    """
    np.matmul(models.reshape(-1, 9), design.T, out=r)
    # BLAS reads unit-stride rows, so the columns of M are copied
    rows = (models[:, 0, :], models[:, 1, :], models[:, :, 0], models[:, :, 1])
    for k, (row, pts, line) in enumerate(zip(rows, (p1h, p1h, p2h, p2h), lines)):
        np.matmul(np.ascontiguousarray(row), pts.T, out=line)
        np.square(line, out=sq if k else g)
        if k:
            g += sq


def sampson_sq_arrays(m: np.ndarray, p1h: np.ndarray, p2h: np.ndarray) -> np.ndarray:
    """(n,) squared Sampson distances of every correspondence to one (3, 3) model.

    The parts are the score kernel's, so a one-model ``score_matrix_arrays``
    scores a point above 0 exactly where this distance is below the
    threshold. Degenerate points (all four epipolar line gradients zero)
    map to +inf, never NaN.
    """
    r, g, sq = np.empty((3, 1, p1h.shape[0]))
    sampson_parts(m.reshape(1, 3, 3), epipolar_design(p1h, p2h), p1h, p2h, r, g, (g, sq, sq, sq), sq)
    np.square(r, out=r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g > 0.0, r / g, np.inf)[0]


# ---------------------------------------------------------------------------
# manifold projections


def _det_negative(a: np.ndarray) -> bool:
    """Whether the orthonormal 3x3 ``a`` is a reflection. Its determinant is
    +-1, so the sign of the scalar triple product decides it."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    det = a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) + a02 * (a10 * a21 - a11 * a20)
    return det < 0.0


def proper_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``u, s, vt`` of a 3x3 matrix whose factors ``u`` and ``vt`` are rotations.

    Where numpy's U or V^T is a reflection, its null singular vector (the
    third column of U, the third row of V^T) is negated. That changes only
    the term of the third singular value, so for a rank-2 ``m`` (an essential
    or fundamental matrix) ``u @ diag(s) @ vt`` still reproduces +m.
    """
    u, s, vt = np.linalg.svd(m)
    if _det_negative(u):
        u[:, 2] *= -1.0
    if _det_negative(vt):
        vt[2, :] *= -1.0
    return u, s, vt


def project_to_essential(m: np.ndarray) -> np.ndarray:
    """Nearest matrix with singular values (s, s, 0), s the mean of the two
    largest, for one (3, 3) matrix or each of a (B, 3, 3) stack; the caller
    normalizes."""
    u, s, vt = np.linalg.svd(m)
    sigma = 0.5 * (s[..., 0] + s[..., 1])
    sv = np.zeros_like(s)
    sv[..., 0] = sigma
    sv[..., 1] = sigma
    return (u * sv[..., None, :]) @ vt


def _unit_norm_guarded(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m`` over its Frobenius norm, for one (3, 3) matrix or each of a
    (B, 3, 3) stack, and whether that norm is nonzero (a zero matrix stays
    zero). The norm reduces the last two axes, so a matrix gets the same
    bits alone and in a stack."""
    norms = np.linalg.norm(m, axis=(-2, -1))
    return m / np.where(norms > 0.0, norms, 1.0)[..., None, None], norms > 0.0


def unit_norm(m: np.ndarray) -> np.ndarray:
    """``m`` over its Frobenius norm, as the solver normalizes; raises ValueError for a zero matrix."""
    out, nonzero = _unit_norm_guarded(m)
    if not nonzero.all():
        raise ValueError("cannot normalize a zero matrix")
    return out


# ---------------------------------------------------------------------------
# 8-point solver


def _hartley_batch(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize (B,s,2) point sets: centroid to origin, mean distance sqrt(2).

    Returns (normalized points, transforms (B,3,3), valid mask). Point sets
    with zero spread are flagged invalid.
    """
    centroid = p.mean(axis=1, keepdims=True)
    centered = p - centroid
    mean_dist = np.linalg.norm(centered, axis=2).mean(axis=1)
    valid = mean_dist > 0.0
    scale = np.zeros_like(mean_dist)
    scale[valid] = math.sqrt(2.0) / mean_dist[valid]
    pn = centered * scale[:, None, None]
    b = p.shape[0]
    t = np.zeros((b, 3, 3))
    t[:, 0, 0] = scale
    t[:, 1, 1] = scale
    t[:, 2, 2] = 1.0
    t[:, 0, 2] = -scale * centroid[:, 0, 0]
    t[:, 1, 2] = -scale * centroid[:, 0, 1]
    return pn, t, valid


def eight_point_batch(
    p1: np.ndarray, p2: np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a batch of minimal samples with the normalized linear algorithm.

    ``p1``/``p2`` have shape (B, 8, 2); any other shape raises ValueError.
    Returns (models (B,3,3), valid (B,)). Invalid entries come from
    rank-deficient design matrices or degenerate normalizations; their model
    slot content is unspecified.

    The null vector comes from the QR factorization of the 9x8 transposed
    design: the last column of the complete Q is orthogonal to all 8 rows.
    That is about 4 times cheaper than an SVD and gives the same vector up
    to sign.
    """
    if p1.ndim != 3 or p1.shape != p2.shape or p1.shape[1:] != (MIN_SAMPLE_SIZE, 2):
        raise ValueError("expected matching (B, 8, 2) point arrays")
    p1n, t1, ok1 = _hartley_batch(p1)
    p2n, t2, ok2 = _hartley_batch(p2)
    valid = ok1 & ok2

    x1, y1 = p1n[..., 0], p1n[..., 1]
    x2, y2 = p2n[..., 0], p2n[..., 1]
    ones = np.ones_like(x1)
    # Row for x2^T M x1 = 0, M flattened row-major.
    design = np.stack(
        [x2 * x1, x2 * y1, x2, y2 * x1, y2 * y1, y2, x1, y1, ones], axis=2
    )
    q, r = np.linalg.qr(np.swapaxes(design, 1, 2), mode="complete")
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    valid &= diag.min(axis=1) > _RANK_TOL * diag.max(axis=1)
    m = q[:, :, -1].reshape(-1, 3, 3)

    if kind == FUNDAMENTAL:
        # Rank-2 enforcement in the normalized frame (rank survives the
        # denormalization; equal singular values would not).
        u, s3, vt3 = np.linalg.svd(m)
        s3[:, 2] = 0.0
        m = (u * s3[:, None, :]) @ vt3
        m = np.transpose(t2, (0, 2, 1)) @ m @ t1
    elif kind == ESSENTIAL:
        m = project_to_essential(np.transpose(t2, (0, 2, 1)) @ m @ t1)
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    m, nonzero = _unit_norm_guarded(m)
    return m, valid & nonzero


# ---------------------------------------------------------------------------
# calibration


def normalize_points_by_intrinsics(p: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return np.stack([(p[..., 0] - k.cx) / k.fx, (p[..., 1] - k.cy) / k.fy], axis=-1)


def normalize_matches(
    matches: Matches, k1: CameraIntrinsics, k2: CameraIntrinsics
) -> Matches:
    """The same matches with both image points in intrinsics-normalized coordinates."""
    return replace(
        matches,
        p1=normalize_points_by_intrinsics(matches.p1, k1),
        p2=normalize_points_by_intrinsics(matches.p2, k2),
    )


def f_to_e_upgrade(
    f: ModelHypothesis, k1: CameraIntrinsics, k2: CameraIntrinsics
) -> ModelHypothesis:
    """Upgrade a fundamental matrix to an essential matrix with known intrinsics.

    Raises ValueError for an essential or a zero model.
    """
    if f.kind != FUNDAMENTAL:
        raise ValueError("f_to_e_upgrade expects a fundamental model")
    if f.is_zero:
        raise ValueError("cannot upgrade the zero model")
    e = k2.matrix().T @ f.m @ k1.matrix()
    return ModelHypothesis(unit_norm(project_to_essential(e)), ESSENTIAL)


# ---------------------------------------------------------------------------
# pose extraction


def _triangulate_midpoint(
    r: np.ndarray, t: np.ndarray, x1h: np.ndarray, x2h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint triangulation in the camera-1 frame for a candidate (R, t).

    Camera 2 satisfies X2 = R @ X1 + t. Returns (points (n,3), depth1, depth2);
    near-parallel rays yield NaN depths.
    """
    c2 = -r.T @ t
    d1 = x1h
    d2 = x2h @ r  # rows are (R^T @ x2)^T
    a = np.einsum("ni,ni->n", d1, d1)
    b = np.einsum("ni,ni->n", d1, d2)
    c = np.einsum("ni,ni->n", d2, d2)
    e = d1 @ c2
    f = d2 @ c2
    det = b * b - a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (b * f - c * e) / det
        u = (a * f - b * e) / det
    mid = 0.5 * (s[:, None] * d1 + c2[None, :] + u[:, None] * d2)
    depth1 = mid[:, 2]
    depth2 = (mid @ r.T + t)[:, 2]
    return mid, depth1, depth2


def decompose_essential_arrays(
    e: np.ndarray, p1: np.ndarray, p2: np.ndarray
) -> RelativePose:
    """Recover (R, t) from an essential matrix by cheirality voting.

    ``p1``/``p2`` are (n, 2) inlier points in normalized coordinates. All
    four SVD candidates are triangulated over them; the one with the most
    points of positive depth in both views wins, and ties break on the
    smallest mean reprojection residual. Raises PoseUndecidable when no
    candidate places any point in front of both cameras.
    """
    u, _, vt = proper_svd(e)
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ w @ vt
    r2 = u @ w.T @ vt
    t = u[:, 2]
    x1h = homogenize(p1)
    x2h = homogenize(p2)

    best = None
    for r_cand, t_cand in ((r1, t), (r1, -t), (r2, t), (r2, -t)):
        mid, depth1, depth2 = _triangulate_midpoint(r_cand, t_cand, x1h, x2h)
        good = np.isfinite(depth1) & np.isfinite(depth2) & (depth1 > 0) & (depth2 > 0)
        votes = int(good.sum())
        if votes == 0:
            continue
        proj1 = mid[good, :2] / mid[good, 2:3]
        in2 = mid[good] @ r_cand.T + t_cand
        proj2 = in2[:, :2] / in2[:, 2:3]
        resid = float(
            np.mean(
                np.linalg.norm(proj1 - p1[good], axis=1)
                + np.linalg.norm(proj2 - p2[good], axis=1)
            )
        )
        key = (votes, -resid)
        if best is None or key > best[0]:
            best = (key, r_cand, t_cand)
    if best is None:
        raise PoseUndecidable("no pose candidate places any point in front of both cameras")
    return RelativePose(best[1], best[2])


def fundamental_from_pose(
    pose: RelativePose, k1: CameraIntrinsics, k2: CameraIntrinsics
) -> ModelHypothesis:
    e = skew(pose.translation) @ pose.rotation
    f = np.linalg.inv(k2.matrix()).T @ e @ np.linalg.inv(k1.matrix())
    return ModelHypothesis(unit_norm(f), FUNDAMENTAL)


def pose_error(estimate: RelativePose, gt: RelativePose) -> float:
    """max(rotation error, translation direction error) in degrees.

    Translation keeps its sign: cheirality already disambiguated it, so a
    180-degree-flipped direction counts as a 180-degree error.
    """
    rot_err = rotation_angle_deg(estimate.rotation @ gt.rotation.T)
    dot = float(np.dot(estimate.translation, gt.translation))
    trans_err = math.degrees(math.acos(min(1.0, max(-1.0, dot))))
    return max(rot_err, trans_err)
