"""Reference copy of the SVD-based 8-point solver.

``eight_point_batch`` below is the solver as it was before minimal samples
moved to a QR null space: every design, 8 rows or more, is solved by a full
SVD and called degenerate when its 8th singular value falls below
``_RANK_TOL`` times its largest. ``test_eight_point_oracle.py`` checks that
the library's solver gives the same valid masks and, up to sign, the same
models on minimal samples. Keep this file as it is.
"""

from __future__ import annotations

import math

import numpy as np

from caransac.geometry import ESSENTIAL, FUNDAMENTAL, MIN_SAMPLE_SIZE

# Relative singular-value cutoff below which a design matrix counts as
# rank-deficient and the sample as degenerate.
_RANK_TOL = 1e-9


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
    """Solve a batch of >=8-point samples with the normalized linear algorithm.

    ``p1``/``p2`` have shape (B, s, 2) with s >= 8. Returns (models (B,3,3),
    valid (B,)). Invalid entries come from rank-deficient design matrices or
    degenerate normalizations; their model slot content is unspecified.
    """
    if p1.ndim != 3 or p1.shape != p2.shape or p1.shape[1] < MIN_SAMPLE_SIZE:
        raise ValueError("expected matching (B, s>=8, 2) point arrays")
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
    _, s, vt = np.linalg.svd(design)
    valid &= s[:, MIN_SAMPLE_SIZE - 1] > _RANK_TOL * s[:, 0]
    m = vt[:, -1, :].reshape(-1, 3, 3)

    if kind == FUNDAMENTAL:
        # Rank-2 enforcement in the normalized frame (rank survives the
        # denormalization; equal singular values would not).
        u, s3, vt3 = np.linalg.svd(m)
        s3[:, 2] = 0.0
        m = (u * s3[:, None, :]) @ vt3
        m = np.transpose(t2, (0, 2, 1)) @ m @ t1
    elif kind == ESSENTIAL:
        m = np.transpose(t2, (0, 2, 1)) @ m @ t1
        u, s3, vt3 = np.linalg.svd(m)
        sigma = 0.5 * (s3[:, 0] + s3[:, 1])
        sv = np.zeros_like(s3)
        sv[:, 0] = sigma
        sv[:, 1] = sigma
        m = (u * sv[:, None, :]) @ vt3
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    norms = np.linalg.norm(m, axis=(1, 2))
    valid &= norms > 0.0
    safe = np.where(norms > 0.0, norms, 1.0)
    m = m / safe[:, None, None]
    return m, valid
