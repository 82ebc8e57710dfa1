"""The QR null-space 8-point solver against the SVD solver it replaced.

On minimal samples of both model kinds the two must flag the same samples
as degenerate and give the same models up to sign. Samples come from
synthetic scenes (inliers, outliers and mixtures), with a repeated point,
and with every image-1 point on one line.
"""

import numpy as np
import pytest

import reference_eight_point as ref
from caransac.geometry import ESSENTIAL, FUNDAMENTAL, eight_point_batch, normalize_matches
from conftest import make_scene


def _samples(kind: str, seed: int):
    """(B, 8, 2) point pairs and their degenerate mask: a quarter with a
    repeated point, a few with collinear image-1 points, the rest drawn
    from noisy scenes with outliers."""
    rng = np.random.default_rng(seed)
    p1s, p2s, degenerate = [], [], []
    for _ in range(16):
        scene = make_scene(rng, n_inliers=40, n_outliers=40, noise_px=0.5)
        data = scene["data"]
        if kind == ESSENTIAL:
            data = normalize_matches(data, scene["k1"], scene["k2"])
        rows = np.stack([rng.choice(len(data), 8, replace=False) for _ in range(64)])
        # a quarter of the rows repeat one of their points
        repeat = rows[:16]
        repeat[:, 7] = repeat[:, int(rng.integers(0, 7))]
        p1s.append(data.p1[rows])
        p2s.append(data.p2[rows])
        degenerate.append(np.arange(64) < 16)
    # collinear image-1 points, the rest general
    ts = rng.uniform(0.0, 1.0, (32, 8))
    start, step = rng.uniform(0.0, 400.0, (32, 1, 2)), rng.uniform(-50.0, 50.0, (32, 1, 2))
    p1_line = start + ts[..., None] * step
    p2_line = rng.uniform(0.0, 400.0, (32, 8, 2))
    if kind == ESSENTIAL:
        p1_line, p2_line = (p1_line - 320.0) / 700.0, (p2_line - 240.0) / 700.0
    p1s.append(p1_line)
    p2s.append(p2_line)
    degenerate.append(np.ones(32, dtype=bool))
    return np.concatenate(p1s), np.concatenate(p2s), np.concatenate(degenerate)


@pytest.mark.parametrize("kind", [FUNDAMENTAL, ESSENTIAL])
@pytest.mark.parametrize("seed", [0, 1])
def test_qr_solver_matches_svd_reference(kind, seed):
    p1, p2, degenerate = _samples(kind, seed)
    models, valid = eight_point_batch(p1, p2, kind)
    ref_models, ref_valid = ref.eight_point_batch(p1, p2, kind)
    assert np.array_equal(valid, ref_valid)
    # both degenerate kinds occur, and most samples are not degenerate
    assert not valid[degenerate].any()
    assert valid[~degenerate].all()
    a, b = models[valid], ref_models[valid]
    gap = np.minimum(np.abs(a - b).max(axis=(1, 2)), np.abs(a + b).max(axis=(1, 2)))
    assert gap.max() < 1e-10
