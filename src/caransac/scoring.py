"""MSAC scoring of hypothesis batches and the consensus-attention operator.

Scores are truncated-linear: S(r) = 1 - min(r, T)/T on squared residuals.
An (n, m) score matrix holds every correspondence's score against every
model; the zero model, which the consensus loop carries as its best model
until a sample yields one, scores 0 against every point with no special
casing. The attention matrix A = S S^T / sum_j C_j (C_j the per-model score
totals) needs no row normalization: every row sum lands in [0, 1] by
construction and directly quantifies the consensus gathered by that
correspondence. It is applied in factored form by ``ConsensusProduct``.
The squared residuals come from ``geometry.sampson_parts``, the arithmetic
the inlier masks and the LM residuals use too.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .geometry import epipolar_design, sampson_parts
# unused here: perfbench/tracing.py patches scoring.sampson_sq_arrays by name
from .geometry import sampson_sq_arrays  # noqa: F401


@dataclass(frozen=True)
class ConsensusProduct:
    """Applies A = S S^T / sum_j C_j to a matrix without forming A.

    The factored product S (S^T Y) / total is algebraically identical to
    A Y and avoids the n x n intermediate; it is the estimation engine's
    fast path. The operator is symmetric, so it also serves as A^T.
    ``s`` is the (n, m) score matrix and ``total`` its sum. A zero
    ``total`` gives zeros in ``y``'s dtype, so a float32 state stays float32.
    """

    s: np.ndarray
    total: float

    def dot(self, y: np.ndarray) -> np.ndarray:
        if self.total <= 0.0:
            return np.zeros((self.s.shape[0], y.shape[1]), dtype=y.dtype)
        return self.s @ (self.s.T @ y) / self.total


# point blocks of the score kernel: 256 points, with a short tail merged into
# the last block (256-511 points); a stack of at most _ONE_BLOCK_CELLS cells
# is one block, where the per-block overhead would outweigh the gain
_BLOCK_POINTS = 256
_ONE_BLOCK_CELLS = 65_536


def score_matrix_arrays(
    models: np.ndarray,
    p1h: np.ndarray,
    p2h: np.ndarray,
    t: float,
) -> np.ndarray:
    """(n, m) MSAC scores for a (m, 3, 3) stack of models.

    A zero model scores 0 everywhere: its epipolar-line gradients vanish, so
    every residual takes the degenerate-denominator path to +inf.

    The points are scored in blocks, so the (m, block) temporaries stay in
    cache and only the result is faulted in. A 256-point width and the
    merged tail keep every GEMM entry on the kernel path of one unblocked
    call, so at one BLAS thread the scores equal the unblocked kernel's; a
    width off BLAS's register block (250 or 300 points) does not.
    """
    m = models.shape[0]
    n = p1h.shape[0]
    mm = np.ascontiguousarray(models)
    blocks = 1 if n * m <= _ONE_BLOCK_CELLS else max(n // _BLOCK_POINTS, 1)
    bounds = [i * _BLOCK_POINTS for i in range(blocks)] + [n]
    # scratch for the last block, the widest, viewed as (m, width) per block
    widest = m * (n - bounds[-2])
    r_buf, g_buf = np.empty(widest), np.empty(widest)
    s = np.empty((n, m))
    for a, b in zip(bounds, bounds[1:]):
        r, g = (x[: m * (b - a)].reshape(m, b - a) for x in (r_buf, g_buf))
        # the block's rows of s hold each gradient term until the scores
        # overwrite them: writing s into memory already touched is cheaper
        # than faulting in a fresh array
        term = s[a:b].reshape(m, b - a)
        p1b, p2b = p1h[a:b], p2h[a:b]
        sampson_parts(mm, epipolar_design(p1b, p2b), p1b, p2b, r, g, (g, term, term, term), term)
        np.square(r, out=r)
        bad = g <= 0.0
        any_bad = bad.any()
        if any_bad:
            g[bad] = 1.0
        r /= g  # squared Sampson distances
        if any_bad:
            r[bad] = np.inf
        np.minimum(r, t, out=r)
        r /= -t
        r += 1.0
        s[a:b] = r.T
    return s
