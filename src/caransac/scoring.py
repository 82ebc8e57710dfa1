"""MSAC scoring of hypothesis batches and the consensus-attention operator.

Scores are truncated-linear: S(r) = 1 - min(r, T)/T on squared residuals.
An (n, m) score matrix holds every correspondence's score against every
model; the zero model, which the consensus loop carries as its best model
until a sample yields one, scores 0 against every point with no special
casing. The attention matrix A = S S^T / sum_j C_j (C_j the per-model score
totals) needs no row normalization: every row sum lands in [0, 1] by
construction and directly quantifies the consensus gathered by that
correspondence. It is applied in factored form by ``ConsensusProduct``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

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


def epipolar_design(p1h: np.ndarray, p2h: np.ndarray) -> np.ndarray:
    """(n, 9) per-point Kronecker rows so that x2^T M x1 = design @ vec(M)."""
    return (p2h[:, :, None] * p1h[:, None, :]).reshape(p1h.shape[0], 9)


def score_matrix_arrays(
    models: np.ndarray,
    p1h: np.ndarray,
    p2h: np.ndarray,
    t: float,
) -> np.ndarray:
    """(n, m) MSAC scores for a (m, 3, 3) stack of models.

    A zero model scores 0 everywhere: its epipolar-line gradients vanish, so
    every residual takes the degenerate-denominator path to +inf.
    """
    m = models.shape[0]
    n = p1h.shape[0]
    mm = np.ascontiguousarray(models)
    r = mm.reshape(-1, 9) @ epipolar_design(p1h, p2h).T  # (m, n) algebraic residuals
    # denominator: the four epipolar-line gradient terms, accumulated in
    # place. One buffer holds each term and then the result: writing s into
    # memory already touched is cheaper than faulting in a fresh array.
    g = mm[:, 0, :] @ p1h.T
    np.square(g, out=g)
    buf = np.empty(n * m)
    term = buf.reshape(m, n)
    for rows, pts in ((mm[:, 1, :], p1h), (mm[:, :, 0], p2h), (mm[:, :, 1], p2h)):
        np.matmul(np.ascontiguousarray(rows), pts.T, out=term)
        np.square(term, out=term)
        g += term
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
    s = buf.reshape(n, m)
    s[...] = r.T
    return s
