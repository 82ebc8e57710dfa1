"""MSAC scoring of hypothesis batches and the consensus-attention operator.

Scores are truncated-linear: S(r) = 1 - min(r, T)/T on squared residuals.
An (n, m) score matrix holds every correspondence's score against every
model. The attention matrix A = S S^T / sum_j C_j (C_j the per-model score
totals) needs no row normalization: every row sum lands in [0, 1] by
construction and directly quantifies the consensus gathered by that
correspondence. It is applied in factored form by ``ConsensusProduct``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .geometry import ModelHypothesis, sampson_sq_arrays


@dataclass(frozen=True)
class ConsensusProduct:
    """Applies A = S S^T / sum_j C_j to a matrix without forming A.

    The factored product S (S^T Y) / total is algebraically identical to
    A Y and avoids the n x n intermediate; it is the estimation engine's
    fast path. The operator is symmetric, so it also serves as A^T.
    ``s`` is the (n, m) score matrix and ``total`` its sum; ``dense()``
    forms A itself.
    """

    s: np.ndarray
    total: float

    def dot(self, y: np.ndarray) -> np.ndarray:
        if self.total <= 0.0:
            return np.zeros((self.s.shape[0], y.shape[1]))
        return self.s @ (self.s.T @ y) / self.total

    def dense(self) -> np.ndarray:
        if self.total <= 0.0:
            return np.zeros((self.s.shape[0], self.s.shape[0]))
        return self.s @ self.s.T / self.total


def msac_score(r_sq, t: float):
    """Truncated-linear score in [0, 1]; accepts scalars or arrays.

    An infinite residual (the degenerate-denominator sentinel) scores 0.
    """
    if t <= 0:
        raise ValueError("threshold must be positive")
    return 1.0 - np.minimum(np.asarray(r_sq, dtype=np.float64), t) / t


def epipolar_design(p1h: np.ndarray, p2h: np.ndarray) -> np.ndarray:
    """(n, 9) per-point Kronecker rows so that x2^T M x1 = design @ vec(M)."""
    return (p2h[:, :, None] * p1h[:, None, :]).reshape(p1h.shape[0], 9)


def score_matrix_arrays(
    models: np.ndarray,
    zero_mask: np.ndarray,
    p1h: np.ndarray,
    p2h: np.ndarray,
    t: float,
    design: np.ndarray | None = None,
) -> np.ndarray:
    """(n, m) MSAC scores for stacked models; zero-flagged columns stay 0.

    ``design`` is the cached output of :func:`epipolar_design` for these
    points; the loop passes it in to avoid rebuilding it every batch.
    """
    m = models.shape[0]
    n = p1h.shape[0]
    s = np.zeros((n, m))
    live = ~np.asarray(zero_mask, dtype=bool)
    if live.any():
        mm = np.ascontiguousarray(models[live])
        if design is None:
            design = epipolar_design(p1h, p2h)
        r = mm.reshape(-1, 9) @ design.T  # (k, n) algebraic residuals
        # denominator: the four epipolar-line gradient terms, accumulated in place
        g = mm[:, 0, :] @ p1h.T
        np.square(g, out=g)
        for rows, pts in ((mm[:, 1, :], p1h), (mm[:, :, 0], p2h), (mm[:, :, 1], p2h)):
            term = np.ascontiguousarray(rows) @ pts.T
            np.square(term, out=term)
            g += term
        np.square(r, out=r)
        bad = g <= 0.0
        g[bad] = 1.0
        r /= g  # squared Sampson distances
        if bad.any():
            r[bad] = np.inf
        np.minimum(r, t, out=r)
        r /= -t
        r += 1.0
        s[:, live] = r.T
    return s


def rescore_column(
    scores: np.ndarray, j: int, model: ModelHypothesis, p1h: np.ndarray, p2h: np.ndarray, t: float
) -> None:
    """Recompute a single column in place after a model was replaced."""
    scores[:, j] = msac_score(sampson_sq_arrays(model.m, p1h, p2h), t)
