"""Reference copies of the straightforward LM refinement and score matrix.

The chart classes, the Sampson residual and Jacobian, the LM loop and
``score_matrix_arrays`` below are the plain versions that recompute
everything on each iteration: cross products through ``np.cross``,
determinants through ``np.linalg.det``, chart Jacobians from 3x3 products,
(n, 3, 3) point broadcasts per Jacobian, a fresh residual evaluation for
the Jacobian after every accepted step, and all points scored in one block.
The library's versions reuse work and must give bit-identical results;
``test_refinement_oracles.py`` compares the two.

The charts step in closed form, as the library's do. Re-centering a step by
SVD (``svd_recentered_retract``) is the oracle of that step: the two agree
up to rounding, not bit for bit. Change this file only where the library's
arithmetic changes by design.
"""

from __future__ import annotations

import math

import numpy as np

from caransac.geometry import ESSENTIAL, FUNDAMENTAL, ModelHypothesis, epipolar_design, rodrigues, skew
from caransac.refinement import (
    _DIAG_FLOOR,
    _LAMBDA_MAX,
    RefineConfig,
    RefineUnderdetermined,
    _rho,
    _rho_prime,
)


class _EssentialChart:
    """E = [t]x R / sqrt(2) with R = R0 exp([dr]x), t = normalize(t0 + B dt)."""

    dof = 5
    kind = ESSENTIAL

    def __init__(self, r: np.ndarray, t: np.ndarray):
        self.r = r
        self.t = t
        # orthonormal basis of the plane perpendicular to t
        ref = np.array([1.0, 0.0, 0.0]) if abs(self.t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        b1 = np.cross(self.t, ref)
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(self.t, b1)
        self.basis = np.stack([b1, b2], axis=1)  # (3, 2)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "_EssentialChart":
        u, _, vt = np.linalg.svd(m)
        # det corrections flip the null singular vector only, leaving the
        # product (and hence the reconstructed matrix's sign) unchanged
        if np.linalg.det(u) < 0:
            u = u.copy()
            u[:, 2] *= -1.0
        if np.linalg.det(vt) < 0:
            vt = vt.copy()
            vt[2, :] *= -1.0
        w = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        return cls(u @ w @ vt, u[:, 2])  # chosen so that [t]x R reproduces +m

    def matrix(self) -> np.ndarray:
        return skew(self.t) @ self.r / math.sqrt(2.0)

    def retract(self, delta: np.ndarray) -> "_EssentialChart":
        r_new = self.r @ rodrigues(delta[:3])
        t_new = self.t + self.basis @ delta[3:]
        t_new /= np.linalg.norm(t_new)
        return _EssentialChart(r_new, t_new)

    def jacobian(self) -> np.ndarray:
        """(9, 5) derivative of the flattened matrix at the chart center."""
        tx = skew(self.t)
        jac = np.empty((9, 5))
        for a in range(3):
            ea = np.zeros(3)
            ea[a] = 1.0
            jac[:, a] = (tx @ self.r @ skew(ea) / math.sqrt(2.0)).ravel()
        for b in range(2):
            jac[:, 3 + b] = (skew(self.basis[:, b]) @ self.r / math.sqrt(2.0)).ravel()
        return jac


class _FundamentalChart:
    """F = U(du) diag(cos phi, sin phi, 0) V(dv)^T on the unit-norm rank-2 manifold."""

    dof = 7
    kind = FUNDAMENTAL

    def __init__(self, u: np.ndarray, v: np.ndarray, phi: float):
        self.u = u
        self.v = v
        self.phi = phi

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "_FundamentalChart":
        u, s, vt = np.linalg.svd(m)
        if np.linalg.det(u) < 0:
            u = u.copy()
            u[:, 2] *= -1.0
        if np.linalg.det(vt) < 0:
            vt = vt.copy()
            vt[2, :] *= -1.0
        norm = math.hypot(s[0], s[1])
        return cls(u, vt.T, math.atan2(s[1] / norm, s[0] / norm))

    def _sigma(self) -> np.ndarray:
        return np.array([math.cos(self.phi), math.sin(self.phi), 0.0])

    def matrix(self) -> np.ndarray:
        return (self.u * self._sigma()) @ self.v.T

    def retract(self, delta: np.ndarray) -> "_FundamentalChart":
        u_new = self.u @ rodrigues(delta[:3])
        v_new = self.v @ rodrigues(delta[3:6])
        return _FundamentalChart(u_new, v_new, self.phi + delta[6])

    def jacobian(self) -> np.ndarray:
        """(9, 7) derivative of the flattened matrix at the chart center."""
        sigma = np.diag(self._sigma())
        jac = np.empty((9, 7))
        for a in range(3):
            ea = np.zeros(3)
            ea[a] = 1.0
            jac[:, a] = (self.u @ skew(ea) @ sigma @ self.v.T).ravel()
            jac[:, 3 + a] = (self.u @ sigma @ skew(ea).T @ self.v.T).ravel()
        dsigma = np.diag([-math.sin(self.phi), math.cos(self.phi), 0.0])
        jac[:, 6] = (self.u @ dsigma @ self.v.T).ravel()
        return jac


def svd_recentered_retract(chart, delta: np.ndarray):
    """The retraction by SVD re-centering: the chart of the stepped matrix,
    decomposed afresh. It gives the closed-form step's matrix up to rounding
    and serves as the oracle of ``retract``."""
    return type(chart).from_matrix(chart.retract(delta).matrix())


def _make_chart(model: ModelHypothesis):
    if model.is_zero:
        raise ValueError("cannot refine the zero model")
    if model.kind == ESSENTIAL:
        return _EssentialChart.from_matrix(model.m)
    return _FundamentalChart.from_matrix(model.m)


# ---------------------------------------------------------------------------
# Sampson residual and its Jacobian w.r.t. the chart


def _sampson_residuals(m: np.ndarray, p1h: np.ndarray, p2h: np.ndarray) -> tuple[np.ndarray, ...]:
    # r from the epipolar design rows, and each line gradient of g from its
    # own one-row product: rows 0 and 1 of M with x1, columns 0 and 1 with x2
    r = (m.reshape(1, 9) @ epipolar_design(p1h, p2h).T)[0]
    mt = m.T.copy()
    mx1 = np.zeros((p1h.shape[0], 3))
    mtx2 = np.zeros((p2h.shape[0], 3))
    for i in range(2):
        mx1[:, i] = m[i : i + 1] @ p1h.T
        mtx2[:, i] = mt[i : i + 1] @ p2h.T
    g = mx1[:, 0] ** 2 + mx1[:, 1] ** 2 + mtx2[:, 0] ** 2 + mtx2[:, 1] ** 2
    g = np.maximum(g, 1e-300)
    d = r / np.sqrt(g)
    return d, r, g, mx1, mtx2


def _cost(m: np.ndarray, p1h: np.ndarray, p2h: np.ndarray, w: np.ndarray, loss: str, scale: float) -> float:
    d, _, _, _, _ = _sampson_residuals(m, p1h, p2h)
    return float(np.dot(w, _rho(d * d, loss, scale)))


def _residual_jacobian(chart, p1h: np.ndarray, p2h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed Sampson residual d and its (n, dof) Jacobian at the chart center."""
    m = chart.matrix()
    d, r, g, mx1, mtx2 = _sampson_residuals(m, p1h, p2h)
    # dr/dM = x2 x1^T;  dg/dM = 2 (u_m x1^T + x2 v_m^T), third components masked
    um = mx1.copy()
    um[:, 2] = 0.0
    vm = mtx2.copy()
    vm[:, 2] = 0.0
    dr = p2h[:, :, None] * p1h[:, None, :]
    dg = 2.0 * (um[:, :, None] * p1h[:, None, :] + p2h[:, :, None] * vm[:, None, :])
    sqrt_g = np.sqrt(g)
    dd = dr / sqrt_g[:, None, None] - (r / (2.0 * g * sqrt_g))[:, None, None] * dg
    jac = dd.reshape(-1, 9) @ chart.jacobian()
    return d, jac


# ---------------------------------------------------------------------------
# LM core


def _lm_refine_arrays(
    model: ModelHypothesis,
    p1h: np.ndarray,
    p2h: np.ndarray,
    weights: np.ndarray,
    cfg: RefineConfig,
    loss: str,
    scale: float,
    max_iterations: int,
) -> ModelHypothesis:
    keep = weights > cfg.weight_cutoff
    chart = _make_chart(model)
    if int(keep.sum()) < chart.dof:
        raise RefineUnderdetermined(
            f"{int(keep.sum())} effective points < {chart.dof} degrees of freedom"
        )
    p1h = p1h[keep]
    p2h = p2h[keep]
    w = weights[keep]

    cost = _cost(chart.matrix(), p1h, p2h, w, loss, scale)
    lam = cfg.lambda_init
    for _ in range(max_iterations):
        d, jac = _residual_jacobian(chart, p1h, p2h)
        what = w * _rho_prime(d * d, loss, scale)
        grad = 2.0 * jac.T @ (what * d)
        hess = 2.0 * (jac.T * what) @ jac
        diag = np.maximum(np.diag(hess), _DIAG_FLOOR)
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= cfg.lambda_up
                continue
            trial = chart.retract(step)
            trial_cost = _cost(trial.matrix(), p1h, p2h, w, loss, scale)
            # acceptance rule: a step is taken only if it lowers the cost
            if trial_cost < cost:
                rel = (cost - trial_cost) / max(cost, 1e-300)
                chart = trial
                cost = trial_cost
                lam *= cfg.lambda_down
                accepted = True
                if rel < cfg.min_rel_decrease:
                    lam = _LAMBDA_MAX * 2  # converged; stop outer loop below
                break
            lam *= cfg.lambda_up
        if not accepted or lam > _LAMBDA_MAX:
            break
    return ModelHypothesis(chart.matrix(), model.kind)


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
