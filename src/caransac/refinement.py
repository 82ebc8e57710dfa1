"""Weighted robust Levenberg-Marquardt refinement of two-view models.

Models are refined over minimal local charts: 5 parameters for essential
matrices (rotation delta + translation-direction delta), 7 for fundamental
matrices (left/right singular-frame rotations + one singular-value angle, on
the unit-norm rank-2 manifold). The chart is re-centered by SVD after every
accepted step, so manifold invariants hold exactly on output. Jacobians of
the Sampson residual are analytic.

The robust cost is sum_i w_i * rho(d_i^2) with rho either a Cauchy loss
(final refinement) or a truncated quadratic (intermediate local
optimization). Steps are accepted only when they lower the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ESSENTIAL, FUNDAMENTAL, ModelHypothesis, rodrigues, skew
from .scoring import rescore_column

_LAMBDA_MAX = 1e12
_DIAG_FLOOR = 1e-12


class RefineUnderdetermined(Exception):
    """Too few effectively-weighted points for the model's degrees of freedom."""


#: What an LM refinement raises for a hypothesis it cannot refine: too few
#: weighted points, or a decomposition numpy could not complete. Every caller
#: that falls back to the unrefined model catches exactly these.
REFINE_ERRORS = (RefineUnderdetermined, np.linalg.LinAlgError)


@dataclass(frozen=True)
class RefineConfig:
    max_iterations: int = 50            # final refinement linearizations
    intermediate_iterations: int = 10   # cap for in-loop local optimization
    lambda_init: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    weight_cutoff: float = 1e-3
    cauchy_scale: float | None = None   # squared-residual units; engine defaults it to the MSAC threshold
    top_k: int = 4
    min_rel_decrease: float = 1e-10

    def __post_init__(self):
        if min(self.max_iterations, self.intermediate_iterations, self.top_k) < 1:
            raise ValueError("iteration caps and top_k must be positive")
        if min(self.lambda_init, self.lambda_up, self.lambda_down, self.weight_cutoff) <= 0:
            raise ValueError("damping factors and weight_cutoff must be positive")


# ---------------------------------------------------------------------------
# robust losses on squared residuals


def _rho(s: np.ndarray, loss: str, scale: float) -> np.ndarray:
    if loss == "cauchy":
        return scale * np.log1p(s / scale)
    if loss == "truncated":
        return np.minimum(s, scale)
    raise ValueError(f"unknown robust loss {loss!r}")


def _rho_prime(s: np.ndarray, loss: str, scale: float) -> np.ndarray:
    if loss == "cauchy":
        return 1.0 / (1.0 + s / scale)
    if loss == "truncated":
        return (s < scale).astype(np.float64)
    raise ValueError(f"unknown robust loss {loss!r}")


# ---------------------------------------------------------------------------
# local charts


class _EssentialChart:
    """E = [t]x R / sqrt(2) with R = R0 exp([dr]x), t = normalize(t0 + B dt)."""

    dof = 5
    kind = ESSENTIAL

    def __init__(self, m: np.ndarray):
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
        self.r = u @ w @ vt  # chosen so that [t]x R reproduces +m
        self.t = u[:, 2]
        # orthonormal basis of the plane perpendicular to t
        ref = np.array([1.0, 0.0, 0.0]) if abs(self.t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        b1 = np.cross(self.t, ref)
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(self.t, b1)
        self.basis = np.stack([b1, b2], axis=1)  # (3, 2)

    def matrix(self) -> np.ndarray:
        return skew(self.t) @ self.r / math.sqrt(2.0)

    def retract(self, delta: np.ndarray) -> "_EssentialChart":
        # re-centering through the constructor doubles as the SVD projection
        r_new = self.r @ rodrigues(delta[:3])
        t_new = self.t + self.basis @ delta[3:]
        t_new /= np.linalg.norm(t_new)
        return _EssentialChart(skew(t_new) @ r_new / math.sqrt(2.0))

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

    def __init__(self, m: np.ndarray):
        u, s, vt = np.linalg.svd(m)
        if np.linalg.det(u) < 0:
            u = u.copy()
            u[:, 2] *= -1.0
        if np.linalg.det(vt) < 0:
            vt = vt.copy()
            vt[2, :] *= -1.0
        self.u = u
        self.v = vt.T
        norm = math.hypot(s[0], s[1])
        self.phi = math.atan2(s[1] / norm, s[0] / norm)

    def _sigma(self) -> np.ndarray:
        return np.array([math.cos(self.phi), math.sin(self.phi), 0.0])

    def matrix(self) -> np.ndarray:
        return (self.u * self._sigma()) @ self.v.T

    def retract(self, delta: np.ndarray) -> "_FundamentalChart":
        u_new = self.u @ rodrigues(delta[:3])
        v_new = self.v @ rodrigues(delta[3:6])
        phi_new = self.phi + delta[6]
        sigma = np.array([math.cos(phi_new), math.sin(phi_new), 0.0])
        return _FundamentalChart((u_new * sigma) @ v_new.T)

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


def _make_chart(model: ModelHypothesis):
    if model.is_zero:
        raise ValueError("cannot refine the zero model")
    if model.kind == ESSENTIAL:
        return _EssentialChart(model.m)
    return _FundamentalChart(model.m)


# ---------------------------------------------------------------------------
# Sampson residual and its Jacobian w.r.t. the chart


def _sampson_residuals(m: np.ndarray, p1h: np.ndarray, p2h: np.ndarray) -> tuple[np.ndarray, ...]:
    mx1 = p1h @ m.T
    mtx2 = p2h @ m
    r = np.einsum("ni,ni->n", p2h, mx1)
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
    return ModelHypothesis(chart.matrix(), model.kind, "refined")


def refine_alpha_arrays(
    best: ModelHypothesis,
    p1h: np.ndarray,
    p2h: np.ndarray,
    probs: np.ndarray,
    alpha: float,
    cfg: RefineConfig,
) -> ModelHypothesis:
    weights = np.asarray(probs, dtype=np.float64) ** alpha
    return _lm_refine_arrays(
        best, p1h, p2h, weights, cfg, "cauchy", cfg.cauchy_scale, cfg.max_iterations
    )


# ---------------------------------------------------------------------------
# in-loop local optimization


def local_optimize_topk_arrays(
    models: list[ModelHypothesis],
    scores: np.ndarray,
    p1h: np.ndarray,
    p2h: np.ndarray,
    threshold: float,
    cfg: RefineConfig,
) -> tuple[list[ModelHypothesis], np.ndarray, list[int]]:
    """Refine the k highest-consensus models in place; rescore only their columns.

    Returns (models, scores, refined column indices); inputs are not mutated.
    Zero models and models with too few inliers are left untouched, as is any
    model whose refinement fails.
    """
    totals = scores.sum(axis=0)
    k = min(cfg.top_k, len(models))
    # ties broken by ascending column index
    order = np.lexsort((np.arange(len(models)), -totals))[:k]
    models = list(models)
    scores = scores.copy()
    touched: list[int] = []
    for j in order:
        model = models[j]
        if model.is_zero:
            continue
        inliers = scores[:, j] > 0.0
        chart_dof = 5 if model.kind == ESSENTIAL else 7
        if int(inliers.sum()) < chart_dof:
            continue
        weights = inliers.astype(np.float64)
        try:
            refined = _lm_refine_arrays(
                model,
                p1h,
                p2h,
                weights,
                cfg,
                "truncated",
                threshold,
                cfg.intermediate_iterations,
            )
        except REFINE_ERRORS:
            continue
        models[j] = refined
        rescore_column(scores, j, refined, p1h, p2h, threshold)
        touched.append(int(j))
    return models, scores, touched
