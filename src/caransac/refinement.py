"""Weighted robust Levenberg-Marquardt refinement of two-view models.

Models are refined over minimal local charts: 5 parameters for essential
matrices (rotation delta + translation-direction delta), 7 for fundamental
matrices (left/right singular-frame rotations + one singular-value angle, on
the unit-norm rank-2 manifold: the orthonormal representation of Bartoli and
Sturm). A chart holds its parameters, (R, t) for E and (U, V, phi) for F; one
SVD builds the first chart of an LM call, and a step composes the parameters
in closed form (R exp([dr]x) with t renormalized, U exp([du]x), V exp([dv]x),
phi + dphi), so every chart's matrix lies on its manifold up to rounding with
no further SVD. The Sampson residuals come from ``geometry.sampson_parts``,
the score kernel's arithmetic, over the rows of the matches' residual form
that an LM call keeps, gathered once per call; the design rows are also
dr/dM, and the Jacobians are analytic.

The robust cost is sum_i w_i * rho(d_i^2) with rho either a Cauchy loss or
a truncated quadratic; the caller supplies the weights, the loss, its scale
and the iteration cap. Steps are accepted only when they lower the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ESSENTIAL, FUNDAMENTAL, Matches, ModelHypothesis, proper_svd, rodrigues, skew
from .geometry import sampson_parts

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
    top_k: int = 4
    min_rel_decrease: float = 1e-10

    def __post_init__(self):
        if min(self.max_iterations, self.intermediate_iterations, self.top_k) < 1:
            raise ValueError("iteration caps and top_k must be positive")
        if min(self.lambda_init, self.lambda_up, self.lambda_down, self.weight_cutoff) <= 0:
            raise ValueError("damping factors and weight_cutoff must be positive")
        # a rejected step must raise the damping, or the retry loop never ends
        if not self.lambda_up > 1.0:
            raise ValueError("lambda_up must exceed 1")
        if not self.min_rel_decrease >= 0.0:
            raise ValueError("min_rel_decrease must be non-negative")


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

_SQRT2 = math.sqrt(2.0)

# flat entries of skew(v) as (index into v, sign): skew(v).ravel() == v[_SKEW_IDX] * _SKEW_SIGN
_SKEW_IDX = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def _cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors: np.cross's products in np.cross's order."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _skew_products(x: np.ndarray) -> np.ndarray:
    """(3, 3, 3) stack of x @ skew(e_a) for a = 0, 1, 2, with no products.

    Row i of x @ skew(e_a) is cross(x[i], e_a), whose entry c is
    skew(x[i])[c, a]: a signed permutation of x's entries.
    """
    return (x[:, _SKEW_IDX] * _SKEW_SIGN).reshape(3, 3, 3).transpose(2, 0, 1)


class _EssentialChart:
    """E = [t]x R / sqrt(2) with R = R0 exp([dr]x), t = normalize(t0 + B dt)."""

    dof = 5

    def __init__(self, r: np.ndarray, t: np.ndarray):
        self.r = r
        self.t = t
        tl = t.tolist()
        # orthonormal basis of the plane perpendicular to t
        b1 = _cross(tl, (1.0, 0.0, 0.0) if abs(tl[0]) < 0.9 else (0.0, 1.0, 0.0))
        b1 /= np.linalg.norm(b1)
        b2 = _cross(tl, b1.tolist())
        self.basis = np.stack([b1, b2], axis=1)  # (3, 2)
        self._m = skew(t) @ r / _SQRT2

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "_EssentialChart":
        u, _, vt = proper_svd(m)
        # u @ [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], chosen so that [t]x R reproduces +m
        uw = np.empty((3, 3))
        uw[:, 0] = -u[:, 1]
        uw[:, 1] = u[:, 0]
        uw[:, 2] = u[:, 2]
        return cls(uw @ vt, u[:, 2])

    def matrix(self) -> np.ndarray:
        return self._m

    def retract(self, delta: np.ndarray) -> "_EssentialChart":
        t = self.t + self.basis @ delta[3:]
        t /= np.linalg.norm(t)
        return _EssentialChart(self.r @ rodrigues(delta[:3]), t)

    def jacobian(self) -> np.ndarray:
        """(9, 5) derivative of the flattened matrix at the chart center."""
        jac = np.empty((9, 5))
        # d/d dr_a of [t]x R exp([dr]x) / sqrt(2) is matrix() @ skew(e_a)
        jac[:, :3] = _skew_products(self._m).reshape(3, 9).T
        for b in range(2):
            jac[:, 3 + b] = (skew(self.basis[:, b]) @ self.r / _SQRT2).ravel()
        return jac


class _FundamentalChart:
    """F = U(du) diag(cos phi, sin phi, 0) V(dv)^T on the unit-norm rank-2 manifold."""

    dof = 7

    def __init__(self, u: np.ndarray, v: np.ndarray, phi: float):
        self.u = u
        self.v = v
        self.phi = phi
        self._us = u * self._sigma()
        self._m = self._us @ v.T

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "_FundamentalChart":
        u, s, vt = proper_svd(m)
        norm = math.hypot(s[0], s[1])
        return cls(u, vt.T, math.atan2(s[1] / norm, s[0] / norm))

    def _sigma(self) -> np.ndarray:
        return np.array([math.cos(self.phi), math.sin(self.phi), 0.0])

    def matrix(self) -> np.ndarray:
        return self._m

    def retract(self, delta: np.ndarray) -> "_FundamentalChart":
        u = self.u @ rodrigues(delta[:3])
        return _FundamentalChart(u, self.v @ rodrigues(delta[3:6]), self.phi + delta[6])

    def jacobian(self) -> np.ndarray:
        """(9, 7) derivative of the flattened matrix at the chart center.

        Column a is U skew(e_a) S V^T, column 3 + a is U S skew(e_a)^T V^T and
        column 6 is U dS V^T. The left factors are signed column permutations
        and column scalings of U, so only the products with V^T remain.
        """
        left = np.empty((7, 3, 3))
        left[:3] = _skew_products(self.u) * self._sigma()  # scaling columns is @ S
        left[3:6] = -_skew_products(self._us)  # skew(e_a)^T = -skew(e_a)
        left[6] = self.u * np.array([-math.sin(self.phi), math.cos(self.phi), 0.0])
        return (left @ self.v.T).reshape(7, 9).T


_CHARTS = {ESSENTIAL: _EssentialChart, FUNDAMENTAL: _FundamentalChart}


# ---------------------------------------------------------------------------
# Sampson residual and its Jacobian w.r.t. the chart


class _JacobianWork:
    """What the Sampson residuals and their Jacobian need of the ``keep`` rows
    of the matches of one LM call. ``p1h``, ``p2h`` and ``design`` are those
    rows of the residual form, which the residual GEMMs read; ``dr``, dr/dM,
    is ``design`` transposed into a contiguous (9, n) array, so every
    Jacobian divides it with unit-stride reads; ``p1t`` and ``p2t`` are the
    points as contiguous (3, n) arrays; ``dg``, ``tmp`` and ``dd`` are
    scratch buffers that every Jacobian evaluation overwrites."""

    def __init__(self, matches: Matches, keep: np.ndarray):
        self.p1h, self.p2h, self.design = matches.p1h[keep], matches.p2h[keep], matches.design[keep]
        self.p1t = np.ascontiguousarray(self.p1h.T)
        self.p2t = np.ascontiguousarray(self.p2h.T)
        self.dr = np.ascontiguousarray(self.design.T)
        self.dg, self.tmp, self.dd = np.empty((3, 3, 3, len(self.design)))


def _sampson_residuals(m: np.ndarray, work: _JacobianWork) -> tuple[np.ndarray, ...]:
    """Signed Sampson residuals d = r / sqrt(g) of one model at the work's
    points, with r, g and the (2, 3, n) epipolar-line gradients: rows 0 and 1
    of M x1 and of M^T x2, the third rows zero."""
    n = work.p1h.shape[0]
    r, g, sq = np.empty((3, 1, n))
    lines = np.zeros((2, 3, n))
    terms = (lines[0, :1], lines[0, 1:2], lines[1, :1], lines[1, 1:2])
    sampson_parts(m.reshape(1, 3, 3), work.design, work.p1h, work.p2h, r, g, terms, sq)
    g = np.maximum(g[0], 1e-300)
    return r[0] / np.sqrt(g), r[0], g, lines


def _robust_cost(d: np.ndarray, w: np.ndarray, loss: str, scale: float) -> float:
    return float(np.dot(w, _rho(d * d, loss, scale)))


def _residual_jacobian(chart, residuals: tuple, work: _JacobianWork) -> tuple[np.ndarray, np.ndarray]:
    """Signed Sampson residual d and its (n, dof) Jacobian at the chart center,
    from ``residuals = _sampson_residuals(chart.matrix(), work)``."""
    d, r, g, (um, vm) = residuals
    # dr/dM = x2 x1^T;  dg/dM = 2 (u_m x1^T + x2 v_m^T), third components masked
    dg, tmp, dd = work.dg, work.tmp, work.dd
    np.multiply(um[:, None, :], work.p1t[None, :, :], out=dg)
    np.multiply(work.p2t[:, None, :], vm[None, :, :], out=tmp)
    dg += tmp
    dg *= 2.0
    sqrt_g = np.sqrt(g)
    np.divide(work.dr, sqrt_g, out=dd.reshape(9, -1))
    dg *= r / (2.0 * g * sqrt_g)
    dd -= dg
    jac = dd.reshape(9, -1).T @ chart.jacobian()
    return d, jac


# ---------------------------------------------------------------------------
# LM core


# perfbench/tracing.py reads the weights and the config at positions 3 and 4
def _lm_refine_arrays(
    model: ModelHypothesis,
    matches: Matches,
    loss: str,
    weights: np.ndarray,
    cfg: RefineConfig,
    scale: float,
    max_iterations: int,
) -> ModelHypothesis:
    """Raises RefineUnderdetermined for the zero model, whatever the weights,
    and for fewer weighted points than the chart's degrees of freedom."""
    if model.is_zero:
        raise RefineUnderdetermined("the zero model has no chart")
    keep = weights > cfg.weight_cutoff
    effective = int(keep.sum())
    chart_type = _CHARTS[model.kind]
    if effective < chart_type.dof:
        raise RefineUnderdetermined(f"{effective} effective points < {chart_type.dof} degrees of freedom")
    chart = chart_type.from_matrix(model.m)
    w = weights[keep]
    work = _JacobianWork(matches, keep)

    # the residuals at the chart center feed both the cost and the Jacobian;
    # an accepted trial's residuals become the next center's
    residuals = _sampson_residuals(chart.matrix(), work)
    cost = _robust_cost(residuals[0], w, loss, scale)
    lam = cfg.lambda_init
    for _ in range(max_iterations):
        d, jac = _residual_jacobian(chart, residuals, work)
        what = w * _rho_prime(d * d, loss, scale)
        grad = 2.0 * jac.T @ (what * d)
        hess = 2.0 * (jac.T * what) @ jac
        diag = np.maximum(np.diag(hess), _DIAG_FLOOR)
        while lam <= _LAMBDA_MAX:
            damped = hess.copy()  # hess + lam * diag(diag)
            damped.flat[:: chart.dof + 1] += lam * diag
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= cfg.lambda_up
                continue
            trial = chart.retract(step)
            trial_residuals = _sampson_residuals(trial.matrix(), work)
            trial_cost = _robust_cost(trial_residuals[0], w, loss, scale)
            # acceptance rule: a step is taken only if it lowers the cost
            if trial_cost < cost:
                rel = (cost - trial_cost) / max(cost, 1e-300)
                chart = trial
                residuals = trial_residuals
                cost = trial_cost
                lam *= cfg.lambda_down
                if rel < cfg.min_rel_decrease:
                    lam = _LAMBDA_MAX * 2  # converged; stop outer loop below
                break
            lam *= cfg.lambda_up
        # the retry loop ends without a step only once lam passes the cap
        if lam > _LAMBDA_MAX:
            break
    return ModelHypothesis(chart.matrix(), model.kind)


def refine_alpha_arrays(
    best: ModelHypothesis,
    matches: Matches,
    probs: np.ndarray,
    alpha: float,
    cfg: RefineConfig,
    scale: float,
    max_iterations: int,
) -> ModelHypothesis:
    """Cauchy-loss LM weighted by the inlier probabilities to the power alpha,
    stopping after ``max_iterations`` linearizations; ``scale`` is the loss
    scale in squared-residual units. Raises one of ``REFINE_ERRORS`` for a
    model it cannot refine, the zero model included."""
    weights = np.asarray(probs, dtype=np.float64) ** alpha
    return _lm_refine_arrays(best, matches, "cauchy", weights, cfg, scale, max_iterations)
