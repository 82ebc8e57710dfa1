"""Bit-identity of the LM refinement and the score matrix against reference copies.

``reference_refinement`` holds the straightforward versions that recompute
residuals, point products and chart Jacobians on every iteration. The
library's versions reuse that work and must agree with them exactly, not
just within a tolerance, at a fixed BLAS thread count.
"""

import functools

import numpy as np
import pytest

import reference_refinement as ref
from caransac import engine as engine_mod
from caransac import refinement as refinement_mod
from caransac.engine import ca_ransac, engine_inputs
from caransac.geometry import ESSENTIAL, FUNDAMENTAL
from caransac.neural import MlpBundle
from caransac.refinement import (
    RefineConfig,
    RefineUnderdetermined,
    _EssentialChart,
    _FundamentalChart,
    _lm_refine_arrays,
    _residual_jacobian,
    _sampson_residuals,
)
from caransac.scoring import score_matrix_arrays
from caransac.training import PairSpec, generate_synthetic, pair_labels

from conftest import fit, point_matches

CHARTS = {
    ESSENTIAL: (_EssentialChart, ref._EssentialChart),
    FUNDAMENTAL: (_FundamentalChart, ref._FundamentalChart),
}


@pytest.fixture(scope="module")
def bundle():
    return MlpBundle.initialize(0)


def _case(kind, seed, n=120, inlier_rate=0.6):
    """The engine's matches of a synthetic pair and an 8-point start model
    from a random sample of its inliers (noisy, so LM has work to do)."""
    pair = generate_synthetic(PairSpec(n=n, inlier_rate=inlier_rate, noise_sigma_px=1.0, seed=seed))
    data, cfg = engine_inputs(pair.matches, kind, 1.5, (pair.k1, pair.k2), (4, 256), seed)
    rng = np.random.default_rng(seed)
    inliers = np.flatnonzero(pair_labels(pair))
    while True:
        model = fit(*(x[rng.choice(inliers, 8, replace=False)] for x in (data.p1, data.p2)), kind)
        if model is not None:
            return data, model, cfg.msac_threshold, pair_labels(pair)


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
@pytest.mark.parametrize("seed", range(4))
def test_chart_matrix_jacobian_and_retraction_match_reference(kind, seed):
    new_cls, ref_cls = CHARTS[kind]
    _, model, _, _ = _case(kind, seed)
    rng = np.random.default_rng(100 + seed)
    chart, reference = new_cls.from_matrix(model.m), ref_cls.from_matrix(model.m)
    for _ in range(6):
        assert np.array_equal(chart.matrix(), reference.matrix())
        assert np.array_equal(chart.jacobian(), reference.jacobian())
        delta = rng.normal(scale=0.05, size=chart.dof)
        chart, reference = chart.retract(delta), reference.retract(delta)


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
def test_closed_form_step_matches_svd_recentering(kind):
    # the LM steps in closed form; re-centering the stepped matrix by SVD,
    # as the LM did before, gives the same matrix up to rounding
    new_cls, ref_cls = CHARTS[kind]
    rng = np.random.default_rng(40)
    worst = 0.0
    for seed in range(5):
        _, model, _, _ = _case(kind, seed)
        chart = new_cls.from_matrix(model.m)
        center = ref_cls.from_matrix(model.m)
        for _ in range(100):
            delta = rng.normal(scale=0.05, size=chart.dof)
            step = chart.retract(delta).matrix()
            recentered = ref.svd_recentered_retract(center, delta).matrix()
            worst = max(worst, float(np.abs(step - recentered).max()))
    assert worst <= 1e-14


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
@pytest.mark.parametrize("seed", range(4))
def test_chained_retractions_stay_on_the_manifold(kind, seed):
    # 50 closed-form steps with no SVD between them, as many as one LM call takes
    _, model, _, _ = _case(kind, seed)
    chart = CHARTS[kind][0].from_matrix(model.m)
    rng = np.random.default_rng(200 + seed)
    for _ in range(50):
        chart = chart.retract(rng.normal(scale=0.1, size=chart.dof))
        m = chart.matrix()
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(np.linalg.norm(m) - 1.0) <= 1e-12
        assert sv[2] <= 1e-12
        if kind == ESSENTIAL:
            assert abs(sv[0] - sv[1]) <= 1e-12


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
def test_residual_jacobian_matches_reference(kind):
    data, model, _, _ = _case(kind, 7)
    chart = CHARTS[kind][0].from_matrix(model.m)
    work = refinement_mod._JacobianWork(data, np.ones(len(data), dtype=bool))
    d, jac = _residual_jacobian(chart, _sampson_residuals(chart.matrix(), work), work)
    d_ref, jac_ref = ref._residual_jacobian(CHARTS[kind][1].from_matrix(model.m), data.p1h, data.p2h)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(jac, jac_ref)


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
def test_jacobian_from_carried_residuals_equals_fresh(kind):
    # the LM loop hands the accepted trial's residuals to the next Jacobian,
    # with the scratch buffers an earlier Jacobian left behind
    data, model, _, _ = _case(kind, 8)
    everything = np.ones(len(data), dtype=bool)
    chart = CHARTS[kind][0].from_matrix(model.m)
    trial = chart.retract(np.random.default_rng(8).normal(scale=0.02, size=chart.dof))
    work = refinement_mod._JacobianWork(data, everything)
    _residual_jacobian(chart, _sampson_residuals(chart.matrix(), work), work)
    carried = _sampson_residuals(trial.matrix(), work)
    d, jac = _residual_jacobian(trial, carried, work)
    fresh = refinement_mod._JacobianWork(data, everything)
    d_fresh, jac_fresh = _residual_jacobian(trial, _sampson_residuals(trial.matrix(), fresh), fresh)
    assert np.array_equal(d, carried[0])
    assert np.array_equal(d, d_fresh)
    assert np.array_equal(jac, jac_fresh)


def _weights(labels, seed, below_cutoff):
    rng = np.random.default_rng(seed)
    w = np.where(labels, rng.uniform(0.3, 1.0, labels.size), rng.uniform(0.0, 0.2, labels.size))
    if below_cutoff:
        w[rng.choice(labels.size, labels.size // 4, replace=False)] = 1e-4  # under weight_cutoff
    return w


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
@pytest.mark.parametrize("loss", ["cauchy", "truncated"])
@pytest.mark.parametrize("below_cutoff", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_lm_matches_reference(kind, loss, below_cutoff, seed):
    data, model, thr, labels = _case(kind, 20 + seed, n=200)
    weights = _weights(labels, seed, below_cutoff)
    cfg = RefineConfig()
    iterations = cfg.max_iterations if loss == "cauchy" else cfg.intermediate_iterations
    args = (model, data, loss, weights, cfg, thr, iterations)
    out, expected = _lm_refine_arrays(*args), ref._lm_refine_arrays(*args)
    assert np.array_equal(out.m, expected.m)


@pytest.mark.parametrize("kind", [ESSENTIAL, FUNDAMENTAL])
def test_lm_underdetermined_matches_reference(kind):
    data, model, thr, _ = _case(kind, 30)
    weights = np.zeros(len(data))
    weights[:4] = 1.0  # fewer effective points than either chart's dof
    cfg = RefineConfig()
    for lm in (_lm_refine_arrays, ref._lm_refine_arrays):
        with pytest.raises(RefineUnderdetermined):
            lm(model, data, "cauchy", weights, cfg, thr, cfg.max_iterations)


def _flagged_reference_scores(models, matches, t):
    """The reference kernel under the library's signature, with every
    all-zero model flagged: its GEMMs run on the other models only and the
    flagged columns are filled with 0, as the engine did with its zero flag."""
    zero_mask = ~models.reshape(len(models), 9).any(axis=1)
    return ref.score_matrix_arrays(models, zero_mask, matches.p1h, matches.p2h, t)


@functools.lru_cache(maxsize=None)
def _score_points(n):
    """The matches of an n-point pair and a stack of 8-point models from
    random samples of them."""
    pair = generate_synthetic(PairSpec(n=n, inlier_rate=0.3, seed=n))
    p1, p2 = pair.matches.p1, pair.matches.p2
    rng = np.random.default_rng(n)
    rows = np.stack([rng.choice(n, 8, replace=False) for _ in range(320)])
    models, valid = engine_mod.eight_point_batch(p1[rows], p2[rows], FUNDAMENTAL)
    return models[valid], pair.matches


def _score_case(n, m, zeros):
    """A stack of m - 1 8-point models of an n-point pair plus a zero model,
    with the models at the ``zeros`` layout set to zero, and the matches."""
    solved, matches = _score_points(n)
    assert len(solved) >= m - 1
    models = np.concatenate([solved[: m - 1], np.zeros((1, 3, 3))])
    zero_mask = np.zeros(m, dtype=bool)
    if zeros == "last":
        zero_mask[-1] = True
    elif zeros == "scattered":
        zero_mask[[j for j in (0, 5, 6, m - 1) if j < m]] = True
    elif zeros == "all":
        zero_mask[:] = True
    models[zero_mask] = 0.0
    return models, zero_mask, matches


# point counts around the kernel's 256-point blocks and its merged tail, and
# stacks from one model (one block up to 65,536 cells) to a full ca batch
@pytest.mark.parametrize("n", [8, 255, 256, 257, 263, 500, 511, 512, 777, 2000, 8000])
@pytest.mark.parametrize("m", [1, 4, 257])
@pytest.mark.parametrize("zeros", ["none", "last", "scattered", "all"])
def test_score_matrix_matches_reference(n, m, zeros):
    models, zero_mask, matches = _score_case(n, m, zeros)
    p1h, p2h = matches.p1h, matches.p2h
    live = ~zero_mask
    # the whole stack, zero models included, through both kernels
    out = score_matrix_arrays(models, matches, 2.25)
    assert out.shape == (n, len(models)) and out.flags.c_contiguous
    no_flag = np.zeros_like(zero_mask)
    unflagged = ref.score_matrix_arrays(models, no_flag, p1h, p2h, 2.25)
    assert np.array_equal(out, unflagged)
    # a zero model scores 0 through the degenerate-denominator path
    assert not out[:, zero_mask].any()
    # the live models alone, as the engine scores a batch while its best
    # is the zero model, give the flagged reference's columns exactly; the
    # layout's own flags keep the GEMM row counts equal (under "none" the
    # last model is zero but live), since a GEMM's row count can move the
    # last bits of the other rows at two BLAS threads
    flagged = ref.score_matrix_arrays(models, zero_mask, p1h, p2h, 2.25)
    alone = score_matrix_arrays(models[live], matches, 2.25)
    assert np.array_equal(alone, flagged[:, live])
    assert not flagged[:, zero_mask].any()


def test_score_matrix_degenerate_denominator_matches_reference():
    # at the origin every epipolar line gradient of the first model vanishes
    # (its column scores 0), while the second model's do not
    origin = point_matches(np.zeros((10, 2)), np.zeros((10, 2)))
    second = np.zeros((3, 3))
    second[0, 2] = 1.0
    models = np.stack([np.diag([1.0, 1.0, 0.0]), second])
    out = score_matrix_arrays(models, origin, 2.25)
    assert np.array_equal(out, _flagged_reference_scores(models, origin, 2.25))
    assert np.array_equal(out, np.column_stack([np.zeros(10), np.ones(10)]))


@pytest.mark.parametrize("n", [500, 2000])
def test_ca_ransac_matches_reference_lm(bundle, monkeypatch, n):
    pair = generate_synthetic(PairSpec(n=n, inlier_rate=0.3, seed=n + 1))
    data, cfg = engine_inputs(pair.matches, ESSENTIAL, 1.5, (pair.k1, pair.k2), (4, 256), seed=n)
    out = ca_ransac(data, bundle, cfg)
    monkeypatch.setattr(refinement_mod, "_lm_refine_arrays", ref._lm_refine_arrays)
    monkeypatch.setattr(engine_mod, "_lm_refine_arrays", ref._lm_refine_arrays)
    monkeypatch.setattr(engine_mod, "score_matrix_arrays", _flagged_reference_scores)
    expected = ca_ransac(data, bundle, cfg)
    assert np.array_equal(out.model.m, expected.model.m)
    assert np.array_equal(out.inlier_probs, expected.inlier_probs)
    assert [b.best_score for b in out.batches] == [b.best_score for b in expected.batches]
