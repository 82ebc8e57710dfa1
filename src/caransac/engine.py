"""Estimation engines: the consensus-adaptive batched loop and two baselines.

All engines run a fixed budget of batches x batch_size minimal samples with
no early termination, so different estimators are comparable at an identical
iteration count. The consensus-adaptive engine (``ca_ransac``) updates an
n x 128 latent state from the batch score matrix after every batch, decodes
per-correspondence inlier probabilities from it, and uses those both to gate
the next sampling pool and to weight the final robust refinement.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .geometry import (
    MIN_SAMPLE_SIZE,
    MODEL_KINDS,
    CameraIntrinsics,
    Matches,
    ModelHypothesis,
    eight_point_batch,
    homogenize,
    sampson_sq_arrays,
)
from .neural import ForwardTape, MlpBundle, StateStepTape, decode_inliers, init_state, state_transform
from .refinement import (
    REFINE_ERRORS,
    RefineConfig,
    local_optimize_topk_arrays,
    refine_alpha_arrays,
    _lm_refine_arrays,
)
from .sampling import InsufficientData, SamplerConfig, build_pool, draw_minimal_batch, prosac_schedule
from .scoring import ConsensusProduct, epipolar_design, msac_score, score_matrix_arrays

DEFAULT_THRESHOLD_PX = 1.5

# model x point cells per stacked Sampson call in the PROSAC+LM baseline;
# bounds its residual temporaries to a few hundred kB whatever the batch size
_SCORE_SLICE_CELLS = 16384

TIMING_COMPONENTS = (
    "state_init",
    "state_update",
    "decoder",
    "attention",
    "sampling",
    "solving",
    "scoring",
    "refinement",
)
# the parameterized networks; the attention product itself carries no
# parameters and is accounted separately
LEARNED_COMPONENTS = ("state_init", "state_update", "decoder")


def essential_threshold(threshold_px: float, k1: CameraIntrinsics, k2: CameraIntrinsics) -> float:
    """Squared threshold in normalized coordinates matching a pixel tolerance.

    The pixel tolerance is divided by the geometric mean of the four focal
    lengths before squaring, preserving its pixel meaning after the points
    were normalized by the intrinsics.
    """
    f = (k1.fx * k1.fy * k2.fx * k2.fy) ** 0.25
    return (threshold_px / f) ** 2


def pixel_threshold(threshold_px: float) -> float:
    return threshold_px**2


@dataclass(frozen=True)
class EngineConfig:
    batches: int = 4
    batch_size: int = 256
    model_kind: str = "fundamental"
    msac_threshold: float = pixel_threshold(DEFAULT_THRESHOLD_PX)  # squared, residual units
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    consensus_update: bool = True  # disabling freezes the state after initialization

    def __post_init__(self):
        if self.batches < 1:
            raise ValueError("need at least one batch")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.msac_threshold <= 0:
            raise ValueError("msac_threshold must be positive")

    @property
    def total_iterations(self) -> int:
        return self.batches * self.batch_size

    def resolved_sampler(self) -> SamplerConfig:
        return replace(self.sampler, batch_size=self.batch_size, sample_size=MIN_SAMPLE_SIZE)

    def resolved_refine(self) -> RefineConfig:
        if self.refine.cauchy_scale is None:
            return replace(self.refine, cauchy_scale=self.msac_threshold)
        return self.refine


def make_config(
    model_kind: str,
    threshold: float,
    budget: tuple[int, int],
    seed: int,
    consensus_update: bool = True,
) -> EngineConfig:
    """Engine settings for one run: a kind, its native squared threshold, a
    (batches, batch_size) budget and the sampler seed; the rest default."""
    return EngineConfig(
        batches=budget[0],
        batch_size=budget[1],
        model_kind=model_kind,
        msac_threshold=threshold,
        sampler=SamplerConfig(rng_seed=seed),
        consensus_update=consensus_update,
    )


@dataclass
class EstimationResult:
    model: ModelHypothesis
    inlier_probs: np.ndarray
    per_batch_best_score: list[float]
    timing_breakdown: dict[str, float]


@dataclass
class ForwardRecord:
    """Extra per-batch outputs captured for training and diagnostics."""

    tape: ForwardTape = field(default_factory=ForwardTape)
    probs_per_batch: list[np.ndarray] = field(default_factory=list)
    model_per_batch: list[ModelHypothesis] = field(default_factory=list)
    last_prerefine_model: ModelHypothesis | None = None
    last_probs: np.ndarray | None = None


class _Timing:
    def __init__(self):
        self.parts = defaultdict(float)

    @contextmanager
    def section(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.parts[name] += time.perf_counter() - t0

    def breakdown(self, total: float) -> dict[str, float]:
        out = {name: self.parts.get(name, 0.0) for name in TIMING_COMPONENTS}
        out["total"] = total
        return out


@dataclass
class _TimedConsensus:
    """Wraps the consensus operator so its application is billed to the
    "attention" component instead of the enclosing state-update section."""

    op: ConsensusProduct
    timing: _Timing

    def dot(self, y: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.op.dot(y)
        elapsed = time.perf_counter() - t0
        self.timing.parts["attention"] += elapsed
        self.timing.parts["state_update"] -= elapsed
        return out


def _solve_batch(rows: np.ndarray, p1: np.ndarray, p2: np.ndarray, kind: str) -> np.ndarray:
    """The (k, 3, 3) stack of valid models solved from the sample rows, in row order."""
    models, valid = eight_point_batch(p1[rows], p2[rows], kind)
    return models[valid]


def ca_ransac(
    matches: Matches,
    bundle: MlpBundle,
    cfg: EngineConfig,
    record: ForwardRecord | None = None,
) -> EstimationResult:
    """Consensus-adaptive batched estimation.

    Per batch: build the probability-gated pool, draw and solve minimal
    samples, append the best model so far, score everything, locally optimize
    the top-k columns, update the latent state through the consensus
    attention, re-decode the probabilities, select the top-consensus model,
    and refine it weighted by the decoded probabilities to the power alpha.

    The latent state is initialized from ``matches.side``. Passing a
    ``record`` captures the forward tapes and per-batch outputs needed for
    training; it does not change the estimate.

    Raises InsufficientData for fewer than 8 correspondences. A refinement
    that raises one of ``REFINE_ERRORS`` leaves its model unrefined.
    """
    n = len(matches)
    sampler_cfg = cfg.resolved_sampler()
    if n < sampler_cfg.sample_size:
        raise InsufficientData(f"{n} correspondences < sample size {sampler_cfg.sample_size}")
    refine_cfg = cfg.resolved_refine()
    timing = _Timing()
    t_start = time.perf_counter()

    # homogeneous points and the per-point design rows feed every residual
    # evaluation, so they are accounted to scoring
    with timing.section("scoring"):
        p1, p2 = matches.p1, matches.p2
        p1h, p2h = homogenize(p1), homogenize(p2)
        design = epipolar_design(p1h, p2h)
    rng = np.random.default_rng(sampler_cfg.rng_seed)

    tape = record.tape if record is not None else None
    with timing.section("state_init"):
        f = init_state(bundle, matches.side, tape.init if tape is not None else None)
    with timing.section("decoder"):
        probs = decode_inliers(bundle, f)

    best = ModelHypothesis.zero(cfg.model_kind)
    per_batch_best: list[float] = []

    for _ in range(cfg.batches):
        with timing.section("sampling"):
            pool = build_pool(probs, sampler_cfg)
            rows = draw_minimal_batch(pool, sampler_cfg, rng)
        with timing.section("solving"):
            solved = _solve_batch(rows, p1, p2, cfg.model_kind)
            models = [ModelHypothesis(m, cfg.model_kind, "minimal") for m in solved]
        models.append(best)
        with timing.section("scoring"):
            stacked = np.concatenate([solved, best.m[None]])
            zero_mask = np.zeros(len(models), dtype=bool)
            zero_mask[-1] = best.is_zero
            scores = score_matrix_arrays(
                stacked, zero_mask, p1h, p2h, cfg.msac_threshold, design
            )
        with timing.section("refinement"):
            # column rescoring inside the local optimization is cheap
            # relative to the LM iterations and is accounted to refinement
            models, scores, _ = local_optimize_topk_arrays(
                models, scores, p1h, p2h, cfg.msac_threshold, refine_cfg
            )

        step_tape = StateStepTape(attention=None) if tape is not None else None
        if cfg.consensus_update:
            with timing.section("state_update"):
                op = ConsensusProduct(scores, float(scores.sum()))
                f = state_transform(bundle, f, _TimedConsensus(op, timing), step_tape)
            if step_tape is not None:
                step_tape.attention = op  # backward uses the raw operator
        with timing.section("decoder"):
            probs = decode_inliers(
                bundle, f, step_tape.decoder if step_tape is not None else None
            )
        if tape is not None:
            tape.steps.append(step_tape)

        with timing.section("scoring"):
            totals = scores.sum(axis=0)
            j = int(np.argmax(totals))  # argmax takes the lowest index on ties
            per_batch_best.append(float(totals[j]))
            best = models[j]

        if record is not None:
            record.last_prerefine_model = best
            record.last_probs = probs
        with timing.section("refinement"):
            if not best.is_zero:
                try:
                    best = refine_alpha_arrays(best, p1h, p2h, probs, bundle.alpha, refine_cfg)
                except REFINE_ERRORS:
                    pass
        if record is not None:
            record.probs_per_batch.append(probs)
            record.model_per_batch.append(best)

    total = time.perf_counter() - t_start
    return EstimationResult(best, probs, per_batch_best, timing.breakdown(total))


# ---------------------------------------------------------------------------
# classical baselines (identical iteration budgets)


def _final_inlier_refine(
    best: ModelHypothesis,
    p1h: np.ndarray,
    p2h: np.ndarray,
    threshold: float,
    refine_cfg: RefineConfig,
) -> ModelHypothesis:
    if best.is_zero:
        return best
    residuals = sampson_sq_arrays(best.m, p1h, p2h)
    weights = (residuals < threshold).astype(np.float64)
    try:
        return _lm_refine_arrays(
            best, p1h, p2h, weights, refine_cfg, "cauchy", refine_cfg.cauchy_scale,
            refine_cfg.max_iterations,
        )
    except REFINE_ERRORS:
        return best


def _result_probs(best: ModelHypothesis, p1h, p2h, threshold: float, n: int) -> np.ndarray:
    if best.is_zero:
        return np.full(n, 0.5)
    scores = msac_score(sampson_sq_arrays(best.m, p1h, p2h), threshold)
    return np.clip(scores, 1e-6, 1.0 - 1e-6)


def msac_ransac_baseline(matches: Matches, cfg: EngineConfig) -> EstimationResult:
    """Uniform sampling, MSAC total-score selection, final robust refinement.

    Raises InsufficientData for fewer than 8 correspondences. A final
    refinement that raises one of ``REFINE_ERRORS`` leaves the model unrefined.
    """
    n = len(matches)
    if n < MIN_SAMPLE_SIZE:
        raise InsufficientData(f"{n} correspondences < sample size {MIN_SAMPLE_SIZE}")
    refine_cfg = cfg.resolved_refine()
    timing = _Timing()
    t_start = time.perf_counter()
    p1, p2 = matches.p1, matches.p2
    p1h, p2h = homogenize(p1), homogenize(p2)
    rng = np.random.default_rng(cfg.resolved_sampler().rng_seed)

    best = ModelHypothesis.zero(cfg.model_kind)
    best_score = -1.0
    all_indices = np.arange(n)
    for _ in range(cfg.batches):
        with timing.section("sampling"):
            keys = rng.random((cfg.batch_size, n))
            rows = all_indices[np.argpartition(keys, MIN_SAMPLE_SIZE - 1, axis=1)[:, :MIN_SAMPLE_SIZE]]
        with timing.section("solving"):
            models = _solve_batch(rows, p1, p2, cfg.model_kind)
        if not len(models):
            continue
        with timing.section("scoring"):
            scores = score_matrix_arrays(
                models, np.zeros(len(models), bool), p1h, p2h, cfg.msac_threshold
            )
            totals = scores.sum(axis=0)
            j = int(np.argmax(totals))
        if totals[j] > best_score:
            best_score = float(totals[j])
            best = ModelHypothesis(models[j], cfg.model_kind, "minimal")

    with timing.section("refinement"):
        best = _final_inlier_refine(best, p1h, p2h, cfg.msac_threshold, refine_cfg)
    probs = _result_probs(best, p1h, p2h, cfg.msac_threshold, n)
    total = time.perf_counter() - t_start
    return EstimationResult(best, probs, [best_score], timing.breakdown(total))


def lm_lo_baseline(matches: Matches, quality: np.ndarray, cfg: EngineConfig) -> EstimationResult:
    """PROSAC sampling with LM local optimization on every new best model.

    The PROSAC schedule does not depend on scores, so each batch of samples
    is drawn, solved and scored up front. The best-model and local
    optimization decisions then walk the batch in sample order, which gives
    the same result as drawing, solving and scoring one sample at a time.

    Raises InsufficientData for fewer than 8 correspondences. A refinement
    that raises one of ``REFINE_ERRORS`` leaves its model unrefined.
    """
    n = len(matches)
    if n < MIN_SAMPLE_SIZE:
        raise InsufficientData(f"{n} correspondences < sample size {MIN_SAMPLE_SIZE}")
    refine_cfg = cfg.resolved_refine()
    timing = _Timing()
    t_start = time.perf_counter()
    p1, p2 = matches.p1, matches.p2
    p1h, p2h = homogenize(p1), homogenize(p2)
    rng = np.random.default_rng(cfg.resolved_sampler().rng_seed)

    best = ModelHypothesis.zero(cfg.model_kind)
    best_score = -1.0

    def total_scores(m: np.ndarray) -> np.ndarray:
        """MSAC totals of one (3, 3) model or a (k, 3, 3) stack."""
        return msac_score(sampson_sq_arrays(m, p1h, p2h), cfg.msac_threshold).sum(axis=-1)

    schedule = prosac_schedule(quality, cfg.total_iterations, MIN_SAMPLE_SIZE, rng)
    per_slice = max(1, _SCORE_SLICE_CELLS // n)
    for _ in range(cfg.batches):
        with timing.section("sampling"):
            rows = np.stack(list(islice(schedule, cfg.batch_size)))
        with timing.section("solving"):
            models = _solve_batch(rows, p1, p2, cfg.model_kind)
        if not len(models):
            continue
        with timing.section("scoring"):
            scores = np.concatenate(
                [total_scores(models[i : i + per_slice]) for i in range(0, len(models), per_slice)]
            )
        for model, score in zip(models, scores.tolist()):
            if score <= best_score:
                continue
            best, best_score = ModelHypothesis(model, cfg.model_kind, "minimal"), score
            # local optimization on the new best model's inlier set
            with timing.section("refinement"):
                residuals = sampson_sq_arrays(best.m, p1h, p2h)
                weights = (residuals < cfg.msac_threshold).astype(np.float64)
                try:
                    refined = _lm_refine_arrays(
                        best, p1h, p2h, weights, refine_cfg, "truncated",
                        cfg.msac_threshold, refine_cfg.intermediate_iterations,
                    )
                except REFINE_ERRORS:
                    refined = None
            if refined is not None:
                with timing.section("scoring"):
                    refined_score = float(total_scores(refined.m))
                if refined_score > best_score:
                    best, best_score = refined, refined_score

    with timing.section("refinement"):
        best = _final_inlier_refine(best, p1h, p2h, cfg.msac_threshold, refine_cfg)
    probs = _result_probs(best, p1h, p2h, cfg.msac_threshold, n)
    total = time.perf_counter() - t_start
    return EstimationResult(best, probs, [best_score], timing.breakdown(total))
