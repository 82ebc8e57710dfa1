"""Estimation engines: the consensus-adaptive batched loop and two baselines.

All engines run a fixed budget of batches x batch_size minimal samples with
no early termination, so different estimators are comparable at an identical
iteration count. The consensus-adaptive engine (``ca_ransac``) updates an
n x 128 latent state from the batch score matrix after every batch, decodes
per-correspondence inlier probabilities from it, and uses those both to gate
the next sampling pool and to weight the final robust refinement.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .geometry import (
    ESSENTIAL,
    MIN_SAMPLE_SIZE,
    MODEL_KINDS,
    CameraIntrinsics,
    Matches,
    ModelHypothesis,
    eight_point_batch,
    homogenize,
    normalize_matches,
    sampson_sq_arrays,
)
from .neural import ForwardTape, MlpBundle, StateStepTape, decode_inliers, init_state, state_transform
from .refinement import REFINE_ERRORS, RefineConfig, refine_alpha_arrays, _lm_refine_arrays
from .sampling import InsufficientData, SamplerConfig, build_pool, draw_minimal_batch, prosac_schedule
from .scoring import ConsensusProduct, score_matrix_arrays

DEFAULT_THRESHOLD_PX = 1.5

# the settings no caller changes, shared by every engine run and training
_SAMPLER = SamplerConfig()
REFINE_DEFAULTS = RefineConfig()

TIMING_COMPONENTS = (
    "state_init",
    "state_update",
    "decoder",
    "attention",
    "sampling",
    "solving",
    "scoring",
    "refinement",
    "other",  # the work outside every section
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


@dataclass(frozen=True)
class EngineConfig:
    batches: int = 4
    batch_size: int = 256
    model_kind: str = "fundamental"
    # squared, residual units; also the scale of the final refinement's Cauchy loss
    msac_threshold: float = DEFAULT_THRESHOLD_PX**2
    seed: int = 0  # sampler RNG seed
    consensus_update: bool = True  # disabling freezes the state after initialization

    def __post_init__(self):
        for name in ("batches", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if not (math.isfinite(self.msac_threshold) and self.msac_threshold > 0.0):
            raise ValueError("msac_threshold must be finite and positive")

    @property
    def total_iterations(self) -> int:
        return self.batches * self.batch_size


def engine_inputs(
    matches: Matches,
    model_kind: str,
    threshold_px: float,
    calib: tuple[CameraIntrinsics, CameraIntrinsics] | None,
    budget: tuple[int, int],
    seed: int,
    consensus_update: bool = True,
) -> tuple[Matches, EngineConfig]:
    """The matches and the settings of one engine run from pixel matches.

    ``threshold_px`` is the inlier tolerance in pixels; the config holds its
    square in the kind's native units. The essential kind needs the
    calibration: its matches are normalized by the intrinsics and its
    threshold is scaled by the focal lengths. ``budget`` is (batches,
    batch_size) and ``seed`` the sampler seed. Raises ValueError for a
    threshold that is not finite and positive, and for an essential run
    without a calibration.
    """
    if not (math.isfinite(threshold_px) and threshold_px > 0.0):
        raise ValueError(f"threshold_px must be finite and positive, got {threshold_px!r}")
    if model_kind == ESSENTIAL:
        if calib is None:
            raise ValueError("essential estimation needs a calibration")
        matches = normalize_matches(matches, *calib)
        threshold = essential_threshold(threshold_px, *calib)
    else:
        threshold = threshold_px**2
    batches, batch_size = budget
    cfg = EngineConfig(batches, batch_size, model_kind, threshold, seed, consensus_update)
    return matches, cfg


class BatchRecord(NamedTuple):
    """One batch: the best consensus total so far (0.0 while no sample gave a
    valid model) and the model held after the batch; only ``ca_ransac`` fills
    the top-consensus model before its alpha refinement and the decoded probabilities."""

    best_score: float
    model: ModelHypothesis
    selected: ModelHypothesis | None = None
    probs: np.ndarray | None = None


@dataclass
class EstimationResult:
    model: ModelHypothesis
    inlier_probs: np.ndarray
    batches: list[BatchRecord]  # one per batch, in order
    timing_breakdown: dict[str, float]


class _Timing:
    """Wall clock per component. Each interval between two marks is billed to
    the innermost open section, or to "other" outside every section, so the
    components sum to the total."""

    def __init__(self):
        self.parts = dict.fromkeys(TIMING_COMPONENTS, 0.0)
        self.open = ["other"]
        self.t_start = self.t_mark = time.perf_counter()

    def _bill(self) -> None:
        now = time.perf_counter()
        self.parts[self.open[-1]] += now - self.t_mark
        self.t_mark = now

    @contextmanager
    def section(self, name: str):
        self._bill()
        self.open.append(name)
        try:
            yield
        finally:
            self._bill()
            self.open.pop()

    def breakdown(self) -> dict[str, float]:
        self._bill()
        return {**self.parts, "total": self.t_mark - self.t_start}


@dataclass
class _TimedConsensus:
    """Wraps the consensus operator so its application is billed to the
    "attention" component inside the enclosing state-update section."""

    op: ConsensusProduct
    timing: _Timing

    def dot(self, y: np.ndarray) -> np.ndarray:
        with self.timing.section("attention"):
            return self.op.dot(y)


class _Setup(NamedTuple):
    p1h: np.ndarray
    p2h: np.ndarray
    rng: np.random.Generator
    timing: _Timing


def _setup(matches: Matches, cfg: EngineConfig) -> _Setup:
    """The start every engine shares: the size check, the timer, homogeneous
    points and the sampler RNG."""
    n = len(matches)
    if n < MIN_SAMPLE_SIZE:
        raise InsufficientData(f"{n} correspondences < sample size {MIN_SAMPLE_SIZE}")
    timing = _Timing()
    # homogeneous points feed every residual evaluation, so they are
    # accounted to scoring
    with timing.section("scoring"):
        p1h, p2h = homogenize(matches.p1), homogenize(matches.p2)
    with timing.section("sampling"):
        rng = np.random.default_rng(cfg.seed)
    return _Setup(p1h, p2h, rng, timing)


def _batches(
    matches: Matches, cfg: EngineConfig, timing: _Timing, draw: Callable[[], np.ndarray]
) -> Iterator[np.ndarray]:
    """Every engine's loop: per batch, ``draw()`` the (k, 8) sample rows, solve them and yield
    the valid models in row order; each draw sees what the consumer did with the last batch."""
    for _ in range(cfg.batches):
        with timing.section("sampling"):
            rows = draw()
        with timing.section("solving"):
            models, valid = eight_point_batch(matches.p1[rows], matches.p2[rows], cfg.model_kind)
            solved = models[valid]
        yield solved


# ---------------------------------------------------------------------------
# local optimization: LM on a model's Sampson inliers


def _inlier_lm(
    best: ModelHypothesis,
    p1h: np.ndarray,
    p2h: np.ndarray,
    threshold: float,
    cfg: RefineConfig,
    loss: str,
    iterations: int,
) -> ModelHypothesis:
    """LM of a model on its Sampson inliers, with the threshold as the loss
    scale; ``best`` itself when the refinement raises one of ``REFINE_ERRORS``,
    which covers the zero model and any model with fewer inliers than its
    degrees of freedom."""
    weights = (sampson_sq_arrays(best.m, p1h, p2h) < threshold).astype(np.float64)
    try:
        return _lm_refine_arrays(best, p1h, p2h, weights, cfg, loss, threshold, iterations)
    except REFINE_ERRORS:
        return best


def local_optimize_topk_arrays(
    models: np.ndarray,
    scores: np.ndarray,
    p1h: np.ndarray,
    p2h: np.ndarray,
    threshold: float,
    cfg: RefineConfig,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Refine the k highest-consensus models by ``_inlier_lm`` with the
    truncated loss; rescore only their columns.

    ``models`` is the (m, 3, 3) stack of ``kind`` models behind the (n, m)
    ``scores``. Returns (models, scores, refined column indices); inputs are
    not mutated. A model whose refinement fails, the zero model included,
    keeps its column as given.
    """
    totals = scores.sum(axis=0)
    k = min(cfg.top_k, len(models))
    # ties broken by ascending column index
    order = np.lexsort((np.arange(len(models)), -totals))[:k]
    models = models.copy()
    scores = scores.copy()
    touched: list[int] = []
    for j in order:
        model = ModelHypothesis(models[j], kind)
        refined = _inlier_lm(model, p1h, p2h, threshold, cfg, "truncated", cfg.intermediate_iterations)
        if refined is model:
            continue
        models[j] = refined.m
        scores[:, j] = score_matrix_arrays(refined.m[None], p1h, p2h, threshold)[:, 0]
        touched.append(int(j))
    return models, scores, touched


def ca_ransac(
    matches: Matches,
    bundle: MlpBundle,
    cfg: EngineConfig,
    tape: ForwardTape | None = None,
) -> EstimationResult:
    """Consensus-adaptive batched estimation.

    Per batch: build the probability-gated pool, draw and solve minimal
    samples, append the best model so far, score everything, locally optimize
    the top-k columns, update the latent state through the consensus
    attention, re-decode the probabilities, select the top-consensus model,
    and refine it weighted by the decoded probabilities to the power alpha.
    That refinement stops at ``intermediate_iterations`` in every batch but
    the last, which gets ``max_iterations``. Each batch leaves one
    ``BatchRecord`` with all four fields; the last one's model and
    probabilities are the result's.

    The latent state is initialized from ``matches.side``. The learned
    blocks and the attention product run in ``bundle.dtype`` (float32 or
    float64); scores, probabilities and models are float64 either way.
    Passing a ``tape`` records the activations that ``neural.backward``
    needs; it does not change the estimate.

    Raises InsufficientData for fewer than 8 correspondences. A refinement
    that raises one of ``REFINE_ERRORS`` leaves its model unrefined.
    """
    p1h, p2h, rng, timing = _setup(matches, cfg)

    with timing.section("state_init"):
        f = init_state(bundle, matches.side, tape.init if tape is not None else None)
    with timing.section("decoder"):
        probs = decode_inliers(bundle, f)

    best = ModelHypothesis.zero(cfg.model_kind)
    batches: list[BatchRecord] = []

    def draw() -> np.ndarray:
        return draw_minimal_batch(build_pool(probs, _SAMPLER), cfg.batch_size, rng)

    for batch, solved in enumerate(_batches(matches, cfg, timing, draw)):
        with timing.section("scoring"):
            # the batch's models, then the best so far as the last column;
            # the zero model before the first find gets its column of zeros
            # here, so the batch's columns come from GEMMs on its rows alone
            models = np.concatenate([solved, best.m[None]])
            live = solved if best.is_zero else models
            scores = score_matrix_arrays(live, p1h, p2h, cfg.msac_threshold)
            if best.is_zero:
                scores = np.concatenate([scores, np.zeros((len(scores), 1))], axis=1)
        with timing.section("refinement"):
            # the inlier masks and column rescoring inside the local
            # optimization are cheap relative to the LM iterations and are
            # accounted to refinement
            models, scores, _ = local_optimize_topk_arrays(
                models, scores, p1h, p2h, cfg.msac_threshold, REFINE_DEFAULTS, cfg.model_kind
            )

        step_tape = StateStepTape(attention=None) if tape is not None else None
        if cfg.consensus_update:
            with timing.section("state_update"):
                # the attention runs in the state's precision; the total
                # and the model selection below keep the float64 scores
                op = ConsensusProduct(scores.astype(f.dtype, copy=False), float(scores.sum()))
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
            # column j holds the refined, minimal or best-so-far matrix
            selected = ModelHypothesis(models[j], cfg.model_kind)

        with timing.section("refinement"):
            # an earlier batch's refinement only seeds the next batch's best
            # column, so it gets the local optimization's cap; the last one
            # is the estimate and gets the final cap
            last = batch == cfg.batches - 1
            iterations = REFINE_DEFAULTS.max_iterations if last else REFINE_DEFAULTS.intermediate_iterations
            try:
                best = refine_alpha_arrays(
                    selected, p1h, p2h, probs, bundle.alpha, REFINE_DEFAULTS, cfg.msac_threshold, iterations
                )
            except REFINE_ERRORS:
                best = selected
        batches.append(BatchRecord(float(totals[j]), best, selected, probs))

    return EstimationResult(best, probs, batches, timing.breakdown())


# ---------------------------------------------------------------------------
# classical baselines (identical iteration budgets)


def _result_probs(best: ModelHypothesis, p1h, p2h, threshold: float) -> np.ndarray:
    if best.is_zero:
        return np.full(p1h.shape[0], 0.5)
    scores = score_matrix_arrays(best.m[None], p1h, p2h, threshold)[:, 0]
    return np.clip(scores, 1e-6, 1.0 - 1e-6)


def _baseline(
    matches: Matches,
    cfg: EngineConfig,
    run: _Setup,
    draw: Callable[[], np.ndarray],
    local_optimize: Callable[[ModelHypothesis, float], tuple[ModelHypothesis, float]] | None,
) -> EstimationResult:
    """Both classical baselines: ``_batches`` over the sample rows of ``draw``.

    The valid models of each batch are scored in one ``score_matrix_arrays``
    call, then walked in sample order, keeping each one that scores strictly
    above the best so far and passing every new best to ``local_optimize``
    when one is given. The strict walk keeps the lowest index of a batch
    maximum, as an argmax would. The final model is refined on its inliers.
    Each batch leaves a ``BatchRecord`` of the best-so-far total, 0.0 while no
    sample gave a valid model, and the best model before the final refinement.
    """
    p1h, p2h, _, timing = run
    best = ModelHypothesis.zero(cfg.model_kind)
    best_score = -1.0  # below any total, so a valid model scoring 0 is still kept
    batches: list[BatchRecord] = []
    for models in _batches(matches, cfg, timing, draw):
        if len(models):
            with timing.section("scoring"):
                scores = score_matrix_arrays(models, p1h, p2h, cfg.msac_threshold).sum(axis=0)
            for model, score in zip(models, scores.tolist()):
                if score <= best_score:
                    continue
                best, best_score = ModelHypothesis(model, cfg.model_kind), score
                if local_optimize is not None:
                    best, best_score = local_optimize(best, best_score)
        batches.append(BatchRecord(max(best_score, 0.0), best))

    with timing.section("refinement"):
        best = _inlier_lm(
            best, p1h, p2h, cfg.msac_threshold, REFINE_DEFAULTS, "cauchy", REFINE_DEFAULTS.max_iterations
        )
    probs = _result_probs(best, p1h, p2h, cfg.msac_threshold)
    return EstimationResult(best, probs, batches, timing.breakdown())


def msac_ransac_baseline(matches: Matches, cfg: EngineConfig) -> EstimationResult:
    """Uniform sampling, MSAC total-score selection, final robust refinement.

    Raises InsufficientData for fewer than 8 correspondences. A final
    refinement that raises one of ``REFINE_ERRORS`` leaves the model unrefined.
    """
    run = _setup(matches, cfg)
    everything = np.arange(len(matches))
    return _baseline(matches, cfg, run, lambda: draw_minimal_batch(everything, cfg.batch_size, run.rng), None)


def lm_lo_baseline(matches: Matches, cfg: EngineConfig) -> EstimationResult:
    """PROSAC sampling with LM local optimization on every new best model.

    The PROSAC order is ``1 - matches.side``: the matcher side information
    is an SNN-like ratio, so lower is better.

    The PROSAC schedule does not depend on scores, so its iterator is the
    draw. Each batch's valid models are scored in one ``score_matrix_arrays``
    call; the best-model and local optimization decisions then walk them in
    sample order, as a one-sample-at-a-time loop would. The totals can differ
    from scoring each model alone in the last bits, since a GEMM's result
    depends on how many models share it.

    Raises InsufficientData for fewer than 8 correspondences. A refinement
    that raises one of ``REFINE_ERRORS`` leaves its model unrefined.
    """
    run = _setup(matches, cfg)
    p1h, p2h, rng, timing = run

    def local_optimize(best: ModelHypothesis, best_score: float) -> tuple[ModelHypothesis, float]:
        """LM on the new best model's inlier set, kept if it scores higher."""
        with timing.section("refinement"):
            refined = _inlier_lm(
                best, p1h, p2h, cfg.msac_threshold, REFINE_DEFAULTS, "truncated",
                REFINE_DEFAULTS.intermediate_iterations,
            )
        if refined is best:
            return best, best_score
        with timing.section("scoring"):
            refined_scores = score_matrix_arrays(refined.m[None], p1h, p2h, cfg.msac_threshold)
            refined_score = float(refined_scores.sum())
        if refined_score > best_score:
            return refined, refined_score
        return best, best_score

    samples = prosac_schedule(1.0 - matches.side, cfg.total_iterations, cfg.batch_size, rng)
    return _baseline(matches, cfg, run, samples.__next__, local_optimize)
