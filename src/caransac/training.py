"""Losses, synthetic epipolar data, and end-to-end training of the state networks.

The loss of an estimation batch reads that batch's ``engine.BatchRecord``: the
mean binary cross-entropy of its decoded inlier probabilities against
ground-truth labels, plus a clamped pose error of its refined model; batch
losses are aggregated with exponential weights favoring the last batch.
Cross-entropy gradients flow through the decoder, state transformer, and state
initializer (the attention operator is a constant); only ``pair_gradients``
records the forward tape they need, so validation runs untaped. The refinement
power alpha is trained by a central finite difference on the final refinement
only, re-run from the last record's selected model and probabilities; the
probabilities entering the refinement carry no gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import (
    DEFAULT_THRESHOLD_PX,
    REFINE_DEFAULTS,
    BatchRecord,
    EngineConfig,
    ca_ransac,
    engine_inputs,
    essential_threshold,
)
from .geometry import (
    ESSENTIAL,
    FUNDAMENTAL,
    CameraIntrinsics,
    Matches,
    ModelHypothesis,
    PoseUndecidable,
    RelativePose,
    decompose_essential_arrays,
    f_to_e_upgrade,
    fundamental_from_pose,
    homogenize,
    normalize_matches,
    pose_error,
    rodrigues,
    sampson_sq_arrays,
)
from .neural import BundleGrads, ForwardTape, MlpBundle, backward
from .refinement import REFINE_ERRORS, refine_alpha_arrays


# the fixed training recipe
EPSILON = 0.1              # exponential batch-weight decay
POSE_WEIGHT = 1.0 / 60.0   # scales pose degrees against cross-entropy
POSE_CLAMP_DEG = 30.0
MOMENTUM = 0.9
GRAD_CLIP = 1.0
VAL_FRACTION = 0.1         # share of the dataset held out when no val set is given
ALPHA_FD_STEP = 1e-2

# synthetic image size and the Sampson distance that labels a match an inlier
IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480
INLIER_LABEL_PX = 1.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1
    learning_rate: float = 1e-3
    seed: int = 0
    model_kind: str = ESSENTIAL
    batches: int = 4
    batch_size: int = 256
    pairs_per_update: int = 4
    consensus_update: bool = True

    def __post_init__(self):
        if self.pairs_per_update < 1:
            raise ValueError("pairs_per_update must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be finite and positive")


@dataclass(frozen=True)
class PairSpec:
    """Parameters of one synthetic image pair."""

    n: int = 500
    inlier_rate: float = 0.5
    noise_sigma_px: float = 0.5
    side_info_overlap: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.inlier_rate <= 1.0):
            raise ValueError("inlier_rate must be in (0, 1]")
        if not (math.isfinite(self.noise_sigma_px) and self.noise_sigma_px >= 0):
            raise ValueError("noise must be finite and nonnegative")
        if not (0.0 <= self.side_info_overlap <= 1.0):
            raise ValueError("side_info_overlap must be in [0, 1]")
        if self.n < 8:
            raise ValueError("need at least 8 correspondences")


@dataclass
class SyntheticPair:
    """Matches (labeled when generated) with ground truth pose and intrinsics."""

    matches: Matches
    pose: RelativePose
    k1: CameraIntrinsics
    k2: CameraIntrinsics
    name: str = "pair"


# ---------------------------------------------------------------------------
# losses


def loss_inlier(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of predicted inlier probabilities."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    l = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(l * np.log(p) + (1.0 - l) * np.log(1.0 - p))))


def loss_inlier_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(loss_inlier)/d(probs)."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    l = np.asarray(labels, dtype=np.float64)
    return (p - l) / (p * (1.0 - p)) / p.shape[0]


def recover_pose(
    model: ModelHypothesis,
    matches: Matches,
    k1: CameraIntrinsics,
    k2: CameraIntrinsics,
    threshold_px: float = DEFAULT_THRESHOLD_PX,
) -> RelativePose:
    """Relative pose of a two-view model estimated on pixel matches.

    Fundamental estimates are upgraded with the calibration first.
    Cheirality voting runs over the model's own inliers in normalized
    coordinates (all points if the inlier set is empty). Raises
    PoseUndecidable for the zero model of either kind, which carries no
    pose, and when no candidate pose is geometrically viable.
    """
    if model.is_zero:
        raise PoseUndecidable("zero model carries no pose")
    e = f_to_e_upgrade(model, k1, k2) if model.kind == FUNDAMENTAL else model
    normalized = normalize_matches(matches, k1, k2)
    p1n, p2n = normalized.p1, normalized.p2
    thr = essential_threshold(threshold_px, k1, k2)
    mask = sampson_sq_arrays(e.m, homogenize(p1n), homogenize(p2n)) < thr
    if not mask.any():
        mask = np.ones(len(mask), dtype=bool)
    return decompose_essential_arrays(e.m, p1n[mask], p2n[mask])


def model_pose_error(model: ModelHypothesis, pair: SyntheticPair) -> float:
    """Pose error in degrees of a two-view model against a pair's ground truth.

    The pose comes from :func:`recover_pose` with the ground-truth
    calibration; a zero model raises PoseUndecidable.
    """
    return pose_error(recover_pose(model, pair.matches, pair.k1, pair.k2), pair.pose)


def clamped_pose_error(model: ModelHypothesis, pair: SyntheticPair, clamp_deg: float) -> float:
    """Pose error of a model estimate, capped at ``clamp_deg``; the zero
    model and undecidable poses score the cap."""
    try:
        return min(model_pose_error(model, pair), clamp_deg)
    except PoseUndecidable:
        return clamp_deg


def batch_weights(q_total: int) -> np.ndarray:
    """Exponential weights of ``q_total`` batch losses, 1 for the last batch."""
    return np.array([(1.0 - EPSILON) ** (q_total - q) for q in range(1, q_total + 1)])


def aggregate_loss(per_batch_losses: Sequence[tuple[float, float]]) -> float:
    """Exponentially weighted sum over batches of (cross-entropy, pose) losses."""
    if not per_batch_losses:
        raise ValueError("need at least one batch loss")
    total = 0.0
    for w, (l_inl, l_pose) in zip(batch_weights(len(per_batch_losses)), per_batch_losses):
        total += w * (l_inl + POSE_WEIGHT * l_pose)
    return float(total)


# ---------------------------------------------------------------------------
# synthetic data


def _random_pose(rng: np.random.Generator, mean_depth: float) -> tuple[RelativePose, np.ndarray]:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = math.radians(rng.uniform(5.0, 45.0))
    rotation = rodrigues(axis * angle)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    # generous baselines keep translation direction well conditioned
    baseline = rng.uniform(0.15, 0.45) * mean_depth
    return RelativePose(rotation, direction), baseline * direction


def _side_info(rng: np.random.Generator, labels: np.ndarray, overlap: float) -> np.ndarray:
    """Matcher-quality scalars: inliers skew low, outliers high.

    ``overlap`` in [0, 1] widens the two supports: at 0 they are disjoint
    (linearly separable at 0.5), at 1 both span [0, 1].
    """
    n = labels.shape[0]
    out = np.empty(n)
    n_in = int(labels.sum())
    hi = 0.5 * (1.0 + overlap)
    lo = 0.5 * (1.0 - overlap)
    out[labels] = rng.beta(2.0, 3.0, size=n_in) * hi
    out[~labels] = lo + rng.beta(3.0, 2.0, size=n - n_in) * (1.0 - lo)
    return np.clip(out, 0.0, 1.0)


def generate_synthetic(spec: PairSpec) -> SyntheticPair:
    """Random two-view scene: frustum-consistent 3D points, noisy inlier
    projections, uniform outliers, beta-distributed side information, and
    labels recomputed from the squared-Sampson rule against the true model
    (so near-threshold points may be relabeled)."""
    rng = np.random.default_rng(spec.seed)
    fx1 = rng.uniform(520.0, 680.0)
    fx2 = rng.uniform(520.0, 680.0)
    k1 = CameraIntrinsics(fx1, fx1 * rng.uniform(0.97, 1.03), IMAGE_WIDTH / 2.0, IMAGE_HEIGHT / 2.0)
    k2 = CameraIntrinsics(fx2, fx2 * rng.uniform(0.97, 1.03), IMAGE_WIDTH / 2.0, IMAGE_HEIGHT / 2.0)

    depth_lo, depth_hi = 4.0, 8.0
    n_inl = int(round(spec.n * spec.inlier_rate))
    n_out = spec.n - n_inl

    pose = None
    pts1 = pts2 = None
    for _ in range(50):  # resample the pose if the view overlap is too small
        cand, t_vec = _random_pose(rng, 0.5 * (depth_lo + depth_hi))
        collected1, collected2 = [], []
        attempts = 0
        while len(collected1) < n_inl and attempts < 40 * max(n_inl, 1):
            attempts += 1
            px = rng.uniform(0.0, IMAGE_WIDTH)
            py = rng.uniform(0.0, IMAGE_HEIGHT)
            z = rng.uniform(depth_lo, depth_hi)
            x1 = np.array([(px - k1.cx) / k1.fx * z, (py - k1.cy) / k1.fy * z, z])
            x2 = cand.rotation @ x1 + t_vec
            if x2[2] <= 0.1:
                continue
            u2 = x2[0] / x2[2] * k2.fx + k2.cx
            v2 = x2[1] / x2[2] * k2.fy + k2.cy
            if not (0.0 <= u2 <= IMAGE_WIDTH and 0.0 <= v2 <= IMAGE_HEIGHT):
                continue
            collected1.append([px, py])
            collected2.append([u2, v2])
        if len(collected1) >= n_inl:
            pose = cand
            pts1 = np.array(collected1) if n_inl else np.zeros((0, 2))
            pts2 = np.array(collected2) if n_inl else np.zeros((0, 2))
            break
    if pose is None:
        raise ValueError("could not realize the requested pair geometry")

    def outliers() -> np.ndarray:
        return np.column_stack(
            [rng.uniform(0, IMAGE_WIDTH, n_out), rng.uniform(0, IMAGE_HEIGHT, n_out)]
        )

    noise1 = rng.normal(scale=spec.noise_sigma_px, size=(n_inl, 2)) if spec.noise_sigma_px else 0.0
    noise2 = rng.normal(scale=spec.noise_sigma_px, size=(n_inl, 2)) if spec.noise_sigma_px else 0.0
    p1 = np.vstack([pts1 + noise1, outliers()])
    p2 = np.vstack([pts2 + noise2, outliers()])
    planted = np.zeros(spec.n, dtype=bool)
    planted[:n_inl] = True
    side = _side_info(rng, planted, spec.side_info_overlap)

    perm = rng.permutation(spec.n)
    p1, p2, side = p1[perm], p2[perm], side[perm]

    f_gt = fundamental_from_pose(pose, k1, k2)
    labels = sampson_sq_arrays(f_gt.m, homogenize(p1), homogenize(p2)) < INLIER_LABEL_PX**2

    return SyntheticPair(Matches(p1, p2, side, labels), pose, k1, k2, name=f"pair_{spec.seed:06d}")


def pair_labels(pair: SyntheticPair) -> np.ndarray:
    """Ground-truth inlier labels; raises ValueError for an unlabeled pair."""
    if pair.matches.labels is None:
        raise ValueError(f"pair {pair.name} has no ground-truth labels")
    return pair.matches.labels


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    bundle: MlpBundle
    history: list[dict]


def _pair_seed(base: int, epoch: int, index: int) -> int:
    return (base * 1_000_003 + epoch * 10_007 + index * 101) % (2**63 - 1)


def pair_forward(
    bundle: MlpBundle, pair: SyntheticPair, cfg: TrainConfig, seed: int, tape: ForwardTape | None = None
) -> tuple[float, list[tuple[float, float]], list[BatchRecord], Matches, EngineConfig]:
    """Run the consensus engine on one pair and compute its per-batch losses.

    Returns (aggregate loss, per-batch losses, the run's batch records,
    engine input, engine config). A ``tape`` records the forward pass for
    ``neural.backward``.
    """
    data, engine_cfg = engine_inputs(
        pair.matches, cfg.model_kind, DEFAULT_THRESHOLD_PX, (pair.k1, pair.k2),
        (cfg.batches, cfg.batch_size), seed, cfg.consensus_update,
    )
    batches = ca_ransac(data, bundle, engine_cfg, tape).batches
    labels = pair_labels(pair)
    per_batch = [
        (loss_inlier(b.probs, labels), clamped_pose_error(b.model, pair, POSE_CLAMP_DEG))
        for b in batches
    ]
    return aggregate_loss(per_batch), per_batch, batches, data, engine_cfg


def _alpha_gradient(
    bundle: MlpBundle,
    batches: list[BatchRecord],
    data: Matches,
    pair: SyntheticPair,
    engine_cfg: EngineConfig,
) -> float:
    """Central finite difference of the final pose loss w.r.t. alpha.

    Only the last refinement is re-run, with its cap; the probabilities are
    constants.
    Both refinements of the zero model raise, so its gradient is 0.0.
    """
    h = ALPHA_FD_STEP
    p1h, p2h = homogenize(data.p1), homogenize(data.p2)
    losses = []
    for a in (bundle.alpha + h, bundle.alpha - h):
        try:
            refined = refine_alpha_arrays(
                batches[-1].selected, p1h, p2h, batches[-1].probs, a,
                REFINE_DEFAULTS, engine_cfg.msac_threshold, REFINE_DEFAULTS.max_iterations,
            )
            losses.append(clamped_pose_error(refined, pair, POSE_CLAMP_DEG))
        except REFINE_ERRORS:
            losses.append(POSE_CLAMP_DEG)
    return POSE_WEIGHT * (losses[0] - losses[1]) / (2.0 * h)


def _require_float64(bundle: MlpBundle) -> None:
    # gradients and momentum updates run at full precision; a float32 bundle
    # is for inference only
    if bundle.dtype != np.float64:
        raise ValueError(f"training needs a float64 bundle, got {bundle.dtype}")


def pair_gradients(
    bundle: MlpBundle, pair: SyntheticPair, cfg: TrainConfig, seed: int
) -> tuple[float, BundleGrads]:
    """Loss and parameter gradients for one pair (cross-entropy path + alpha).

    Raises ValueError unless ``bundle`` is float64.
    """
    _require_float64(bundle)
    tape = ForwardTape()
    total, per_batch, batches, data, engine_cfg = pair_forward(bundle, pair, cfg, seed, tape)
    labels = pair_labels(pair)
    weights = batch_weights(len(per_batch))
    prob_grads = [w * loss_inlier_grad(b.probs, labels) for w, b in zip(weights, batches)]
    grads = backward(bundle, tape, prob_grads)
    grads.alpha = _alpha_gradient(bundle, batches, data, pair, engine_cfg)
    return total, grads


class _Momentum:
    """Plain first-order updates with momentum and gradient-norm clipping."""

    def __init__(self, bundle: MlpBundle):
        self.vel = np.zeros_like(bundle.params)
        self.vel_alpha = 0.0

    def step(self, bundle: MlpBundle, grads: BundleGrads, lr: float) -> None:
        # clip the network gradient vector and alpha separately, so a large
        # cross-entropy gradient cannot drown the scalar's update
        alpha_grad = grads.alpha
        grads.alpha = 0.0
        norm = float(np.linalg.norm(grads.flat()))
        if norm > GRAD_CLIP:
            grads.vec *= GRAD_CLIP / norm
        alpha_grad = float(np.clip(alpha_grad, -GRAD_CLIP, GRAD_CLIP))
        self.vel = MOMENTUM * self.vel - lr * grads.vec
        bundle.params += self.vel
        self.vel_alpha = MOMENTUM * self.vel_alpha - lr * alpha_grad
        bundle.alpha = max(bundle.alpha + self.vel_alpha, 1e-3)


def evaluate_loss(bundle: MlpBundle, pairs: Sequence[SyntheticPair], cfg: TrainConfig) -> float:
    """Mean aggregate loss under fixed per-pair seeds (comparable across epochs)."""
    total = 0.0
    for i, pair in enumerate(pairs):
        total += pair_forward(bundle, pair, cfg, _pair_seed(cfg.seed + 7, 0, i))[0]
    return total / max(len(pairs), 1)


def train(
    dataset: Sequence[SyntheticPair],
    cfg: TrainConfig,
    val: Sequence[SyntheticPair] | None = None,
    log: Callable[[str], None] | None = None,
    initial: MlpBundle | None = None,
) -> TrainResult:
    """End-to-end training over the estimation engine.

    Returns the bundle with the best validation loss seen at any epoch end.
    ``initial`` warm-starts from an existing bundle (fine-tuning); otherwise
    parameters are freshly initialized from the config seed; it must be
    float64 (ValueError otherwise). Aborts with a diagnostic if the loss
    diverges to NaN.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    if initial is not None:
        _require_float64(initial)
    dataset = list(dataset)
    if val is None:
        n_val = max(1, int(round(len(dataset) * VAL_FRACTION))) if len(dataset) > 1 else 0
        val = dataset[len(dataset) - n_val :]
        dataset = dataset[: len(dataset) - n_val] or list(val)
    rng = np.random.default_rng(cfg.seed)
    bundle = initial.copy() if initial is not None else MlpBundle.initialize(cfg.seed)
    optimizer = _Momentum(bundle)
    history: list[dict] = []
    best_val = math.inf
    best_bundle = bundle.copy()

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.pairs_per_update):
            chunk = order[start : start + cfg.pairs_per_update]
            grads = BundleGrads(np.zeros_like(bundle.params))
            chunk_loss = 0.0
            for idx in chunk:
                loss, pair_grads = pair_gradients(
                    bundle, dataset[int(idx)], cfg, _pair_seed(cfg.seed, epoch, int(idx))
                )
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged: non-finite loss on pair {dataset[int(idx)].name}"
                    )
                chunk_loss += loss
                grads.vec += pair_grads.vec
                grads.alpha += pair_grads.alpha
            grads.vec *= 1.0 / len(chunk)
            grads.alpha *= 1.0 / len(chunk)
            optimizer.step(bundle, grads, cfg.learning_rate)
            epoch_loss += chunk_loss
        epoch_loss /= len(dataset)
        val_loss = evaluate_loss(bundle, val, cfg) if val else epoch_loss
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss,
                "val_loss": val_loss,
                "alpha": bundle.alpha,
                "seconds": time.perf_counter() - t0,
            }
        )
        if log is not None:
            log(
                f"epoch {epoch} train_loss {epoch_loss:.6f} val_loss {val_loss:.6f} "
                f"alpha {bundle.alpha:.6f}"
            )
        if val_loss <= best_val:
            best_val = val_loss
            best_bundle = bundle.copy()
    return TrainResult(best_bundle, history)
