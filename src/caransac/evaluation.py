"""Pose-error metrics and multi-method benchmark aggregation.

Every method runs the same iteration budget with the same per-pair seeds.
Per-pair errors are the maximum of rotation and translation angle in
degrees; failures count at the 180-degree clamp. AUC at a threshold is the
mean of max(0, 1 - err/threshold) over pairs (x100); MAP at a threshold is
the under-threshold fraction (x100).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .engine import (
    EstimationResult,
    ca_ransac,
    lm_lo_baseline,
    make_config,
    msac_ransac_baseline,
)
from .geometry import PoseUndecidable
from .neural import MlpBundle
from .refinement import RefineUnderdetermined
from .sampling import InsufficientData
from .training import SyntheticPair, engine_inputs, model_pose_error

FAILURE_ERROR_DEG = 180.0

#: (pair, budget, seed) -> EstimationResult
MethodFn = Callable[[SyntheticPair, tuple[int, int], int], EstimationResult]


@dataclass
class MetricReport:
    auc5: float
    auc1: float
    map20: float
    median_deg: float
    avg_deg: float
    per_pair_errors: list[float]
    timing: dict[str, float] = field(default_factory=dict)


def auc_at(errors_deg: Sequence[float], threshold_deg: float) -> float:
    """Mean of max(0, 1 - err/threshold) over pairs, as a percentage."""
    errors = np.asarray(errors_deg, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    if threshold_deg <= 0:
        raise ValueError("threshold must be positive")
    return float(np.mean(np.maximum(0.0, 1.0 - errors / threshold_deg)) * 100.0)


def map_at(errors_deg: Sequence[float], threshold_deg: float) -> float:
    """Fraction of pairs below the threshold, as a percentage."""
    errors = np.asarray(errors_deg, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    if threshold_deg <= 0:
        raise ValueError("threshold must be positive")
    return float(np.mean(errors < threshold_deg) * 100.0)


def pair_seed(base_seed: int, pair_index: int) -> int:
    return (base_seed * 100_003 + pair_index * 7_919) % (2**63 - 1)


def benchmark(
    methods: Mapping[str, MethodFn],
    dataset: Sequence[SyntheticPair],
    budget: tuple[int, int],
    seeds: Sequence[int],
) -> dict[str, MetricReport]:
    """Run every method over every (pair, seed) combination and aggregate.

    Seeds are derived per pair and shared across methods so the comparison
    is paired. A method failure on a pair scores the 180-degree clamp.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if not seeds:
        raise ValueError("need at least one seed")
    reports: dict[str, MetricReport] = {}
    for name, fn in methods.items():
        errors: list[float] = []
        timing: dict[str, float] = defaultdict(float)
        for base in seeds:
            for idx, pair in enumerate(dataset):
                seed = pair_seed(base, idx)
                try:
                    result = fn(pair, budget, seed)
                    for key, value in result.timing_breakdown.items():
                        timing[key] += value
                    if result.model.is_zero:
                        err = FAILURE_ERROR_DEG
                    else:
                        err = min(model_pose_error(result.model, pair), FAILURE_ERROR_DEG)
                except (InsufficientData, RefineUnderdetermined, PoseUndecidable, np.linalg.LinAlgError):
                    err = FAILURE_ERROR_DEG
                errors.append(err)
        arr = np.asarray(errors)
        reports[name] = MetricReport(
            auc5=auc_at(arr, 5.0),
            auc1=auc_at(arr, 1.0),
            map20=map_at(arr, 20.0),
            median_deg=float(np.median(arr)),
            avg_deg=float(np.mean(arr)),
            per_pair_errors=errors,
            timing=dict(timing),
        )
    return reports


# ---------------------------------------------------------------------------
# method adapters


def make_ca_method(
    bundle: MlpBundle,
    model_kind: str,
    threshold_px: float = 1.5,
    consensus_update: bool = True,
) -> MethodFn:
    def run(pair: SyntheticPair, budget: tuple[int, int], seed: int) -> EstimationResult:
        data, threshold = engine_inputs(pair, model_kind, threshold_px)
        cfg = make_config(model_kind, threshold, budget, seed, consensus_update)
        return ca_ransac(data, bundle, cfg)

    return run


def make_msac_method(model_kind: str, threshold_px: float = 1.5) -> MethodFn:
    def run(pair: SyntheticPair, budget: tuple[int, int], seed: int) -> EstimationResult:
        data, threshold = engine_inputs(pair, model_kind, threshold_px)
        return msac_ransac_baseline(data, make_config(model_kind, threshold, budget, seed))

    return run


def make_lmlo_method(model_kind: str, threshold_px: float = 1.5) -> MethodFn:
    def run(pair: SyntheticPair, budget: tuple[int, int], seed: int) -> EstimationResult:
        data, threshold = engine_inputs(pair, model_kind, threshold_px)
        # matcher side information is an SNN-like ratio: lower means better
        quality = 1.0 - data.side
        return lm_lo_baseline(data, quality, make_config(model_kind, threshold, budget, seed))

    return run


def learned_runtime_share(timing: Mapping[str, float]) -> float:
    """Fraction of the total runtime spent in the learned components."""
    from .engine import LEARNED_COMPONENTS

    total = timing.get("total", 0.0)
    if total <= 0:
        return 0.0
    return sum(timing.get(name, 0.0) for name in LEARNED_COMPONENTS) / total
