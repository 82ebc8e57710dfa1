"""Probability-gated batched minimal sampling, plus PROSAC ordering.

The batched sampler draws minimal samples uniformly from the pool of
correspondences whose current inlier probability clears a threshold; when
that pool is too small, the best-scoring correspondences are taken instead.
The PROSAC schedule supports the locally-optimized classical baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import MIN_SAMPLE_SIZE


class InsufficientData(Exception):
    """Fewer correspondences than a minimal sample requires."""


@dataclass(frozen=True)
class SamplerConfig:
    """The probability gate of the sampling pool; the engine's seed drives the draws."""

    pool_threshold: float = 0.4
    min_pool: int = 15

    def __post_init__(self):
        if not (0.0 < self.pool_threshold < 1.0):
            raise ValueError("pool_threshold must be in (0, 1)")
        if self.min_pool < MIN_SAMPLE_SIZE:
            raise ValueError("min_pool must be at least the sample size")


def build_pool(probs: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    """Indices with probability above the pool threshold.

    If fewer than ``min_pool`` qualify, the top ``min_pool`` correspondences
    by probability are taken regardless of their absolute value, ties broken
    by lower index. Output is sorted ascending.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    if n < MIN_SAMPLE_SIZE:
        raise InsufficientData(f"{n} correspondences < sample size {MIN_SAMPLE_SIZE}")
    pool = np.flatnonzero(probs > cfg.pool_threshold)
    if pool.size < cfg.min_pool:
        take = min(cfg.min_pool, n)
        # stable argsort on -p: descending probability, ascending index on ties
        order = np.argsort(-probs, kind="stable")
        pool = np.sort(order[:take])
    return pool


def draw_minimal_batch(pool: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """(batch_size, 8) index rows into ``pool``, each drawn without replacement.

    Rows are independent; the draw is deterministic given the generator
    state. Implemented by ranking one uniform key per pool entry per row.
    """
    pool = np.asarray(pool)
    if pool.size < MIN_SAMPLE_SIZE:
        raise InsufficientData(f"pool of {pool.size} < sample size {MIN_SAMPLE_SIZE}")
    keys = rng.random((batch_size, pool.size))
    picks = np.argpartition(keys, MIN_SAMPLE_SIZE - 1, axis=1)[:, :MIN_SAMPLE_SIZE]
    return pool[picks]


def prosac_schedule(
    quality: np.ndarray, total_iterations: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Progressive sampling: highest-quality points first, converging to uniform.

    Points are ordered by quality descending (ties by lower index). The
    standard growth function spends, on each hypothesis-set size, the number
    of samples uniform sampling would have spent there, so aggregate
    inclusion frequencies over a full budget match uniform sampling.
    """
    quality = np.asarray(quality, dtype=np.float64)
    n = quality.shape[0]
    m = MIN_SAMPLE_SIZE
    if n < m:
        raise InsufficientData(f"{n} points < sample size {m}")
    order = np.argsort(-quality, kind="stable")

    # T_m = expected number of uniform samples drawn entirely from the top m.
    t_cur = float(total_iterations)
    for i in range(m):
        t_cur *= (m - i) / (n - i)
    t_prime = 1.0
    n_star = m

    for t in range(1, total_iterations + 1):
        while t > t_prime and n_star < n:
            t_next = t_cur * (n_star + 1) / (n_star + 1 - m)
            t_prime += math.ceil(t_next - t_cur)
            t_cur = t_next
            n_star += 1
        if t <= t_prime:
            if n_star == m:
                yield order[:m].copy()
            else:
                head = rng.choice(n_star - 1, size=m - 1, replace=False)
                yield np.concatenate([order[head], order[n_star - 1 : n_star]])
        else:
            # growth schedule exhausted: uniform over all points
            yield order[rng.choice(n_star, size=m, replace=False)]
