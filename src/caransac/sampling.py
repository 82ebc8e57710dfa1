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


def floyd_batch(high: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """(len(high), k) rows; row i holds k distinct indices from ``range(high[i])``.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM 1987),
    run on every row at once: step s draws one integer per row from
    ``[0, high - k + s]`` and keeps it, or takes ``high - k + s`` itself when
    the row already holds it. That is exactly k ``rng.integers`` calls for
    the whole batch, and each row is a uniformly drawn k-subset. Within a row
    the order is not uniform: a row with ``high == k`` is ``0 .. k-1`` in
    order. Every ``high[i]`` must be at least k.
    """
    high = np.asarray(high, dtype=np.int64)
    picks = np.empty((high.shape[0], k), dtype=np.int64)
    for s in range(k):
        top = high - k + s  # the largest index step s may take
        t = rng.integers(0, top + 1)
        taken = (picks[:, :s] == t[:, None]).any(axis=1)
        picks[:, s] = np.where(taken, top, t)
    return picks


def draw_minimal_batch(pool: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """(batch_size, 8) index rows into ``pool``, each drawn without replacement.

    Rows are independent uniform 8-subsets of the pool, drawn by
    ``floyd_batch`` with 8 random integers per row; the draw is
    deterministic given the generator state.
    """
    pool = np.asarray(pool)
    if pool.size < MIN_SAMPLE_SIZE:
        raise InsufficientData(f"pool of {pool.size} < sample size {MIN_SAMPLE_SIZE}")
    return pool[floyd_batch(np.full(batch_size, pool.size), MIN_SAMPLE_SIZE, rng)]


def prosac_schedule(
    quality: np.ndarray, total_iterations: int, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Progressive sampling: highest-quality points first, converging to uniform.

    Points are ordered by quality descending (ties by lower index). The
    standard growth function (Chum & Matas, PROSAC, CVPR 2005) spends, on
    each hypothesis-set size n*, the number of samples uniform sampling
    would have spent there, so aggregate inclusion frequencies over a full
    budget match uniform sampling. It depends only on the number of points
    and the budget, so it is computed once for the whole budget.

    Each ``next()`` yields the next (batch_size, 8) array of point indices;
    a last batch holds the remainder when ``batch_size`` does not divide
    ``total_iterations``. A sample on the schedule is 7 ``floyd_batch``
    picks from the top n* - 1 points plus the n*-th point (the first sample
    is the top 8); a sample after the schedule is exhausted is 8 picks from
    all points.
    """
    quality = np.asarray(quality, dtype=np.float64)
    n = quality.shape[0]
    m = MIN_SAMPLE_SIZE
    if n < m:
        raise InsufficientData(f"{n} points < sample size {m}")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.argsort(-quality, kind="stable")

    # t_primes[k]: the last sample drawn with n* = m + k. T_m is the expected
    # number of uniform samples drawn entirely from the top m.
    t_cur = float(total_iterations)
    for i in range(m):
        t_cur *= (m - i) / (n - i)
    t_prime = 1.0
    t_primes = [t_prime]
    while t_prime < total_iterations and m + len(t_primes) <= n:
        n_star = m + len(t_primes) - 1
        t_next = t_cur * (n_star + 1) / (n_star + 1 - m)
        t_prime += math.ceil(t_next - t_cur)
        t_cur = t_next
        t_primes.append(t_prime)

    t = np.arange(1, total_iterations + 1)
    # sample t uses the smallest n* whose t_prime reaches it; past the last
    # one the schedule is exhausted (n* = n)
    k = np.searchsorted(np.asarray(t_primes), t, side="left")
    progressive = k < len(t_primes)
    n_star = np.where(progressive, m + k, n)

    for start in range(0, total_iterations, batch_size):
        stop = min(start + batch_size, total_iterations)
        on_schedule = int(progressive[start:stop].sum())  # a prefix of the batch
        head = n_star[start : start + on_schedule]
        rows = np.empty((stop - start, m), dtype=np.int64)
        rows[:on_schedule, : m - 1] = floyd_batch(head - 1, m - 1, rng)
        rows[:on_schedule, m - 1] = head - 1
        rows[on_schedule:] = floyd_batch(n_star[start + on_schedule : stop], m, rng)
        yield order[rows]
