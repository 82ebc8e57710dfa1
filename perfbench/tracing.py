"""Span tracing around the caransac layer entry points, from outside the package.

``Tracer.install()`` replaces the names the engine, trainer and adapters
imported (``caransac.engine.eight_point_batch`` and so on) with wrappers that
record one span per call: name, start, end, the enclosing span and the op it
belongs to. Counters are taken at the same boundaries. Nothing under ``src/``
is modified; ``uninstall()`` puts every original back.

Spans are recorded only while an op is open (``begin_op`` .. ``end_op``), so
pose-error checks and set-up run untraced.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from caransac import engine, evaluation, refinement, scoring, training
from caransac.refinement import RefineUnderdetermined

# (module, attribute, span name); a name may be bound in several modules
_SPAN_TARGETS = (
    (evaluation, "engine_inputs", "training.engine_inputs"),
    (training, "engine_inputs", "training.engine_inputs"),
    (evaluation, "ca_ransac", "engine.estimate"),
    (evaluation, "msac_ransac_baseline", "engine.estimate"),
    (evaluation, "lm_lo_baseline", "engine.estimate"),
    (training, "ca_ransac", "engine.estimate"),
    (engine, "eight_point_batch", "geometry.eight_point_batch"),
    (engine, "sampson_sq_arrays", "geometry.sampson_sq_arrays"),
    (scoring, "sampson_sq_arrays", "geometry.sampson_sq_arrays"),
    (training, "sampson_sq_arrays", "geometry.sampson_sq_arrays"),
    (engine, "score_matrix_arrays", "scoring.score_matrix_arrays"),
    (scoring.ConsensusProduct, "dot", "scoring.ConsensusProduct.dot"),
    (engine, "init_state", "neural.init_state"),
    (engine, "state_transform", "neural.state_transform"),
    (engine, "decode_inliers", "neural.decode_inliers"),
    (training, "backward", "neural.backward"),
    (engine, "build_pool", "sampling.build_pool"),
    (engine, "draw_minimal_batch", "sampling.draw_minimal_batch"),
    (engine, "_lm_refine_arrays", "refinement.lm"),
    (refinement, "_lm_refine_arrays", "refinement.lm"),
    (engine, "refine_alpha_arrays", "refinement.refine_alpha"),
    (engine, "local_optimize_topk_arrays", "refinement.local_optimize"),
    (training, "refine_alpha_arrays", "training.alpha_fd"),
)


def _count_eight_point(counts, args, out):
    counts["geometry.eight_point_batch.rows"] += args[0].shape[0]
    counts["geometry.eight_point_batch.valid"] += int(out[1].sum())


def _count_score_matrix(counts, args, out):
    counts["scoring.score_matrix_arrays.cells"] += out.size


def _count_pool(counts, args, out):
    probs, cfg = args[0], args[1]
    counts["sampling.pool_size"] += out.size
    counts["sampling.pool_n"] += probs.shape[0]
    # build_pool falls back to the top min_pool points when too few clear the threshold
    counts["sampling.min_pool_fallbacks"] += int((probs > cfg.pool_threshold).sum() < cfg.min_pool)


def _count_lm(counts, args, out):
    weights, cfg = args[3], args[4]
    counts["refinement.lm.points"] += int((weights > cfg.weight_cutoff).sum())


def _count_local_optimize(counts, args, out):
    models, scores_in, cfg = args[0], args[1], args[5]
    scores_out, touched = out[1], out[2]
    counts["refinement.local_optimize.tried"] += min(cfg.top_k, len(models))
    counts["refinement.local_optimize.accepted"] += sum(
        1 for j in touched if scores_out[:, j].sum() > scores_in[:, j].sum()
    )


_COUNTERS = {
    "geometry.eight_point_batch": _count_eight_point,
    "scoring.score_matrix_arrays": _count_score_matrix,
    "sampling.build_pool": _count_pool,
    "refinement.lm": _count_lm,
    "refinement.local_optimize": _count_local_optimize,
}


class Tracer:
    """Records spans and counters for the ops of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent span index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.results: list = []  # engine results seen inside the current op
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if self.op is None:
            yield
            return
        idx = len(self.spans)
        self.spans.append([self.op, name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.spans = []
        self.results = []

    def end_op(self) -> None:
        self.op = None

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except RefineUnderdetermined:
                if self.op is not None:
                    self.counts[name + ".underdetermined"] += 1
                raise
            if self.op is not None:
                self.counts[name + ".calls"] += 1
                if counter is not None:
                    counter(self.counts, args, out)
                if name == "engine.estimate":
                    self.results.append(out)
            return out

        return traced

    def _wrap_schedule(self, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span("sampling.prosac_next"):
                    item = next(inner, None)
                if item is None:
                    return
                yield item

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(owner, attr, self._wrap(getattr(owner, attr), name)) for owner, attr, name in _SPAN_TARGETS]
        targets.append((engine, "prosac_schedule", self._wrap_schedule(engine.prosac_schedule)))
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-op summaries ---------------------------------------------------

    def op_times(self) -> tuple[dict[str, float], float]:
        """Inclusive seconds per span name in the last op, and the summed self
        time of its spans (a span's duration minus that of its children)."""
        child = defaultdict(float)
        inclusive = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_total = sum(end - start - child[i] for i, (_, _, start, end, _) in enumerate(self.spans))
        return dict(inclusive), self_total
