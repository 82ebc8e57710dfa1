#!/usr/bin/env python3
"""Closed-loop benchmark of caransac: one client, one process, BLAS on one thread.

    python3 perfbench/run.py --workload ca-e2k --seed 0 --seconds 38 --trace 0

runs the named workload's op back to back for ``--seconds`` seconds after
set-up, checks every output, prints every metric as ``metric <name> <value>
<unit>`` and ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``). ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs
every op twice, untraced and traced in alternating order, and reports the
per-layer metrics recorded by ``perfbench/tracing.py``.

    python3 perfbench/run.py --make-weights

retrains ``perfbench/weights.txt`` from the fixed recipe in ``make_weights``
and prints its sha256. ``--smoke`` shrinks every workload to a few points so
``perfbench/test_smoke.py`` can check the output format quickly.

The sources are imported from ``src/`` beside this directory and nowhere
else; without them the command exits with code 2 and prints no result.
See ``perfbench/README.md`` for why each workload exists.
"""

import os
import time

T_START = time.perf_counter()  # import time counts towards setup_s

# BLAS is pinned before numpy loads: results differ in the last digits (and
# AUC in the third decimal) between one and two OpenBLAS threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WEIGHTS = HERE / "weights.txt"
TRACE_DIR = ROOT / ".perfbench"  # span files of traced runs
WEIGHTS_SHA256 = "5f1fa91b9bde930cde0d09b711a7a3826e6354ad54256e8e9e7c090f11d79f73"
BUDGET = (4, 256)  # batches x batch size, the paper's fixed budget
SETUP_REPEATS = 3  # set-ups per run, each making a third of the pairs; the median is reported
GUARD_OPS = 16  # accuracy is computed over the first GUARD_OPS ops of the sequence
MODEL_TOL = 1e-9  # unit norm, rank 2 and equal singular values, relative
MAX_MEDIAN_ERR_DEG = 5.0  # an estimation run whose guard ops reach this is not correct


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "ca", "msac", "lmlo" or "train"
    model_kind: str
    n: int
    inlier_rate: float
    pairs: int  # generated pairs; op k runs on pair k % pairs with its own engine seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ca-e2k", "ca", "essential", 2000, 0.3, 24),
        # runs by hand; left out of BENCHMARK.json to fit the time budget (README)
        Workload("msac-f8k", "msac", "fundamental", 8000, 0.5, 12),
        Workload("lmlo-e500", "lmlo", "essential", 500, 0.3, 24),
        Workload("train-e500", "train", "essential", 500, 0.3, 24),
    )
}
SMOKE_N, SMOKE_INLIER_RATE = 64, 0.8  # easy enough for the accuracy guard

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p75": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ENGINE_COMPONENTS = (
    "state_init", "state_update", "decoder", "attention", "sampling", "solving", "scoring", "refinement",
)
PER_LAYER = {
    **{f"engine.{c}_ms": "ms" for c in ENGINE_COMPONENTS},
    "engine.unaccounted_ms": "ms",
    "engine.total_ms": "ms",
    "training.engine_inputs_ms": "ms",
    "training.alpha_fd_ms": "ms",
    "geometry.eight_point_batch.calls": "count",
    "geometry.eight_point_batch.rows": "count",
    "geometry.eight_point_batch.ms": "ms",
    "geometry.eight_point_batch.valid_ratio": "ratio",
    "geometry.sampson_sq_arrays.calls": "count",
    "geometry.sampson_sq_arrays.ms": "ms",
    "scoring.score_matrix_arrays.calls": "count",
    "scoring.score_matrix_arrays.cells": "count",
    "scoring.score_matrix_arrays.ms": "ms",
    "scoring.ConsensusProduct.dot.calls": "count",
    "scoring.ConsensusProduct.dot.ms": "ms",
    "neural.init_state_ms": "ms",
    "neural.state_transform_ms": "ms",
    "neural.decode_inliers_ms": "ms",
    "neural.backward_ms": "ms",
    "sampling.build_pool_ms": "ms",
    "sampling.draw_minimal_batch_ms": "ms",
    "sampling.prosac_next_ms": "ms",
    "sampling.pool_frac": "ratio",
    "sampling.min_pool_fallbacks": "count",
    "refinement.lm.calls": "count",
    "refinement.lm.ms": "ms",
    "refinement.lm.points": "count",
    "refinement.refine_alpha.calls": "count",
    "refinement.refine_alpha.ms": "ms",
    "refinement.local_optimize.calls": "count",
    "refinement.local_optimize.ms": "ms",
    "refinement.local_optimize.accepted_ratio": "ratio",
    "refinement.underdetermined": "count",
    "trace.latency_ms_p50": "ms",
    "trace.untraced_latency_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.self_ms": "ms",
    "trace.ops": "count",
}
# per-layer span name -> metric name for inclusive milliseconds per op
SPAN_MS = {
    "training.engine_inputs": "training.engine_inputs_ms",
    "training.alpha_fd": "training.alpha_fd_ms",
    "geometry.eight_point_batch": "geometry.eight_point_batch.ms",
    "geometry.sampson_sq_arrays": "geometry.sampson_sq_arrays.ms",
    "scoring.score_matrix_arrays": "scoring.score_matrix_arrays.ms",
    "scoring.ConsensusProduct.dot": "scoring.ConsensusProduct.dot.ms",
    "neural.init_state": "neural.init_state_ms",
    "neural.state_transform": "neural.state_transform_ms",
    "neural.decode_inliers": "neural.decode_inliers_ms",
    "neural.backward": "neural.backward_ms",
    "sampling.build_pool": "sampling.build_pool_ms",
    "sampling.draw_minimal_batch": "sampling.draw_minimal_batch_ms",
    "sampling.prosac_next": "sampling.prosac_next_ms",
    "refinement.lm": "refinement.lm.ms",
    "refinement.refine_alpha": "refinement.refine_alpha.ms",
    "refinement.local_optimize": "refinement.local_optimize.ms",
}
# per-layer count metric -> tracer counter it is read from
COUNTS = {
    "geometry.eight_point_batch.calls": "geometry.eight_point_batch.calls",
    "geometry.eight_point_batch.rows": "geometry.eight_point_batch.rows",
    "geometry.sampson_sq_arrays.calls": "geometry.sampson_sq_arrays.calls",
    "scoring.score_matrix_arrays.calls": "scoring.score_matrix_arrays.calls",
    "scoring.score_matrix_arrays.cells": "scoring.score_matrix_arrays.cells",
    "scoring.ConsensusProduct.dot.calls": "scoring.ConsensusProduct.dot.calls",
    "sampling.min_pool_fallbacks": "sampling.min_pool_fallbacks",
    "refinement.lm.calls": "refinement.lm.calls",
    "refinement.lm.points": "refinement.lm.points",
    "refinement.refine_alpha.calls": "refinement.refine_alpha.calls",
    "refinement.local_optimize.calls": "refinement.local_optimize.calls",
    "refinement.underdetermined": "refinement.lm.underdetermined",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def import_caransac():
    """Import caransac from the sources beside this directory, never from elsewhere."""
    if not (SRC / "caransac" / "__init__.py").is_file():
        raise BenchError(f"caransac sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import caransac

    if Path(caransac.__file__).resolve().parent != SRC / "caransac":
        raise BenchError(f"imported caransac from {caransac.__file__}, not from {SRC}")
    return caransac


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD read from .git without starting a process; an exported source tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# set-up and ops


def load_bundle():
    from caransac.neural import load_weights

    blob = WEIGHTS.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != WEIGHTS_SHA256:
        raise BenchError(f"{WEIGHTS} has sha256 {digest}, expected {WEIGHTS_SHA256}")
    return load_weights(blob)


def make_op(w: Workload, bundle):
    """The callable one op makes: the bench CLI's method adapters, or the trainer's step."""
    from caransac import evaluation, training

    if w.method == "train":
        cfg = training.TrainConfig(model_kind=w.model_kind)
        return lambda pair, seed: training.pair_gradients(bundle, pair, cfg, seed)
    if w.method == "ca":
        method = evaluation.make_ca_method(bundle, w.model_kind)
    elif w.method == "msac":
        method = evaluation.make_msac_method(w.model_kind)
    else:
        method = evaluation.make_lmlo_method(w.model_kind)
    return lambda pair, seed: method(pair, BUDGET, seed)


def op_inputs(seed: int, k: int, pairs: int) -> tuple[int, int]:
    """(pair index, engine seed) of op k: pairs are reused, engine seeds never."""
    from caransac.evaluation import pair_seed

    return k % pairs, pair_seed(seed * 1_000_003 + k // pairs, k % pairs)


def set_up(w: Workload, seed: int, part: int):
    """Set-up number ``part``: weights load + hash check, generation of its
    share of the pairs, and one warm-up op."""
    from caransac.training import PairSpec, generate_synthetic
    from caransac.evaluation import pair_seed

    bundle = load_bundle() if w.method in ("ca", "train") else None
    share = w.pairs // SETUP_REPEATS
    pairs = [
        generate_synthetic(PairSpec(n=w.n, inlier_rate=w.inlier_rate, seed=pair_seed(seed, i)))
        for i in range(part * share, (part + 1) * share)
    ]
    op = make_op(w, bundle)
    op(pairs[0], pair_seed(seed, w.pairs + part))  # warm-up, off the op sequence
    return pairs, op


def check_output(w: Workload, out, n: int) -> str | None:
    """None if the op's output is well formed, else the reason it is not."""
    if w.method == "train":
        loss, grads = out
        if not math.isfinite(loss):
            return f"non-finite loss {loss}"
        if not (np.isfinite(grads.flat()).all() and math.isfinite(grads.alpha)):
            return "non-finite gradient"
        return None
    model, probs = out.model, out.inlier_probs
    if model.is_zero:
        return "zero model"
    if not np.isfinite(model.m).all():
        return "non-finite model"
    if abs(np.linalg.norm(model.m) - 1.0) > MODEL_TOL:
        return "model not unit-norm"
    s = np.linalg.svd(model.m, compute_uv=False)
    if s[2] > MODEL_TOL * s[0]:
        return f"model not rank 2 (singular values {s})"
    if w.model_kind == "essential" and s[0] - s[1] > MODEL_TOL * s[0]:
        return f"essential model with unequal singular values {s}"
    if probs.shape != (n,) or not ((probs > 0.0) & (probs < 1.0)).all():
        return "inlier probabilities not strictly inside (0, 1)"
    return None


def run_op(op, pair, seed):
    """(seconds, output or None, exception or None) of one op."""
    t0 = time.perf_counter()
    try:
        out = op(pair, seed)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def same_output(w: Workload, a, b) -> bool:
    if w.method == "train":
        return a[0] == b[0] and np.array_equal(a[1].flat(), b[1].flat()) and a[1].alpha == b[1].alpha
    return np.array_equal(a.model.m, b.model.m) and np.array_equal(a.inlier_probs, b.inlier_probs)


# ---------------------------------------------------------------------------
# the measured loop


class Run:
    def __init__(self, w: Workload, seed: int, pairs, op):
        self.w, self.seed, self.pairs, self.op = w, seed, pairs, op
        self.latencies: list[float] = []
        self.failures: dict[int, str] = {}  # op index -> first reason it failed
        self.guard: list = []  # loss or model of the first GUARD_OPS ops, None if failed

    def attempt(self, k: int, out, exc) -> None:
        idx, _ = op_inputs(self.seed, k, len(self.pairs))
        reason = f"raised {exc!r}" if exc is not None else check_output(self.w, out, self.w.n)
        if reason is not None:
            self.fail(k, f"pair {idx}: {reason}")
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)
        if k < GUARD_OPS:
            self.guard.append(None if reason is not None else out[0] if self.w.method == "train" else out.model)

    def fail(self, k: int, reason: str) -> None:
        self.failures.setdefault(k, reason)

    def failed(self) -> int:
        """Failed ops among the measured ones (guard ops run afterwards are not counted)."""
        return sum(1 for k in self.failures if k < len(self.latencies))

    def next_inputs(self, k: int):
        idx, engine_seed = op_inputs(self.seed, k, len(self.pairs))
        return self.pairs[idx], engine_seed

    def measure(self, seconds: float) -> float:
        """Untraced closed loop; returns the loop's wall time."""
        t_start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - t_start < seconds:
            dt, out, exc = run_op(self.op, *self.next_inputs(k))
            self.latencies.append(dt)
            self.attempt(k, out, exc)
            k += 1
        return time.perf_counter() - t_start

    def fill_guard(self) -> None:
        """Run, untimed, the guard ops a short run did not reach."""
        k = len(self.latencies)
        while len(self.guard) < GUARD_OPS:
            _, out, exc = run_op(self.op, *self.next_inputs(k))
            self.attempt(k, out, exc)
            k += 1

    def accuracy(self) -> dict[str, tuple[float, str]]:
        """Accuracy over the guard ops: fixed by the seed, independent of speed."""
        from caransac.evaluation import FAILURE_ERROR_DEG, auc_at, map_at
        from caransac.geometry import PoseUndecidable
        from caransac.training import model_pose_error

        if self.w.method == "train":
            losses = [loss for loss in self.guard if loss is not None]
            return {"train_loss": (statistics.fmean(losses) if losses else math.nan, "1")}
        errors = []
        for k, model in enumerate(self.guard):
            err = FAILURE_ERROR_DEG
            if model is not None:
                try:
                    err = min(model_pose_error(model, self.next_inputs(k)[0]), FAILURE_ERROR_DEG)
                except PoseUndecidable:
                    pass
            errors.append(err)
        return {
            "auc5_pct": (auc_at(errors, 5.0), "%"),
            "map20_pct": (map_at(errors, 20.0), "%"),
            "median_err_deg": (float(statistics.median(errors)), "deg"),
        }


def end_to_end(run: Run, wall: float, setup_s: float) -> dict[str, tuple[float, str]]:
    lat_ms = [t * 1e3 for t in run.latencies]
    p75 = float(np.percentile(lat_ms, 75))
    return {
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p75": (p75, "ms"),
        "ops_per_s": (len(lat_ms) / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "latency_samples": (len(lat_ms), "count"),
        "latency_samples_beyond_p75": (sum(1 for t in lat_ms if t > p75), "count"),
        "fail_rate": (run.failed() / len(lat_ms), "ratio"),
    }


def traced_loop(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Each op untraced and traced, in alternating order; per-layer metrics per traced op."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, self_ms = [], [], []
    engine_ms = {c: 0.0 for c in ENGINE_COMPONENTS + ("unaccounted", "total")}
    span_ms = {name: 0.0 for name in SPAN_MS}

    def traced_op(k, inputs):
        tracer.begin_op(k)
        try:
            return run_op(run.op, *inputs)
        finally:
            tracer.end_op()

    tracer.install()
    t_start = time.perf_counter()
    k = 0
    try:
        while k == 0 or time.perf_counter() - t_start < seconds:
            inputs = run.next_inputs(k)
            if k % 2:
                t_dt, t_out, t_exc = traced_op(k, inputs)
                p_dt, p_out, p_exc = run_op(run.op, *inputs)
            else:
                p_dt, p_out, p_exc = run_op(run.op, *inputs)
                t_dt, t_out, t_exc = traced_op(k, inputs)
            plain.append(p_dt)
            traced.append(t_dt)
            run.latencies.append(t_dt)
            run.attempt(k, t_out, t_exc)
            if t_exc is None and p_exc is None and not same_output(run.w, t_out, p_out):
                run.fail(k, "traced and untraced outputs differ")

            times, self_total = tracer.op_times()
            self_ms.append(self_total * 1e3)
            if self_total > t_dt:
                run.fail(k, f"span self time {self_total}s above the op's wall time {t_dt}s")
            for name, spent in times.items():
                if name in span_ms:
                    span_ms[name] += spent * 1e3
            for result in tracer.results:
                parts = result.timing_breakdown
                engine_ms["total"] += parts["total"] * 1e3
                engine_ms["unaccounted"] += (parts["total"] - sum(parts[c] for c in ENGINE_COMPONENTS)) * 1e3
                for c in ENGINE_COMPONENTS:
                    engine_ms[c] += parts[c] * 1e3
            if k == 0:
                write_spans(run, tracer.spans)
            k += 1
    finally:
        tracer.uninstall()

    ops = len(traced)
    c = tracer.counts
    metrics = {f"engine.{name}_ms": (value / ops, "ms") for name, value in engine_ms.items()}
    metrics.update({metric: (span_ms[span] / ops, "ms") for span, metric in SPAN_MS.items()})
    metrics.update({metric: (c[counter] / ops, PER_LAYER[metric]) for metric, counter in COUNTS.items()})

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    traced_p50 = statistics.median(traced) * 1e3
    plain_p50 = statistics.median(plain) * 1e3
    metrics.update(
        {
            "geometry.eight_point_batch.valid_ratio": (
                ratio("geometry.eight_point_batch.valid", "geometry.eight_point_batch.rows"), "ratio"),
            "sampling.pool_frac": (ratio("sampling.pool_size", "sampling.pool_n"), "ratio"),
            "refinement.local_optimize.accepted_ratio": (
                ratio("refinement.local_optimize.accepted", "refinement.local_optimize.tried"), "ratio"),
            "trace.latency_ms_p50": (traced_p50, "ms"),
            "trace.untraced_latency_ms_p50": (plain_p50, "ms"),
            "trace.overhead_ms": (traced_p50 - plain_p50, "ms"),
            "trace.self_ms": (statistics.fmean(self_ms), "ms"),
            "trace.ops": (ops, "count"),
        }
    )
    return metrics


def write_spans(run: Run, spans: list) -> None:
    """The first traced op's span tree, one JSON line per span, times in ms from its start."""
    out = TRACE_DIR / f"spans-{run.w.name}-seed{run.seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    t0 = spans[0][2] if spans else 0.0
    with out.open("w") as fh:
        for i, (op, name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"op": op, "span": i, "parent": parent, "name": name,
                                 "start_ms": (start - t0) * 1e3, "end_ms": (end - t0) * 1e3}) + "\n")
    print(f"# spans of op 0 written to {out.relative_to(ROOT)}")


def benchmark(w: Workload, seed: int, seconds: float, trace: bool, t_import: float) -> int:
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# waiting time: not applicable (one process, closed loop with one client, no queue)")

    # set-up is repeated for a steadier median; the repeats split the pair
    # generation between them so that a run can use many pairs
    setup_times, pairs = [], []
    for part in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        part_pairs, op = set_up(w, seed, part)
        setup_times.append(time.perf_counter() - t0)
        pairs += part_pairs
    setup_s = t_import + statistics.median(setup_times)

    run = Run(w, seed, pairs, op)
    if trace:
        metrics = traced_loop(run, seconds)
        wanted = PER_LAYER
    else:
        wall = run.measure(seconds)
        metrics = end_to_end(run, wall, setup_s)
        wanted = END_TO_END
    run.fill_guard()
    metrics.update(run.accuracy())
    problems = [f"op {k} {reason}" for k, reason in sorted(run.failures.items())]
    if metrics.get("median_err_deg", (0.0,))[0] >= MAX_MEDIAN_ERR_DEG:
        problems.append(f"median pose error of the guard ops reached {MAX_MEDIAN_ERR_DEG} deg")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in problems[:10]:
        print(f"# failed: {problem}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    result = {
        "correct": not problems and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": len(run.latencies),
        "failed": run.failed(),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# trained weights


def make_weights() -> int:
    """Train the bundle the ca and train workloads load, from a fixed recipe.

    Recipe: 64 training and 16 validation essential pairs from
    ``generate_synthetic`` (n uniform in 300..600, inlier rate drawn from
    0.2..0.6, noise 0.5 px, side-information overlap 0.8), then
    ``training.train`` with TrainConfig(epochs=3, learning_rate=0.03, seed=5,
    pairs_per_update=4), BLAS on one thread. Same numpy and BLAS, same bytes.
    """
    from caransac.neural import save_weights
    from caransac.training import PairSpec, TrainConfig, generate_synthetic, train

    rng = np.random.default_rng(2024)

    def pairs(count, seed0):
        return [
            generate_synthetic(
                PairSpec(
                    n=int(rng.integers(300, 601)),
                    inlier_rate=float(rng.choice([0.2, 0.3, 0.4, 0.5, 0.6])),
                    side_info_overlap=0.8,
                    seed=seed0 + i,
                )
            )
            for i in range(count)
        ]

    train_pairs, val_pairs = pairs(64, 50_000), pairs(16, 60_000)
    cfg = TrainConfig(epochs=3, learning_rate=0.03, seed=5, pairs_per_update=4)
    result = train(train_pairs, cfg, val=val_pairs, log=lambda line: print(line, flush=True))
    blob = save_weights(result.bundle)
    WEIGHTS.write_bytes(blob)
    print(f"wrote {WEIGHTS.name} sha256 {hashlib.sha256(blob).hexdigest()}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny easy pairs: a format check, not a measurement")
    parser.add_argument("--make-weights", action="store_true", help="retrain weights.txt and print its sha256")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not args.make_weights and args.workload is None:
        parser.error("--workload is required")
    try:
        import_caransac()
        t_import = time.perf_counter() - T_START
        if args.make_weights:
            return make_weights()
        w = WORKLOADS[args.workload]
        if args.smoke:
            w = replace(w, n=SMOKE_N, inlier_rate=SMOKE_INLIER_RATE, pairs=SETUP_REPEATS)
        return benchmark(w, args.seed, args.seconds, bool(args.trace), t_import)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
