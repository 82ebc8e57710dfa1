"""Command-line interface: synth / train / estimate / bench workflows.

All files a command writes are byte-deterministic under a fixed seed at a
fixed BLAS thread count; wall clock diagnostics (timing breakdowns, runtime
shares) go to stderr only. Commands exit 0 on success and nonzero with a
single-line diagnostic on failure. Configuration files (``--config``,
``key = value`` lines) supply defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation, formats, neural, training
from .engine import DEFAULT_THRESHOLD_PX, ca_ransac, engine_inputs
from .geometry import ESSENTIAL, FUNDAMENTAL, MODEL_KINDS, PoseUndecidable
from .sampling import InsufficientData
from .training import PairSpec, TrainConfig, recover_pose

BENCH_METHODS = ("ca", "msac", "lmlo")


class CliError(Exception):
    """User-facing failure with a one-line diagnostic."""


def _apply_config(
    parser: argparse.ArgumentParser, argv: list[str] | None, args: argparse.Namespace
) -> argparse.Namespace:
    """Re-parse the command line with the --config values as the subcommand's
    flag defaults, so an explicit flag always wins.

    A key the subcommand has no flag for is ignored, so one file can serve
    several subcommands. Each value is parsed with its flag's type.
    """
    if not getattr(args, "config", None):
        return args
    values = formats.read_config(Path(args.config))
    subparsers = parser._subparsers._group_actions[0]  # type: ignore[union-attr]
    subparser = subparsers.choices[args.command]
    defaults = {}
    for action in subparser._actions:
        if action.dest in values:
            cast = action.type or str
            try:
                defaults[action.dest] = cast(values[action.dest])
            except ValueError:
                raise CliError(f"config value for {action.dest!r} is not a valid {cast.__name__}")
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    if args.pairs <= 0:
        raise CliError("--pairs must be positive")
    if args.n_max is not None and args.n_max < args.n:
        raise CliError(f"--n-max {args.n_max} is below --n {args.n}")
    rng = np.random.default_rng(args.seed)
    # every spec is checked before the directory exists, so a bad flag leaves none
    specs = [
        PairSpec(
            n=args.n if args.n_max is None else int(rng.integers(args.n, args.n_max + 1)),
            inlier_rate=args.inlier_rate,
            noise_sigma_px=args.noise,
            side_info_overlap=args.side_overlap,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        for _ in range(args.pairs)
    ]
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {out_dir}: {exc.strerror}")
    names = []
    for i, spec in enumerate(specs):
        pair = training.generate_synthetic(spec)
        pair.name = f"pair_{i:04d}"
        formats.write_pair(out_dir, pair)
        names.append(pair.name)
    formats.write_manifest(out_dir / "manifest.txt", names)
    print(f"wrote {len(names)} pairs to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train


def _read_labeled(path: str) -> list[training.SyntheticPair]:
    dataset = formats.read_dataset(Path(path))
    for pair in dataset:
        if pair.matches.labels is None:
            raise CliError(f"pair {pair.name} has no ground-truth labels; train needs labeled data")
    return dataset


def cmd_train(args: argparse.Namespace) -> int:
    dataset = _read_labeled(args.data)
    val = _read_labeled(args.val_data) if args.val_data else None
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
        model_kind=args.model_kind,
        batches=args.batches,
        batch_size=args.batch_size,
    )
    log_lines: list[str] = []

    def log(line: str) -> None:
        log_lines.append(line)
        print(line, file=sys.stderr)

    result = training.train(dataset, cfg, val=val, log=log)
    out = Path(args.out_weights)
    out.write_bytes(neural.save_weights(result.bundle))
    log_path = Path(args.log) if args.log else out.with_suffix(out.suffix + ".log")
    log_path.write_text("\n".join(log_lines) + "\n")
    print(f"wrote weights to {out}")
    return 0


# ---------------------------------------------------------------------------
# estimate


def _load_bundle(path: str | None) -> neural.MlpBundle:
    if not path:
        raise CliError("missing --weights; train a model first with 'caransac train'")
    p = Path(path)
    if not p.exists():
        raise CliError(f"weights file {p} not found; train a model first with 'caransac train'")
    return neural.load_weights(p.read_bytes())


def cmd_estimate(args: argparse.Namespace) -> int:
    data = formats.read_matches(Path(args.matches))
    calib = formats.read_calibration(Path(args.calib)) if args.calib else None
    if args.model_kind == ESSENTIAL and calib is None:
        raise CliError("--model-kind essential requires --calib")
    bundle = _load_bundle(args.weights).astype(neural.INFERENCE_DTYPE)

    run_data, cfg = engine_inputs(
        data, args.model_kind, args.threshold_px, calib, (args.batches, args.batch_size), args.seed
    )
    result = ca_ransac(run_data, bundle, cfg)

    pose = None
    if calib is not None:
        try:
            pose = recover_pose(result.model, data, *calib, args.threshold_px)
        except PoseUndecidable:
            pose = None

    report = formats.Report(
        kind=result.model.kind,
        model=result.model.m,
        pose=pose,
        per_batch_best_score=[b.best_score for b in result.batches],
        inlier_probs=result.inlier_probs,
    )
    formats.write_report(Path(args.report), report)

    breakdown = result.timing_breakdown
    parts = " ".join(f"{k}={breakdown[k]*1e3:.1f}ms" for k in breakdown)
    print(f"timing: {parts}", file=sys.stderr)
    if args.timing_report:
        Path(args.timing_report).write_text(
            "\n".join(f"{k} {breakdown[k]!r}" for k in breakdown) + "\n"
        )
    print(f"wrote report to {args.report}")
    return 0


# ---------------------------------------------------------------------------
# bench


def _parse_budget(text: str) -> tuple[int, int]:
    try:
        batches, _, batch_size = text.partition("x")
        budget = (int(batches), int(batch_size))
    except ValueError:
        raise CliError(f"bad --budget {text!r}; expected e.g. 4x256")
    if budget[0] < 1 or budget[1] < 1:
        raise CliError("budget components must be positive")
    return budget


def cmd_bench(args: argparse.Namespace) -> int:
    dataset = formats.read_dataset(Path(args.data))
    budget = _parse_budget(args.budget)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise CliError("need at least one seed")
    requested = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not requested:
        raise CliError("need at least one method")
    for name in requested:
        if name not in BENCH_METHODS:
            raise CliError(
                f"unknown method {name!r}; valid methods: {', '.join(BENCH_METHODS)}"
            )
    methods: dict[str, evaluation.MethodFn] = {}
    for name in requested:
        if name == "ca":
            bundle = _load_bundle(args.weights)
            methods[name] = evaluation.make_ca_method(bundle, args.model_kind, args.threshold_px)
        elif name == "msac":
            methods[name] = evaluation.make_msac_method(args.model_kind, args.threshold_px)
        else:
            methods[name] = evaluation.make_lmlo_method(args.model_kind, args.threshold_px)

    reports = evaluation.benchmark(methods, dataset, budget, seeds)
    table = format_table(reports)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n")
    for name, report in reports.items():
        share = evaluation.learned_runtime_share(report.timing)
        total = report.timing.get("total", 0.0)
        print(
            f"{name}: learned components {share*100:.1f}% of {total:.2f}s total",
            file=sys.stderr,
        )
    return 0


def format_table(reports: dict[str, evaluation.MetricReport]) -> str:
    header = f"{'method':<8}{'AUC5':>8}{'AUC1':>8}{'MAP20':>8}{'Med':>9}{'Avg':>9}"
    rows = [header]
    for name, r in reports.items():
        rows.append(
            f"{name:<8}{r.auc5:>8.2f}{r.auc1:>8.2f}{r.map20:>8.2f}"
            f"{r.median_deg:>9.3f}{r.avg_deg:>9.3f}"
        )
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caransac",
        description="Consensus-adaptive robust two-view model estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--inlier-rate", dest="inlier_rate", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.5, help="pixel noise sigma")
    p.add_argument("--n", type=int, default=500, help="correspondences per pair")
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help="if set, per-pair n is uniform in [--n, --n-max]")
    p.add_argument("--side-overlap", dest="side_overlap", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the state networks on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--val-data", dest="val_data", default=None)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--lr", dest="learning_rate", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-kind", dest="model_kind", choices=MODEL_KINDS, default=ESSENTIAL)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=256)
    p.add_argument("--out-weights", dest="out_weights", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="estimate a two-view model from a matches file")
    p.add_argument("--matches", required=True)
    p.add_argument("--calib", default=None)
    p.add_argument("--model-kind", dest="model_kind", choices=MODEL_KINDS, default=FUNDAMENTAL)
    p.add_argument("--weights", default=None)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=256)
    p.add_argument("--threshold-px", dest="threshold_px", type=float, default=DEFAULT_THRESHOLD_PX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.add_argument("--timing-report", dest="timing_report", default=None,
                   help="optional wall-clock breakdown file (not deterministic)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="compare estimators on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--methods", default="ca,msac,lmlo")
    p.add_argument("--budget", default="4x256")
    p.add_argument("--seeds", default="0")
    p.add_argument("--weights", default=None)
    p.add_argument("--model-kind", dest="model_kind", choices=MODEL_KINDS, default=ESSENTIAL)
    p.add_argument("--threshold-px", dest="threshold_px", type=float, default=DEFAULT_THRESHOLD_PX)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, argv, args)
        return args.func(args)
    except (
        CliError,
        formats.FileFormatError,
        neural.WeightFormatError,
        InsufficientData,
        ValueError,
        RuntimeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
