"""Run the README's paired accuracy set and print its metrics as JSON lines.

    python3 scripts/paired_accuracy.py [--seeds 0,1,2,3,4]

The set is the README's: ``caransac synth --pairs 100 --n 2000
--inlier-rate 0.3 --noise 0.5 --seed 11``, estimated with ``ca``, ``msac``
and ``lmlo`` at the 4x256 budget with the committed
``perfbench/weights.txt`` bundle, essential kind, once per engine seed base.
It runs against the sources beside this script with BLAS on one thread, so
every number is byte-deterministic there; running the script on two
checkouts and diffing the two outputs shows which metrics and which pairs
a change moved.

Output, one JSON object per line, methods in the order above:
``{"method", "seed", "auc5", "auc1", "map20"}`` for every seed base and
then ``"seed": "pooled"`` over all of them, followed by
``{"method", "seed", "errors"}`` with the per-pair pose errors in degrees.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

# BLAS reads its thread count once, when numpy is first imported
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from caransac import cli, evaluation, formats, neural  # noqa: E402

WEIGHTS = ROOT / "perfbench" / "weights.txt"
SYNTH = ("synth", "--pairs", "100", "--n", "2000", "--inlier-rate", "0.3", "--noise", "0.5",
         "--seed", "11", "--out-dir")
BUDGET = (4, 256)
KIND = "essential"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4", help="engine seed bases, comma-separated")
    args = parser.parse_args(argv)
    # checked before the set is synthesized, which takes seconds
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds {args.seeds!r}: every entry must be an integer")
    if len(set(seeds)) < len(seeds):
        parser.error(f"--seeds {args.seeds!r}: a repeated seed would overwrite its own errors")

    with tempfile.TemporaryDirectory(prefix="caransac-accuracy-") as tmp:
        # synth's "wrote ..." line names the temporary directory
        with contextlib.redirect_stdout(sys.stderr):
            if cli.main([*SYNTH, tmp]) != 0:
                return 1
        dataset = formats.read_dataset(Path(tmp))
    methods = {
        "ca": evaluation.make_ca_method(neural.load_weights(WEIGHTS.read_bytes()), KIND),
        "msac": evaluation.make_msac_method(KIND),
        "lmlo": evaluation.make_lmlo_method(KIND),
    }
    errors: dict[str, dict[int, list[float]]] = {name: {} for name in methods}
    for seed in seeds:
        reports = evaluation.benchmark(methods, dataset, BUDGET, [seed])
        for name, report in reports.items():
            errors[name][seed] = report.per_pair_errors

    for name, per_seed in errors.items():
        runs = [*per_seed.items(), ("pooled", [e for errs in per_seed.values() for e in errs])]
        for seed, errs in runs:
            print(json.dumps({
                "method": name, "seed": seed,
                "auc5": round(evaluation.auc_at(errs, 5.0), 4),
                "auc1": round(evaluation.auc_at(errs, 1.0), 4),
                "map20": round(evaluation.map_at(errs, 20.0), 4),
            }))
    for name, per_seed in errors.items():
        for seed, errs in per_seed.items():
            print(json.dumps({"method": name, "seed": seed, "errors": errs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
