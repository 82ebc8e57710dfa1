"""Run the README's CLI workflow once and print a sha256 digest of every file it writes.

    python3 scripts/workflow_digest.py

The workflow (synth, a one-epoch train, estimate for the essential kind with
calibration and for the fundamental kind with and without it, and bench over
ca, msac and lmlo for both kinds) runs against the sources beside this
script, in a temporary directory, with BLAS on one thread. Every output is
byte-deterministic there, so running the script on two checkouts and
diffing the two outputs checks that a change left every written byte alone.
Output: one ``sha256  path`` line per file, paths relative to the run
directory, sorted.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = "import sys; from caransac.cli import main; sys.exit(main(sys.argv[1:]))"

PAIR = "data/pair_0000"
WORKFLOW = (
    ("synth", "--pairs", "10", "--n", "500", "--inlier-rate", "0.2", "--noise", "0.5",
     "--seed", "7", "--out-dir", "data"),
    ("train", "--data", "data", "--epochs", "1", "--lr", "0.03", "--seed", "5",
     "--model-kind", "essential", "--out-weights", "weights.txt"),
    ("estimate", "--matches", f"{PAIR}.matches.txt", "--calib", f"{PAIR}.calib.txt",
     "--model-kind", "essential", "--weights", "weights.txt", "--seed", "3",
     "--report", "report_essential.txt"),
    ("estimate", "--matches", f"{PAIR}.matches.txt", "--calib", f"{PAIR}.calib.txt",
     "--model-kind", "fundamental", "--weights", "weights.txt", "--seed", "3",
     "--report", "report_fundamental_calib.txt"),
    ("estimate", "--matches", f"{PAIR}.matches.txt", "--model-kind", "fundamental",
     "--weights", "weights.txt", "--seed", "3", "--report", "report_fundamental.txt"),
    ("bench", "--data", "data", "--methods", "ca,msac,lmlo", "--budget", "4x256",
     "--seeds", "0,1,2", "--weights", "weights.txt", "--model-kind", "essential",
     "--out", "table_essential.txt"),
    ("bench", "--data", "data", "--methods", "ca,msac,lmlo", "--budget", "2x128",
     "--seeds", "0", "--weights", "weights.txt", "--model-kind", "fundamental",
     "--out", "table_fundamental.txt"),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="caransac-digest-") as tmp:
        run_dir = Path(tmp)
        for command in WORKFLOW:
            proc = subprocess.run(
                [sys.executable, "-c", CLI, *command],
                cwd=run_dir, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"caransac {' '.join(command)} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(run_dir).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
