"""Smoke test of the benchmark's output format (tiny inputs, about a minute).

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in ``--smoke`` mode with both trace settings; the last
line must name every metric BENCHMARK.json lists, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# msac-f8k runs by hand but is not listed in BENCHMARK.json
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["msac-f8k"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in wanted:
        assert printed[m["name"]] == m["unit"]
    accuracy = ("train_loss",) if workload.startswith("train") else ("auc5_pct", "map20_pct", "median_err_deg")
    assert set(accuracy) <= set(printed)
    assert any(line.startswith("# environment ") for line in lines)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py"):
        (bench / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
