"""Smoke test: every workload at its smallest setting, one op, every metric.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# Every workload run.py accepts, desk-suite included, emits the same metrics.
WORKLOADS = list(workloads.WORKLOADS)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=300)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace, kind):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert "fail_ratio" in info
    if not trace:
        assert all(math.isfinite(info[name]) for name in ("op_p50_s", "op_p90_s"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace and workload == "grid-electric":
        gaussian_calls = [m["value"] for name, m in result["metrics"].items()
                          if name.startswith("gaussian.") and name.endswith(".calls")]
        assert gaussian_calls and not any(gaussian_calls)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark, it exits non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
