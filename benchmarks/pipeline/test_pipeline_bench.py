"""Smoke test of the pipeline benchmark (``pytest benchmarks/pipeline``).

Runs every declared workload once untraced and once traced at smoke
scale and holds the output to BENCHMARK.json: every declared metric is
produced with its declared unit, nothing fails, and every pass matched
the reference digests (the replay smoke run also matches the reference
``Emulator``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "pipeline",
                                      "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--smoke",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "serve_file",
                     "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
