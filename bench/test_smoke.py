"""Smoke test of the benchmark: every workload at a tiny run length.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run exits 0, reports correct outputs and no failed
operation, and prints every metric named in BENCHMARK.json in its stated
unit: end-to-end metrics positive on every workload, per-layer metrics
non-negative everywhere and positive on at least one workload.  Takes
about two minutes; it is not part of the tests/ suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, workload, trace, seed=3, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert res["attempted"] >= 1 and res["failed"] == 0
    return res["metrics"]


def _assert_named(metrics, wanted):
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)
    _assert_named(metrics, SPEC["end_to_end"])
    for name, m in metrics.items():
        assert m["value"] > 0, name


def test_per_layer_metrics():
    seen = {}
    for workload in WORKLOADS:
        metrics = _result(workload, 1)
        _assert_named(metrics, SPEC["per_layer"])
        for name, m in metrics.items():
            assert m["value"] >= 0, (workload, name)
            seen[name] = max(seen.get(name, 0.0), m["value"])
    assert [name for name, value in seen.items() if value <= 0] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
