"""Fast self-test of the benchmark harness (about a minute).

    python3 -m pytest perfbench/test_harness.py

Runs every workload at minimal size, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted, that every output check
passes, and that computed counts repeat exactly between two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTED = ["cantor.intervals_built", "cantor.bytes_built", "qsmaps.push_intervals.bytes",
            "qsmass.nodes_massed", "modulus.raster_cells", "modulus.program_nnz",
            "cli.bytes_written"]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "minimal"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_checks(workload):
    untraced = result(bench(workload, 0))
    assert untraced["correct"] and untraced["failed"] == 0, untraced
    assert untraced["attempted"] >= 1
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    for spec in SPEC["end_to_end"]:
        metric = untraced["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0, (spec, metric)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    traced = [result(bench(workload, 1)) for _ in range(2)]
    for run in traced:
        assert run["correct"] and run["failed"] == 0, run
        assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for spec in SPEC["per_layer"]:
            assert run["metrics"][spec["name"]]["unit"] == spec["unit"]
    for name in COMPUTED:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def test_refuses_to_run_without_the_program():
    bare = ROOT / "perfbench" / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("deep-mass", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
