"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q benchmarks/test_benchmark.py

Runs every workload briefly through the launcher, untraced and traced, and
checks the output contract against BENCHMARK.json.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    doc = result(workload, 1, 0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert doc["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    detail = json.loads((HERE / "out" / f"result-{workload}-seed1-trace0.json")
                        .read_text())
    assert detail["samples"]["above_p90"] >= 10
    for probe in detail["cli_probe"].values():
        assert probe["ok"] and len(probe["sha256"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    first, second = result(workload, 1, 1), result(workload, 2, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for doc in (first, second):
        assert doc["correct"] and doc["failed"] == 0
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    for name, unit in expected.items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name
        else:
            assert first["metrics"][name]["value"] > 0, name


def test_planted_wrong_reference_counts_as_failed_op():
    sys.path.insert(0, str(HERE))
    import worker

    zxdj = worker.import_zxdj()
    inputs = worker.Inputs(zxdj, 3, seed=7)
    planted = inputs.functions[0].table

    def wrong(f):
        verdict = worker.reference_verdict(f)
        if f.table != planted:
            return verdict
        return "balanced" if verdict == "constant" else "constant"

    loop = worker.run_loop(zxdj, "compile_n3", inputs, seconds=0,
                           min_ops=len(inputs.functions) + 2, reference=wrong)
    assert loop.attempted == 74
    assert loop.failed == 2 and loop.raised == 0
    assert loop.errors == [f"table {planted}: verdict mismatch"] * 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0 and proc.stdout == ""
