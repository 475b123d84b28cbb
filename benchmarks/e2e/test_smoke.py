"""``run.py --smoke`` end to end: every workload, all checks on, then a traced run.

Not part of tier-1; ``pytest benchmarks/e2e`` runs it (about a minute).
"""

import json
import os
import subprocess
import sys

import pytest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in load_spec()["workloads"]])
def test_smoke_workload(workload, tmp_path):
    out = tmp_path / "result.json"
    done = run_cli("--workload", workload, "--smoke", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = load_spec()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    recorded = json.loads(out.read_text())
    assert {"commit", "seed", "nproc", "python", "numpy", "blas_threads"} <= set(
        recorded["environment"])
    # A result compared with itself never regresses.
    rows = compare.compare(compare._runs(str(out)), compare._runs(str(out)), spec)
    assert len(rows) == len(spec["end_to_end"])
    assert all(row["verdict"] == "ok" and row["ratio"] == 1.0 for row in rows)


def test_smoke_traced_run_reports_every_layer_metric():
    done = run_cli("--workload", "serve_gnn_point", "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = load_spec()
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    trace = os.path.join(REPO_ROOT, ".bench_work", "trace-serve_gnn_point.json")
    with open(trace, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    assert {"id", "name", "start", "end", "parent", "request"} <= set(spans[0])
    assert any(span["name"] == "serve.batcher.wait" for span in spans)


def test_exits_non_zero_without_the_product(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, there is nothing to run."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fit_churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
