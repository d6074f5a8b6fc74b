"""End-to-end self-tests of the rpq benchmark (``python -m pytest benchmarks/rpq -q``).

Each workload runs once untraced and once traced with one-second windows
(a window still runs until its pooled p95 and oracle prefix are complete).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYERS
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*arguments: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "rpq" / "run.py"), *arguments],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.fixture(scope="module")
def workload_run(tmp_path_factory):
    """``(name, trace) -> (last printed line, result record)`` of one short
    run per workload and mode, run once per module."""
    cache: dict[tuple[str, int], tuple[dict, dict]] = {}

    def get(name: str, trace: int) -> tuple[dict, dict]:
        if (name, trace) not in cache:
            record_file = tmp_path_factory.mktemp("runs") / f"{name}-{trace}.json"
            completed = run_benchmark(
                "--workload", name, "--seconds", "1", "--seed", "0",
                "--trace", str(trace), "--json", str(record_file),
            )
            assert completed.returncode == 0, completed.stdout + completed.stderr
            last = json.loads(completed.stdout.strip().splitlines()[-1])
            cache[name, trace] = (last, json.loads(record_file.read_text())["records"][0])
        return cache[name, trace]

    return get


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_prints_the_benchmark_json_metrics(name, workload_run):
    last, record = workload_run(name, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    assert record["metrics"]["error_rate"]["value"] == 0
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {key: value["unit"] for key, value in last["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in last["metrics"].values())
    provenance = record["provenance"]
    assert provenance["cpu_count"] == os.cpu_count()
    assert {"python", "numpy", "commit", "seed", "duration_s"} <= set(provenance)
    assert all("samples" in entry for entry in record["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, workload_run):
    last, record = workload_run(name, 1)
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert {key: value["unit"] for key, value in last["metrics"].items()} == declared
    assert record["unmapped"] == {}
    # Layer self times cover the request time (the root spans are service calls).
    assert abs(last["metrics"]["trace.unattributed_share"]["value"]) < 0.01
    assert (ROOT / record["trace_file"]).is_file()


@pytest.mark.parametrize(
    ("layer", "target", "workload"),
    [
        (layer.name, target, workload)
        for layer in LAYERS
        for target, workload in layer.serves.items()
    ],
)
def test_every_layer_target_records_calls_on_its_workload(layer, target, workload, workload_run):
    _, record = workload_run(workload, 1)
    assert record["target_calls"][f"{layer}:{target.partition(':')[2]}"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_the_same_digest(name, workload_run):
    _, untraced = workload_run(name, 0)
    _, traced = workload_run(name, 1)
    assert untraced["answers_digest"] == traced["answers_digest"]
    assert untraced["expected_digest"] in (None, untraced["answers_digest"])


def test_metric_catalogue_matches_benchmark_json():
    def rows(metrics):
        return [(metric.name, metric.unit, metric.better) for metric in metrics]

    assert rows(END_TO_END) == [
        (entry["name"], entry["unit"], entry["better"]) for entry in BENCHMARK["end_to_end"]
    ]
    assert rows(PER_LAYER) == [
        (entry["name"], entry["unit"], entry["better"]) for entry in BENCHMARK["per_layer"]
    ]
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_refuses_to_start_with_a_kernel_override():
    completed = run_benchmark("--workload", "hot-serve", env=dict(os.environ, REPRO_KERNEL="sets"))
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "rpq", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = run_benchmark("--workload", "hot-serve", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
