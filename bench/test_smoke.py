"""Smoke test of the benchmark: every workload, run at one replication per
cell, passes its output checks and emits exactly the metric names and units
that BENCHMARK.json declares.

Run with ``python3 -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    tiny_workloads = {
        name: tuple((kind, {**overrides, "reps": 1, "pilot_reps": 1, "n_cover_samples": 10}) for kind, overrides in specs)
        for name, specs in run.WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", tiny_workloads)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    return tmp_path


def test_declared_workloads_are_the_benchmark_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_declared_metrics(tiny, workload, trace, section):
    result, record = run.run_benchmark(workload, seed=5, seconds=0, trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        assert (tiny / f"spans-{workload}-seed5.jsonl").stat().st_size > 0


def test_changed_csv_for_the_same_source_and_spec_is_flagged(tiny):
    run.run_benchmark("smallball-growing", seed=5, seconds=0, trace=False)
    record_path = tiny / "csv_sha256.json"
    record = json.loads(record_path.read_text())
    record_path.write_text(json.dumps({key: "0" * 64 for key in record}))
    result, record = run.run_benchmark("smallball-growing", seed=5, seconds=0, trace=False)
    assert not result["correct"]
    assert any("earlier run" in problem for problem in record["problems"])


def test_checkout_without_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
