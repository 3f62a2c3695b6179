"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import instances  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(instances.WORKLOADS))
def test_workload_runs_and_prints_every_metric_with_its_unit(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if line.startswith("  ") and len(line.split()) >= 3}
    for metric in listed:
        assert printed[metric["name"]] == metric["unit"]
    assert "fail_frac" in printed


def test_times_are_scaled_by_the_host_speed_kernel_around_each_run():
    result = {"times": [1.0, 3.0], "slowdowns": [1.0, 1.5]}
    assert run.adjusted_times(result) == pytest.approx([1.0, 2.0])
    result.update(peak_rss_kb=1000, setup_times=[0.1, 0.4, 0.3], setup_slowdowns=[1.0, 2.0, 3.0])
    assert run.end_to_end(result)["setup_s"] == pytest.approx(0.1)


def test_benchmark_json_and_spec_agree():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(instances.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(instances.WORKLOADS)
    assert [w["host_speed_kernel"] for w in SPEC["workloads"]] == [
        w["kernel"] for w in instances.WORKLOADS.values()]
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    described = {m["name"]: (m["unit"], m["better"]) for m in SPEC["metrics"]}
    assert {k: v for k, v in described.items() if k in listed} == listed
    workloads = set(instances.WORKLOADS)
    for m in SPEC["metrics"]:
        assert m["layer"]
        for target in m.get("moves", []):
            assert target["metric"] in described and target["workload"] in workloads


@pytest.mark.parametrize("workload", list(instances.WORKLOADS))
def test_fingerprint_follows_the_seed(workload, tmp_path):
    first = instances.generate(workload, 7, tmp_path / "a", "tiny")
    again = instances.generate(workload, 7, tmp_path / "b", "tiny")
    other = instances.generate(workload, 8, tmp_path / "c", "tiny")
    assert first == again != other


def test_corrupted_dual_counts_as_failed(tmp_path):
    instances.generate("grid-ingest", 1, tmp_path / "inputs", "tiny")
    records, wall = worker.run_loop("grid-ingest", tmp_path, 0.0)
    assert worker.check_records("grid-ingest", tmp_path, records) == []

    dual = records[0].out / "dual.csv"
    lines = dual.read_text(encoding="utf-8").splitlines()
    head, tail, _ = lines[1].split(",")
    lines[1] = f"{head},{tail},{10.0!r}"  # weights are at most 1 and lambda is 1
    dual.write_text("\n".join(lines) + "\n", encoding="utf-8")

    failures = worker.check_records("grid-ingest", tmp_path, records)
    assert [f["check"] for f in failures] == ["dual_capacity"]
    assert failures[0]["instance"] == "grid-ingest:seed1:000:run0"
    result = worker.build_result(records, wall, failures, None)
    assert (result["attempted"], result["failed"]) == (len(records), 1)


def test_trace_reports_zero_for_a_function_that_is_gone(tmp_path, monkeypatch):
    import tvflow.io

    monkeypatch.setattr(tvflow.io, "__all__", [n for n in tvflow.io.__all__ if n != "write_json"])
    instances.generate("grid-ingest", 1, tmp_path / "inputs", "tiny")
    tracer = Tracer()
    records, _ = worker.run_loop("grid-ingest", tmp_path, 0.0, tracer)
    assert tvflow.io.write_json.__name__ == "write_json"  # originals are restored
    assert not hasattr(tvflow.io.read_graph_csv, "__wrapped__")
    layers = tracer.summary({k: r.seconds for k, r in enumerate(records) if r.traced})
    assert layers["io.write_json.self_s"] == 0.0
    assert layers["solver.pd_step.calls"] == 100.0
    assert layers["io.read_graph_csv.self_s"] > 0.0
    assert layers["trace.unattributed_frac"] < 0.1


def test_bare_directory_exits_nonzero(tmp_path):
    for path in [ROOT / "BENCHMARK.json", *sorted(HERE.glob("*.py")), HERE / "spec.json"]:
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sbm-gap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
