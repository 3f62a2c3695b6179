"""Every ``BENCH_*.json`` at the repository root records paired benchmark
runs in one format: the runs of the parent and of the change, per workload
of ``BENCHMARK.json`` and per end-to-end metric."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_format(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"label", "machine", "command", "end_to_end"} <= set(bench)
    assert path.name == f"BENCH_{bench['label']}.json"
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(bench["end_to_end"]) == workloads
    for workload, runs in bench["end_to_end"].items():
        for metric in BENCHMARK["end_to_end"]:
            pairs = runs[metric["name"]]
            parent, change = pairs["parent"], pairs["change"]
            assert len(parent) == len(change) > 0, (workload, metric["name"])
            assert all(isinstance(v, (int, float)) for v in parent + change)
