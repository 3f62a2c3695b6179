"""Timed closed loop of one workload, in a fresh process.

    python3 perfbench/worker.py WORK_DIR WORKLOAD SECONDS TRACE RESULT_JSON

``run.py`` starts it with ``src`` on PYTHONPATH and one thread per native
library.  It runs one untimed warm-up instance, then the workload's
pipeline over the instance pool, one instance after another, until
SECONDS of loop time have passed, timing the workload's host speed
kernel (``hostspeed.py``) before the first run and after each.  With
TRACE 1 each instance runs twice, untraced and traced in alternating
order, so the trace overhead is measured on the same inputs.  Output
checks run after the loop, untimed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tvflow.cli
import tvflow.flow
import tvflow.io

from checks import CHECKS
from hostspeed import slowdown
from instances import LAMBDA, WORKLOADS
from spans import Tracer

SBM_MAX_ITERS = 200_000


def solve_sbm_gap(inputs: Path, out: Path) -> int:
    return tvflow.cli.main([
        "solve", "--graph", str(inputs / "graph.csv"),
        "--observations", str(inputs / "observations.csv"),
        "--lambda", repr(LAMBDA), "--gap-tol", "1e-3", "--iters", str(SBM_MAX_ITERS),
        "--out-dir", str(out),
    ])


def solve_grid_ingest(inputs: Path, out: Path) -> int:
    return tvflow.cli.main([
        "solve", "--graph", str(inputs / "graph.csv"),
        "--observations", str(inputs / "observations.csv"),
        "--lambda", repr(LAMBDA), "--iters", "100", "--gap-tol", "0",
        "--out-dir", str(out),
    ])


def certify_tree(inputs: Path, out: Path) -> int:
    graph, part, obs = inputs / "graph.csv", inputs / "partition.csv", inputs / "observations.csv"
    g = tvflow.io.read_graph_csv(graph)
    partition = tvflow.io.read_partition_csv(part)
    observations = tvflow.io.read_observations_csv(obs)
    certificate = tvflow.flow.construct_tree_certificate(g, partition, observations, LAMBDA)
    out.mkdir(parents=True, exist_ok=True)
    tvflow.io.write_flow_csv(out / "flow.csv", g, certificate)
    return tvflow.cli.main([
        "certify", "--graph", str(graph), "--flow", str(out / "flow.csv"),
        "--partition", str(part), "--observations", str(obs),
        "--lambda", repr(LAMBDA), "--out-dir", str(out),
    ])


PIPELINES = {
    "sbm-gap": solve_sbm_gap,
    "grid-ingest": solve_grid_ingest,
    "tree-certify": certify_tree,
}


@dataclass
class Record:
    """One pipeline execution: which instance, where it wrote, how it ended."""

    instance: str
    out: Path
    seconds: float
    traced: bool
    slowdown: float = 1.0
    code: int | None = None
    error: str | None = None


def execute(pipeline, instance: str, inputs: Path, out: Path, traced: bool) -> Record:
    t0 = time.perf_counter()
    try:
        code = pipeline(inputs, out)
    except Exception as exc:  # a failed instance is recorded, not fatal
        return Record(instance, out, time.perf_counter() - t0, traced,
                      error=f"{type(exc).__name__}: {exc}")
    return Record(instance, out, time.perf_counter() - t0, traced, code=code)


def run_loop(workload: str, work: Path, seconds: float, tracer: Tracer | None = None):
    """Closed loop over the pool until ``seconds`` have passed; returns the
    records and the loop's wall time."""
    pipeline = PIPELINES[workload]
    kernel = WORKLOADS[workload]["kernel"]
    inputs = work / "inputs"
    pool = json.loads((inputs / "instances.json").read_text(encoding="utf-8"))["pool"]
    execute(pipeline, "warmup", inputs / "warmup", work / "out" / "warmup", False)
    records: list[Record] = []
    slowdown(kernel)  # warm-up
    start = time.perf_counter()
    before = slowdown(kernel)
    k = 0
    while True:
        name = pool[k % len(pool)]
        modes = [False] if tracer is None else ([False, True] if k % 2 == 0 else [True, False])
        for traced in modes:
            out = work / "out" / f"{k:04d}{'t' if traced else 'u'}"
            if traced:
                tracer.set_instance(len(records))
                tracer.install()
            records.append(execute(pipeline, name, inputs / name, out, traced))
            if traced:
                tracer.uninstall()
            # Host speed around the run: the mean of the slowdowns before and after.
            after = slowdown(kernel)
            records[-1].slowdown = (before + after) / 2
            before = after
        k += 1
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def check_records(workload: str, work: Path, records: list[Record]) -> list[dict]:
    """Run the workload's output checks on every record; one entry per
    failed check, naming the check and the instance."""
    index = json.loads((work / "inputs" / "instances.json").read_text(encoding="utf-8"))
    check = CHECKS[workload]
    failures = []
    for k, rec in enumerate(records):
        label = f"{workload}:seed{index['seed']}:{rec.instance}:run{k}"
        if rec.error is not None:
            failures.append({"instance": label, "check": "pipeline_error", "detail": rec.error})
            continue
        if rec.code != 0:
            failures.append({"instance": label, "check": "exit_code",
                             "detail": f"exit code {rec.code}"})
        n = index["instances"][rec.instance]["nodes"]
        try:
            failed = check(work / "inputs" / rec.instance, rec.out, n)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed = [("outputs_readable", f"{type(exc).__name__}: {exc}")]
        failures += [{"instance": label, "check": c, "detail": d} for c, d in failed]
    return failures


def thread_count() -> int:
    try:
        return len(list(Path("/proc/self/task").iterdir()))
    except OSError:
        return 0


def build_result(records: list[Record], wall: float, failures: list[dict],
                 tracer: Tracer | None) -> dict:
    result = {
        "tvflow_file": tvflow.__file__,
        "times": [r.seconds for r in records if not r.traced],
        "slowdowns": [r.slowdown for r in records if not r.traced],
        "traced_times": [r.seconds for r in records if r.traced],
        "wall_s": wall,
        "attempted": len(records),
        "failed": len({f["instance"] for f in failures}),
        "failures": failures,
    }
    if tracer is not None:
        traced = {k: r.seconds for k, r in enumerate(records) if r.traced}
        untraced = sum(r.seconds for r in records if not r.traced)
        result["layers"] = tracer.summary(traced)
        result["layers"]["trace.overhead_frac"] = sum(traced.values()) / untraced - 1.0
    return result


def main(argv: list[str]) -> int:
    work, workload, seconds, trace, result_path = (
        Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1", Path(argv[4]))
    tracer = Tracer() if trace else None
    records, wall = run_loop(workload, work, seconds, tracer)
    # Peak memory and threads of the loop, read before the checks allocate.
    usage = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "threads": thread_count()}
    result = build_result(records, wall, check_records(workload, work, records), tracer)
    result.update(usage)
    if tracer is not None:
        tracer.write_jsonl(result_path.parent / f"{workload}.spans.jsonl")
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
