"""tvflow benchmark: time from instance CSVs on disk to checked results.

    python3 perfbench/run.py --workload sbm-gap --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src`` next to this
directory.  Per workload it generates the seeded instance pool, times the
set-up of fresh CLI processes, then runs the workload's closed loop in a
fresh worker process with one thread per native library.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Details
(fingerprint, every instance time, failures, machine) go to
``.perfbench_run/results/``, and the spans of a traced run next to them
as JSONL.  ``spec.json`` lists every metric with its layer and the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy is imported here or in any child: no extra native threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import instances  # noqa: E402
from hostspeed import slowdown  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
TIME_LIMIT_S = 170.0
# Fresh-process set-up samples per run, half before and half after the
# worker so that they straddle it in time; one unmeasured warm-up first.
SETUP_PROBES = {"full": 10, "tiny": 2}
# The tail is the highest percentile with at least this many instances beyond it.
TAIL_BEYOND = 10

UNITS = {m["name"]: m["unit"]
         for m in json.loads((HERE / "spec.json").read_text(encoding="utf-8"))["metrics"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: list, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, *map(str, args)], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(str(args[0])).name} did not finish within the time limit")


def _require_src(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"tvflow was imported from {path}, not from {SRC}")


def setup_times(count: int, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of ``count`` fresh CLI processes, and for each the mean
    slowdown of the interpreter kernel just before and just after it."""
    times, slowdowns = [], []
    before = slowdown("interpreter")
    for _ in range(count):
        proc = _child([HERE / "setup_probe.py"], deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        after = slowdown("interpreter")
        value, path = proc.stdout.split()
        _require_src(path)
        times.append(float(value))
        slowdowns.append((before + after) / 2)
        before = after
    return times, slowdowns


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND instances
    beyond it, when that percentile lies above the median."""
    n = len(times)
    if n <= 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def adjusted(times: list[float], slowdowns: list[float]) -> list[float]:
    """Times at the reference host speed: each wall time divided by the
    host speed kernel's slowdown around it."""
    return [t / s for t, s in zip(times, slowdowns, strict=True)]


def adjusted_times(result: dict) -> list[float]:
    return adjusted(result["times"], result["slowdowns"])


def end_to_end(result: dict) -> dict[str, float]:
    times = adjusted_times(result)
    return {
        "e2e_p50_s": statistics.median(times),
        "instances_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "setup_s": statistics.median(adjusted(result["setup_times"], result["setup_slowdowns"])),
    }


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    work = RUN_DIR / f"{stem}-{os.getpid()}"
    result_path = RUN_DIR / "results" / f"{stem}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        fingerprint = instances.generate(workload, seed, work / "inputs", size)
        probes = 0 if trace else SETUP_PROBES[size] // 2
        slowdown("interpreter")  # warm-up
        setup, setup_slowdowns = setup_times(probes + 1, deadline) if probes else ([], [])
        setup, setup_slowdowns = setup[1:], setup_slowdowns[1:]
        proc = _child([HERE / "worker.py", work, workload, seconds, int(trace), result_path], deadline)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        after, after_slowdowns = setup_times(probes, deadline)
        setup += after
        setup_slowdowns += after_slowdowns
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _require_src(result["tvflow_file"])
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, size=size,
                  fingerprint=fingerprint, setup_times=setup, setup_slowdowns=setup_slowdowns,
                  machine=machine())
    result["metrics"] = result.pop("layers") if trace else end_to_end(result)
    result["fail_frac"] = result["failed"] / result["attempted"]
    result["tail"] = None if trace else tail(adjusted_times(result))
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report_lines(r: dict) -> list[str]:
    m = r["machine"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']}  trace {int(r['trace'])}"
        f"  {r['attempted']} pipeline runs  inputs {r['fingerprint']}",
        f"  machine: {m['nproc']} cpus, {m['cpu']}, Python {m['python']}, numpy {m['numpy']};"
        f" worker threads {r['threads']}",
    ]
    lines += [f"  {name:<40} {value!r} {UNITS[name]}" for name, value in r["metrics"].items()]
    if not r["trace"]:
        host = statistics.median(r["slowdowns"])
        lines.append(f"  {'unadjusted wall p50':<40} {statistics.median(r['times'])!r} s"
                     f" (host speed kernel at {host:.3f}x its reference time)")
        lines.append(f"  {'unadjusted setup':<40} {statistics.median(r['setup_times'])!r} s")
        if r["tail"] is None:
            lines.append(f"  {'e2e_tail_s':<40} not reported: {len(r['times'])} instances,"
                         f" needs more than {2 * TAIL_BEYOND}")
        else:
            pct, value = r["tail"]
            lines.append(f"  {'e2e_tail_s':<40} {value!r} s (p{pct:.1f} of {len(r['times'])} instances)")
    lines.append(f"  {'fail_frac':<40} {r['fail_frac']!r} ({r['failed']} of {r['attempted']})")
    lines += [f"  FAILED {f['check']} on {f['instance']}: {f['detail']}" for f in r["failures"][:20]]
    return lines


def json_line(results: list[dict]) -> str:
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": UNITS[name]}
        for r in results for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*instances.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="instance size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "tvflow" / "__init__.py").is_file():
        print(f"perfbench: no tvflow sources under {SRC}", file=sys.stderr)
        return 2
    names = list(instances.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.size))
            print("\n".join(report_lines(results[-1])), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
