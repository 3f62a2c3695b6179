"""Output checks per workload, computed from the files on disk with the
benchmark's own parsing and arithmetic (no package code), so a defect in
the package cannot vouch for itself.

Each check function takes the instance's input and output directories and
its node count, and returns (name, detail) for every check that failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from instances import LAMBDA

GAP_TOL = 1e-3
GRID_ITERS = 100


def _body(path: Path, header: str) -> str:
    first, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    if first != header:
        raise ValueError(f"{path.name}: expected header {header!r}")
    return body.rstrip("\n")


def read_numbers(path: Path, header: str) -> np.ndarray:
    """Rows of an all-numeric CSV as a float array, one column per field."""
    width = header.count(",") + 1
    body = _body(path, header)
    values = np.fromstring(body.replace("\n", ","), sep=",") if body else np.empty(0)
    if values.size != (body.count("\n") + 1 if body else 0) * width:
        raise ValueError(f"{path.name}: unparsable or ragged rows")
    return values.reshape(-1, width)


def read_graph(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based heads and tails plus weights, in file order."""
    rows = read_numbers(path, "i,j,w")
    return rows[:, 0].astype(np.int64) - 1, rows[:, 1].astype(np.int64) - 1, rows[:, 2]


def read_signal(path: Path, n: int) -> np.ndarray:
    rows = read_numbers(path, "i,x")
    if not np.array_equal(rows[:, 0], np.arange(1, n + 1)):
        raise ValueError(f"{path.name}: expected rows for nodes 1..{n}")
    return rows[:, 1]


def read_observations(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = read_numbers(path, "i,x")
    return rows[:, 0].astype(np.int64) - 1, rows[:, 1]


def primal(inputs: Path, x: np.ndarray) -> float:
    """Half squared label error plus lambda times weighted total variation."""
    h, t, w = read_graph(inputs / "graph.csv")
    nodes, labels = read_observations(inputs / "observations.csv")
    diff = x[nodes] - labels
    return float(0.5 * np.dot(diff, diff) + LAMBDA * np.sum(w * np.abs(x[h] - x[t])))


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def check_sbm_gap(inputs: Path, out: Path, n: int) -> list[tuple[str, str]]:
    report = _report(out)
    failed = []
    if report.get("certified") is not True:
        failed.append(("certified", f"report.json certified = {report.get('certified')!r}"))
        return failed
    gap, objective = report["gap"], report["objective"]
    if not gap <= GAP_TOL:
        failed.append(("gap_within_tol", f"gap {gap!r} > {GAP_TOL}"))
    if not gap >= -1e-12 * max(1.0, abs(objective)):
        failed.append(("gap_not_negative", f"certified gap {gap!r} below -1e-12*max(1,|primal|)"))
    recomputed = primal(inputs, read_signal(out / "primal.csv", n))
    if not abs(recomputed - objective) <= 1e-9 * max(1.0, abs(objective)):
        failed.append(("primal_matches_report",
                       f"primal.csv gives {recomputed!r}, report.json says {objective!r}"))
    return failed


def check_grid_ingest(inputs: Path, out: Path, n: int) -> list[tuple[str, str]]:
    report = _report(out)
    failed = []
    if report.get("iters") != GRID_ITERS:
        failed.append(("iters", f"report.json iters = {report.get('iters')!r}, expected {GRID_ITERS}"))
    x = read_signal(out / "primal.csv", n)
    if not np.all(np.isfinite(x)):
        failed.append(("primal_finite", f"{int(np.sum(~np.isfinite(x)))} non-finite values"))
    h, t, w = read_graph(inputs / "graph.csv")
    dual = read_numbers(out / "dual.csv", "head,tail,y")
    if not np.array_equal(dual[:, :2].astype(np.int64) - 1, np.column_stack((h, t))):
        failed.append(("dual_edges", "dual.csv rows do not match graph.csv edges"))
        return failed
    y = dual[:, 2]
    over = np.flatnonzero(~(np.abs(y) <= LAMBDA * w))
    if over.size:
        e = int(over[0])
        failed.append(("dual_capacity",
                       f"{over.size} duals above capacity, first edge ({h[e] + 1},{t[e] + 1}):"
                       f" |{y[e]!r}| > {LAMBDA * w[e]!r}"))
    return failed


def check_tree_certify(inputs: Path, out: Path, n: int) -> list[tuple[str, str]]:
    report = _report(out)
    if report.get("status") != "verified":
        return [("status_verified", f"status {report.get('status')!r}: {report.get('failure_reason')}")]
    x = read_signal(out / "reconstructed.csv", n)
    nodes, labels = read_observations(inputs / "observations.csv")
    rows = [line.split(",") for line in _body(out / "flow.csv", "head,tail,y").split("\n")]
    star = {int(h) - 1: float(y) for h, t, y in rows if t == "star"}
    if sorted(star) != nodes.tolist():
        return [("flow_star_nodes", "flow.csv star rows do not match the labeled nodes")]
    v = np.array([star[i] for i in nodes.tolist()])
    mincost = float(np.sum(v * (0.5 * v - labels)))
    value = primal(inputs, x)
    if not math.fabs(value + mincost) <= 1e-9:
        return [("strong_duality", f"primal {value!r} + flow cost {mincost!r} = {value + mincost!r}")]
    return []


CHECKS = {
    "sbm-gap": check_sbm_gap,
    "grid-ingest": check_grid_ingest,
    "tree-certify": check_tree_certify,
}
