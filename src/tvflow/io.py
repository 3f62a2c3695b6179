"""CSV and JSON readers/writers for every on-disk artifact.

All CSVs carry a header row and 1-based node ids.  Floats are written
with ``repr``, the shortest string that round-trips exactly, so writer
output is byte-deterministic and readers recover identical values.
Reader errors cite the offending file and line number.  Writers create
missing parent directories, and JSON writers reject non-finite numbers,
which JSON cannot represent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .flow import Flow
from .graph import EmpiricalGraph, build_graph
from .signal import Observations, Partition

__all__ = [
    "read_graph_csv",
    "write_graph_csv",
    "read_signal_csv",
    "write_signal_csv",
    "read_observations_csv",
    "write_observations_csv",
    "read_partition_csv",
    "write_partition_csv",
    "read_flow_csv",
    "write_flow_csv",
    "write_json",
    "read_json",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: Path | str, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_lines(path: Path | str, header: str, rows: Iterable[str]) -> None:
    _write_text(path, "\n".join([header, *rows]) + "\n")


def _read_rows(path: Path | str, header: str) -> list[tuple[int, list[str]]]:
    """Return (line_number, fields) rows after validating the header."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected header '{header}'")
    if lines[0].strip() != header:
        raise ValueError(
            f"{path}:1: expected header '{header}', got '{lines[0].strip()}'"
        )
    n_fields = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n_fields:
            raise ValueError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        rows.append((lineno, fields))
    return rows


def _parse_int(path: Path | str, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not an integer: '{text}'")


def _parse_float(path: Path | str, lineno: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: '{text}'")


def write_graph_csv(path: Path | str, g: EmpiricalGraph) -> None:
    rows = zip(g.heads, g.tails, g.weights)
    _write_lines(path, "i,j,w", (f"{int(h)},{int(t)},{_fmt(w)}" for h, t, w in rows))


def read_graph_csv(path: Path | str, node_count: int | None = None) -> EmpiricalGraph:
    """Read an edge-list CSV; node count defaults to the largest id seen."""
    rows = _read_rows(path, "i,j,w")
    triples = []
    for lineno, (si, sj, sw) in rows:
        i = _parse_int(path, lineno, si, "node id")
        j = _parse_int(path, lineno, sj, "node id")
        w = _parse_float(path, lineno, sw, "weight")
        triples.append((i, j, w))
    if node_count is None:
        if not triples:
            raise ValueError(f"{path}: no edges and no node_count given")
        node_count = max(max(i, j) for i, j, _ in triples)
    try:
        return build_graph(node_count, triples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_signal_csv(path: Path | str, x: np.ndarray) -> None:
    values = np.asarray(x, dtype=np.float64)
    _write_lines(path, "i,x", (f"{i},{_fmt(v)}" for i, v in enumerate(values, start=1)))


def read_signal_csv(path: Path | str) -> np.ndarray:
    """Read a dense signal; rows must cover 1..n exactly (any order)."""
    rows = _read_rows(path, "i,x")
    if not rows:
        raise ValueError(f"{path}: signal file has no rows")
    entries = {}
    for lineno, (si, sx) in rows:
        i = _parse_int(path, lineno, si, "node id")
        if i in entries:
            raise ValueError(f"{path}:{lineno}: duplicate node id {i}")
        entries[i] = _parse_float(path, lineno, sx, "value")
    n = max(entries)
    if set(entries) != set(range(1, n + 1)):
        raise ValueError(f"{path}: rows must cover node ids 1..{n} exactly")
    return np.asarray([entries[i] for i in range(1, n + 1)])


def write_observations_csv(path: Path | str, obs: Observations) -> None:
    rows = (f"{int(i)},{_fmt(v)}" for i, v in zip(obs.nodes, obs.labels))
    _write_lines(path, "i,x", rows)


def read_observations_csv(path: Path | str) -> Observations:
    rows = _read_rows(path, "i,x")
    if not rows:
        raise ValueError(f"{path}: observations file has no rows")
    pairs = []
    for lineno, (si, sx) in rows:
        pairs.append(
            (
                _parse_int(path, lineno, si, "node id"),
                _parse_float(path, lineno, sx, "label"),
            )
        )
    try:
        return Observations.from_pairs(pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_partition_csv(path: Path | str, p: Partition) -> None:
    rows = (f"{i},{int(c) + 1}" for i, c in enumerate(p.cluster_index, start=1))
    _write_lines(path, "i,cluster", rows)


def read_partition_csv(path: Path | str) -> Partition:
    """Read node-to-cluster rows; clusters are ordered by their file id."""
    rows = _read_rows(path, "i,cluster")
    if not rows:
        raise ValueError(f"{path}: partition file has no rows")
    assignment: dict[int, int] = {}
    for lineno, (si, sc) in rows:
        i = _parse_int(path, lineno, si, "node id")
        if i in assignment:
            raise ValueError(f"{path}:{lineno}: duplicate node id {i}")
        assignment[i] = _parse_int(path, lineno, sc, "cluster id")
    n = max(assignment)
    cluster_ids = sorted(set(assignment.values()))
    clusters = tuple(
        frozenset(i for i, c in assignment.items() if c == cid)
        for cid in cluster_ids
    )
    try:
        return Partition(clusters, n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_flow_csv(path: Path | str, g: EmpiricalGraph, f: Flow) -> None:
    """Base edges as head,tail,value rows; star edges use tail 'star'."""
    if f.base.shape != (g.edge_count,):
        raise ValueError("flow does not match the graph's edge count")
    base = (f"{int(h)},{int(t)},{_fmt(v)}" for h, t, v in zip(g.heads, g.tails, f.base))
    star = (f"{int(i)},star,{_fmt(v)}" for i, v in zip(f.star_nodes, f.star))
    _write_lines(path, "head,tail,y", [*base, *star])


def read_flow_csv(path: Path | str, g: EmpiricalGraph) -> Flow:
    rows = _read_rows(path, "head,tail,y")
    base = {}
    star = {}
    for lineno, (sh, st, sy) in rows:
        h = _parse_int(path, lineno, sh, "head id")
        value = _parse_float(path, lineno, sy, "flow value")
        if st == "star":
            if h in star:
                raise ValueError(f"{path}:{lineno}: duplicate star edge at node {h}")
            star[h] = value
        else:
            t = _parse_int(path, lineno, st, "tail id")
            if (h, t) in base:
                raise ValueError(f"{path}:{lineno}: duplicate edge ({h}, {t})")
            base[(h, t)] = value
    expected = list(zip(g.heads.tolist(), g.tails.tolist()))
    if set(base) != set(expected):
        missing = sorted(set(expected) - set(base))
        extra = sorted(set(base) - set(expected))
        raise ValueError(
            f"{path}: flow edges do not match the graph"
            f" (missing {missing}, extraneous {extra})"
        )
    star_nodes = np.asarray(sorted(star), dtype=np.int64)
    return Flow(
        base=np.asarray([base[e] for e in expected]),
        star_nodes=star_nodes,
        star=np.asarray([star[int(i)] for i in star_nodes]),
    )


def write_json(path: Path | str, payload: dict[str, Any]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


def read_json(path: Path | str) -> dict[str, Any]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data
