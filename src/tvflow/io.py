"""CSV and JSON readers/writers for every on-disk artifact.

All CSVs carry a header row and 1-based node ids.  Floats are written
with ``repr``, the shortest string that round-trips exactly, so writer
output is byte-deterministic and readers recover identical values.
Writers create missing parent directories, and JSON writers reject
non-finite numbers, which JSON cannot represent.

Every CSV reader first parses in bulk: after the header, ``np.loadtxt``
reads the rows into typed columns, and vectorized checks look for
non-finite numbers, ids out of range, duplicate ids and ids not covered.
When loadtxt refuses the file or a check finds a fault, the reader parses
it again row by row.  That path accepts everything Python's ``int`` and
``float`` accept (``1_000``, ids beyond 64 bits) and raises the error,
which cites the offending file and line.  Both paths give identical
results on every file the bulk path accepts, so which one ran never shows.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

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

_INT64 = np.iinfo(np.int64)


def _write_text(path: Path | str, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_lines(path: Path | str, header: str, rows: Iterable[str]) -> None:
    _write_text(path, "\n".join([header, *rows]) + "\n")


def _format_rows(fmt: str, *columns: Any) -> Iterable[str]:
    """One ``fmt`` row per position.  ``tolist()`` yields Python ints and
    floats, whose ``{}`` and ``{!r}`` are exactly ``int`` and ``repr``."""
    return map(fmt.format, *(np.asarray(c).tolist() for c in columns))


def _read_csv(
    path: Path | str,
    header: str,
    dtypes: Sequence[type],
    bulk: Callable[[np.ndarray], Any],
    row_by_row: Callable[[Path | str, list[tuple[int, list[str]]]], Any],
) -> Any:
    """Parse a CSV in bulk, or row by row where the bulk path cannot.

    The rows after ``header`` go to ``np.loadtxt`` as one structured array
    with a field per header name of the type in ``dtypes``.  When every
    float field is finite, ``bulk(table)`` checks ids and returns the
    parsed value, or None when it finds a fault.  When the file has no
    data rows, loadtxt refuses it, a float is not finite or ``bulk``
    returns None, ``row_by_row(path, _read_rows(path, header, lines))``
    parses it one row at a time and raises the error that cites file:line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = lines[1:]
    # Only empty lines after the header make loadtxt warn, not raise.
    if lines and lines[0].strip() == header and any(body):
        names = header.split(",")
        try:
            table = np.loadtxt(
                body, list(zip(names, dtypes)), delimiter=",", comments=None, ndmin=1
            )
        except ValueError:
            table = None
        if table is not None and all(
            np.isfinite(table[name]).all()
            for name in names
            if table[name].dtype.kind == "f"
        ):
            result = bulk(table)
            if result is not None:
                return result
    return row_by_row(path, _read_rows(path, header, lines))


def _read_rows(
    path: Path | str, header: str, lines: list[str]
) -> list[tuple[int, list[str]]]:
    """Return (line_number, fields) rows of the file ``path`` split into
    ``lines``, after validating the header."""
    path = Path(path)
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


def _parse_node_id(path: Path | str, lineno: int, text: str) -> int:
    """A node id of a graph or observations file: an integer that fits in
    64 bits, as the arrays that hold node ids do."""
    i = _parse_int(path, lineno, text, "node id")
    if not _INT64.min <= i <= _INT64.max:
        raise ValueError(f"{path}:{lineno}: node id {i} does not fit in 64 bits")
    return i


def _parse_float(path: Path | str, lineno: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: '{text}'")
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, got '{text}'")
    return value


def write_graph_csv(path: Path | str, g: EmpiricalGraph) -> None:
    _write_lines(path, "i,j,w", _format_rows("{},{},{!r}", g.heads, g.tails, g.weights))


def read_graph_csv(path: Path | str) -> EmpiricalGraph:
    """Read an edge-list CSV; the node count is the largest id seen."""

    def bulk(table: np.ndarray) -> tuple[int, np.ndarray]:
        return int(max(table["i"].max(), table["j"].max())), table

    def row_by_row(
        path: Path | str, rows: list[tuple[int, list[str]]]
    ) -> tuple[int | None, list[tuple[int, int, float]]]:
        triples = []
        for lineno, (si, sj, sw) in rows:
            i = _parse_node_id(path, lineno, si)
            j = _parse_node_id(path, lineno, sj)
            w = _parse_float(path, lineno, sw, "weight")
            triples.append((i, j, w))
        largest = max(max(i, j) for i, j, _ in triples) if triples else None
        return largest, triples

    largest, edges = _read_csv(
        path, "i,j,w", (np.int64, np.int64, np.float64), bulk, row_by_row
    )
    if largest is None:
        raise ValueError(f"{path}: no edges")
    try:
        return build_graph(largest, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_signal_csv(path: Path | str, x: np.ndarray) -> None:
    values = np.asarray(x, dtype=np.float64)
    nodes = np.arange(1, values.size + 1)
    _write_lines(path, "i,x", _format_rows("{},{!r}", nodes, values))


def _read_per_node(
    path: Path | str,
    header: str,
    kind: str,
    parse: Callable[..., Any],
    what: str,
    dtype: type,
) -> np.ndarray | list:
    """The value column of a per-node file in node order, each value of
    type ``dtype``, parsed row by row by ``parse(path, lineno, text,
    what)``.  Rows must cover ids 1..n exactly, in any order."""

    def bulk(table: np.ndarray) -> np.ndarray | None:
        ids, values = (table[name] for name in table.dtype.names)
        n = ids.size
        index = ids - 1
        if index.min() < 0 or index.max() >= n:
            return None
        covered = np.zeros(n, dtype=bool)
        covered[index] = True
        if not covered.all():  # n rows in range but some id twice
            return None
        ordered = np.empty(n, dtype=values.dtype)
        ordered[index] = values
        return ordered

    def row_by_row(path: Path | str, rows: list[tuple[int, list[str]]]) -> list:
        if not rows:
            raise ValueError(f"{path}: {kind} file has no rows")
        n = len(rows)
        values: list = [None] * n
        for lineno, (si, sv) in rows:
            i = _parse_int(path, lineno, si, "node id")
            if not 1 <= i <= n:
                raise ValueError(
                    f"{path}:{lineno}: node id {i} is outside 1..{n}; the {n} rows"
                    f" must cover node ids 1..{n} exactly"
                )
            if values[i - 1] is not None:
                raise ValueError(f"{path}:{lineno}: duplicate node id {i}")
            values[i - 1] = parse(path, lineno, sv, what)
        return values

    return _read_csv(path, header, (np.int64, dtype), bulk, row_by_row)


def read_signal_csv(path: Path | str) -> np.ndarray:
    """Read a dense signal; rows must cover 1..n exactly (any order)."""
    values = _read_per_node(path, "i,x", "signal", _parse_float, "value", np.float64)
    return np.asarray(values)


def write_observations_csv(path: Path | str, obs: Observations) -> None:
    _write_lines(path, "i,x", _format_rows("{},{!r}", obs.nodes, obs.labels))


def read_observations_csv(path: Path | str) -> Observations:
    def bulk(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return table["i"], table["x"]

    def row_by_row(
        path: Path | str, rows: list[tuple[int, list[str]]]
    ) -> tuple[list[int], list[float]]:
        if not rows:
            raise ValueError(f"{path}: observations file has no rows")
        nodes, labels = [], []
        for lineno, (si, sx) in rows:
            nodes.append(_parse_node_id(path, lineno, si))
            labels.append(_parse_float(path, lineno, sx, "label"))
        return nodes, labels

    nodes, labels = _read_csv(path, "i,x", (np.int64, np.float64), bulk, row_by_row)
    try:
        return Observations(nodes, labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_partition_csv(path: Path | str, p: Partition) -> None:
    nodes = np.arange(1, p.node_count + 1)
    _write_lines(path, "i,cluster", _format_rows("{},{}", nodes, p.cluster_index + 1))


def read_partition_csv(path: Path | str) -> Partition:
    """Read node-to-cluster rows covering 1..n exactly (any order).  Cluster
    ids are any integers; clusters are numbered by ascending id."""
    values = _read_per_node(
        path, "i,cluster", "partition", _parse_int, "cluster id", np.int64
    )
    ids = np.asarray(values)
    if ids.dtype.kind != "i":  # ids beyond 64 bits: sort them as Python ints
        ids = np.asarray(values, dtype=object)
    return Partition(np.unique(ids, return_inverse=True)[1])


def write_flow_csv(path: Path | str, g: EmpiricalGraph, f: Flow) -> None:
    """Base edges as head,tail,value rows; star edges use tail 'star'."""
    if f.base.shape != (g.edge_count,):
        raise ValueError("flow does not match the graph's edge count")
    base = _format_rows("{},{},{!r}", g.heads, g.tails, f.base)
    star = _format_rows("{},star,{!r}", f.star_nodes, f.star)
    _write_lines(path, "head,tail,y", [*base, *star])


def read_flow_csv(path: Path | str, g: EmpiricalGraph) -> Flow:
    """Read base rows, in any order, onto the graph's canonical edges, and
    star rows (tail 'star') onto ascending star node ids."""

    def bulk(table: np.ndarray) -> Flow | None:
        star = table["tail"] == "star"
        base = ~star
        try:
            tails = table["tail"][base].astype(np.int64)
        except (ValueError, OverflowError):  # not an int, or beyond 64 bits
            return None
        heads, values = table["head"][base], table["y"][base]
        # Sorted base rows equal to the distinct canonical edges, one for
        # one, are those edges each exactly once.
        order = np.lexsort((tails, heads))
        if not (
            np.array_equal(heads[order], g.heads)
            and np.array_equal(tails[order], g.tails)
        ):
            return None
        star_nodes = table["head"][star]
        star_order = np.argsort(star_nodes, kind="stable")
        star_nodes = star_nodes[star_order]
        if np.any(star_nodes[1:] == star_nodes[:-1]):
            return None
        return Flow(values[order], star_nodes, table["y"][star][star_order])

    def row_by_row(path: Path | str, rows: list[tuple[int, list[str]]]) -> Flow:
        base = {}
        star = {}
        for lineno, (sh, st, sy) in rows:
            h = _parse_int(path, lineno, sh, "head id")
            value = _parse_float(path, lineno, sy, "flow value")
            if st == "star":
                if h in star:
                    raise ValueError(
                        f"{path}:{lineno}: duplicate star edge at node {h}"
                    )
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

    dtypes = (np.int64, object, np.float64)
    return _read_csv(path, "head,tail,y", dtypes, bulk, row_by_row)


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
