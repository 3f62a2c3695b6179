"""CSV and JSON readers/writers for every on-disk artifact.

All CSVs carry a header row and 1-based node ids.  Floats are written
as ``repr`` writes them, the shortest string that round-trips exactly, so
writer output is byte-deterministic and readers recover identical values.
Writers create missing parent directories, and JSON writers reject
non-finite numbers, which JSON cannot represent.  The signal and flow
writers also refuse what their readers would refuse: a signal that is not
one finite value per node, or a flow value that is not finite.

Every CSV writer streams its rows through one row writer, ``_write_csv``,
in chunks of ``_CHUNK_ROWS`` rows, so the bytes held at any time are those
of one chunk, not of the whole file.  A chunk is built as one byte matrix,
a row per CSV row.  Integer columns become right-aligned digits, padded
with 0 bytes.  Each distinct float (by bit pattern, so ``0.0`` and
``-0.0`` stay apart) is formatted once, because the signals and flows
tvflow writes often repeat a few values many times, and its text is
gathered into every row that holds it.  A chunk's column with fewer than
``_VECTOR_MIN`` distinct floats calls ``repr`` once per distinct value; a
column with more, such as the dual of a large grid, is formatted in bulk
by ``_float_repr.repr_texts``, a numpy Ryū that gives ``repr``'s
characters.  It computes Ryū's common case only and hands ``repr`` the
doubles whose scaled values may be exact: integers, multiples of 1/4 and
every double from 2^49 to 2^131, but only 2 of the 184,312 distinct dual
values of a 316 x 316 grid solve.  The chunk's bytes are the matrix's
nonzero bytes in row order: those of formatting every row with ``str``
and ``repr``.  CSVs are
written in binary mode, so every line ends in ``\\n`` on every platform;
JSON is written as text.

Every CSV reader first parses in bulk: the header is checked on the file's
first line, ``np.loadtxt`` is handed the path and parses the rows after it
in C into typed columns, and vectorized checks look for non-finite
numbers, ids out of range, duplicate ids and ids not covered.  A flow
file's tail column holds ids on base rows and the word ``star`` on star
rows, so only the rows from the first star row on are parsed with a text
tail column, from the bytes already read; the base rows before it, all of
them in the files tvflow writes, are parsed as integers.  When loadtxt
refuses the file or a check finds a fault, the reader splits the bytes it
has already read into lines and parses them row by row, raising the error,
which cites the offending file and line.  Both paths read a file one way.
A line ends at ``\\n``, ``\\r`` or ``\\r\\n`` and nowhere else, as in a
text-mode file, which loadtxt reads.  Every integer field must fit in 64
bits, as the arrays that hold it do.  Fields are read as Python's ``int``
and ``float`` read them (``+3``, ``1_000``).  So the two paths give
identical results on every file the bulk path accepts, and which one ran
never shows.

``read_graph_and_observations_csv`` reads the two inputs of a problem with
one node count, the largest id in either file.
"""

from __future__ import annotations

import json
import math
import re
from io import StringIO
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from ._float_repr import POW10, repr_texts, write_digits
from .flow import Flow
from .graph import EmpiricalGraph, _build_graph, _edge_order, _node_list, build_graph
from .signal import Observations, Partition

__all__ = [
    "read_graph_csv",
    "write_graph_csv",
    "read_signal_csv",
    "write_signal_csv",
    "read_observations_csv",
    "write_observations_csv",
    "read_graph_and_observations_csv",
    "read_partition_csv",
    "write_partition_csv",
    "read_flow_csv",
    "write_flow_csv",
    "write_json",
    "read_json",
]

_INT64 = np.iinfo(np.int64)
_FLOW_HEADER = "head,tail,y"
# The types of a flow file's columns on base rows, and on rows whose tail
# may be the word "star".
_FLOW_BASE = (np.int64, np.int64, np.float64)
_FLOW_ROWS = (np.int64, object, np.float64)
_NOT_A_LINE_END = re.compile(rb"[^\r\n]")
# Rows formatted and written at a time by every CSV writer.
_CHUNK_ROWS = 1 << 14
# Distinct floats from which a chunk's column is formatted in bulk rather
# than with one ``repr`` each.  The bulk formatter costs about 0.2 ms per
# call plus a third of ``repr``'s time per value, so the two break even
# near 500 values; the threshold leaves a margin above that.
_VECTOR_MIN = 1024

# A column of CSV fields: integers (an int array or a range), floats (a
# float array, written as repr writes them) or one string repeated on
# every row.
_Column = np.ndarray | range | str


def _create(path: Path | str) -> Path:
    """``path``, after creating its missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path | str, header: str, *blocks: Sequence[_Column]) -> None:
    """Write ``header``, then for each block the rows whose fields are its
    columns."""
    with _create(path).open("wb") as out:
        out.write(header.encode() + b"\n")
        for columns in blocks:
            out.writelines(_csv_chunks(*columns))


def _csv_chunks(*columns: _Column) -> Iterator[bytes]:
    """The rows whose fields are ``columns`` (of the length of the first),
    as the bytes of ``_CHUNK_ROWS`` rows at a time.

    A chunk is one byte matrix, a row per CSV row: each column's fields,
    padded with 0 bytes, then a ``,`` column, and ``\\n`` after the last.
    No field holds a 0 byte, so the chunk's text is the matrix's bytes in
    row order with every 0 byte deleted."""
    length = len(columns[0])
    for start in range(0, length, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, length))
        fields = [_field_bytes(column, rows) for column in columns]
        width = sum(field.shape[1] for field in fields) + len(fields)
        matrix = np.empty((rows.stop - start, width), dtype=np.uint8)
        end = 0
        for field in fields:
            matrix[:, end : end + field.shape[1]] = field
            end += field.shape[1] + 1
            matrix[:, end - 1] = ord(",")
        matrix[:, -1] = ord("\n")
        yield matrix.tobytes().translate(None, b"\0")


def _field_bytes(column: _Column, rows: slice) -> np.ndarray:
    """The CSV fields of ``column`` at ``rows`` (a slice within its length),
    one row of ASCII bytes each, padded with 0 bytes: integers as ``str``
    gives them, floats as ``repr``.  A string column gives one row, which
    broadcasts to every row."""
    if isinstance(column, str):
        return np.frombuffer(column.encode(), dtype=np.uint8)[None, :]
    part = column[rows]
    if isinstance(part, range):
        part = np.arange(part.start, part.stop, part.step)
    if part.dtype.kind == "f":
        return _float_bytes(part)
    return _int_bytes(part)


def _float_bytes(values: np.ndarray) -> np.ndarray:
    """The text ``repr`` gives each float, padded with 0 bytes: formatted
    once per distinct bit pattern (so ``0.0`` and ``-0.0`` stay apart) and
    gathered per row.  Fewer than ``_VECTOR_MIN`` distinct values get one
    ``repr`` each; more are formatted together by ``repr_texts``, whose
    texts hold the same characters with 0 bytes among them."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    if distinct.size < _VECTOR_MIN:
        texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype="S")
    else:
        texts = repr_texts(distinct.view(np.float64))
    return texts[inverse].view(np.uint8).reshape(inverse.size, texts.itemsize)


def _int_bytes(values: np.ndarray) -> np.ndarray:
    """The decimal digits of each integer, right-aligned, with a ``-``
    before those of a negative one."""
    values = values.astype(np.int64, copy=False)
    low, high = int(values.min()), int(values.max())
    sign = int(low < 0)
    largest = max(high, -low)
    digits = len(str(largest))
    # |int64 min| is 2^63, which fits in 64 unsigned bits.  Division by a
    # constant is far cheaper in 32 bits than in 64.
    magnitude = (np.abs(values).view(np.uint64) if sign else values).astype(
        np.uint32 if largest < 1 << 32 else np.uint64
    )
    # One row per digit position, so every step runs over contiguous bytes.
    out = np.empty((sign + digits, values.size), dtype=np.uint8)
    write_digits(out[sign:], magnitude)
    if sign or low < 10 ** (digits - 1):
        # Blank each leading zero: the digit worth 10^e of a value below 10^e.
        powers = POW10[digits - 1 : 0 : -1, None].astype(magnitude.dtype)
        out[sign : sign + digits - 1] *= magnitude >= powers
    if sign:
        out[0] = np.where(values < 0, ord("-"), 0)
    return out.T


# Parses the rows after the header of the file at a path, whose bytes are
# given, into one or more tables; raises ValueError where loadtxt does.
_Load = Callable[[Path | str, str, bytes], tuple[np.ndarray, ...]]


def _read_csv(
    path: Path | str,
    header: str,
    load: _Load,
    bulk: Callable[..., Any],
    row_by_row: Callable[[Path | str, list[tuple[int, list[str]]]], Any],
) -> Any:
    """Parse a CSV in bulk, or row by row where the bulk path cannot.

    When the file's first line is ``header`` and a row follows
    (``_bulk_readable``), ``load(path, header, data)``, given the file's
    bytes, parses the rows after the header in C (``_loadtxt``) into
    structured arrays.  When every float field is finite, ``bulk(*tables)``
    checks ids and returns the parsed value, or None when it finds a fault.
    When the file is not bulk-readable, loadtxt refuses it, a float is not
    finite or ``bulk`` returns None, ``row_by_row(path, _read_rows(path,
    header, lines))`` parses the lines of those same bytes one row at a
    time, raising the error that cites file:line.  Those lines end at
    ``\\n``, ``\\r`` and ``\\r\\n``, as loadtxt's do.  Bytes that are not
    UTF-8 fail there, citing the line of the first bad byte.
    """
    data = Path(path).read_bytes()
    if _bulk_readable(data, header):
        try:
            tables = load(path, header, data)
        except ValueError:
            tables = None
        if tables is not None and all(
            np.isfinite(table[name]).all()
            for table in tables
            for name in header.split(",")
            if table[name].dtype.kind == "f"
        ):
            result = bulk(*tables)
            if result is not None:
                return result
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        lineno = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ValueError(
            f"{path}:{lineno}: byte 0x{data[exc.start]:02x} is not UTF-8"
        ) from None
    lines = StringIO(text, newline=None).readlines()
    return row_by_row(path, _read_rows(path, header, lines))


def _loadtxt(
    source: Path | str | TextIO,
    header: str,
    dtypes: Sequence[type],
    skiprows: int = 1,
    max_rows: int | None = None,
) -> np.ndarray:
    """The rows of ``source``, a file's path or text, after its first
    ``skiprows`` lines (at most ``max_rows`` of them), parsed by
    ``np.loadtxt`` into one structured array with a field per name of
    ``header`` of the type in ``dtypes``."""
    return np.loadtxt(
        source, list(zip(header.split(","), dtypes)), delimiter=",", comments=None,
        skiprows=skiprows, max_rows=max_rows, ndmin=1, encoding="utf-8",
    )


def _one_table(*dtypes: type) -> _Load:
    """The ``load`` of a file whose every row has the types ``dtypes``."""
    return lambda path, header, data: (_loadtxt(path, header, dtypes),)


def _bulk_readable(data: bytes, header: str) -> bool:
    """Whether the file of bytes ``data`` starts with the line ``header``
    and has a non-empty line after it: loadtxt warns, rather than raises,
    when it has none."""
    first = data.partition(b"\n")[0].partition(b"\r")[0]
    return (
        first.strip() == header.encode()
        and _NOT_A_LINE_END.search(data, len(first)) is not None
    )


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
    """An integer field that fits in 64 bits, as the arrays that hold it
    do."""
    try:
        i = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not an integer: '{text}'")
    if not _INT64.min <= i <= _INT64.max:
        raise ValueError(f"{path}:{lineno}: {what} {i} does not fit in 64 bits")
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
    _write_csv(path, "i,j,w", (g.heads, g.tails, g.weights))


def read_graph_csv(path: Path | str) -> EmpiricalGraph:
    """Read an edge-list CSV; the node count is the largest id seen.  A
    faulty edge is named by its line."""

    def bulk(table: np.ndarray) -> EmpiricalGraph | None:
        try:
            return build_graph(int(max(table["i"].max(), table["j"].max())), table)
        except ValueError:  # row by row names the faulty edge's line
            return None

    def row_by_row(
        path: Path | str, rows: list[tuple[int, list[str]]]
    ) -> EmpiricalGraph:
        if not rows:
            raise ValueError(f"{path}: no edges")
        triples = [
            (
                _parse_int(path, lineno, si, "node id"),
                _parse_int(path, lineno, sj, "node id"),
                _parse_float(path, lineno, sw, "weight"),
            )
            for lineno, (si, sj, sw) in rows
        ]
        largest = max(max(i, j) for i, j, _ in triples)
        return _build_graph(largest, triples, lambda k: f"{path}:{rows[k][0]}")

    return _read_csv(
        path, "i,j,w", _one_table(np.int64, np.int64, np.float64), bulk, row_by_row
    )


def write_signal_csv(path: Path | str, x: np.ndarray) -> None:
    """Write one finite value per node, as ``read_signal_csv`` reads it."""
    values = np.asarray(x, dtype=np.float64)
    if values.ndim == 0:
        raise ValueError(f"{path}: expected one value per node, got a scalar")
    if values.size == 0:
        raise ValueError(f"{path}: signal has no nodes")
    if values.ndim > 1:
        raise ValueError(
            f"{path}: node 1: expected one value, got an array of shape"
            f" {values.shape[1:]}"
        )
    _check_finite(path, values, lambda k: f"node {k + 1}", "value")
    _write_csv(path, "i,x", (range(1, values.size + 1), values))


def _check_finite(
    path: Path | str, values: np.ndarray, where: Callable[[int], str], what: str
) -> None:
    """Raise naming ``where(k)`` for the first position k of ``values``
    that is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"{path}: {where(k)}: {what} must be finite, got {float(values[k])}"
        )


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

    return _read_csv(path, header, _one_table(np.int64, dtype), bulk, row_by_row)


def read_signal_csv(path: Path | str) -> np.ndarray:
    """Read a dense signal; rows must cover 1..n exactly (any order)."""
    values = _read_per_node(path, "i,x", "signal", _parse_float, "value", np.float64)
    return np.asarray(values)


def write_observations_csv(path: Path | str, obs: Observations) -> None:
    _write_csv(path, "i,x", (obs.nodes, obs.labels))


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
            nodes.append(_parse_int(path, lineno, si, "node id"))
            labels.append(_parse_float(path, lineno, sx, "label"))
        return nodes, labels

    nodes, labels = _read_csv(
        path, "i,x", _one_table(np.int64, np.float64), bulk, row_by_row
    )
    try:
        return Observations(nodes, labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def read_graph_and_observations_csv(
    graph_path: Path | str, observations_path: Path | str
) -> tuple[EmpiricalGraph, Observations]:
    """Read a graph and its labels.  The node count is the largest id in
    either file, so a labeled node without edges is an isolated node of
    the graph, which the solver names, not an id beyond it."""
    g = read_graph_csv(graph_path)
    obs = read_observations_csv(observations_path)
    largest = int(obs.nodes[-1])
    if largest > g.node_count:
        # The canonical edges of g are those of the larger graph too.
        g = EmpiricalGraph(largest, g.heads, g.tails, g.weights)
    return g, obs


def write_partition_csv(path: Path | str, p: Partition) -> None:
    ids = p.cluster_index + 1
    _write_csv(path, "i,cluster", (range(1, ids.size + 1), ids))


def read_partition_csv(path: Path | str) -> Partition:
    """Read node-to-cluster rows covering 1..n exactly (any order).  Cluster
    ids are any 64-bit integers; clusters are numbered by ascending id."""
    ids = _read_per_node(
        path, "i,cluster", "partition", _parse_int, "cluster id", np.int64
    )
    return Partition(np.unique(ids, return_inverse=True)[1])


def write_flow_csv(path: Path | str, g: EmpiricalGraph, f: Flow) -> None:
    """Base edges as head,tail,value rows; star edges use tail 'star'."""
    _check_flow(path, g, f)
    star = (f.star_nodes, "star", f.star)
    _write_csv(path, _FLOW_HEADER, (g.heads, g.tails, f.base), star)


def _write_dual_and_flow_csv(
    dual_path: Path | str, flow_path: Path | str, g: EmpiricalGraph, f: Flow
) -> None:
    """Write ``f`` to ``flow_path`` as :func:`write_flow_csv` does, and its
    base rows alone to ``dual_path``, formatting those rows once."""
    _check_flow(flow_path, g, f)
    with _create(dual_path).open("wb") as dual, _create(flow_path).open("wb") as flow:
        for out in (dual, flow):
            out.write(_FLOW_HEADER.encode() + b"\n")
        for text in _csv_chunks(g.heads, g.tails, f.base):
            dual.write(text)
            flow.write(text)
        flow.writelines(_csv_chunks(f.star_nodes, "star", f.star))


def _check_flow(path: Path | str, g: EmpiricalGraph, f: Flow) -> None:
    """Refuse a flow that ``read_flow_csv`` could not read back onto ``g``."""
    if f.base.shape != (g.edge_count,):
        raise ValueError(f"{path}: flow does not match the graph's edge count")
    _check_finite(
        path, f.base, lambda k: f"edge ({g.heads[k]}, {g.tails[k]})", "flow value"
    )
    _check_finite(
        path, f.star, lambda k: f"star edge at node {f.star_nodes[k]}", "flow value"
    )


def _load_flow(path: Path | str, header: str, data: bytes) -> tuple[np.ndarray, ...]:
    """The rows of the flow file ``path`` of bytes ``data``: those before
    its first line with the tail ``star``, with integer tails, then the
    rest, with text tails, parsed from ``data`` from that line on.

    That line is the one holding the first ``s`` after the header, which
    no number has.  Every row is parsed with a text tail when that ``s``
    does not start the field ``star``, no row comes before it, a line
    before it is empty (loadtxt would warn that it does not count that
    line towards ``max_rows``) or the file has a ``\\r``.
    """
    body = len(data.partition(b"\n")[0].partition(b"\r")[0])
    star = data.find(b"s", body)
    if data[star - 1 : star + 5] == b",star," and b"\r" not in data:
        # The line ends of the header and of the rows before the star line.
        ends = np.flatnonzero(np.frombuffer(data[body:star], np.uint8) == ord("\n"))
        if ends.size > 1 and not np.any(np.diff(ends) == 1):
            rows = StringIO(data[body + ends[-1] + 1 :].decode("utf-8"))
            return (
                _loadtxt(path, header, _FLOW_BASE, max_rows=ends.size - 1),
                _loadtxt(rows, header, _FLOW_ROWS, skiprows=0),
            )
    return (_loadtxt(path, header, _FLOW_ROWS),)


def read_flow_csv(path: Path | str, g: EmpiricalGraph) -> Flow:
    """Read base rows, in any order, onto the graph's canonical edges, and
    star rows (tail 'star') onto ascending star node ids."""

    def bulk(*tables: np.ndarray) -> Flow | None:
        # The last table's tails are text: ids or "star".
        *base, rows = tables
        star = rows["tail"] == "star"
        try:
            tails = rows["tail"][~star].astype(np.int64)
        except (ValueError, OverflowError):  # not an int, or beyond 64 bits
            return None
        heads = np.concatenate([t["head"] for t in base] + [rows["head"][~star]])
        tails = np.concatenate([t["tail"] for t in base] + [tails])
        values = np.concatenate([t["y"] for t in base] + [rows["y"][~star]])
        # Sorted base rows equal to the distinct canonical edges, one for
        # one, are those edges each exactly once.
        order = _edge_order(heads, tails, g.node_count)
        if not (
            np.array_equal(heads[order], g.heads)
            and np.array_equal(tails[order], g.tails)
        ):
            return None
        star_nodes = rows["head"][star]
        star_order = np.argsort(star_nodes, kind="stable")
        star_nodes = star_nodes[star_order]
        if np.any(star_nodes[1:] == star_nodes[:-1]):
            return None
        return Flow(values[order], star_nodes, rows["y"][star][star_order])

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
            missing = _node_list(sorted(set(expected) - set(base)))
            extra = _node_list(sorted(set(base) - set(expected)))
            raise ValueError(
                f"{path}: flow edges do not match the graph"
                f" (missing [{missing}], extraneous [{extra}])"
            )
        star_nodes = np.asarray(sorted(star), dtype=np.int64)
        return Flow(
            base=np.asarray([base[e] for e in expected]),
            star_nodes=star_nodes,
            star=np.asarray([star[int(i)] for i in star_nodes]),
        )

    return _read_csv(path, _FLOW_HEADER, _load_flow, bulk, row_by_row)


def write_json(path: Path | str, payload: dict[str, Any]) -> None:
    """Write ``payload`` as JSON; raise naming ``path``, and write nothing,
    when it holds a value JSON cannot represent, such as a non-finite float."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with _create(path).open("w", encoding="utf-8") as out:
        out.write(text + "\n")


def read_json(path: Path | str) -> dict[str, Any]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data
