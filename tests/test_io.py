from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from tvflow.flow import Flow
from tvflow.graph import EmpiricalGraph, build_graph
from tvflow.io import (
    read_flow_csv,
    read_graph_csv,
    read_json,
    read_observations_csv,
    read_partition_csv,
    read_signal_csv,
    write_flow_csv,
    write_graph_csv,
    write_json,
    write_observations_csv,
    write_partition_csv,
    write_signal_csv,
)
from tvflow.signal import Observations, Partition

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestGraphCsv:
    def test_round_trip(self, tmp_path, chain):
        g, _, _ = chain
        path = tmp_path / "graph.csv"
        write_graph_csv(path, g)
        back = read_graph_csv(path)
        assert back.node_count == g.node_count
        assert back.edges() == g.edges()

    def test_writer_emits_canonical_order(self, tmp_path, chain):
        g, _, _ = chain
        path = tmp_path / "graph.csv"
        write_graph_csv(path, g)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,w"
        pairs = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        assert pairs == sorted(pairs)
        assert all(h < t for h, t in pairs)

    def test_exact_float_round_trip(self, tmp_path):
        weights = [1 / 3, 0.1, 2e-15, 123456.789012345]
        g = build_graph(5, [(1, 2, weights[0]), (2, 3, weights[1]),
                            (3, 4, weights[2]), (4, 5, weights[3])])
        path = tmp_path / "graph.csv"
        write_graph_csv(path, g)
        back = read_graph_csv(path)
        assert np.array_equal(back.weights, g.weights)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("a,b,c\n1,2,1.0\n")
        with pytest.raises(ValueError, match="graph.csv:1"):
            read_graph_csv(path)

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("i,j,w\n1,2,1.0\n1,x,1.0\n")
        with pytest.raises(ValueError, match="graph.csv:3"):
            read_graph_csv(path)

    def test_duplicate_edge_reported(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("i,j,w\n1,2,1.0\n2,1,1.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_graph_csv(path)


class TestSignalCsv:
    @given(st.lists(finite_floats, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, values):
        import tempfile
        from pathlib import Path

        x = np.asarray(values)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "signal.csv"
            write_signal_csv(path, x)
            assert np.array_equal(read_signal_csv(path), x)

    def test_missing_node_rejected(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("i,x\n1,0.5\n3,0.5\n")
        with pytest.raises(ValueError, match="cover"):
            read_signal_csv(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("i,x\n1,0.5\n1,0.7\n")
        with pytest.raises(ValueError, match="signal.csv:3"):
            read_signal_csv(path)


class TestObservationsCsv:
    def test_round_trip(self, tmp_path, chain):
        _, obs, _ = chain
        path = tmp_path / "obs.csv"
        write_observations_csv(path, obs)
        back = read_observations_csv(path)
        assert np.array_equal(back.nodes, obs.nodes)
        assert np.array_equal(back.labels, obs.labels)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("i,x\n")
        with pytest.raises(ValueError, match="no rows"):
            read_observations_csv(path)


class TestPartitionCsv:
    def test_round_trip(self, tmp_path, chain):
        _, _, partition = chain
        path = tmp_path / "partition.csv"
        write_partition_csv(path, partition)
        back = read_partition_csv(path)
        assert np.array_equal(back.cluster_index, partition.cluster_index)

    @pytest.mark.parametrize("rows, message", [
        pytest.param("1,1\n3,2\n", ":3: node id 3 is outside 1..2; the 2 rows must cover",
                     id="gap"),
        pytest.param("1,1\n1,2\n", ":3: duplicate node id 1", id="duplicate"),
        pytest.param("0,1\n1,1\n", ":2: node id 0 is outside", id="node-zero"),
        pytest.param("1,1\n2,1.5\n", ":3: cluster id is not an integer", id="float-id"),
    ])
    def test_gap_rejected(self, tmp_path, rows, message):
        path = tmp_path / "partition.csv"
        path.write_text("i,cluster\n" + rows)
        with pytest.raises(ValueError, match=f"partition.csv{message}"):
            read_partition_csv(path)

    @pytest.mark.parametrize("extra, expected", [
        ("", [1, 0, 2, 0]),
        (f"5,{2**63}\n6,{-2**70}\n", [2, 1, 3, 1, 4, 0]),  # beyond 64 bits
    ])
    def test_sparse_ids_numbered_by_ascending_id(self, tmp_path, extra, expected):
        path = tmp_path / "partition.csv"
        path.write_text("i,cluster\n3,30\n1,20\n2,10\n4,10\n" + extra)
        assert read_partition_csv(path).cluster_index.tolist() == expected


class TestFlowCsv:
    def test_round_trip(self, tmp_path, chain):
        g, _, _ = chain
        f = Flow(
            base=np.array([0.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0]),
            star_nodes=np.array([2, 7]),
            star=np.array([0.25, -0.25]),
        )
        path = tmp_path / "flow.csv"
        write_flow_csv(path, g, f)
        back = read_flow_csv(path, g)
        assert np.array_equal(back.base, f.base)
        assert np.array_equal(back.star_nodes, f.star_nodes)
        assert np.array_equal(back.star, f.star)

    def test_star_rows_written_with_star_tail(self, tmp_path, chain):
        g, _, _ = chain
        f = Flow(np.zeros(9), np.array([2, 7]), np.zeros(2))
        path = tmp_path / "flow.csv"
        write_flow_csv(path, g, f)
        lines = path.read_text().splitlines()
        assert lines[0] == "head,tail,y"
        assert "2,star,0.0" in lines
        assert "7,star,0.0" in lines

    def test_empty_star_round_trip(self, tmp_path, chain):
        g, _, _ = chain
        f = Flow(np.linspace(-1, 1, 9), np.empty(0, dtype=np.int64), np.empty(0))
        path = tmp_path / "flow.csv"
        write_flow_csv(path, g, f)
        back = read_flow_csv(path, g)
        assert np.array_equal(back.base, f.base)
        assert back.star_nodes.size == 0

    def test_edge_mismatch_rejected(self, tmp_path, chain):
        g, _, _ = chain
        path = tmp_path / "flow.csv"
        path.write_text("head,tail,y\n1,2,0.0\n")
        with pytest.raises(ValueError, match="do not match"):
            read_flow_csv(path, g)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("read, body, what", [
    (read_graph_csv, "i,j,w\n1,2,1.0\n2,3,{}\n", "weight"),
    (read_signal_csv, "i,x\n1,0.5\n2,{}\n", "value"),
    (read_observations_csv, "i,x\n1,0.5\n3,{}\n", "label"),
])
def test_non_finite_number_cites_line(tmp_path, text, read, body, what):
    path = tmp_path / "data.csv"
    path.write_text(body.format(text))
    with pytest.raises(ValueError, match=f"data.csv:3: {what} must be finite"):
        read(path)


class TestJson:
    def test_round_trip(self, tmp_path):
        payload = {"a": 1, "b": [1.5, None], "c": {"d": True}}
        path = tmp_path / "report.json"
        write_json(path, payload)
        assert read_json(path) == payload

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "a": 1,\n  oops\n}\n')
        with pytest.raises(ValueError, match="broken.json:3"):
            read_json(path)


# Row-by-row readers as they were before the bulk path: the reference the
# readers must match on every file, in result or in error message.


def ref_read_rows(path, header):
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
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


def ref_parse_int(path, lineno, text, what):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not an integer: '{text}'")


def ref_parse_float(path, lineno, text, what):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: '{text}'")
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, got '{text}'")
    return value


def ref_parse_node_id(path, lineno, text):
    i = ref_parse_int(path, lineno, text, "node id")
    if not -(2**63) <= i < 2**63:
        raise ValueError(f"{path}:{lineno}: node id {i} does not fit in 64 bits")
    return i


def ref_read_graph_csv(path):
    triples = []
    for lineno, (si, sj, sw) in ref_read_rows(path, "i,j,w"):
        i = ref_parse_node_id(path, lineno, si)
        j = ref_parse_node_id(path, lineno, sj)
        w = ref_parse_float(path, lineno, sw, "weight")
        triples.append((i, j, w))
    if not triples:
        raise ValueError(f"{path}: no edges")
    node_count = max(max(i, j) for i, j, _ in triples)
    try:
        return build_graph(node_count, triples)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def ref_read_per_node(path, header, kind, parse, what):
    rows = ref_read_rows(path, header)
    if not rows:
        raise ValueError(f"{path}: {kind} file has no rows")
    n = len(rows)
    values = [None] * n
    for lineno, (si, sv) in rows:
        i = ref_parse_int(path, lineno, si, "node id")
        if not 1 <= i <= n:
            raise ValueError(
                f"{path}:{lineno}: node id {i} is outside 1..{n}; the {n} rows"
                f" must cover node ids 1..{n} exactly"
            )
        if values[i - 1] is not None:
            raise ValueError(f"{path}:{lineno}: duplicate node id {i}")
        values[i - 1] = parse(path, lineno, sv, what)
    return values


def ref_read_signal_csv(path):
    return np.asarray(ref_read_per_node(path, "i,x", "signal", ref_parse_float, "value"))


def ref_read_observations_csv(path):
    rows = ref_read_rows(path, "i,x")
    if not rows:
        raise ValueError(f"{path}: observations file has no rows")
    pairs = [
        (ref_parse_node_id(path, lineno, si),
         ref_parse_float(path, lineno, sx, "label"))
        for lineno, (si, sx) in rows
    ]
    try:
        return Observations.from_pairs(pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def ref_read_partition_csv(path):
    values = ref_read_per_node(path, "i,cluster", "partition", ref_parse_int, "cluster id")
    ids = np.asarray(values)
    if ids.dtype.kind != "i":
        ids = np.asarray(values, dtype=object)
    return Partition(np.unique(ids, return_inverse=True)[1])


def ref_read_flow_csv(path, g):
    base = {}
    star = {}
    for lineno, (sh, st_, sy) in ref_read_rows(path, "head,tail,y"):
        h = ref_parse_int(path, lineno, sh, "head id")
        value = ref_parse_float(path, lineno, sy, "flow value")
        if st_ == "star":
            if h in star:
                raise ValueError(f"{path}:{lineno}: duplicate star edge at node {h}")
            star[h] = value
        else:
            t = ref_parse_int(path, lineno, st_, "tail id")
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


def _arrays(result):
    if isinstance(result, EmpiricalGraph):
        return result.node_count, result.heads, result.tails, result.weights
    if isinstance(result, Observations):
        return result.nodes, result.labels
    if isinstance(result, Partition):
        return (result.cluster_index,)
    if isinstance(result, Flow):
        return result.base, result.star_nodes, result.star
    return (result,)


def read_outcome(read, path, *args):
    """The result's arrays, bit for bit, or the error the reader raised."""
    try:
        result = read(path, *args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return [
        (a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
        for a in _arrays(result)
    ]


# The flow files are read against the path 1..FLOW_NODES.
FLOW_NODES = 5
FLOW_GRAPH = build_graph(FLOW_NODES, [(i, i + 1, 1.0) for i in range(1, FLOW_NODES)])

READERS = {
    "graph": ("i,j,w", (0, 1), (2,), read_graph_csv, ref_read_graph_csv),
    "signal": ("i,x", (0,), (1,), read_signal_csv, ref_read_signal_csv),
    "observations": (
        "i,x", (0,), (1,), read_observations_csv, ref_read_observations_csv
    ),
    "partition": (
        "i,cluster", (0, 1), (), read_partition_csv, ref_read_partition_csv
    ),
    "flow": (
        "head,tail,y",
        (0, 1),
        (2,),
        lambda p: read_flow_csv(p, FLOW_GRAPH),
        lambda p: ref_read_flow_csv(p, FLOW_GRAPH),
    ),
}

float_texts = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def valid_rows(draw, kind):
    """The fields of a file each reader accepts."""
    n = draw(st.integers(min_value=2, max_value=6))
    if kind == "graph":
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)] * (n > 2)
        w = st.floats(min_value=1e-6, max_value=1e6).map(repr)
        return [[str(i), str(j), draw(w)] for i, j in edges]
    if kind == "signal":
        return [[str(i), draw(float_texts)] for i in range(1, n + 1)]
    if kind == "observations":
        nodes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True))
        return [[str(i), draw(float_texts)] for i in nodes]
    if kind == "partition":
        return [[str(i), str(draw(st.integers(-3, 3)))] for i in range(1, n + 1)]
    base = [[str(i), str(i + 1), draw(float_texts)] for i in range(1, FLOW_NODES)]
    stars = draw(st.lists(st.integers(1, FLOW_NODES), max_size=3, unique=True))
    return base + [[str(i), "star", draw(float_texts)] for i in stars]


FIELD_MUTATIONS = [
    "whitespace", "plus", "underscore", "float-id", "non-finite", "big-id",
    "out-of-range", "extra-field", "missing-field",
]
LINE_MUTATIONS = ["blank", "duplicate", "shuffle", "header-only", "no-header"]


@st.composite
def mutated_csv(draw):
    """A reader and a file that each reader accepts, mutated in ways the
    bulk path refuses or must check."""
    kind = draw(st.sampled_from(sorted(READERS)))
    header, int_cols, float_cols, _, _ = READERS[kind]
    rows = draw(valid_rows(kind))
    extra_lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mutation = draw(st.sampled_from(FIELD_MUTATIONS + LINE_MUTATIONS))
        row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
        col = draw(st.sampled_from(int_cols))
        int_field = row is not None and col < len(row) and row[col] != "star"
        if mutation == "whitespace" and row:
            c = draw(st.integers(0, len(row) - 1))
            pad = st.sampled_from([" ", "\t", "  ", " "])
            row[c] = draw(pad) + row[c] + draw(pad)
        elif mutation == "plus" and int_field and not row[col].startswith("-"):
            row[col] = "+" + row[col]
        elif mutation == "underscore" and int_field and row[col].isdigit():
            row[col] = "0_" + row[col]
        elif mutation == "float-id" and int_field:
            row[col] += ".0"
        elif mutation == "non-finite" and row and float_cols and float_cols[0] < len(row):
            row[float_cols[0]] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
        elif mutation == "big-id" and int_field:
            row[col] = str(draw(st.sampled_from([2**63, 2**64 + 1, -(2**70)])))
        elif mutation == "out-of-range" and int_field:
            row[col] = draw(st.sampled_from(["0", "-1", "7", "10"]))
        elif mutation == "extra-field" and row is not None:
            row.append("1")
        elif mutation == "missing-field" and row is not None and len(row) > 1:
            row.pop()
        elif mutation == "blank":
            extra_lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
        elif mutation == "duplicate" and row is not None:
            rows.append(list(row))
        elif mutation == "shuffle":
            rows = draw(st.permutations(rows))
        elif mutation == "header-only":
            rows = []
        elif mutation == "no-header":
            header = None
    lines = [",".join(r) for r in rows]
    for line in extra_lines:
        lines.insert(draw(st.integers(0, len(lines))), line)
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return kind, newline.join(lines) + newline * draw(st.booleans())


class TestBulkReadersMatchRowReaders:
    @given(mutated_csv())
    @settings(max_examples=400, deadline=None)
    def test_same_arrays_or_same_error(self, case):
        import tempfile

        kind, text = case
        _, _, _, read, reference = READERS[kind]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            assert read_outcome(read, path) == read_outcome(reference, path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_header_only_file(self, tmp_path, kind):
        header, _, _, read, reference = READERS[kind]
        path = tmp_path / "data.csv"
        path.write_text(header + "\n")
        assert read_outcome(read, path) == read_outcome(reference, path)
