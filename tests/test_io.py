from __future__ import annotations

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_triples
import tvflow.io
from tvflow._float_repr import _shortest, repr_texts
from tvflow.flow import Flow
from tvflow.graph import EmpiricalGraph, build_graph
from tvflow.instances import grid_instance
from tvflow.io import (
    _CHUNK_ROWS,
    _VECTOR_MIN,
    _write_dual_and_flow_csv,
    read_flow_csv,
    read_graph_and_observations_csv,
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
        assert edge_triples(back) == edge_triples(g)

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

    @pytest.mark.parametrize("body, message", [
        ("1,2,1.0\n2,3,1.0\n3,4,-5\n", ":4: weight must be finite and positive, got -5.0"),
        ("1,2,1.0\n3,3,1.0\n", ":3: self-loop at node 3"),
        ("1,2,1.0\n2,3,1.0\n\n3,2,0.5\n", ":5: duplicate edge {2, 3}"),
        ("1,2,1.0\n0,2,1.0\n", ":3: node id out of range 1..2: (0, 2)"),
        ("-1,0,1.0\n", ":2: node id out of range 1..0: (-1, 0)"),
    ], ids=["weight", "self-loop", "duplicate", "out-of-range", "no-positive-id"])
    def test_graph_fault_cites_line(self, tmp_path, body, message):
        # Each file parses in bulk; build_graph's refusal hands it to the
        # row-by-row path, which names the faulty edge's line.
        path = tmp_path / "graph.csv"
        path.write_text("i,j,w\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
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


@pytest.mark.parametrize("obs_text, node_count", [
    ("i,x\n1,0.0\n", 2),
    ("i,x\n4,1.0\n1,0.0\n", 4),  # nodes 3 and 4 have no edge
])
def test_node_count_is_the_largest_id_of_either_file(tmp_path, obs_text, node_count):
    (tmp_path / "graph.csv").write_text("i,j,w\n2,1,0.5\n")
    (tmp_path / "obs.csv").write_text(obs_text)
    g, _ = read_graph_and_observations_csv(tmp_path / "graph.csv", tmp_path / "obs.csv")
    assert g.node_count == node_count
    assert (g.heads.tolist(), g.tails.tolist(), g.weights.tolist()) == ([1], [2], [0.5])


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
        (f"5,{2**63 - 1}\n6,{-2**63}\n", [2, 1, 3, 1, 4, 0]),  # the 64-bit extremes
        # Beyond 64 bits: an error that cites the line.
        (f"5,{2**63}\n6,{-2**70}\n", f":6: cluster id {2**63} does not fit in 64 bits"),
    ])
    def test_sparse_ids_numbered_by_ascending_id(self, tmp_path, extra, expected):
        path = tmp_path / "partition.csv"
        path.write_text("i,cluster\n3,30\n1,20\n2,10\n4,10\n" + extra)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"partition.csv{expected}$"):
                read_partition_csv(path)
        else:
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

    def test_edge_mismatch_message_bounded(self, tmp_path):
        # 9 of the 1,740 base rows of a 30 x 30 lattice: the message names
        # the first five missing edges, not all 1,731.
        g = grid_instance(30, 30, rng=np.random.default_rng(0))[0]
        path = tmp_path / "flow.csv"
        write_flow_csv(path, g, Flow(np.zeros(g.edge_count), [], []))
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
        with pytest.raises(ValueError) as exc:
            read_flow_csv(path, g)
        message = str(exc.value)
        assert message == (
            f"{path}: flow edges do not match the graph (missing [(5, 35), (6, 7),"
            " (6, 36), (7, 8), (7, 37), ...], extraneous [])"
        )
        assert len(message) < 300

    @pytest.mark.parametrize("body, message", [
        ("1,2,0.0\n2,3,0.0\n1,star,0.5\n1,star,0.5\n", ":5: duplicate star edge at node 1"),
        ("1,2,0.0\n1,2,0.5\n2,3,0.0\n", ":3: duplicate edge (1, 2)"),
    ], ids=["star", "base"])
    def test_duplicate_row_cites_line(self, tmp_path, body, message):
        # Both files parse in bulk; the bulk check that finds the repeat
        # hands them to the row-by-row path, which names the line.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        path = tmp_path / "flow.csv"
        path.write_text("head,tail,y\n" + body)
        with pytest.raises(ValueError, match=f"flow.csv{re.escape(message)}$"):
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_path(self, tmp_path, value):
        path = tmp_path / "out" / "report.json"
        with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: Out of range float values are not JSON"
            f" compliant: {value!r}$"
        )):
            write_json(path, {"gap": {"value": value}})
        assert not path.exists()

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "a": 1,\n  oops\n}\n')
        with pytest.raises(ValueError, match="broken.json:3"):
            read_json(path)


# Row-by-row readers as they were before the bulk path: the reference the
# readers must match on every file, in result or in error message.


def ref_read_rows(path, header):
    path = Path(path)
    with path.open(encoding="utf-8") as f:  # lines end at \n, \r and \r\n
        lines = f.readlines()
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
        i = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not an integer: '{text}'")
    if not -(2**63) <= i < 2**63:
        raise ValueError(f"{path}:{lineno}: {what} {i} does not fit in 64 bits")
    return i


def ref_parse_float(path, lineno, text, what):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: '{text}'")
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, got '{text}'")
    return value


def ref_read_graph_csv(path):
    rows = ref_read_rows(path, "i,j,w")
    triples = []
    for lineno, (si, sj, sw) in rows:
        i = ref_parse_int(path, lineno, si, "node id")
        j = ref_parse_int(path, lineno, sj, "node id")
        w = ref_parse_float(path, lineno, sw, "weight")
        triples.append((i, j, w))
    if not triples:
        raise ValueError(f"{path}: no edges")
    node_count = max(max(i, j) for i, j, _ in triples)
    if node_count < 1:  # every id of the first edge is out of range
        i, j, _ = triples[0]
        raise ValueError(
            f"{path}:{rows[0][0]}: node id out of range 1..{node_count}: ({i}, {j})"
        )
    try:
        return build_graph(node_count, triples)
    except ValueError as exc:
        # build_graph names the faulty edge by its position, a file by its line.
        k, fault = re.fullmatch(r"edge #(\d+): (.*)", str(exc)).groups()
        raise ValueError(f"{path}:{rows[int(k)][0]}: {fault}")


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
        (ref_parse_int(path, lineno, si, "node id"),
         ref_parse_float(path, lineno, sx, "label"))
        for lineno, (si, sx) in rows
    ]
    try:
        return Observations(
            np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.float64),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def ref_read_partition_csv(path):
    values = ref_read_per_node(path, "i,cluster", "partition", ref_parse_int, "cluster id")
    return Partition(np.unique(np.asarray(values), return_inverse=True)[1])


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
    "out-of-range", "extra-field", "missing-field", "break-in-row",
]
LINE_MUTATIONS = [
    "blank", "duplicate", "shuffle", "header-only", "no-header", "break-between-rows",
    "bom",
]
# Where str.splitlines ends a line and a text-mode file, and so np.loadtxt
# and both paths of every reader, does not.
OTHER_BREAKS = st.sampled_from(list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))


def join_lines(lines, ends):
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def mutated_csv(draw):
    """A reader and a file that each reader accepts, mutated in ways the
    bulk path refuses or must check."""
    kind = draw(st.sampled_from(sorted(READERS)))
    header, int_cols, float_cols, _, _ = READERS[kind]
    rows = draw(valid_rows(kind))
    extra_lines = []
    row_breaks = []
    bom = ""
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mutation = draw(st.sampled_from(FIELD_MUTATIONS + LINE_MUTATIONS))
        row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
        col = draw(st.sampled_from(int_cols))
        int_field = row is not None and col < len(row) and row[col] != "star"
        if mutation == "whitespace" and row:
            c = draw(st.integers(0, len(row) - 1))
            pad = st.sampled_from([" ", "\t", "  ", "\xa0"])
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
        elif mutation == "break-in-row" and row:
            c = draw(st.integers(0, len(row) - 1))
            k = draw(st.integers(0, len(row[c])))
            row[c] = row[c][:k] + draw(OTHER_BREAKS) + row[c][k:]
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
        elif mutation == "break-between-rows":
            row_breaks.append(draw(OTHER_BREAKS))
        elif mutation == "bom":
            bom = "\ufeff"
    lines = [",".join(r) for r in rows]
    for line in extra_lines:
        lines.insert(draw(st.integers(0, len(lines))), line)
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ends = [newline] * len(lines)
    for line_break in row_breaks:  # in place of a newline, the header's too
        if ends:
            ends[draw(st.integers(0, len(ends) - 1))] = line_break
    if ends and not draw(st.booleans()):
        ends[-1] = ""  # no trailing newline
    return kind, bom + join_lines(lines, ends)


def reader_outcomes(kind, text):
    """The outcome of the reader of ``kind`` and of its reference on the
    file ``text``."""
    import tempfile

    _, _, _, read, reference = READERS[kind]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        return read_outcome(read, path), read_outcome(reference, path)


# One well-formed file of each kind, as lines.
WELL_FORMED = {
    "graph": ["i,j,w", "1,2,1.0", "2,3,0.5", "1,3,2.0"],
    "signal": ["i,x", "2,-1.5", "1,0.25", "3,1e-300"],
    "observations": ["i,x", "3,1.0", "1,0.0", "7,-2.5"],
    "partition": ["i,cluster", "1,4", "3,-1", "2,4"],
    "flow": [
        "head,tail,y", "2,3,0.5", "1,2,-0.25", "3,4,0.0", "4,5,1.0",
        "2,star,0.75", "5,star,-1.0",
    ],
}


# Files that line separators, a byte-order mark, blank lines or a missing
# trailing newline make differ from the well-formed ones.
LINE_CASES = {
    "lone-cr": lambda lines: "\r".join(lines) + "\r",
    "form-feed-between-rows": lambda lines: join_lines(
        lines, ["\n", "\x0c"] + ["\n"] * len(lines)
    ),
    "u2028-between-rows": lambda lines: join_lines(
        lines, ["\n", "\u2028"] + ["\n"] * len(lines)
    ),
    "u0085-between-rows": lambda lines: join_lines(
        lines, ["\n", "\x85"] + ["\n"] * len(lines)
    ),
    "form-feed-at-row-end": lambda lines: join_lines(
        lines, ["\n", "\x0c\n"] + ["\n"] * len(lines)
    ),
    # Where loadtxt strips a separator as blank space from around a field.
    "form-feed-after-comma": lambda lines: join_lines(
        [lines[0], lines[1].replace(",", ",\x0c", 1), *lines[2:]], ["\n"] * len(lines)
    ),
    "bom": lambda lines: "\ufeff" + "\n".join(lines) + "\n",
    "blank-body": lambda lines: lines[0] + "\n\n \n\t\n\n",
    "no-trailing-newline": lambda lines: "\n".join(lines),
}


@st.composite
def flow_csv(draw):
    """A flow file on FLOW_GRAPH: star rows first, interleaved or last,
    tails ``star`` or padded with blank space, blank lines, and ``\\n``,
    ``\\r`` or ``\\r\\n`` line ends."""
    base = [f"{i},{i + 1},{draw(float_texts)}" for i in range(1, FLOW_NODES)]
    rows = draw(st.permutations(base))
    nodes = draw(st.lists(st.integers(1, FLOW_NODES), min_size=1, max_size=3, unique=True))
    tail = st.sampled_from(["star", "star", " star ", "star ", "\tstar"])
    stars = [f"{i},{draw(tail)},{draw(float_texts)}" for i in nodes]
    place = draw(st.sampled_from(["first", "interleaved", "last"]))
    if place == "first":
        rows = stars + rows
    elif place == "last":
        rows = rows + stars
    else:
        for row in stars:
            rows.insert(draw(st.integers(0, len(rows))), row)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    ends = [newline] * len(rows)
    if not draw(st.booleans()):
        ends[-1] = ""  # no trailing newline
    return "head,tail,y" + newline + join_lines(rows, ends)


class TestBulkReadersMatchRowReaders:
    @given(mutated_csv())
    @settings(max_examples=400, deadline=None)
    def test_same_arrays_or_same_error(self, case):
        read, reference = reader_outcomes(*case)
        assert read == reference

    @given(flow_csv())
    @settings(max_examples=300, deadline=None)
    def test_flow_star_rows_anywhere(self, text):
        read, reference = reader_outcomes("flow", text)
        assert read == reference

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_header_only_file(self, tmp_path, kind):
        header, _, _, read, reference = READERS[kind]
        path = tmp_path / "data.csv"
        path.write_text(header + "\n")
        assert read_outcome(read, path) == read_outcome(reference, path)

    @pytest.mark.parametrize("case", sorted(LINE_CASES))
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_line_separators(self, kind, case):
        read, reference = reader_outcomes(kind, LINE_CASES[case](WELL_FORMED[kind]))
        assert read == reference


@pytest.mark.parametrize("kind", sorted(READERS))
def test_form_feed_between_rows_cites_line(tmp_path, kind):
    # A line ends at \n, \r and \r\n only, so two rows joined by a form
    # feed are one line with too many fields.
    header, *rows = WELL_FORMED[kind]
    path = tmp_path / "ff.csv"
    path.write_text(f"{header}\n{rows[0]}\x0c" + "\n".join(rows[1:]) + "\n")
    fields = header.count(",") + 1
    message = f"ff.csv:2: expected {fields} fields, got {2 * fields - 1}$"
    with pytest.raises(ValueError, match=message):
        READERS[kind][3](path)


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_non_utf8_byte_cites_line(tmp_path, kind, newline):
    # The third line ends in byte 0xff; \n, \r and \r\n each end one line.
    lines = [line.encode() for line in WELL_FORMED[kind]]
    lines[2] += b"\xff"
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(ValueError, match=r"^\S*bad\.csv:3: byte 0xff is not UTF-8$"):
        READERS[kind][3](path)


class TestBulkPathTaken:
    """Both paths give the same results, so only a row-by-row path that
    cannot run shows which one read a file."""

    @pytest.fixture
    def no_row_by_row(self, monkeypatch):
        class RowByRow(Exception):
            pass

        def refuse(*args):
            raise RowByRow

        monkeypatch.setattr(tvflow.io, "_read_rows", refuse)
        return RowByRow

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_well_formed_file_read_in_bulk(self, tmp_path, no_row_by_row, kind):
        _, _, _, read, reference = READERS[kind]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(WELL_FORMED[kind]) + "\n")
        assert read_outcome(read, path) == read_outcome(reference, path)

    def test_own_flow_base_rows_parsed_as_integers(
        self, tmp_path, monkeypatch, no_row_by_row
    ):
        # A flow as write_flow_csv writes it: only its star rows are parsed
        # with a text tail column.
        rng = np.random.default_rng(3)
        n = 200
        g = build_graph(n, [(int(rng.integers(1, v)), v, 1.0) for v in range(2, n + 1)])
        f = Flow(rng.normal(size=g.edge_count), np.array([1, 50, 200]), rng.normal(size=3))
        path = tmp_path / "flow.csv"
        write_flow_csv(path, g, f)
        tables = []
        loadtxt = tvflow.io._loadtxt

        def spy(*args, **kwargs):
            tables.append(loadtxt(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(tvflow.io, "_loadtxt", spy)
        back = read_flow_csv(path, g)
        for got, want in zip(_arrays(back), _arrays(f)):
            assert got.tobytes() == want.tobytes()
        assert sum(t.size for t in tables) == g.edge_count + 3
        text_tails = [t["tail"].tolist() for t in tables if t.dtype["tail"] == object]
        assert text_tails == [["star"] * 3]

    def test_own_flow_star_rows_parsed_from_bytes_already_read(
        self, tmp_path, monkeypatch, no_row_by_row
    ):
        # No loadtxt call reads past the base rows to reach the star rows.
        rng = np.random.default_rng(4)
        n = 300
        g = build_graph(n, [(int(rng.integers(1, v)), v, 1.0) for v in range(2, n + 1)])
        f = Flow(rng.normal(size=g.edge_count), np.arange(1, n + 1, 7), rng.normal(size=43))
        path = tmp_path / "flow.csv"
        write_flow_csv(path, g, f)
        calls = []
        loadtxt = tvflow.io._loadtxt

        def spy(source, *args, **kwargs):
            table = loadtxt(source, *args, **kwargs)
            calls.append((source, kwargs.get("skiprows", 1), table.size))
            return table

        monkeypatch.setattr(tvflow.io, "_loadtxt", spy)
        back = read_flow_csv(path, g)
        for got, want in zip(_arrays(back), _arrays(f)):
            assert got.tobytes() == want.tobytes()
        assert [(skip, size) for _, skip, size in calls] == [
            (1, g.edge_count), (0, f.star.size)
        ]
        assert calls[0][0] == path and not isinstance(calls[1][0], (str, Path))

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_form_feed_at_field_edges_read_in_bulk(self, tmp_path, no_row_by_row, kind):
        # Both paths strip a form feed from around a number as blank space.
        header, *rows = WELL_FORMED[kind]
        path = tmp_path / "data.csv"
        rows = [
            ",".join(f if f == "star" else f"\x0c{f}\x0c" for f in row.split(","))
            for row in rows
        ]
        path.write_text("\n".join([header, *rows]) + "\n")
        want = tmp_path / "want.csv"
        want.write_text("\n".join(WELL_FORMED[kind]) + "\n")
        _, _, _, read, _ = READERS[kind]
        assert read_outcome(read, path) == read_outcome(read, want)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_wrong_header_read_row_by_row(self, tmp_path, no_row_by_row, kind):
        _, _, _, read, _ = READERS[kind]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["a,b,c"] + WELL_FORMED[kind][1:]) + "\n")
        with pytest.raises(no_row_by_row):
            read(path)


# Writers against the reference formatting: one f-string with repr per row.

# Values where repr is delicate: both zeros, subnormals, and both sides of
# the switches to exponent notation at 1e16 and 1e-4.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e16, -1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e-4, -1e-4, 9.999999999999999e-05, 1.0000000000000002e-04,
    30.98, -30.98, 1 / 3, 1e300,
]
CHUNK_LENGTHS = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 1]


def edge_value_array(n: int, seed: int) -> np.ndarray:
    """``n`` values mixing repeats of EDGE_VALUES with distinct normals."""
    rng = np.random.default_rng(seed)
    values = rng.choice(np.asarray(EDGE_VALUES), n)
    distinct = rng.random(n) < 0.3
    values[distinct] = rng.standard_normal(int(distinct.sum()))
    values[: min(n, len(EDGE_VALUES))] = EDGE_VALUES[:n]
    return values


def reference_csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def csv_text(path: Path) -> str:
    """The text of a written CSV, whose every line ends in "\\n" alone."""
    data = path.read_bytes()
    assert b"\r" not in data
    return data.decode("utf-8")


# Integers on both sides of every change of digit count of 64-bit ids.
DIGIT_BOUNDARIES = sorted(
    {1, 2**63 - 1} | {10**e + d for e in range(1, 19) for d in (-1, 0)}
)


def path_graph(weights: np.ndarray) -> EmpiricalGraph:
    n = weights.size + 1
    return build_graph(n, zip(range(1, n), range(2, n + 1), weights.tolist()))


def write_signal_and_flow(tmp_path: Path, monkeypatch, values: np.ndarray) -> list:
    """Write ``values`` as a signal and as the base flow of a path graph,
    check both files against the f-string reference, and return the sizes
    ``repr_texts`` was called with."""
    formatted = []
    monkeypatch.setattr(
        tvflow.io, "repr_texts", lambda v: formatted.append(v.size) or repr_texts(v)
    )
    write_signal_csv(tmp_path / "signal.csv", values)
    assert csv_text(tmp_path / "signal.csv") == reference_csv(
        "i,x", ((f"{i}", f"{v!r}") for i, v in enumerate(values.tolist(), 1))
    )
    g = path_graph(np.ones(values.size))
    f = Flow(values, np.array([1]), values[:1])
    write_flow_csv(tmp_path / "flow.csv", g, f)
    assert csv_text(tmp_path / "flow.csv") == reference_csv(
        "head,tail,y",
        [(f"{h}", f"{t}", f"{v!r}")
         for h, t, v in zip(g.heads.tolist(), g.tails.tolist(), values.tolist())]
        + [("1", "star", repr(values.tolist()[0]))],
    )
    return formatted


class TestWritersMatchReferenceFormatting:
    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    def test_signal_graph_observations_partition(self, tmp_path, n):
        values = edge_value_array(n, seed=n)
        write_signal_csv(tmp_path / "signal.csv", values)
        assert csv_text(tmp_path / "signal.csv") == reference_csv(
            "i,x", ((f"{i}", f"{v!r}") for i, v in enumerate(values.tolist(), 1))
        )

        weights = np.abs(values)
        weights[weights == 0.0] = 2.5e-310
        g = path_graph(weights)
        write_graph_csv(tmp_path / "graph.csv", g)
        assert csv_text(tmp_path / "graph.csv") == reference_csv(
            "i,j,w", ((f"{h}", f"{t}", f"{w!r}") for h, t, w in edge_triples(g))
        )

        nodes = np.arange(1, 2 * n + 1, 2)
        obs = Observations(nodes, values)
        write_observations_csv(tmp_path / "obs.csv", obs)
        assert csv_text(tmp_path / "obs.csv") == reference_csv(
            "i,x", ((f"{i}", f"{v!r}") for i, v in zip(nodes.tolist(), values.tolist()))
        )

        ids = np.arange(n) % 7
        write_partition_csv(tmp_path / "partition.csv", Partition(ids))
        assert csv_text(tmp_path / "partition.csv") == reference_csv(
            "i,cluster", ((f"{i}", f"{k + 1}") for i, k in enumerate(ids.tolist(), 1))
        )

    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    def test_flow_and_dual(self, tmp_path, n):
        g = path_graph(np.ones(n))
        star_nodes = np.arange(1, n + 2, 3)
        f = Flow(
            edge_value_array(n, seed=n),
            star_nodes,
            edge_value_array(star_nodes.size, seed=n + 1),
        )
        base_rows = [
            (f"{h}", f"{t}", f"{v!r}")
            for h, t, v in zip(g.heads.tolist(), g.tails.tolist(), f.base.tolist())
        ]
        star_rows = [
            (f"{i}", "star", f"{v!r}")
            for i, v in zip(f.star_nodes.tolist(), f.star.tolist())
        ]
        flow_text = reference_csv("head,tail,y", base_rows + star_rows)
        write_flow_csv(tmp_path / "flow.csv", g, f)
        assert csv_text(tmp_path / "flow.csv") == flow_text

        _write_dual_and_flow_csv(tmp_path / "dual.csv", tmp_path / "flow2.csv", g, f)
        assert csv_text(tmp_path / "flow2.csv") == flow_text
        dual_lines = [
            line for line in flow_text.splitlines(keepends=True)
            if ",star," not in line
        ]
        assert csv_text(tmp_path / "dual.csv") == "".join(dual_lines)

    def test_ids_crossing_every_digit_count_in_one_chunk(self, tmp_path):
        nodes = np.array(DIGIT_BOUNDARIES, dtype=np.int64)
        labels = edge_value_array(nodes.size, seed=5)
        write_observations_csv(tmp_path / "obs.csv", Observations(nodes, labels))
        assert csv_text(tmp_path / "obs.csv") == reference_csv(
            "i,x", ((f"{i}", f"{v!r}") for i, v in zip(nodes.tolist(), labels.tolist()))
        )

    def test_star_column_with_any_int64_node(self, tmp_path):
        # The star writer takes any ids, down to the most negative int64.
        g = path_graph(np.ones(2))
        small = [-(2**63), -(10**18), -100, -99, -10, -9, -1, 0]
        star_nodes = np.array(small + DIGIT_BOUNDARIES, dtype=np.int64)
        f = Flow(np.array([0.5, -0.0]), star_nodes, edge_value_array(star_nodes.size, 6))
        rows = [("1", "2", "0.5"), ("2", "3", "-0.0")] + [
            (f"{i}", "star", f"{v!r}")
            for i, v in zip(star_nodes.tolist(), f.star.tolist())
        ]
        write_flow_csv(tmp_path / "flow.csv", g, f)
        assert csv_text(tmp_path / "flow.csv") == reference_csv("head,tail,y", rows)

    @pytest.mark.parametrize("n", [_CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_one_float_over_a_full_chunk(self, tmp_path, n):
        write_signal_csv(tmp_path / "signal.csv", np.full(n, 0.1))
        assert csv_text(tmp_path / "signal.csv") == reference_csv(
            "i,x", ((f"{i}", "0.1") for i in range(1, n + 1))
        )

    def test_negative_zero_beside_zero(self, tmp_path):
        x = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0])
        write_signal_csv(tmp_path / "signal.csv", x)
        assert csv_text(tmp_path / "signal.csv") == reference_csv(
            "i,x", ((f"{i}", f"{v!r}") for i, v in enumerate(x.tolist(), 1))
        )
        assert csv_text(tmp_path / "signal.csv").splitlines()[1:3] == ["1,0.0", "2,-0.0"]

    @pytest.mark.parametrize("distinct, rows, bulk", [
        pytest.param(_VECTOR_MIN - 1, _VECTOR_MIN - 1, False, id="below"),
        pytest.param(_VECTOR_MIN, _VECTOR_MIN, True, id="at"),
        pytest.param(_VECTOR_MIN - 1, _CHUNK_ROWS, False, id="repeats-below"),
    ])
    def test_both_sides_of_the_bulk_threshold(
        self, tmp_path, monkeypatch, distinct, rows, bulk
    ):
        # Values of every layout: both zeros, fixed and exponent form.
        rng = np.random.default_rng(distinct + rows)
        pool = rng.standard_normal(distinct) * 10.0 ** rng.integers(-9, 20, distinct)
        pool[:2] = [0.0, -0.0]
        assert np.unique(pool.view(np.int64)).size == distinct
        values = np.concatenate([pool, rng.choice(pool, rows - distinct)])
        rng.shuffle(values)
        formatted = write_signal_and_flow(tmp_path, monkeypatch, values)
        assert formatted == ([distinct, distinct] if bulk else [])

    @pytest.mark.parametrize("step", [1.0, 0.25], ids=["integers", "quarters"])
    def test_values_that_take_repr_inside_the_bulk_route(
        self, tmp_path, monkeypatch, step
    ):
        # A scaled value of each of these may be exact, so repr_texts
        # writes repr's text for every one.  The last lie between 2^49 and
        # 2^131, where every double does.
        n = 2 * _VECTOR_MIN
        values = np.arange(-n // 2, n // 2) * step
        values[-64:] = np.arange(1, 65) * 2.0**70 * step
        assert _shortest(values.view(np.uint64))[3].all()
        assert write_signal_and_flow(tmp_path, monkeypatch, values) == [n, n]


class TestWritersRejectWhatReadersRefuse:
    @pytest.mark.parametrize("x, message", [
        pytest.param(np.zeros((2, 2)), ": node 1: expected one value, got an array",
                     id="2-d"),
        pytest.param(np.float64(1.5), ": expected one value per node, got a scalar",
                     id="scalar"),
        pytest.param(np.empty(0), ": signal has no nodes", id="empty"),
        pytest.param(np.array([1.0, np.nan]), ": node 2: value must be finite, got nan",
                     id="nan"),
        pytest.param(np.array([np.inf, 1.0]), ": node 1: value must be finite, got inf",
                     id="inf"),
        pytest.param(np.array([0.0, 1.0, -np.inf]),
                     ": node 3: value must be finite, got -inf", id="-inf"),
    ])
    def test_signal(self, tmp_path, x, message):
        path = tmp_path / "signal.csv"
        with pytest.raises(ValueError, match=f"signal.csv{message}"):
            write_signal_csv(path, x)
        assert not path.exists()

    @pytest.mark.parametrize("base, star, message", [
        pytest.param([0.0, 1.0, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.25, 0.5],
                     r": edge \(3, 4\): flow value must be finite, got nan", id="base"),
        pytest.param(np.zeros(9), [0.25, -np.inf],
                     ": star edge at node 7: flow value must be finite, got -inf",
                     id="star"),
        pytest.param(np.zeros(8), [0.25, 0.5],
                     ": flow does not match the graph's edge count", id="length"),
    ])
    def test_flow(self, tmp_path, chain, base, star, message):
        g, _, _ = chain
        f = Flow(np.asarray(base), np.array([2, 7]), np.asarray(star))
        for write in (
            lambda: write_flow_csv(tmp_path / "flow.csv", g, f),
            lambda: _write_dual_and_flow_csv(
                tmp_path / "dual.csv", tmp_path / "flow.csv", g, f
            ),
        ):
            with pytest.raises(ValueError, match=f"flow.csv{message}"):
                write()
            assert not (tmp_path / "flow.csv").exists()
            assert not (tmp_path / "dual.csv").exists()


def test_signal_writer_memory_is_bounded(tmp_path):
    """Writing a 10^6-node signal holds one chunk's text at a time, not the
    file's: the peak traced allocation stays under a fifth of the file (a
    writer that builds the whole text peaks at about 6x), on a signal of 50
    clusters and on one of distinct values, which the bulk formatter
    formats."""
    clusters = np.repeat(np.random.default_rng(0).standard_normal(50), 20_000)
    distinct = np.random.default_rng(0).standard_normal(10**6)
    path = tmp_path / "signal.csv"
    for x in (clusters, distinct):
        tracemalloc.start()
        try:
            write_signal_csv(path, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 5


def bulk_text(values: np.ndarray) -> bytes:
    """The texts ``repr_texts`` gives ``values``, each followed by a comma,
    with the 0 bytes dropped."""
    texts = repr_texts(values)
    rows = texts.view(np.uint8).reshape(values.size, texts.itemsize)
    commas = np.full((values.size, 1), ord(","), dtype=np.uint8)
    return np.hstack([rows, commas]).tobytes().translate(None, b"\0")


def assert_texts_are_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    if bulk_text(values) != "".join(f"{v!r}," for v in values.tolist()).encode():
        texts = [t.replace(b"\0", b"").decode() for t in repr_texts(values).tolist()]
        wrong = [(repr(v), t) for v, t in zip(values.tolist(), texts) if repr(v) != t]
        pytest.fail(f"{len(wrong)} texts are not repr's, the first: {wrong[:5]}")


def with_neighbours(values: np.ndarray) -> np.ndarray:
    below, above = np.nextafter(values, -np.inf), np.nextafter(values, np.inf)
    return np.concatenate([values, below, above])


class TestBulkFormatterIsRepr:
    """``repr_texts``, which formats chunks of at least ``_VECTOR_MIN``
    distinct floats, against ``repr``, one value at a time."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        n = 10**6
        # Every sign, every finite biased exponent, any mantissa.
        bits = (
            rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
            | rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 1 << 52, n, dtype=np.uint64)
        )
        for block in np.split(bits.view(np.float64), 16):
            assert_texts_are_repr(block)

    def test_powers_of_two_and_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_texts_are_repr(with_neighbours(powers))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        assert_texts_are_repr(with_neighbours(powers))

    def test_integers_exact_products_and_short_decimals(self):
        rng = np.random.default_rng(21)
        around = np.array([2**53 + k for k in range(-2000, 2001)], dtype=np.float64)
        small = np.arange(-3000, 3001, dtype=np.float64)
        assert_texts_are_repr(np.concatenate([around, small, -around]))
        # Values whose scaled digits may be exact, and ties between two
        # shortest candidates.
        products = [float(5**a * 2**b) for a in range(60) for b in range(-40, 40)]
        odd = np.arange(1, 2000, 2, dtype=np.float64)
        assert_texts_are_repr(
            np.concatenate([products] + [np.ldexp(odd, e) for e in range(-80, 100, 7)])
        )
        uniform = (rng.random(20_000) * 10.0 ** rng.integers(-6, 8, 20_000)).tolist()
        assert_texts_are_repr([round(v, k) for k in range(1, 10) for v in uniform])

    def test_layout_switches_and_extremes(self):
        switches = [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5,
                    1e100, 1e-100, 123456789012345.6, 0.5, 5e-324,
                    2.2250738585072014e-308]
        largest = np.finfo(np.float64).max
        values = np.append(with_neighbours(np.array(switches)), [largest, 0.0])
        assert_texts_are_repr(np.concatenate([values, -values]))
        assert bulk_text(np.array([0.0, -0.0, 1e16, 1e-5, -1e-100])) == (
            b"0.0,-0.0,1e+16,1e-05,-1e-100,"
        )

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_floats(self, values):
        assert_texts_are_repr(values)

    def test_normals_take_the_common_case(self):
        # No scaled value of data like the solver's output is exact, so
        # none of it is handed to repr.
        normals = np.random.default_rng(22).standard_normal(10**5)
        assert not _shortest(normals.view(np.uint64))[3].any()
