from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from tvflow.flow import Flow
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
        from tvflow.graph import build_graph

        weights = [1 / 3, 0.1, 2e-15, 123456.789012345]
        g = build_graph(5, [(1, 2, weights[0]), (2, 3, weights[1]),
                            (3, 4, weights[2]), (4, 5, weights[3])])
        path = tmp_path / "graph.csv"
        write_graph_csv(path, g)
        back = read_graph_csv(path)
        assert np.array_equal(back.weights, g.weights)

    def test_explicit_node_count_keeps_trailing_isolated_nodes(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("i,j,w\n1,2,1.0\n")
        g = read_graph_csv(path, node_count=4)
        assert g.node_count == 4
        assert g.degrees.tolist() == [1, 1, 0, 0]

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
