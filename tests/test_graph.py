from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from tvflow.graph import (
    build_graph,
    components,
    degree,
    divergence,
    extend_graph,
    incidence_apply,
    scaled_operator_norm,
)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=5.0),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return build_graph(n, [(i, j, w) for (i, j), w in zip(chosen, weights)])


def node_vectors(g):
    return st.lists(
        st.floats(min_value=-100.0, max_value=100.0),
        min_size=g.node_count,
        max_size=g.node_count,
    ).map(np.asarray)


class TestBuildGraph:
    def test_orientation_forced(self):
        g = build_graph(2, [(2, 1, 1.0)])
        assert g.edges() == [(1, 2, 1.0)]

    def test_chain_instance(self):
        g, _, _ = make_chain()
        assert g.node_count == 10
        assert g.edge_count == 9
        assert g.edges()[4] == (5, 6, 0.25)
        assert all(w == 1.0 for h, t, w in g.edges() if (h, t) != (5, 6))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_duplicate_after_orientation_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(1, 2, 1.0), (2, 1, 2.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            build_graph(3, [(1, 2, 0.0)])
        with pytest.raises(ValueError, match="weight"):
            build_graph(3, [(1, 2, -1.0)])

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(1, 4, 1.0)])
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 2, 1.0)])

    def test_edge_order_deterministic(self):
        triples = [(3, 1, 0.5), (2, 3, 1.5), (1, 2, 1.0)]
        g1 = build_graph(3, triples)
        g2 = build_graph(3, list(reversed(triples)))
        assert g1.edges() == g2.edges()
        assert g1.edge_pairs() == [(1, 2), (1, 3), (2, 3)]

    def test_isolated_nodes_allowed(self):
        g = build_graph(4, [(1, 2, 1.0)])
        assert degree(g, 3) == 0
        assert degree(g, 4) == 0


class TestDegree:
    def test_chain_endpoint(self):
        g, _, _ = make_chain()
        assert degree(g, 1) == 1

    def test_chain_interior(self):
        g, _, _ = make_chain()
        assert degree(g, 5) == 2

    def test_out_of_range(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError):
            degree(g, 0)
        with pytest.raises(ValueError):
            degree(g, 11)


class TestIncidence:
    def test_single_edge(self):
        g = build_graph(2, [(1, 2, 1.0)])
        assert incidence_apply(g, np.array([1.0, 0.0])).tolist() == [1.0]

    def test_constant_in_kernel(self):
        g, _, _ = make_chain()
        assert np.all(incidence_apply(g, np.full(10, 3.7)) == 0.0)

    def test_chain_step_signal(self):
        g, _, _ = make_chain()
        x = np.array([1.0] * 5 + [0.0] * 5)
        out = incidence_apply(g, x)
        expected = np.zeros(9)
        expected[4] = 1.0
        assert np.array_equal(out, expected)

    def test_dimension_mismatch(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError):
            incidence_apply(g, np.zeros(9))


class TestDivergence:
    def test_single_edge(self):
        g = build_graph(2, [(1, 2, 1.0)])
        assert divergence(g, np.array([1.0])).tolist() == [1.0, -1.0]

    def test_chain_certificate_flow(self):
        g, _, _ = make_chain()
        y = np.array([0.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0])
        out = divergence(g, y)
        expected = np.array([0, 0.25, 0, 0, 0, 0, -0.25, 0, 0, 0.0])
        assert np.array_equal(out, expected)

    def test_dimension_mismatch(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError):
            divergence(g, np.zeros(8))

    @given(graphs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_components_sum_to_zero(self, g, data):
        y = np.asarray(
            data.draw(
                st.lists(
                    st.floats(min_value=-10, max_value=10),
                    min_size=g.edge_count,
                    max_size=g.edge_count,
                )
            )
        )
        assert abs(divergence(g, y).sum()) <= 1e-12 * max(1.0, np.abs(y).sum())


class TestAdjointness:
    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_incidence_divergence_adjoint(self, g, data):
        x = np.asarray(data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100),
                min_size=g.node_count,
                max_size=g.node_count,
            )
        ))
        y = np.asarray(data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100),
                min_size=g.edge_count,
                max_size=g.edge_count,
            )
        ))
        lhs = float(incidence_apply(g, x) @ y)
        rhs = float(x @ divergence(g, y))
        scale = max(
            1.0, float(np.linalg.norm(x) * np.linalg.norm(y)) * np.sqrt(g.edge_count)
        )
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestExtendGraph:
    def test_chain_sampling_set(self):
        g, obs, _ = make_chain()
        eg = extend_graph(g, obs.nodes)
        assert eg.star_nodes.tolist() == [2, 7]
        assert eg.base is g

    def test_all_nodes(self):
        g, _, _ = make_chain()
        eg = extend_graph(g, range(1, 11))
        assert eg.star_count == 10

    def test_empty_rejected(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError, match="non-empty"):
            extend_graph(g, [])

    def test_out_of_range_rejected(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError):
            extend_graph(g, [11])


def _dense_scaled_norm(g) -> float:
    b = np.zeros((g.edge_count, g.node_count))
    for e, (h, t) in enumerate(g.edge_pairs()):
        b[e, h - 1] = 1.0
        b[e, t - 1] = -1.0
    gamma_sqrt = np.diag(1.0 / np.sqrt(g.degrees))
    lam_sqrt = np.sqrt(0.5) * np.eye(g.edge_count)
    return float(np.linalg.svd(gamma_sqrt @ b.T @ lam_sqrt, compute_uv=False)[0])


class TestScaledOperatorNorm:
    def test_single_edge_is_one(self):
        g = build_graph(2, [(1, 2, 1.0)])
        norm = scaled_operator_norm(g)
        assert norm < 1.0 + 1e-9
        assert norm == pytest.approx(1.0, abs=1e-7)

    def test_chain_value(self):
        g, _, _ = make_chain()
        norm = scaled_operator_norm(g)
        assert 0.0 < norm < 1.0

    def test_matches_dense_oracle_on_small_graphs(self):
        cases = [
            build_graph(2, [(1, 2, 1.0)]),
            build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)]),
            build_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)]),
            build_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)]),
            build_graph(
                5, [(1, 2, 0.3), (2, 3, 1.7), (3, 4, 0.9), (4, 5, 1.1), (1, 5, 0.2)]
            ),
            build_graph(
                6,
                [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0),
                 (1, 6, 1.0), (2, 5, 0.5)],
            ),
        ]
        for g in cases:
            assert scaled_operator_norm(g) == pytest.approx(
                _dense_scaled_norm(g), abs=1e-6
            )

    def test_isolated_node_rejected(self):
        g = build_graph(3, [(1, 2, 1.0)])
        with pytest.raises(ValueError, match="isolated"):
            scaled_operator_norm(g)

    def test_weights_do_not_enter(self):
        # The operator is built from the unweighted incidence pattern.
        g1 = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        g2 = build_graph(3, [(1, 2, 5.0), (2, 3, 0.1)])
        assert scaled_operator_norm(g1) == pytest.approx(
            scaled_operator_norm(g2), abs=1e-9
        )


def _union_find_labels(n, pairs):
    """Reference: plain union-find, roots relabeled 0, 1, ... in order of
    each component's smallest node."""
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for h, t in pairs:
        parent[find(h)] = find(t)
    relabel: dict[int, int] = {}
    return np.array([relabel.setdefault(find(i), len(relabel)) for i in range(n)])


@st.composite
def sparse_graphs_with_masks(draw):
    """Graphs on 1..30 nodes with 0..45 edges (often disconnected, with
    isolated nodes) and a random edge mask."""
    n = draw(st.integers(min_value=1, max_value=30))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=45, unique=True))
    g = build_graph(n, [(i, j, 1.0) for i, j in chosen])
    m = g.edge_count
    mask = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return g, np.array(mask, dtype=bool)


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs_with_masks())
    def test_matches_union_find(self, case):
        g, mask = case
        n = g.node_count
        pairs = list(zip(g._head_idx.tolist(), g._tail_idx.tolist()))
        assert np.array_equal(components(g), _union_find_labels(n, pairs))
        kept = [p for p, keep in zip(pairs, mask) if keep]
        assert np.array_equal(components(g, mask), _union_find_labels(n, kept))

    def test_random_large_graphs(self):
        rng = np.random.default_rng(61)
        for n, m in ((500, 300), (500, 600), (2000, 1999)):
            ends = rng.integers(1, n + 1, (m, 2)).tolist()
            pairs = sorted({(min(p), max(p)) for p in ends if p[0] != p[1]})
            g = build_graph(n, [(i, j, 1.0) for i, j in pairs])
            mask = rng.random(g.edge_count) < 0.7
            for edge_mask in (None, mask):
                keep = np.ones(g.edge_count, bool) if edge_mask is None else edge_mask
                kept = zip(g._head_idx[keep].tolist(), g._tail_idx[keep].tolist())
                assert np.array_equal(components(g, edge_mask), _union_find_labels(n, kept))

    def test_chain_split_by_mask(self):
        g, _, _ = make_chain()
        assert components(g).tolist() == [0] * 10
        open_edges = np.ones(9, dtype=bool)
        open_edges[4] = False  # the boundary edge {5, 6}
        assert components(g, open_edges).tolist() == [0] * 5 + [1] * 5

    def test_mask_shape_checked(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError, match="edge mask"):
            components(g, np.ones(3, dtype=bool))
