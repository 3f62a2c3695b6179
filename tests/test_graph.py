from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from tvflow.graph import (
    EmpiricalGraph,
    build_graph,
    components,
    divergence,
    grounded_laplacian_cg,
    incidence_apply,
    scaled_operator_norm,
)


def reference_build_graph(node_count, edge_list) -> EmpiricalGraph:
    """build_graph as one validating pass per edge with a set of seen pairs:
    the reference for the vectorized version."""
    if not isinstance(node_count, (int, np.integer)) or node_count < 1:
        raise ValueError(f"node_count must be a positive integer, got {node_count!r}")
    n = int(node_count)

    heads: list[int] = []
    tails: list[int] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()
    for pos, item in enumerate(edge_list):
        try:
            i, j, w = item
        except (TypeError, ValueError):
            raise ValueError(f"edge #{pos}: expected an (i, j, w) triple, got {item!r}")
        i, j, w = int(i), int(j), float(w)
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise ValueError(f"edge #{pos}: node id out of range 1..{n}: ({i}, {j})")
        if i == j:
            raise ValueError(f"edge #{pos}: self-loop at node {i}")
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError(f"edge #{pos}: weight must be finite and positive, got {w}")
        h, t = (i, j) if i < j else (j, i)
        if (h, t) in seen:
            raise ValueError(f"edge #{pos}: duplicate edge {{{h}, {t}}}")
        seen.add((h, t))
        heads.append(h)
        tails.append(t)
        weights.append(w)

    head_arr = np.asarray(heads, dtype=np.int64)
    tail_arr = np.asarray(tails, dtype=np.int64)
    weight_arr = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((tail_arr, head_arr))
    return EmpiricalGraph(n, head_arr[order], tail_arr[order], weight_arr[order])


def build_outcome(build, n, edges):
    """The built graph's arrays, bit for bit, or the error it raised."""
    try:
        g = build(n, edges)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    arrays = (g.heads, g.tails, g.weights)
    return g.node_count, [(a.dtype.str, a.tobytes()) for a in arrays]


@st.composite
def faulty_triples(draw):
    """Random distinct edges in random orientation, with some of them made
    faulty and some non-triple items inserted."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    edges = []
    for i, j in chosen:
        w = draw(st.floats(min_value=1e-3, max_value=1e3))
        edges.append((j, i, w) if draw(st.booleans()) else (i, j, w))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(
            ["range", "self-loop", "weight", "duplicate", "non-triple"]
        ))
        pos = draw(st.integers(min_value=0, max_value=len(edges)))
        i = draw(st.integers(min_value=1, max_value=n))
        if kind == "duplicate":
            if not chosen:
                continue
            i, j = draw(st.sampled_from(chosen))
            item = (j, i, 1.0) if draw(st.booleans()) else (i, j, 2.0)
        elif kind == "range":
            bad = draw(st.sampled_from([0, -1, n + 1, 2**64 + 3, -(2**70)]))
            item = (i, bad, 1.0) if draw(st.booleans()) else (bad, i, 1.0)
        elif kind == "self-loop":
            item = (i, i, 1.0)
        elif kind == "weight":
            w = draw(st.sampled_from([0.0, -0.0, -1.5, float("nan"), float("inf")]))
            item = (i, i % n + 1, w)
        else:
            item = draw(st.sampled_from([None, 5, (1, 2), (1, 2, 1.0, 0), ()]))
        edges.insert(pos, item)
    return n, edges


class TestBuildGraphReference:
    @given(faulty_triples())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_edge_reference(self, case):
        n, edges = case
        want = build_outcome(reference_build_graph, n, edges)
        assert build_outcome(build_graph, n, edges) == want
        assert build_outcome(build_graph, n, iter(edges)) == want

    @given(faulty_triples())
    @settings(max_examples=100, deadline=None)
    def test_structured_array_matches_triples(self, case):
        n, edges = case
        try:
            i, j, w = (np.asarray(c) for c in zip(*edges, strict=True))
            table = np.rec.fromarrays(
                [i.astype(np.int64), j.astype(np.int64), w.astype(np.float64)]
            )
        except (TypeError, ValueError, OverflowError):
            return  # no array holds non-triples or ids beyond 64 bits
        want = build_outcome(reference_build_graph, n, edges)
        assert build_outcome(build_graph, n, table) == want


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
        pairs = list(zip(g1.heads.tolist(), g1.tails.tolist()))
        assert pairs == [(1, 2), (1, 3), (2, 3)]

    def test_isolated_nodes_allowed(self):
        g = build_graph(4, [(1, 2, 1.0)])
        assert g.degrees[2] == 0
        assert g.degrees[3] == 0


class TestDegree:
    def test_chain_endpoint(self):
        g, _, _ = make_chain()
        assert g.degrees[0] == 1

    def test_chain_interior(self):
        g, _, _ = make_chain()
        assert g.degrees[4] == 2


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


def _dense_scaled_norm(g) -> float:
    b = np.zeros((g.edge_count, g.node_count))
    for e, (h, t) in enumerate(zip(g.heads, g.tails)):
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


class TestGroundedLaplacianCG:
    def test_matches_dense_solve(self):
        # Random connected graphs, random weights with some zeros kept off
        # a spanning tree, one or two grounded nodes.
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            tree = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
            extra = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if (i, j) not in tree and rng.random() < 0.3]
            g = build_graph(n, [(i, j, 1.0) for i, j in tree + extra])
            in_tree = {tuple(sorted(e)) for e in tree}
            weights = rng.uniform(0.1, 2.0, g.edge_count)
            weights[[pair not in in_tree and rng.random() < 0.3
                     for pair in zip(g.heads.tolist(), g.tails.tolist())]] = 0.0
            free = np.ones(n, dtype=bool)
            free[rng.choice(n, size=min(n - 1, int(rng.integers(1, 3))), replace=False)] = False
            rhs = rng.uniform(-1.0, 1.0, int(free.sum()))
            b = np.zeros((g.edge_count, n))
            b[np.arange(g.edge_count), g.heads - 1] = 1.0
            b[np.arange(g.edge_count), g.tails - 1] = -1.0
            laplacian = b.T @ (weights[:, None] * b)
            want = np.linalg.solve(laplacian[np.ix_(free, free)], rhs)
            u, iters = grounded_laplacian_cg(g, free, rhs, weights)
            assert 0 < iters <= free.sum()
            assert np.max(np.abs(u - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
