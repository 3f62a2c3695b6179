"""Weighted undirected graphs with a canonical edge orientation.

Every undirected edge {i, j} is stored as the directed pair (head, tail)
with head = min(i, j), and the edge list is sorted lexicographically by
(head, tail).  Edge indices are therefore reproducible regardless of the
order edges were supplied in.  Node ids are 1-based at the API surface.

The two linear operators that everything else is built on live here:
``incidence_apply`` maps node values to signed edge differences and
``divergence`` is its adjoint (net outflow per node).  Both are
matrix-free and reduce sequentially by edge index, so results are
bit-deterministic.  ``components`` labels the connected components of
the graph or of a subset of its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EmpiricalGraph",
    "ExtendedGraph",
    "build_graph",
    "components",
    "degree",
    "incidence_apply",
    "divergence",
    "extend_graph",
    "scaled_operator_norm",
]


@dataclass(frozen=True, eq=False)
class EmpiricalGraph:
    """Immutable weighted undirected graph over nodes 1..node_count.

    ``heads``, ``tails`` and ``weights`` are aligned arrays, one entry per
    edge, with heads[e] < tails[e] and rows sorted by (head, tail).
    Construct instances through :func:`build_graph`, which validates and
    canonicalizes the input.
    """

    node_count: int
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.heads.shape[0])

    @cached_property
    def _head_idx(self) -> np.ndarray:
        return self.heads - 1

    @cached_property
    def _tail_idx(self) -> np.ndarray:
        return self.tails - 1

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of incident edges per node, indexed by node position."""
        counts = np.bincount(self._head_idx, minlength=self.node_count)
        counts += np.bincount(self._tail_idx, minlength=self.node_count)
        counts.setflags(write=False)
        return counts

    def min_degree(self) -> int:
        return int(self.degrees.min()) if self.node_count else 0

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(int(h), int(t)) for h, t in zip(self.heads, self.tails)]

    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(h), int(t), float(w))
            for h, t, w in zip(self.heads, self.tails, self.weights)
        ]


@dataclass(frozen=True, eq=False)
class ExtendedGraph:
    """Base graph plus one uncapacitated edge from each sampled node to a
    shared accumulator node."""

    base: EmpiricalGraph
    star_nodes: np.ndarray  # sorted unique 1-based ids of sampled nodes

    @property
    def star_count(self) -> int:
        return int(self.star_nodes.shape[0])

    @cached_property
    def _star_idx(self) -> np.ndarray:
        return self.star_nodes - 1


def build_graph(
    node_count: int, edge_list: Iterable[Sequence[float]]
) -> EmpiricalGraph:
    """Build a validated graph from (i, j, w) triples.

    Each pair {i, j} is stored as (min, max, w); edges are sorted by
    (head, tail).  Rejects self-loops, duplicate pairs, non-positive or
    non-finite weights and out-of-range ids.  Isolated nodes are allowed
    here (the solver rejects them later, where inverse degrees are needed).
    """
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
    head_arr = head_arr[order]
    tail_arr = tail_arr[order]
    weight_arr = weight_arr[order]
    for arr in (head_arr, tail_arr, weight_arr):
        arr.setflags(write=False)
    return EmpiricalGraph(n, head_arr, tail_arr, weight_arr)


def components(
    g: EmpiricalGraph, edge_mask: np.ndarray | None = None
) -> np.ndarray:
    """0-based connected-component label per node position.

    Only edges where ``edge_mask`` is True connect nodes (all edges when it
    is None).  Components are numbered in order of their smallest node, so
    node 1 always lies in component 0.  Computed by hook-and-compress: each
    round hooks every root to the smallest root it shares an edge with,
    then pointer jumping flattens the forest, until no edge joins two roots.
    """
    heads, tails = g._head_idx, g._tail_idx
    if edge_mask is not None:
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (g.edge_count,):
            raise ValueError(
                f"edge mask has shape {mask.shape}, expected ({g.edge_count},)"
            )
        heads, tails = heads[mask], tails[mask]
    # parent[i] <= i always holds, so the pointers never form a cycle and
    # each root is the smallest node of its tree.  An edge whose endpoints
    # share a root keeps sharing it, so it is dropped for good.
    parent = np.arange(g.node_count)
    while heads.size:
        root_h, root_t = parent[heads], parent[tails]
        crossing = root_h != root_t
        heads, tails = heads[crossing], tails[crossing]
        root_h, root_t = root_h[crossing], root_t[crossing]
        low = np.minimum(root_h, root_t)
        np.minimum.at(parent, root_h, low)
        np.minimum.at(parent, root_t, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(g.node_count)
    return (np.cumsum(roots) - 1)[parent]


def degree(g: EmpiricalGraph, i: int) -> int:
    """Number of neighbours of node i (1-based)."""
    if not (1 <= i <= g.node_count):
        raise ValueError(f"node id {i} out of range 1..{g.node_count}")
    return int(g.degrees[i - 1])


def incidence_apply(g: EmpiricalGraph, x: np.ndarray) -> np.ndarray:
    """Signed edge differences: output[e] = x_head(e) - x_tail(e)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise ValueError(
            f"node vector has shape {x.shape}, expected ({g.node_count},)"
        )
    return x[g._head_idx] - x[g._tail_idx]


def divergence(g: EmpiricalGraph, y: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`incidence_apply`: net outflow per node.

    output[i] = sum of y over edges with head i minus sum over edges with
    tail i.  Components of the result always sum to zero.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.edge_count,):
        raise ValueError(
            f"edge vector has shape {y.shape}, expected ({g.edge_count},)"
        )
    # bincount yields int64 for empty weights; keep the kernel float.
    out = np.bincount(g._head_idx, weights=y, minlength=g.node_count).astype(
        np.float64, copy=False
    )
    out -= np.bincount(g._tail_idx, weights=y, minlength=g.node_count)
    return out


def extend_graph(g: EmpiricalGraph, sampling_set: Iterable[int]) -> ExtendedGraph:
    """Attach one accumulator edge per sampled node."""
    nodes = np.unique(np.asarray(list(sampling_set), dtype=np.int64))
    if nodes.size == 0:
        raise ValueError("sampling set must be non-empty")
    if nodes[0] < 1 or nodes[-1] > g.node_count:
        raise ValueError(
            f"sampling set contains ids outside 1..{g.node_count}: {nodes.tolist()}"
        )
    nodes.setflags(write=False)
    return ExtendedGraph(base=g, star_nodes=nodes)


def scaled_operator_norm(
    g: EmpiricalGraph, *, tol: float = 1e-8, max_iters: int = 50_000
) -> float:
    """Spectral norm of the degree-scaled adjoint difference operator.

    This is the quantity the solver's step sizes are chosen to control:
    with node steps 1/d_i and edge steps 1/2 it never exceeds 1 (it equals
    1 exactly on bipartite graphs).  Computed matrix-free by power
    iteration on the PSD composition, to relative tolerance ``tol``.  The
    Rayleigh-quotient estimate approaches the true value from below.
    """
    if g.node_count == 0:
        return 0.0
    if g.min_degree() == 0:
        isolated = [i + 1 for i in np.flatnonzero(g.degrees == 0)]
        raise ValueError(
            f"graph has isolated nodes {isolated}; inverse degrees are undefined"
        )
    inv_deg = 1.0 / g.degrees

    def apply_sym(u: np.ndarray) -> np.ndarray:
        # 0.5 * B diag(1/d) B^T u, the square of the scaled operator
        return 0.5 * incidence_apply(g, inv_deg * divergence(g, u))

    rng = np.random.default_rng(1905)
    v = rng.standard_normal(g.edge_count)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iters):
        w = apply_sym(v)
        new_estimate = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(new_estimate - estimate) <= tol * max(abs(new_estimate), 1e-30):
            return float(np.sqrt(max(new_estimate, 0.0)))
        estimate = new_estimate
    raise RuntimeError(
        f"power iteration did not converge within {max_iters} iterations"
    )
