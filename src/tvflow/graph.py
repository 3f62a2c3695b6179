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
the graph or of a subset of its edges, and ``grounded_laplacian_cg``
solves weighted Laplacian systems with some nodes held at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "EmpiricalGraph",
    "build_graph",
    "components",
    "incidence_apply",
    "divergence",
    "grounded_laplacian_cg",
    "scaled_operator_norm",
]

# CG stops when the residual norm falls below _CG_RTOL times the starting
# one, or after _CG_MAX_ITERS iterations.
_CG_RTOL = 1e-13
_CG_MAX_ITERS = 1000
# Power iteration stops when the estimate moves by at most _POWER_RTOL
# relative to itself, and fails after _POWER_MAX_ITERS iterations.
_POWER_RTOL = 1e-8
_POWER_MAX_ITERS = 50_000


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

    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(h), int(t), float(w))
            for h, t, w in zip(self.heads, self.tails, self.weights)
        ]


def build_graph(
    node_count: int, edge_list: Iterable[Sequence[float]]
) -> EmpiricalGraph:
    """Build a validated graph from (i, j, w) triples.

    ``edge_list`` is an iterable of triples; a structured array of three
    fields (id, id, weight), as ``np.loadtxt`` returns, is read column by
    column.  Each pair {i, j} is stored as (min, max, w); edges are sorted
    by (head, tail).  Rejects self-loops, duplicate pairs, non-positive or
    non-finite weights, out-of-range ids and items that are not triples,
    naming the first faulty edge in input order.  Isolated nodes are
    allowed here (the solver rejects them later, where inverse degrees are
    needed).
    """
    if not isinstance(node_count, (int, np.integer)) or node_count < 1:
        raise ValueError(f"node_count must be a positive integer, got {node_count!r}")
    n = int(node_count)

    columns, non_triple = _edge_columns(edge_list)
    i, j = (_id_array(c, n) for c in columns[:2])
    w = np.asarray(columns[2], dtype=np.float64)
    heads, tails = np.minimum(i, j), np.maximum(i, j)
    out_of_range = (heads < 1) | (tails > n)
    self_loop = i == j
    bad_weight = ~np.isfinite(w) | (w <= 0.0)
    # A stable sort keeps equal pairs in input order, so the later of two
    # adjacent equal pairs is the duplicate.
    order = np.lexsort((tails, heads))
    sorted_heads, sorted_tails = heads[order], tails[order]
    same = (sorted_heads[1:] == sorted_heads[:-1]) & (
        sorted_tails[1:] == sorted_tails[:-1]
    )
    duplicate = np.zeros(i.size, dtype=bool)
    duplicate[order[1:][same]] = True
    faults = np.flatnonzero(out_of_range | self_loop | bad_weight | duplicate)
    if faults.size:
        pos = int(faults[0])
        if out_of_range[pos]:
            a, b = (int(c[pos]) for c in columns[:2])
            raise ValueError(f"edge #{pos}: node id out of range 1..{n}: ({a}, {b})")
        if self_loop[pos]:
            raise ValueError(f"edge #{pos}: self-loop at node {int(i[pos])}")
        if bad_weight[pos]:
            raise ValueError(
                f"edge #{pos}: weight must be finite and positive, got {float(w[pos])}"
            )
        raise ValueError(
            f"edge #{pos}: duplicate edge {{{int(heads[pos])}, {int(tails[pos])}}}"
        )
    if non_triple is not None:
        pos, item = non_triple
        raise ValueError(f"edge #{pos}: expected an (i, j, w) triple, got {item!r}")

    weights = w[order]
    for arr in (sorted_heads, sorted_tails, weights):
        arr.setflags(write=False)
    return EmpiricalGraph(n, sorted_heads, sorted_tails, weights)


def _edge_columns(
    edge_list: Iterable[Sequence[float]],
) -> tuple[list[Sequence[float]], tuple[int, Any] | None]:
    """The i, j and w columns of the triples before the first item that is
    not a triple, and that item with its position (None if every item is a
    triple)."""
    if isinstance(edge_list, np.ndarray) and len(edge_list.dtype.names or ()) == 3:
        return [edge_list[name] for name in edge_list.dtype.names], None
    items = list(edge_list)
    try:
        columns = list(zip(*items, strict=True))
    except (TypeError, ValueError):  # an item is not a sequence, or not of one length
        columns = []
    if len(columns) == 3 or not items:
        return columns or [(), (), ()], None
    pos = next(p for p, item in enumerate(items) if not _is_triple(item))
    return list(zip(*items[:pos])) or [(), (), ()], (pos, items[pos])


def _is_triple(item: Any) -> bool:
    try:
        _, _, _ = item
    except (TypeError, ValueError):
        return False
    return True


def _id_array(ids: Sequence[float], n: int) -> np.ndarray:
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        # An id beyond 64 bits lies outside 1..n; 0 stands in for it, so
        # the range check reports it with the original value.
        big = np.asarray(ids, dtype=object)
        return np.where((big >= 1) & (big <= n), big, 0).astype(np.int64)


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


def grounded_laplacian_cg(
    g: EmpiricalGraph,
    free: np.ndarray,
    rhs: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Solve L_FF u = rhs by conjugate gradient preconditioned with the
    diagonal of L, and return u with the iteration count.

    L = B^T diag(weights) B is the weighted graph Laplacian (B is
    :func:`incidence_apply`, unit weights when ``weights`` is None; a zero
    weight drops its edge) and F the nodes of the boolean mask ``free``;
    the other nodes are grounded (held at zero).  L_FF is positive
    definite when every component of the weighted edges holds a grounded
    node.  CG stops at a residual norm 1e-13 times that of ``rhs``, or
    after 1,000 iterations.
    """
    if weights is None:
        weights = np.ones(g.edge_count)
    diag = np.bincount(g._head_idx, weights=weights, minlength=g.node_count)
    diag += np.bincount(g._tail_idx, weights=weights, minlength=g.node_count)
    full = np.zeros(g.node_count)

    def laplacian(p: np.ndarray) -> np.ndarray:
        full[free] = p
        return divergence(g, weights * incidence_apply(g, full))[free]

    inv_diag = 1.0 / diag[free]
    u = np.zeros(rhs.size)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    stop = (_CG_RTOL * float(np.linalg.norm(rhs))) ** 2
    iters = 0
    while iters < _CG_MAX_ITERS and float(r @ r) > stop:
        q = laplacian(p)
        alpha = rz / float(p @ q)
        u += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
        iters += 1
    return u, iters


def scaled_operator_norm(g: EmpiricalGraph) -> float:
    """Spectral norm of the degree-scaled adjoint difference operator.

    This is the quantity the solver's step sizes are chosen to control:
    with node steps 1/d_i and edge steps 1/2 it never exceeds 1 (it equals
    1 exactly on bipartite graphs).  Computed matrix-free by power
    iteration on the PSD composition, to relative tolerance 1e-8 within
    50,000 iterations.  The Rayleigh-quotient estimate approaches the true
    value from below.
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
    for _ in range(_POWER_MAX_ITERS):
        w = apply_sym(v)
        new_estimate = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(new_estimate - estimate) <= _POWER_RTOL * max(abs(new_estimate), 1e-30):
            return float(np.sqrt(max(new_estimate, 0.0)))
        estimate = new_estimate
    raise RuntimeError(
        f"power iteration did not converge within {_POWER_MAX_ITERS} iterations"
    )
