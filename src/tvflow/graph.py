"""Weighted undirected graphs with a canonical edge orientation.

Every undirected edge {i, j} is stored as the directed pair (head, tail)
with head = min(i, j), and the edge list is sorted lexicographically by
(head, tail).  Edge indices are therefore reproducible regardless of the
order edges were supplied in.  Node ids are 1-based at the API surface.

The two linear operators that everything else is built on live here:
``incidence_apply`` maps node values to signed edge differences and
``divergence`` is its adjoint (net outflow per node).  Both are
matrix-free and reduce sequentially by edge index, so results are
bit-deterministic.  The unchecked kernels ``_incidence`` and
``_divergence`` are their one implementation: the public functions check
their input and call them, and hot loops call them directly.
``components`` labels the connected components of the graph or of a
subset of its edges, ``_adjacency`` lists the ends of a subset of its
edges grouped by node, for searches that walk it, and
``grounded_laplacian_cg`` solves weighted Laplacian systems with some
nodes held at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "EmpiricalGraph",
    "build_graph",
    "components",
    "incidence_apply",
    "divergence",
    "grounded_laplacian_cg",
]

# CG stops when the residual norm falls below _CG_RTOL times the starting
# one, or after _CG_MAX_ITERS iterations.
_CG_RTOL = 1e-13
_CG_MAX_ITERS = 1000
# Messages that list nodes name at most this many (see _node_list).
_SHOWN_NODES = 5


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

    def check_no_isolated(self) -> None:
        """The one rule where inverse degrees are needed: no isolated node."""
        n = self.node_count
        if n > 2 * self.edge_count:
            # Some node is isolated.  The first ones are found among the
            # first ids that are no endpoint, without an array per node: n
            # may come from one stray huge id.
            ends = np.unique(np.concatenate((self.heads, self.tails)))
            ids = np.arange(1, min(n, ends.size + _SHOWN_NODES + 1) + 1)
            isolated = ids[~np.isin(ids, ends)]
        else:
            isolated = np.flatnonzero(self.degrees == 0) + 1
        if isolated.size:
            raise ValueError(
                f"isolated nodes [{_node_list(isolated)}]: the solver needs degree >= 1"
            )


def _node_list(nodes: Sequence[Any] | np.ndarray) -> str:
    """The first _SHOWN_NODES of ``nodes``, node ids or (head, tail) edges,
    comma-separated, with ", ..." when there are more: messages that name
    nodes or edges stay short on any graph."""
    shown = ", ".join(str(i) for i in nodes[:_SHOWN_NODES])
    return shown + (", ..." if len(nodes) > _SHOWN_NODES else "")


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
    return _build_graph(int(node_count), edge_list, lambda k: f"edge #{k}")


def _build_graph(
    n: int, edge_list: Iterable[Sequence[float]], where: Callable[[int], str]
) -> EmpiricalGraph:
    """:func:`build_graph` over nodes 1..n, naming the faulty edge at input
    position k as ``where(k)``.  For n below 1 every edge is out of range."""
    columns, non_triple = _edge_columns(edge_list)
    i, j = (_id_array(c, n) for c in columns[:2])
    w = np.asarray(columns[2], dtype=np.float64)
    heads, tails = np.minimum(i, j), np.maximum(i, j)
    out_of_range = (heads < 1) | (tails > n)
    self_loop = i == j
    bad_weight = ~np.isfinite(w) | (w <= 0.0)
    # A stable sort keeps equal pairs in input order, so the later of two
    # adjacent equal pairs is the duplicate.
    order = _edge_order(heads, tails, n)
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
            fault = f"node id out of range 1..{n}: ({a}, {b})"
        elif self_loop[pos]:
            fault = f"self-loop at node {int(i[pos])}"
        elif bad_weight[pos]:
            fault = f"weight must be finite and positive, got {float(w[pos])}"
        else:
            fault = f"duplicate edge {{{int(heads[pos])}, {int(tails[pos])}}}"
        raise ValueError(f"{where(pos)}: {fault}")
    if non_triple is not None:
        pos, item = non_triple
        raise ValueError(f"{where(pos)}: expected an (i, j, w) triple, got {item!r}")

    weights = w[order]
    for arr in (sorted_heads, sorted_tails, weights):
        arr.setflags(write=False)
    return EmpiricalGraph(n, sorted_heads, sorted_tails, weights)


def _edge_order(heads: np.ndarray, tails: np.ndarray, n: int) -> np.ndarray:
    """The stable permutation that sorts edges by (head, tail), as
    ``np.lexsort((tails, heads))`` does for ids in 1..n.

    It sorts one key, head * (n + 2) + tail, with ids clipped into 0..n+1,
    which costs far less than lexsort on random tails and next to nothing
    on rows already in order.  Ids outside 1..n land in the clipped order
    only: they are faults of their own rows, and an in-range pair never
    shares a key with them.  Where the key could overflow 64 bits it falls
    back to lexsort.
    """
    if (n + 1) * (n + 3) > np.iinfo(np.int64).max:
        return np.lexsort((tails, heads))
    key = np.clip(heads, 0, n + 1) * (n + 2) + np.clip(tails, 0, n + 1)
    return np.argsort(key, kind="stable")


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


def _adjacency(
    g: EmpiricalGraph, edge_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both ends of every edge where ``edge_mask`` is True, grouped by node.

    Returns ``bounds, ends, others, edges``: slot s is edge ``edges[s]``
    seen from node position ``ends[s]``, whose other end is ``others[s]``,
    and node i's slots are bounds[i]:bounds[i + 1].  A node lists the
    masked edges it heads, then those it tails, each in edge order: the
    order of ``np.argsort(ends, kind="stable")`` over the masked heads
    followed by the masked tails.
    """
    n = g.node_count
    edges = np.flatnonzero(edge_mask)
    ends = np.concatenate([g._head_idx[edges], g._tail_idx[edges]])
    others = np.concatenate([g._tail_idx[edges], g._head_idx[edges]])
    order = _group_order(ends, n)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=bounds[1:])
    return bounds, ends[order], others[order], np.concatenate([edges, edges])[order]


def _group_order(ends: np.ndarray, n: int) -> np.ndarray:
    """The stable permutation that sorts node positions ``ends`` (each in
    0..n-1), as ``np.argsort(ends, kind="stable")`` does.

    It sorts one key per entry, end << s | position, with s bits enough
    for every position.  The keys are distinct, so ``np.sort`` puts them in
    the stable order, at a fraction of a stable argsort's cost.  Where the
    key could overflow 64 bits it falls back to the stable argsort.
    """
    shift = int(ends.size).bit_length()
    if (n << shift) - 1 > np.iinfo(np.int64).max:
        return np.argsort(ends, kind="stable")
    keys = np.sort((ends << shift) | np.arange(ends.size))
    return keys & ((1 << shift) - 1)


def _incidence(g: EmpiricalGraph, x: np.ndarray) -> np.ndarray:
    """B x, x_head(e) - x_tail(e) per edge, for a float node vector x."""
    return x[g._head_idx] - x[g._tail_idx]


def _divergence(g: EmpiricalGraph, y: np.ndarray) -> np.ndarray:
    """B^T y, net outflow per node, for a float edge vector y."""
    # bincount yields int64 for empty weights; keep the kernel float.
    out = np.bincount(g._head_idx, weights=y, minlength=g.node_count).astype(
        np.float64, copy=False
    )
    out -= np.bincount(g._tail_idx, weights=y, minlength=g.node_count)
    return out


def incidence_apply(g: EmpiricalGraph, x: np.ndarray) -> np.ndarray:
    """Signed edge differences: output[e] = x_head(e) - x_tail(e)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise ValueError(
            f"node vector has shape {x.shape}, expected ({g.node_count},)"
        )
    return _incidence(g, x)


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
    return _divergence(g, y)


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
    n = g.node_count
    diag = np.bincount(g._head_idx, weights=weights, minlength=n)
    diag += np.bincount(g._tail_idx, weights=weights, minlength=n)
    full = np.zeros(n)

    def laplacian(p: np.ndarray) -> np.ndarray:
        full[free] = p
        return _divergence(g, weights * _incidence(g, full))[free]

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
