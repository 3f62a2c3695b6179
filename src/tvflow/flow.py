"""Network flows on the extended graph and flow-based optimality
certificates for piecewise-constant signals.

A flow assigns a value to every base edge plus one value per sampled node
(the amount absorbed through that node's accumulator edge); the extended
graph and its capacities are those of a :class:`~tvflow.signal.Problem`.
A flow whose divergence matches its accumulator values, saturates exactly
the cross-cluster edges and stays strictly inside capacity elsewhere, and
whose per-cluster balances agree, certifies optimality of the
piecewise-constant signal it reconstructs.  :func:`verify_certificate`
runs those checks and is the one way to that signal; a flow's dual value
is :func:`~tvflow.solver.duality_gap`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .graph import (
    EmpiricalGraph,
    _adjacency,
    _incidence,
    components,
    divergence,
    grounded_laplacian_cg,
    incidence_apply,
)
from .signal import Observations, Partition, Problem, boundary_mask

__all__ = [
    "Flow",
    "CertificateReport",
    "verify_certificate",
    "construct_tree_certificate",
    "Certificate",
    "certificate_from_partition",
    "certificate_from_signal",
]

# The exact finish joins two nodes into one cluster when their jump is at
# most _JUMP_TOL * max(1, label range), and lets the boundary signs settle
# for at most _SIGN_ROUNDS rounds.
_JUMP_TOL = 1e-2
_SIGN_ROUNDS = 10


@dataclass(frozen=True, eq=False)
class Flow:
    """Edge values on the extended graph.

    ``base`` is aligned with the graph's canonical edges; ``star`` is
    aligned with the sorted ``star_nodes`` and holds the flow absorbed from
    each sampled node into the accumulator.
    """

    base: np.ndarray
    star_nodes: np.ndarray
    star: np.ndarray

    def __post_init__(self) -> None:
        base = np.array(self.base, dtype=np.float64)
        star_nodes = np.array(self.star_nodes, dtype=np.int64)
        star = np.array(self.star, dtype=np.float64)
        if star_nodes.ndim != 1 or star.shape != star_nodes.shape:
            raise ValueError("star values must align with star node ids")
        if star_nodes.size and np.any(star_nodes[1:] <= star_nodes[:-1]):
            raise ValueError("star node ids must be strictly increasing")
        for arr in (base, star_nodes, star):
            arr.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "star_nodes", star_nodes)
        object.__setattr__(self, "star", star)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Structured verdict of the flow-certificate checks.

    ``status`` is the one rule: "verified" exactly when the signal was
    reconstructed (``reconstructed`` is set only after every check,
    orientation included, has passed), "indeterminate" when the only
    problem is clusters without a sampled node, and "failed" otherwise;
    ``verdict`` is ``status == "verified"``.  ``verify_certificate`` names
    the first failed check in ``failure_reason``; ``orientation_ok`` is
    None until the signal is reconstructed, and ``interior_slack`` is None
    when no edge lies inside a cluster.  ``indeterminate_clusters`` holds
    0-based cluster positions, like ``Partition.cluster_index``;
    ``to_dict`` lists them 1-based, as messages and ``certify``'s printout
    name clusters.  ``to_dict`` leaves out ``reconstructed``: ``certify``
    writes the signal to ``reconstructed.csv`` instead.
    """

    conservation_residual: float
    capacity_excess: float
    flow_ok: bool
    saturation_ok: bool
    boundary_residuals: tuple[tuple[int, int, float], ...]
    strict_interior_ok: bool
    interior_slack: float | None
    balance_ok: bool
    cluster_spreads: tuple[float | None, ...]
    orientation_ok: bool | None
    indeterminate_clusters: tuple[int, ...]
    reconstructed: np.ndarray | None
    failure_reason: str | None

    @property
    def status(self) -> str:
        if self.reconstructed is not None:
            return "verified"
        checks = (
            self.flow_ok,
            self.saturation_ok,
            self.strict_interior_ok,
            self.balance_ok,
        )
        if self.indeterminate_clusters and all(checks):
            return "indeterminate"
        return "failed"

    @property
    def verdict(self) -> bool:
        return self.status == "verified"

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "verdict": self.verdict,
            "conservation_residual": self.conservation_residual,
            "capacity_excess": self.capacity_excess,
            "flow_ok": self.flow_ok,
            "saturation_ok": self.saturation_ok,
            "boundary_residuals": [
                {"head": h, "tail": t, "residual": r}
                for h, t, r in self.boundary_residuals
            ],
            "strict_interior_ok": self.strict_interior_ok,
            "interior_slack": self.interior_slack,
            "balance_ok": self.balance_ok,
            "cluster_spreads": list(self.cluster_spreads),
            "orientation_ok": self.orientation_ok,
            "indeterminate_clusters": [k + 1 for k in self.indeterminate_clusters],
            "failure_reason": self.failure_reason,
        }


def _group_min_max(
    groups: np.ndarray, values: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest of ``values`` per group 0..count-1; +inf and
    -inf for a group without a member."""
    # Float values keep ufunc.at on its fast path; mixed dtypes are 20x slower.
    values = np.asarray(values, dtype=np.float64)
    low = np.full(count, np.inf)
    high = np.full(count, -np.inf)
    np.minimum.at(low, groups, values)
    np.maximum.at(high, groups, values)
    return low, high


def verify_certificate(
    problem: Problem, f: Flow, partition: Partition, tol: float = Problem.DEFAULT_TOL
) -> CertificateReport:
    """Run the optimality-certificate checks for a flow.

    The flow must conserve and keep within capacities, every cross-cluster
    edge must be saturated to within ``tol``, every within-cluster edge
    must keep at least ``tol`` slack, and within each cluster the
    quantities label_i - star_i must agree across its sampled nodes.
    Clusters without a sampled node leave their balance condition
    undecidable and are reported as indeterminate.

    When those checks pass, the signal is reconstructed, one value per
    cluster (the report's ``reconstructed``, the one way to a signal from a
    flow); it fails when a cluster's sampled nodes disagree on label_i
    minus divergence_i by more than ``tol``.  A piece of a cluster that a
    tight interior edge cuts off from its labels takes the cluster's value:
    edges inside a cluster have zero jump, so any flow within capacity is
    optimal there.  One final condition is then tested: on every saturated
    edge the flow direction must agree with the reconstructed signal's
    jump.  A saturated flow pushed against the jump satisfies all the
    counting conditions yet is not optimal (the joint optimality of the
    pair requires the jump to lie in the capacity indicator's
    subdifferential at the flow), so skipping this would certify
    non-optimal flows whenever lam times the boundary weight exceeds half
    the label gap.

    The conservation residual is the largest node imbalance: divergence
    minus the star value at sampled nodes, raw divergence at unsampled
    nodes, and the star-value sum at the accumulator.  Capacities apply to
    base edges only; accumulator edges are uncapacitated.
    """
    g, obs, caps = problem.graph, problem.obs, problem.capacities
    problem.check_certificate_tol("tol", tol)
    if f.base.shape != (g.edge_count,):
        raise ValueError(
            f"flow has {f.base.shape[0]} base values, graph has {g.edge_count} edges"
        )
    if not np.array_equal(f.star_nodes, obs.nodes):
        missing = np.setdiff1d(obs.nodes, f.star_nodes)[:1].tolist()
        extra = np.setdiff1d(f.star_nodes, obs.nodes)[:1].tolist()
        raise ValueError(
            "flow star nodes do not match the labeled nodes: first labeled node"
            f" without a star row {missing}, first star row at an unlabeled node {extra}"
        )
    bmask = boundary_mask(g, partition)

    div, capacity_excess, conservation = problem.dual_residuals(f.base)
    conservation = max(
        conservation,
        float(np.max(np.abs(div[problem.sampled] - f.star))),
        float(abs(np.sum(f.star))),
    )
    flow_ok = conservation <= tol and capacity_excess <= tol

    abs_y = np.abs(f.base)
    residuals = np.abs(abs_y[bmask] - caps[bmask])
    boundary_residuals = tuple(
        zip(g.heads[bmask].tolist(), g.tails[bmask].tolist(), residuals.tolist())
    )
    saturation_ok = bool(np.all(residuals <= tol))

    # None when no edge lies inside a cluster; the condition then holds.
    interior = ~bmask
    interior_slack = None
    if interior.any():
        interior_slack = float(np.min(caps[interior] - abs_y[interior]))
    strict_interior_ok = interior_slack is None or interior_slack >= tol

    groups, count = partition.cluster_index[problem.sampled], partition.cluster_count
    labeled = np.bincount(groups, minlength=count) > 0
    low, high = _group_min_max(groups, obs.labels - f.star, count)
    spread = high - low
    balance_ok = not np.any(spread[labeled] > tol)
    spreads = tuple(
        s if ok else None for s, ok in zip(spread.tolist(), labeled.tolist())
    )
    indeterminate = tuple(np.flatnonzero(~labeled).tolist())

    reconstructed = None
    orientation_ok: bool | None = None
    failure_reason = None
    if not flow_ok:
        failure_reason = "conservation or capacity violated"
    elif not saturation_ok:
        failure_reason = "a boundary edge is not saturated"
    elif not strict_interior_ok:
        failure_reason = "an interior edge has no capacity slack"
    elif not balance_ok:
        failure_reason = "cluster balances disagree"
    elif not indeterminate:
        try:
            reconstructed = _reconstruct(problem, partition, div, tol)
        except ValueError as exc:
            failure_reason = str(exc)
        else:
            jumps = _incidence(g, reconstructed)
            saturated = np.abs(abs_y - caps) <= tol
            aligned = (np.abs(jumps) <= tol) | (jumps * f.base >= 0.0)
            orientation_ok = bool(np.all(aligned[saturated]))
            if not orientation_ok:
                reconstructed = None
                failure_reason = (
                    "a saturated edge carries flow against the reconstructed jump"
                )

    return CertificateReport(
        conservation_residual=conservation,
        capacity_excess=capacity_excess,
        flow_ok=flow_ok,
        saturation_ok=saturation_ok,
        boundary_residuals=boundary_residuals,
        strict_interior_ok=strict_interior_ok,
        interior_slack=interior_slack,
        balance_ok=balance_ok,
        cluster_spreads=spreads,
        orientation_ok=orientation_ok,
        indeterminate_clusters=indeterminate,
        reconstructed=reconstructed,
        failure_reason=failure_reason,
    )


def _reconstruct(
    problem: Problem, partition: Partition, div: np.ndarray, tol: float
) -> np.ndarray:
    """The signal of a flow that passed every check of
    :func:`verify_certificate` but orientation: on each cluster, label_i
    minus ``div`` at its lowest sampled node i (the root of
    :func:`_check_clusters`' forest).  The cluster's other sampled nodes
    must agree to within ``tol``; the balance check, on label minus star,
    bounds their spread only to 3 * ``tol``."""
    sampled, obs = problem.sampled, problem.obs
    groups, count = partition.cluster_index[sampled], partition.cluster_count
    candidates = obs.labels - div[sampled]
    lowest = _group_min_max(groups, sampled, count)[0].astype(np.int64)
    anchor = np.searchsorted(sampled, lowest)
    value = candidates[anchor]
    off = np.flatnonzero(np.abs(candidates - value[groups]) > tol)
    if off.size:
        other = off[0]
        first = anchor[groups[other]]
        raise ValueError(
            f"sampled nodes {obs.nodes[first]} and {obs.nodes[other]}"
            f" give inconsistent values {candidates[first]:g} vs {candidates[other]:g}"
        )
    return value[partition.cluster_index]


def construct_tree_certificate(
    g: EmpiricalGraph, partition: Partition, obs: Observations, lam: float
) -> Flow:
    """The unverified candidate flow for a partition of any graph into
    connected, sampled clusters: :func:`_partition_flow` with the
    mean-label signs (no sign fixpoint).  It conserves and its cluster
    balances agree exactly; strict interior slack and the orientation of
    saturated edges are left to :func:`verify_certificate`."""
    problem = Problem(g, obs, lam)
    bmask, forest = _check_clusters(problem, partition)
    ci, count = partition.cluster_index, partition.cluster_count
    signs = _boundary_signs(problem, ci, count, bmask, np.zeros(bmask.sum()))
    return _partition_flow(problem, ci, count, bmask, forest, signs)[0]


@dataclass(frozen=True, eq=False)
class Certificate:
    """A verified optimality certificate: the flow, the partition it
    certifies, and the report of :func:`verify_certificate`, whose
    ``reconstructed`` signal is the optimum."""

    flow: Flow
    partition: Partition
    report: CertificateReport


def certificate_from_partition(
    problem: Problem, partition: Partition, tol: float = Problem.DEFAULT_TOL
) -> Certificate:
    """Certify ``partition``, on any graph, as the clusters of the optimal
    signal at the problem's lambda, verified at ``tol``.

    Raises ValueError saying why not: a cluster without a sampled node or
    not connected in the graph, no sign fixpoint, or the failed check's
    ``failure_reason``.
    """
    bmask, forest = _check_clusters(problem, partition)
    certificate, reason, _ = _certify(problem, partition, bmask, forest, tol)
    if certificate is None:
        raise ValueError(reason)
    return certificate


def certificate_from_signal(
    problem: Problem, x: np.ndarray, tol: float = Problem.DEFAULT_TOL
) -> tuple[Certificate | None, int]:
    """Certify the partition read off a signal near the optimum, as
    :func:`certificate_from_partition` does at ``tol``, and count the CG
    iterations spent; None when a cluster has no label or it does not
    verify.  The partition is the components of the edges on which x jumps
    by at most 1e-2 * max(1, label range); the boundary signs start from
    its clusters' mean labels, not from x."""
    g, obs = problem.graph, problem.obs
    eps = _JUMP_TOL * max(1.0, float(obs.labels.max() - obs.labels.min()))
    ci = components(g, np.abs(incidence_apply(g, x)) <= eps)
    partition = Partition(ci)
    try:
        bmask, forest = _check_clusters(problem, partition)
    except ValueError:
        return None, 0
    certificate, _, cg_iters = _certify(problem, partition, bmask, forest, tol)
    return certificate, cg_iters


class _Forest(NamedTuple):
    """A breadth-first forest of some of a graph's edges, grown from
    ``roots`` (node positions).  ``parent`` and ``parent_edge`` hold each
    node's parent and the edge to it, -1 for a node no root reaches; a
    root is its own parent.  ``levels`` holds the nodes at depth 1, 2, ...,
    each in the order a first-in first-out queue visits them."""

    roots: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    levels: list[np.ndarray]


def _check_clusters(
    problem: Problem, partition: Partition
) -> tuple[np.ndarray, _Forest]:
    """The boundary mask of ``partition`` and the breadth-first forest of
    the edges inside its clusters, rooted at each cluster's lowest sampled
    node; raise unless every cluster has a sampled node and the forest
    reaches every node, which holds exactly when every cluster is
    connected.  The error names the lowest cluster that breaks a rule."""
    bmask = boundary_mask(problem.graph, partition)
    ci, count = partition.cluster_index, partition.cluster_count
    sampled_ci = ci[problem.sampled]
    labeled = np.bincount(sampled_ci, minlength=count)
    if not labeled.all():
        raise ValueError(f"cluster {int(np.argmin(labeled)) + 1} has no sampled node")
    roots = _group_min_max(sampled_ci, problem.sampled, count)[0].astype(np.int64)
    forest = _bfs_forest(problem.graph, ~bmask, roots)
    unreached = forest.parent < 0
    if unreached.any():
        k = int(ci[unreached].min()) + 1
        raise ValueError(f"cluster {k} is not connected in the graph")
    return bmask, forest


def _certify(
    problem: Problem,
    partition: Partition,
    bmask: np.ndarray,
    forest: _Forest,
    tol: float,
) -> tuple[Certificate | None, str | None, int]:
    """The certificate of connected, labeled clusters with boundary edges
    ``bmask`` and interior forest ``forest`` (None and why not) and the CG
    iterations spent: signs from the mean-label signs iterated to a
    fixpoint of :func:`_boundary_signs`, :func:`_partition_flow`, and
    :func:`verify_certificate` at ``tol``."""
    ci, count = partition.cluster_index, partition.cluster_count
    settled = _boundary_signs(problem, ci, count, bmask, np.zeros(bmask.sum()))
    for _ in range(_SIGN_ROUNDS):
        signs, settled = settled, _boundary_signs(problem, ci, count, bmask, settled)
        if not settled.all():
            return None, "no sign fixpoint: equal cluster values across an edge", 0
        if np.array_equal(settled, signs):
            break
    else:
        return None, f"no sign fixpoint in {_SIGN_ROUNDS} rounds", 0
    flow, cg_iters = _partition_flow(problem, ci, count, bmask, forest, signs)
    report = verify_certificate(problem, flow, partition, tol)
    certificate = Certificate(flow, partition, report) if report.verdict else None
    return certificate, report.failure_reason, cg_iters


def _boundary_signs(
    problem: Problem, ci: np.ndarray, count: int, bmask: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """sign(c_head - c_tail) on the boundary edges ``bmask`` for the values
    of :func:`_cluster_values` with ``signs``; zero signs give the means."""
    coeffs = _cluster_values(problem, ci, count, bmask, signs)
    return np.sign(_incidence(problem.graph, coeffs[ci])[bmask])


def _cluster_values(
    problem: Problem, ci: np.ndarray, count: int, bmask: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """c_k = (sum of cluster k's labels - its boundary outflow) / its label
    count, where boundary edge e (``bmask``) carries signs_e * lam * w_e
    from its head's cluster ``ci`` to its tail's.  Every cluster
    0..count-1 needs a label."""
    g = problem.graph
    sampled_ci = ci[problem.sampled]
    carried = signs * problem.capacities[bmask]
    outflow = np.bincount(ci[g._head_idx[bmask]], weights=carried, minlength=count)
    outflow -= np.bincount(ci[g._tail_idx[bmask]], weights=carried, minlength=count)
    label_sums = np.bincount(sampled_ci, weights=problem.obs.labels, minlength=count)
    return (label_sums - outflow) / np.bincount(sampled_ci, minlength=count)


def _partition_flow(
    problem: Problem,
    ci: np.ndarray,
    count: int,
    bmask: np.ndarray,
    forest: _Forest,
    signs: np.ndarray,
) -> tuple[Flow, int]:
    """The certificate flow of a partition into connected, labeled clusters
    ``ci`` with boundary edges ``bmask``, and the CG iterations spent.
    ``forest`` is the breadth-first forest of the interior edges from each
    cluster's lowest sampled node, as :func:`_check_clusters` builds it.

    1. Values c_k of :func:`_cluster_values`; boundary edge e carries
       signs_e * lam * w_e.
    2. Interior flow: the capacity-weighted electrical flow on the edges
       inside clusters that gives every unsampled node zero divergence and
       every sampled node i of cluster k divergence label_i - c_k, by one
       :func:`~tvflow.graph.grounded_laplacian_cg` over all clusters with
       the forest's roots grounded.  Skipped when the interior edges form
       a forest, where step 3 alone gives that flow.
    3. Exact conservation: every node but the roots routes its leftover
       divergence up ``forest``.

    Every sampled node's label minus its star value is then c_k, so the
    cluster balances agree by construction.
    """
    g, obs = problem.graph, problem.obs
    n = g.node_count
    sampled_ci = ci[problem.sampled]
    coeffs = _cluster_values(problem, ci, count, bmask, signs)
    y = np.zeros(g.edge_count)
    y[bmask] = signs * problem.capacities[bmask]
    target = np.zeros(n)
    target[problem.sampled] = obs.labels - coeffs[sampled_ci]
    routed = np.ones(n, dtype=bool)
    routed[forest.roots] = False
    interior = ~bmask
    cg_iters = 0
    rhs = (target - divergence(g, y))[routed]
    if np.count_nonzero(interior) > n - count and rhs.any():
        weights = np.where(interior, problem.capacities, 0.0)
        u = np.zeros(n)
        u[routed], cg_iters = grounded_laplacian_cg(g, routed, rhs, weights)
        y += weights * incidence_apply(g, u)
    _route_to_roots(g, forest, y, divergence(g, y) - target, routed)
    star = divergence(g, y)[problem.sampled]
    return Flow(base=y, star_nodes=obs.nodes, star=star), cg_iters


def _bfs_forest(
    g: EmpiricalGraph, edge_mask: np.ndarray, roots: np.ndarray
) -> _Forest:
    """The breadth-first forest of the edges ``edge_mask`` from ``roots``,
    built level by level.

    Each level gathers the slots (:func:`~tvflow.graph._adjacency`) of the
    whole frontier, in frontier order and slot order, drops neighbours
    that already have a parent, and gives each new node the first slot
    that reaches it; the new nodes, in the order of those slots, are the
    next frontier.  This reproduces exactly the parents, parent edges and
    visiting order of a first-in first-out queue.

    Cost: O(edges) array work plus a fixed number of numpy calls per
    level, so a tree whose radius is close to its size (a long path with
    one root) pays those calls once per node.
    """
    n = g.node_count
    bounds, ends, others, edges = _adjacency(g, edge_mask)
    # A node is reached once its parent is set; roots are their own.
    parent = np.full(n, -1)
    parent_edge = np.full(n, -1)
    parent[roots] = roots
    # Smallest position, among its level's gathered slots, of a slot that
    # reaches the node; each node is gathered as fresh on one level only.
    first_slot = np.full(n, np.iinfo(np.int64).max)
    levels = []
    frontier = roots
    while frontier.size:
        starts = bounds[frontier]
        counts = bounds[frontier + 1] - starts
        stops = np.cumsum(counts)
        slots = np.arange(stops[-1]) + np.repeat(starts - stops + counts, counts)
        slots = slots[parent[others[slots]] < 0]
        reached = others[slots]
        position = np.arange(reached.size)
        np.minimum.at(first_slot, reached, position)
        slots = slots[first_slot[reached] == position]
        frontier = others[slots]
        parent[frontier] = ends[slots]
        parent_edge[frontier] = edges[slots]
        levels.append(frontier)
    return _Forest(roots, parent, parent_edge, levels)


def _route_to_roots(
    g: EmpiricalGraph,
    forest: _Forest,
    y: np.ndarray,
    leftover: np.ndarray,
    routed: np.ndarray,
) -> None:
    """Move each ``routed`` node's ``leftover`` divergence to its root in
    ``forest``, in place in ``y``.

    Deepest level first and each level in reverse, every routed node
    passes its leftover plus what its children passed up its parent edge,
    so its divergence falls by exactly its leftover; nodes that are not
    routed, the roots among them, keep what reaches them.  ``np.add.at``
    adds repeated indices in order, so each parent sums its children in
    reverse breadth-first order, bit for bit as a node-by-node pass would.
    Every routed node must be reachable from a root.
    """
    carried = leftover.copy()
    for level in reversed(forest.levels):
        nodes = level[::-1]
        nodes = nodes[routed[nodes]]
        np.add.at(carried, forest.parent[nodes], carried[nodes])
    child = np.flatnonzero(routed)
    edge = forest.parent_edge[child]
    up = carried[child]
    # Flow up the parent edge lowers the child's divergence by ``up``;
    # adding -0.0 to the +0.0 of an empty edge keeps a zero flow +0.0.
    y[edge] += np.where(g._head_idx[edge] == child, -up, up)
