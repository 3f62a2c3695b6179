"""Network flows on the extended graph and flow-based optimality
certificates for piecewise-constant signals.

A flow assigns a value to every base edge plus one value per sampled node
(the amount absorbed through that node's accumulator edge).  A flow whose
divergence matches its accumulator values, saturates exactly the
cross-cluster edges and stays strictly inside capacity elsewhere, and
whose per-cluster balances agree, certifies optimality of the
piecewise-constant signal it reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .graph import EmpiricalGraph, ExtendedGraph, components, divergence
from .signal import Observations, Partition, boundary_mask

__all__ = [
    "Flow",
    "CertificateReport",
    "check_flow",
    "mincost_objective",
    "dual_to_extended_flow",
    "verify_certificate",
    "reconstruct_primal",
    "construct_tree_certificate",
]


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

    ``check_flow`` fills only the conservation/capacity fields; the
    saturation, interior and balance fields stay None until
    ``verify_certificate`` runs the full set of conditions.
    """

    conservation_residual: float
    capacity_excess: float
    flow_ok: bool
    saturation_ok: bool | None = None
    boundary_residuals: tuple[tuple[int, int, float], ...] | None = None
    strict_interior_ok: bool | None = None
    interior_slack: float | None = None
    balance_ok: bool | None = None
    cluster_spreads: tuple[float | None, ...] | None = None
    orientation_ok: bool | None = None
    indeterminate_clusters: tuple[int, ...] = ()
    reconstructed: np.ndarray | None = None
    failure_reason: str | None = None

    @property
    def verdict(self) -> bool:
        return (
            self.flow_ok
            and self.saturation_ok is True
            and self.strict_interior_ok is True
            and self.balance_ok is True
            and self.orientation_ok is True
            and not self.indeterminate_clusters
        )

    @property
    def status(self) -> str:
        checks = (
            self.flow_ok,
            self.saturation_ok,
            self.strict_interior_ok,
            self.balance_ok,
            self.orientation_ok,
        )
        if any(c is False for c in checks):
            return "failed"
        if self.indeterminate_clusters:
            return "indeterminate"
        return "verified"

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "verdict": self.verdict,
            "conservation_residual": self.conservation_residual,
            "capacity_excess": self.capacity_excess,
            "flow_ok": self.flow_ok,
            "saturation_ok": self.saturation_ok,
            "boundary_residuals": (
                None
                if self.boundary_residuals is None
                else [
                    {"head": h, "tail": t, "residual": r}
                    for h, t, r in self.boundary_residuals
                ]
            ),
            "strict_interior_ok": self.strict_interior_ok,
            "interior_slack": self.interior_slack,
            "balance_ok": self.balance_ok,
            "cluster_spreads": (
                None if self.cluster_spreads is None else list(self.cluster_spreads)
            ),
            "orientation_ok": self.orientation_ok,
            "indeterminate_clusters": list(self.indeterminate_clusters),
            "reconstructed": (
                None if self.reconstructed is None else self.reconstructed.tolist()
            ),
            "failure_reason": self.failure_reason,
        }


def _require_alignment(eg: ExtendedGraph, f: Flow) -> None:
    if f.base.shape != (eg.base.edge_count,):
        raise ValueError(
            f"flow has {f.base.shape[0]} base values, graph has"
            f" {eg.base.edge_count} edges"
        )
    if not np.array_equal(f.star_nodes, eg.star_nodes):
        raise ValueError("flow star nodes do not match the extended graph")


def check_flow(
    eg: ExtendedGraph, f: Flow, lam: float, tol: float = 1e-9
) -> CertificateReport:
    """Conservation and capacity checks only.

    The conservation residual is the largest node imbalance: divergence
    minus the star value at sampled nodes, raw divergence at unsampled
    nodes, and the star-value sum at the accumulator.  Capacities apply to
    base edges only; accumulator edges are uncapacitated.
    """
    if not (lam > 0.0):
        raise ValueError(f"lambda must be positive, got {lam}")
    _require_alignment(eg, f)
    g = eg.base
    imbalance = divergence(g, f.base)
    imbalance[eg._star_idx] -= f.star
    star_sum = float(abs(np.sum(f.star)))
    conservation = max(float(np.max(np.abs(imbalance))), star_sum)
    if g.edge_count:
        capacity_excess = float(max(0.0, np.max(np.abs(f.base) - lam * g.weights)))
    else:
        capacity_excess = 0.0
    return CertificateReport(
        conservation_residual=conservation,
        capacity_excess=capacity_excess,
        flow_ok=conservation <= tol and capacity_excess <= tol,
    )


def mincost_objective(eg: ExtendedGraph, f: Flow, obs: Observations) -> float:
    """Cost of the accumulator edges: sum of v_i * (v_i / 2 - label_i).

    At an optimal flow this equals minus the recovery objective.
    """
    _require_alignment(eg, f)
    if not np.array_equal(eg.star_nodes, obs.nodes):
        raise ValueError("observations do not match the extended graph's star nodes")
    return float(np.sum(f.star * (0.5 * f.star - obs.labels)))


def dual_to_extended_flow(
    g: EmpiricalGraph, obs: Observations, y: np.ndarray, tol: float = 1e-9
) -> Flow:
    """Lift a dual edge vector to a conserving flow on the extended graph.

    Star values take whatever divergence the base flow leaves at each
    sampled node; they sum to zero because divergences always do.  Raises
    if y leaves more than ``tol`` divergence at an unsampled node, since
    such a vector is not dual-feasible and cannot be lifted.
    """
    obs.validate_for(g)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.edge_count,):
        raise ValueError(f"flow has shape {y.shape}, expected ({g.edge_count},)")
    v = divergence(g, y)
    mask = obs.unsampled_mask(g.node_count)
    if mask.any():
        worst = float(np.max(np.abs(v[mask])))
        if worst > tol:
            node = int(np.flatnonzero(mask)[np.argmax(np.abs(v[mask]))] + 1)
            raise ValueError(
                f"divergence {worst:g} at unsampled node {node} exceeds {tol:g};"
                " not a conserving dual vector"
            )
    return Flow(base=y.copy(), star_nodes=obs.nodes.copy(), star=v[obs.indices])


def verify_certificate(
    eg: ExtendedGraph,
    f: Flow,
    partition: Partition,
    obs: Observations,
    lam: float,
    tol: float = 1e-9,
) -> CertificateReport:
    """Run the full optimality-certificate checks for a flow.

    On top of conservation and capacities: every cross-cluster edge must be
    saturated to within ``tol``, every within-cluster edge must keep at
    least ``tol`` slack, and within each cluster the quantities
    label_i - star_i must agree across its sampled nodes.  Clusters without
    a sampled node leave their balance condition undecidable and are
    reported as indeterminate.

    When those checks pass, the signal is reconstructed and one final
    condition is tested: on every saturated edge the flow direction must
    agree with the reconstructed signal's jump.  A saturated flow pushed
    against the jump satisfies all the counting conditions yet is not
    optimal (the joint optimality of the pair requires the jump to lie in
    the capacity indicator's subdifferential at the flow), so skipping this
    would certify non-optimal flows whenever lam times the boundary weight
    exceeds half the label gap.
    """
    base_report = check_flow(eg, f, lam, tol)
    g = eg.base
    if not np.array_equal(eg.star_nodes, obs.nodes):
        raise ValueError("observations do not match the extended graph's star nodes")

    bmask = boundary_mask(g, partition)
    caps = lam * g.weights
    abs_y = np.abs(f.base)

    boundary_residuals = tuple(
        (int(h), int(t), float(r))
        for h, t, r in zip(
            g.heads[bmask], g.tails[bmask], np.abs(abs_y[bmask] - caps[bmask])
        )
    )
    saturation_ok = all(r <= tol for _, _, r in boundary_residuals)

    interior = ~bmask
    if interior.any():
        interior_slack = float(np.min(caps[interior] - abs_y[interior]))
    else:
        interior_slack = float("inf")
    strict_interior_ok = interior_slack >= tol

    star_by_node = dict(zip(f.star_nodes.tolist(), f.star.tolist()))
    label_by_node = dict(zip(obs.nodes.tolist(), obs.labels.tolist()))
    spreads: list[float | None] = []
    indeterminate: list[int] = []
    balance_ok = True
    for k, cluster in enumerate(partition.clusters):
        sampled = sorted(cluster & set(label_by_node))
        if not sampled:
            spreads.append(None)
            indeterminate.append(k)
            continue
        values = [label_by_node[i] - star_by_node[i] for i in sampled]
        spread = max(values) - min(values)
        spreads.append(float(spread))
        if spread > tol:
            balance_ok = False

    reconstructed = None
    orientation_ok: bool | None = None
    failure_reason = None
    verdict_so_far = (
        base_report.flow_ok and saturation_ok and strict_interior_ok and balance_ok
    )
    if verdict_so_far and not indeterminate:
        try:
            reconstructed = reconstruct_primal(eg, f, partition, obs, lam, tol)
        except ValueError as exc:
            failure_reason = str(exc)
        if reconstructed is not None:
            jumps = reconstructed[g._head_idx] - reconstructed[g._tail_idx]
            saturated = np.abs(np.abs(f.base) - caps) <= tol
            aligned = (np.abs(jumps) <= tol) | (jumps * f.base >= 0.0)
            orientation_ok = bool(np.all(aligned[saturated]))
            if not orientation_ok:
                reconstructed = None
                failure_reason = (
                    "a saturated edge carries flow against the reconstructed jump"
                )
    elif not verdict_so_far:
        if not base_report.flow_ok:
            failure_reason = "conservation or capacity violated"
        elif not saturation_ok:
            failure_reason = "a boundary edge is not saturated"
        elif not strict_interior_ok:
            failure_reason = "an interior edge has no capacity slack"
        else:
            failure_reason = "cluster balances disagree"

    return CertificateReport(
        conservation_residual=base_report.conservation_residual,
        capacity_excess=base_report.capacity_excess,
        flow_ok=base_report.flow_ok,
        saturation_ok=saturation_ok,
        boundary_residuals=boundary_residuals,
        strict_interior_ok=strict_interior_ok,
        interior_slack=interior_slack,
        balance_ok=balance_ok,
        cluster_spreads=tuple(spreads),
        orientation_ok=orientation_ok,
        indeterminate_clusters=tuple(indeterminate),
        reconstructed=reconstructed,
        failure_reason=failure_reason,
    )


def reconstruct_primal(
    eg: ExtendedGraph,
    f: Flow,
    partition: Partition,
    obs: Observations,
    lam: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """Recover the optimal signal from a verified certificate flow.

    The signal is constant on every connected component of the edges with
    strict capacity slack; the value is label_i minus the base-flow
    divergence at the lowest sampled node i of the component.  Other
    sampled nodes in the component must agree to within ``tol``.
    """
    _require_alignment(eg, f)
    g = eg.base
    obs.validate_for(g)
    if partition.node_count != g.node_count:
        raise ValueError("partition does not cover this graph")
    comp = components(g, np.abs(f.base) < lam * g.weights - tol)
    count = int(comp.max()) + 1
    ci = partition.cluster_index
    lowest = np.full(count, partition.cluster_count)
    np.minimum.at(lowest, comp, ci)
    highest = np.full(count, -1)
    np.maximum.at(highest, comp, ci)

    sampled = obs.indices
    candidates = obs.labels - divergence(g, f.base)[sampled]
    sampled_comp = comp[sampled]
    # Anchor: position in ``sampled`` of each component's lowest sampled node.
    anchor = np.full(count, -1)
    present, first = np.unique(sampled_comp, return_index=True)
    anchor[present] = first
    value = candidates[anchor]
    off = np.abs(candidates - value[sampled_comp]) > tol

    bad = (lowest != highest) | (anchor < 0)
    bad[sampled_comp[off]] = True
    if bad.any():
        c = int(np.argmax(bad))
        nodes = (np.flatnonzero(comp == c) + 1).tolist()
        if lowest[c] != highest[c]:
            raise ValueError(
                f"component {nodes} spans multiple clusters; the flow does not"
                " certify this partition"
            )
        if anchor[c] < 0:
            raise ValueError(f"component {nodes} contains no sampled node")
        other = int(np.flatnonzero(off & (sampled_comp == c))[0])
        raise ValueError(
            f"sampled nodes {obs.nodes[anchor[c]]} and {obs.nodes[other]}"
            f" give inconsistent values {value[c]:g} vs {candidates[other]:g}"
        )
    return value[comp]


def construct_tree_certificate(
    g: EmpiricalGraph,
    partition: Partition,
    obs: Observations,
    lam: float,
) -> Flow:
    """Build a candidate certificate flow on a tree-structured graph.

    Cross-cluster edges are saturated, signed to push flow from the higher
    cluster coefficient to the lower (coefficients are the mean label of
    each cluster's sampled nodes).  Within-cluster edge values then follow
    from zero divergence at unsampled nodes, resolved leaf-to-root; any
    leftover divergence at sampled nodes is absorbed into star values.

    The result conserves flow by construction, but strict interior slack
    (and, with several samples per cluster, the balance condition) may
    still fail; run it through :func:`verify_certificate`.
    """
    if not (lam > 0.0):
        raise ValueError(f"lambda must be positive, got {lam}")
    obs.validate_for(g)
    if partition.node_count != g.node_count:
        raise ValueError("partition does not cover this graph")
    n = g.node_count
    if g.edge_count != n - 1:
        raise ValueError(
            f"expected a tree ({n - 1} edges for {n} nodes), got {g.edge_count}"
        )
    # n - 1 edges and one component make a tree.
    if components(g).max() != 0:
        raise ValueError(
            "graph contains a cycle and is disconnected; expected a tree"
        )

    sampled_set = set((obs.nodes - 1).tolist())
    ci = partition.cluster_index

    # Mean label per cluster defines the model coefficients used for signs.
    coeffs = np.empty(partition.cluster_count)
    for k, cluster in enumerate(partition.clusters):
        in_cluster = sorted((i - 1) for i in cluster if (i - 1) in sampled_set)
        if not in_cluster:
            raise ValueError(f"cluster {k + 1} has no sampled node")
        labels = [obs.labels[np.searchsorted(obs.nodes, i + 1)] for i in in_cluster]
        coeffs[k] = float(np.mean(labels))

    y = np.zeros(g.edge_count)
    bmask = boundary_mask(g, partition)
    for e in np.flatnonzero(bmask):
        hc = ci[g._head_idx[e]]
        tc = ci[g._tail_idx[e]]
        y[e] = np.sign(coeffs[hc] - coeffs[tc]) * lam * g.weights[e]

    # Incidence lists: (edge index, +1 if the node is the edge's head).
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in range(g.edge_count):
        incident[g._head_idx[e]].append((e, +1))
        incident[g._tail_idx[e]].append((e, -1))

    for k, cluster in enumerate(partition.clusters):
        members = {i - 1 for i in cluster}
        adjacency: dict[int, list[tuple[int, int, int]]] = {i: [] for i in members}
        for e in np.flatnonzero(~bmask):
            h, t = int(g._head_idx[e]), int(g._tail_idx[e])
            if h in members:
                adjacency[h].append((t, e, +1))
                adjacency[t].append((h, e, -1))
        root = min(i for i in members if i in sampled_set)
        parent_edge: dict[int, tuple[int, int]] = {}
        order = [root]
        seen = {root}
        for node in order:
            for neighbor, e, sign_at_node in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    # Neighbor sees the edge with the opposite sign.
                    parent_edge[neighbor] = (e, -sign_at_node)
                    order.append(neighbor)
        if seen != members:
            raise ValueError(f"cluster {k + 1} is not connected in the graph")
        for node in reversed(order[1:]):
            if node in sampled_set:
                continue
            e_p, sign_p = parent_edge[node]
            partial = sum(
                sign * y[e] for e, sign in incident[node] if e != e_p
            )
            y[e_p] = -partial * sign_p

    star = divergence(g, y)[obs.indices]
    return Flow(base=y, star_nodes=obs.nodes.copy(), star=star)
