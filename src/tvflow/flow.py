"""Network flows on the extended graph and flow-based optimality
certificates for piecewise-constant signals.

A flow assigns a value to every base edge plus one value per sampled node
(the amount absorbed through that node's accumulator edge); the extended
graph and its capacities are those of a :class:`~tvflow.signal.Problem`.
A flow whose divergence matches its accumulator values, saturates exactly
the cross-cluster edges and stays strictly inside capacity elsewhere, and
whose per-cluster balances agree, certifies optimality of the
piecewise-constant signal it reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .graph import (
    EmpiricalGraph,
    components,
    divergence,
    grounded_laplacian_cg,
    incidence_apply,
)
from .signal import Observations, Partition, Problem, boundary_mask

__all__ = [
    "Flow",
    "CertificateReport",
    "check_flow",
    "mincost_objective",
    "dual_to_extended_flow",
    "verify_certificate",
    "reconstruct_primal",
    "construct_tree_certificate",
    "Certificate",
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
    the first failed check in ``failure_reason``.  ``check_flow`` fills
    only the conservation/capacity fields and leaves the others None, so
    its report is never "verified".  ``indeterminate_clusters`` holds
    0-based cluster positions, like ``Partition.cluster_index``;
    ``to_dict`` lists them 1-based, as messages and ``certify``'s printout
    name clusters.
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
            "indeterminate_clusters": [k + 1 for k in self.indeterminate_clusters],
            "reconstructed": (
                None if self.reconstructed is None else self.reconstructed.tolist()
            ),
            "failure_reason": self.failure_reason,
        }


def _check_flow_inputs(problem: Problem, f: Flow, tol: float = 0.0) -> None:
    """Reject a flow that does not live on the problem's extended graph,
    and a tolerance that is negative or not finite."""
    Problem.check_tol("tol", tol)
    if f.base.shape != (problem.graph.edge_count,):
        raise ValueError(
            f"flow has {f.base.shape[0]} base values, graph has"
            f" {problem.graph.edge_count} edges"
        )
    labeled = problem.obs.nodes
    if not np.array_equal(f.star_nodes, labeled):
        missing = np.setdiff1d(labeled, f.star_nodes)[:1].tolist()
        extra = np.setdiff1d(f.star_nodes, labeled)[:1].tolist()
        raise ValueError(
            "flow star nodes do not match the labeled nodes: first labeled node"
            f" without a star row {missing}, first star row at an unlabeled node {extra}"
        )


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


def check_flow(problem: Problem, f: Flow, tol: float = 1e-9) -> CertificateReport:
    """Conservation and capacity checks only.

    The conservation residual is the largest node imbalance: divergence
    minus the star value at sampled nodes, raw divergence at unsampled
    nodes, and the star-value sum at the accumulator.  Capacities apply to
    base edges only; accumulator edges are uncapacitated.
    """
    _check_flow_inputs(problem, f, tol)
    v, capacity_excess, conservation = problem.dual_residuals(f.base)
    conservation = max(
        conservation,
        float(np.max(np.abs(v[problem.sampled] - f.star))),
        float(abs(np.sum(f.star))),
    )
    return CertificateReport(
        conservation_residual=conservation,
        capacity_excess=capacity_excess,
        flow_ok=conservation <= tol and capacity_excess <= tol,
    )


def mincost_objective(problem: Problem, f: Flow) -> float:
    """Cost of the accumulator edges: sum of v_i * (v_i / 2 - label_i).

    At an optimal flow this equals minus the recovery objective.
    """
    _check_flow_inputs(problem, f)
    return float(np.sum(f.star * (0.5 * f.star - problem.obs.labels)))


def dual_to_extended_flow(problem: Problem, y: np.ndarray, tol: float = 1e-9) -> Flow:
    """Lift a dual edge vector to a conserving flow on the extended graph.

    Star values take whatever divergence the base flow leaves at each
    sampled node; they sum to zero because divergences always do.  Raises
    if y leaves more than ``tol`` divergence at an unsampled node, since
    such a vector is not dual-feasible and cannot be lifted.
    """
    v, _, worst = problem.dual_residuals(y)
    if worst > tol:
        free = np.flatnonzero(problem.unsampled)
        node = int(free[np.argmax(np.abs(v[free]))] + 1)
        raise ValueError(
            f"divergence {worst:g} at unsampled node {node} exceeds {tol:g};"
            " not a conserving dual vector"
        )
    return Flow(base=y, star_nodes=problem.obs.nodes, star=v[problem.sampled])


def verify_certificate(
    problem: Problem, f: Flow, partition: Partition, tol: float = 1e-9
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
    exceeds half the label gap.  A reconstruction that raises fails the
    certificate with the error as its ``failure_reason``.
    """
    base_report = check_flow(problem, f, tol)
    g, obs, caps = problem.graph, problem.obs, problem.capacities

    bmask = boundary_mask(g, partition)
    abs_y = np.abs(f.base)

    boundary_residuals = tuple(
        (int(h), int(t), float(r))
        for h, t, r in zip(
            g.heads[bmask], g.tails[bmask], np.abs(abs_y[bmask] - caps[bmask])
        )
    )
    saturation_ok = all(r <= tol for _, _, r in boundary_residuals)

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
    if not base_report.flow_ok:
        failure_reason = "conservation or capacity violated"
    elif not saturation_ok:
        failure_reason = "a boundary edge is not saturated"
    elif not strict_interior_ok:
        failure_reason = "an interior edge has no capacity slack"
    elif not balance_ok:
        failure_reason = "cluster balances disagree"
    elif not indeterminate:
        try:
            reconstructed = reconstruct_primal(problem, f, partition, tol)
        except ValueError as exc:
            failure_reason = str(exc)
        else:
            jumps = reconstructed[g._head_idx] - reconstructed[g._tail_idx]
            saturated = np.abs(np.abs(f.base) - caps) <= tol
            aligned = (np.abs(jumps) <= tol) | (jumps * f.base >= 0.0)
            orientation_ok = bool(np.all(aligned[saturated]))
            if not orientation_ok:
                reconstructed = None
                failure_reason = (
                    "a saturated edge carries flow against the reconstructed jump"
                )

    return CertificateReport(
        conservation_residual=base_report.conservation_residual,
        capacity_excess=base_report.capacity_excess,
        flow_ok=base_report.flow_ok,
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


def reconstruct_primal(
    problem: Problem, f: Flow, partition: Partition, tol: float = 1e-9
) -> np.ndarray:
    """Recover the optimal signal from a verified certificate flow.

    The signal is constant on every connected component of the edges with
    strict capacity slack; the value is label_i minus the base-flow
    divergence at the lowest sampled node i of the component.  Other
    sampled nodes in the component must agree to within ``tol``.
    """
    _check_flow_inputs(problem, f, tol)
    g, obs = problem.graph, problem.obs
    partition.check_graph(g)
    comp = components(g, np.abs(f.base) < problem.capacities - tol)
    count = int(comp.max()) + 1
    lowest, highest = _group_min_max(comp, partition.cluster_index, count)

    sampled = problem.sampled
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
    problem = Problem(g, obs, lam)
    partition.check_graph(g)
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

    ci, count = partition.cluster_index, partition.cluster_count
    sampled_ci = ci[problem.sampled]
    label_counts = np.bincount(sampled_ci, minlength=count)
    if not label_counts.all():
        k = int(np.argmin(label_counts))
        raise ValueError(f"cluster {k + 1} has no sampled node")
    bmask = boundary_mask(g, partition)
    low, high = _group_min_max(ci, components(g, ~bmask), count)
    if np.any(low != high):
        raise ValueError(
            f"cluster {int(np.argmax(low != high)) + 1} is not connected in the graph"
        )

    # Mean label per cluster defines the model coefficients used for signs.
    coeffs = np.bincount(sampled_ci, weights=obs.labels, minlength=count) / label_counts
    y = np.zeros(g.edge_count)
    jumps = coeffs[ci[g._head_idx[bmask]]] - coeffs[ci[g._tail_idx[bmask]]]
    y[bmask] = np.sign(jumps) * problem.capacities[bmask]

    # Leaf to root: an unsampled node sends its boundary outflow plus what
    # its children sent up its parent edge, which zeroes its divergence.
    # Sampled nodes (every root among them) send nothing and keep the rest.
    roots = _group_min_max(sampled_ci, problem.sampled, count)[0].astype(int)
    _route_to_roots(g, ~bmask, roots, y, divergence(g, y), problem.unsampled)

    star = divergence(g, y)[obs.indices]
    return Flow(base=y, star_nodes=obs.nodes.copy(), star=star)


@dataclass(frozen=True, eq=False)
class Certificate:
    """A verified optimality certificate: the flow, the partition it
    certifies, and the report of :func:`verify_certificate`, whose
    ``reconstructed`` signal is the optimum."""

    flow: Flow
    partition: Partition
    report: CertificateReport


def certificate_from_signal(
    problem: Problem, x: np.ndarray, tol: float = 1e-9
) -> tuple[Certificate | None, int]:
    """Build a flow certificate from a signal near the optimum, verify it
    at ``tol`` and return it (None when it does not verify), with the
    number of CG iterations spent.

    1. Partition: the components of the edges on which x jumps by at most
       1e-2 * max(1, label range).  Every cluster needs a label.
    2. Coefficients: c_k = (sum of cluster k's labels - its boundary
       outflow) / its label count, where boundary edge e carries
       lam * w_e * sign(c_head - c_tail).  The signs start from the cluster
       means of x and are iterated to a fixpoint; a zero sign, or signs
       that do not settle within 10 rounds, give None.
    3. Interior flow: the capacity-weighted electrical flow on the edges
       inside clusters that gives every unsampled node zero divergence and
       every sampled node i of cluster k divergence label_i - c_k, by one
       :func:`~tvflow.graph.grounded_laplacian_cg` over all clusters with
       each cluster's lowest sampled node grounded.  Skipped when the
       interior edges form a forest, where step 4 alone gives that flow.
    4. Exact conservation: every node but those roots routes its leftover
       divergence up a breadth-first forest of the interior edges.
    """
    g, obs = problem.graph, problem.obs
    n = g.node_count
    eps = _JUMP_TOL * max(1.0, float(obs.labels.max() - obs.labels.min()))
    ci = components(g, np.abs(incidence_apply(g, x)) <= eps)
    count = int(ci.max()) + 1
    sampled_ci = ci[problem.sampled]
    label_counts = np.bincount(sampled_ci, minlength=count)
    if not label_counts.all():
        return None, 0

    bmask = ci[g._head_idx] != ci[g._tail_idx]
    bh, bt = ci[g._head_idx[bmask]], ci[g._tail_idx[bmask]]
    bcap = problem.capacities[bmask]
    label_sums = np.bincount(sampled_ci, weights=obs.labels, minlength=count)
    means = np.bincount(ci, weights=x, minlength=count) / np.bincount(ci)
    signs = np.sign(means[bh] - means[bt])
    for _ in range(_SIGN_ROUNDS):
        outflow = np.bincount(bh, weights=signs * bcap, minlength=count)
        outflow -= np.bincount(bt, weights=signs * bcap, minlength=count)
        coeffs = (label_sums - outflow) / label_counts
        settled = np.sign(coeffs[bh] - coeffs[bt])
        if not settled.all():
            return None, 0
        if np.array_equal(settled, signs):
            break
        signs = settled
    else:
        return None, 0

    y = np.zeros(g.edge_count)
    y[bmask] = signs * bcap
    target = np.zeros(n)
    target[problem.sampled] = obs.labels - coeffs[sampled_ci]
    roots = _group_min_max(sampled_ci, problem.sampled, count)[0].astype(int)
    routed = np.ones(n, dtype=bool)
    routed[roots] = False
    interior = ~bmask
    cg_iters = 0
    rhs = (target - divergence(g, y))[routed]
    if np.count_nonzero(interior) > n - count and rhs.any():
        weights = np.where(interior, problem.capacities, 0.0)
        u = np.zeros(n)
        u[routed], cg_iters = grounded_laplacian_cg(g, routed, rhs, weights)
        y += weights * incidence_apply(g, u)
    _route_to_roots(g, interior, roots, y, divergence(g, y) - target, routed)

    flow = Flow(base=y, star_nodes=obs.nodes, star=divergence(g, y)[problem.sampled])
    partition = Partition(ci)
    report = verify_certificate(problem, flow, partition, tol)
    if not report.verdict:
        return None, cg_iters
    return Certificate(flow, partition, report), cg_iters


def _route_to_roots(
    g: EmpiricalGraph,
    interior: np.ndarray,
    roots: np.ndarray,
    y: np.ndarray,
    leftover: np.ndarray,
    routed: np.ndarray,
) -> None:
    """Move each ``routed`` node's ``leftover`` divergence to a root, in
    place in ``y``.

    The forest is a breadth-first search over the ``interior`` edges from
    ``roots`` (one node per cluster, not routed).  Leaf to root, every
    routed node passes its leftover plus what its children passed up its
    parent edge, so its divergence falls by exactly its leftover; nodes
    that are not routed keep what reaches them.
    """
    n = g.node_count
    # Breadth-first order, so that every node comes after its parent.
    edges = np.flatnonzero(interior)
    ends = np.concatenate([g._head_idx[edges], g._tail_idx[edges]])
    by_end = np.argsort(ends, kind="stable")
    bounds = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    others = np.concatenate([g._tail_idx[edges], g._head_idx[edges]])
    others = others[by_end].tolist()
    edges = np.concatenate([edges, edges])[by_end].tolist()
    # A node is reached once its parent is set; roots are their own.
    parent = [-1] * n
    parent_edge = [-1] * n
    order = roots.tolist()
    for root in order:
        parent[root] = root
    for node in order:
        lo, hi = bounds[node], bounds[node + 1]
        for other, e in zip(others[lo:hi], edges[lo:hi]):
            if parent[other] < 0:
                parent[other], parent_edge[other] = node, e
                order.append(other)

    carried = leftover.tolist()
    moves = routed.tolist()
    for node in reversed(order):
        if moves[node]:
            carried[parent[node]] += carried[node]
    child = np.flatnonzero(routed)
    edge = np.asarray(parent_edge, dtype=np.int64)[child]
    up = np.asarray(carried)[child]
    # Flow up the parent edge lowers the child's divergence by ``up``;
    # adding -0.0 to the +0.0 of an empty edge keeps a zero flow +0.0.
    y[edge] += np.where(g._head_idx[edge] == child, -up, up)
