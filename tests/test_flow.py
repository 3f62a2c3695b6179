from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_chain,
    random_connected_instance,
    random_tree_instance,
)
from tvflow.flow import (
    Flow,
    _bfs_forest,
    _Forest,
    _route_to_roots,
    certificate_from_partition,
    certificate_from_signal,
    construct_tree_certificate,
    verify_certificate,
)
from tvflow.graph import EmpiricalGraph, build_graph, components, divergence
from tvflow.instances import (
    CHAIN_REF_DUAL,
    CHAIN_REF_PRIMAL,
    grid_instance,
    sbm_instance,
)
from tvflow.io import write_flow_csv
from tvflow.oracle import oracle_nlasso
from tvflow.signal import (
    Observations,
    Partition,
    Problem,
    boundary_mask,
    primal_objective,
)
from tvflow.solver import SolverConfig, duality_gap, init_state, pd_step, run


def reference_tree_certificate(
    g: EmpiricalGraph, partition: Partition, obs: Observations, lam: float
) -> Flow:
    """construct_tree_certificate as a breadth-first search per cluster over
    node sets, which scans every edge once per cluster, and a node-by-node
    pass up each search tree: the reference for the shared construction."""
    caps = Problem(g, obs, lam).capacities
    n = g.node_count
    if g.edge_count != n - 1:
        raise ValueError(
            f"expected a tree ({n - 1} edges for {n} nodes), got {g.edge_count}"
        )
    if components(g).max() != 0:
        raise ValueError(
            "graph contains a cycle and is disconnected; expected a tree"
        )
    ci = partition.cluster_index
    clusters = [
        set((np.flatnonzero(ci == k) + 1).tolist())
        for k in range(partition.cluster_count)
    ]
    label_of = {int(i) - 1: float(x) for i, x in zip(obs.nodes, obs.labels)}

    means = np.empty(partition.cluster_count)
    for k, cluster in enumerate(clusters):
        labels = [label_of[i - 1] for i in sorted(cluster) if (i - 1) in label_of]
        if not labels:
            raise ValueError(f"cluster {k + 1} has no sampled node")
        means[k] = float(np.mean(labels))

    # Boundary edges point from the higher mean label to the lower.
    y = np.zeros(g.edge_count)
    bmask = boundary_mask(g, partition)
    jumps = means[ci[g._head_idx[bmask]]] - means[ci[g._tail_idx[bmask]]]
    y[bmask] = np.sign(jumps) * caps[bmask]

    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in range(g.edge_count):
        incident[g._head_idx[e]].append((e, +1))
        incident[g._tail_idx[e]].append((e, -1))

    for k, cluster in enumerate(clusters):
        members = {i - 1 for i in cluster}
        # c_k = (label sum - boundary outflow) / label count.
        outflow = sum(
            sign * y[e] for i in members for e, sign in incident[i] if bmask[e]
        )
        sampled = sorted(i for i in members if i in label_of)
        value = (sum(label_of[i] for i in sampled) - outflow) / len(sampled)
        adjacency: dict[int, list[tuple[int, int, int]]] = {i: [] for i in members}
        for e in np.flatnonzero(~bmask):
            h, t = int(g._head_idx[e]), int(g._tail_idx[e])
            if h in members:
                adjacency[h].append((t, e, +1))
                adjacency[t].append((h, e, -1))
        root = sampled[0]
        parent_edge: dict[int, tuple[int, int]] = {}
        order = [root]
        seen = {root}
        for node in order:
            for neighbor, e, sign_at_node in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    parent_edge[neighbor] = (e, -sign_at_node)
                    order.append(neighbor)
        if seen != members:
            raise ValueError(f"cluster {k + 1} is not connected in the graph")
        # Children first: each node's parent edge gives it divergence
        # label - c_k if sampled and zero otherwise.
        for node in reversed(order[1:]):
            target = label_of[node] - value if node in label_of else 0.0
            e_p, sign_p = parent_edge[node]
            partial = sum(sign * y[e] for e, sign in incident[node] if e != e_p)
            y[e_p] = (target - partial) * sign_p

    star = divergence(g, y)[obs.indices]
    return Flow(base=y, star_nodes=obs.nodes.copy(), star=star)


def reference_forest(
    g: EmpiricalGraph, interior: np.ndarray, roots: np.ndarray
) -> _Forest:
    """flow._bfs_forest as a first-in first-out queue over adjacency lists
    grouped by a stable argsort: the reference for the level-synchronous
    version."""
    n = g.node_count
    edges = np.flatnonzero(interior)
    ends = np.concatenate([g._head_idx[edges], g._tail_idx[edges]])
    by_end = np.argsort(ends, kind="stable")
    bounds = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    others = np.concatenate([g._tail_idx[edges], g._head_idx[edges]])
    others = others[by_end].tolist()
    edges = np.concatenate([edges, edges])[by_end].tolist()
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    order = roots.tolist()
    for root in order:
        parent[root] = root
    for node in order:
        lo, hi = bounds[node], bounds[node + 1]
        for other, e in zip(others[lo:hi], edges[lo:hi]):
            if parent[other] < 0:
                parent[other], parent_edge[other] = node, e
                depth[other] = depth[node] + 1
                order.append(other)
    levels = [[] for _ in range(max([depth[i] for i in order], default=0))]
    for node in order[roots.size:]:
        levels[depth[node] - 1].append(node)
    return _Forest(
        roots,
        np.asarray(parent),
        np.asarray(parent_edge),
        [np.asarray(level, dtype=np.int64) for level in levels],
    )


def reference_route(
    g: EmpiricalGraph,
    forest: _Forest,
    y: np.ndarray,
    leftover: np.ndarray,
    routed: np.ndarray,
) -> None:
    """flow._route_to_roots as a node-by-node pass in reverse breadth-first
    order: the reference for the level-by-level version."""
    order = np.concatenate([forest.roots, *forest.levels]).tolist()
    parent = forest.parent.tolist()
    carried = leftover.tolist()
    moves = routed.tolist()
    for node in reversed(order):
        if moves[node]:
            carried[parent[node]] += carried[node]
    child = np.flatnonzero(routed)
    edge = forest.parent_edge[child]
    up = np.asarray(carried)[child]
    y[edge] += np.where(g._head_idx[edge] == child, -up, up)


def random_clustered_tree(
    rng: np.random.Generator,
) -> tuple[EmpiricalGraph, Partition, Observations]:
    """Random tree cut into 1-60 connected clusters with 1-3 labels each.
    Some draws break one precondition: an extra edge closes a cycle (the
    reference takes trees only), two clusters merge into one that may be
    disconnected, or a cluster loses its labels."""
    k = int(rng.integers(1, 61))
    n = k + int(rng.integers(0, 4 * k + 1))
    ids = rng.permutation(n) + 1
    pairs = [(int(ids[int(rng.integers(0, v))]), int(ids[v])) for v in range(1, n)]
    if n > 2 and rng.random() < 0.1:
        a, b = rng.choice(ids, size=2, replace=False).tolist()
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    g = build_graph(n, [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in pairs])
    cut = np.zeros(g.edge_count, dtype=bool)
    cut[rng.choice(g.edge_count, size=min(k - 1, g.edge_count), replace=False)] = True
    comp = components(g, ~cut)
    count = int(comp.max()) + 1
    cluster_of = rng.permutation(count)[comp]
    if count > 2 and rng.random() < 0.15:
        a, b = rng.choice(count, size=2, replace=False)
        cluster_of[cluster_of == b] = a
        cluster_of[cluster_of == count - 1] = b
        count -= 1
    unlabeled = int(rng.integers(0, count)) if count > 1 and rng.random() < 0.1 else -1
    nodes = []
    for c in range(count):
        if c != unlabeled:
            members = np.flatnonzero(cluster_of == c) + 1
            take = min(int(rng.integers(1, 4)), members.size)
            nodes += rng.choice(members, size=take, replace=False).tolist()
    labels = rng.uniform(-2.0, 2.0, size=len(nodes))
    return g, Partition(cluster_of), Observations(np.asarray(nodes), labels)


def saturated_path(n: int) -> tuple[Problem, Flow, Partition]:
    """Path 1..n cut into clusters {1} and {2, ..., n}, labelled 1 and 0 at
    its ends, weight 1 on its end edges and 2 between, and a unit flow from
    node 1 to node n.  The flow saturates the boundary edge and the last
    edge, which at tol 0 cuts nodes 2 to n - 1 off from every label; their
    cluster's value, 1, lies above node 1's 0, against the flow."""
    edges = [(i, i + 1, 1.0 if i in (1, n - 1) else 2.0) for i in range(1, n)]
    g = build_graph(n, edges)
    obs = Observations.from_dict({1: 1.0, n: 0.0})
    y = np.ones(n - 1)
    f = Flow(y, obs.nodes, divergence(g, y)[obs.indices])
    return Problem(g, obs, 1.0), f, Partition(np.minimum(np.arange(n), 1))


def tight_chain() -> tuple[Problem, Flow, Partition]:
    """The chain with weight 1/4 on edge {6, 7} as well as on {5, 6}, and
    its tree certificate, which carries exactly the capacity of {6, 7}."""
    edges = [(i, i + 1, 1.0) for i in range(1, 10)]
    edges[4] = (5, 6, 0.25)
    edges[5] = (6, 7, 0.25)
    g = build_graph(10, edges)
    _, obs, partition = make_chain()
    f = construct_tree_certificate(g, partition, obs, 1.0)
    return Problem(g, obs, 1.0), f, partition


_AGAINST_JUMP = "a saturated edge carries flow against the reconstructed jump"


def chain_certificate_flow() -> Flow:
    return Flow(
        base=CHAIN_REF_DUAL.copy(),
        star_nodes=np.array([2, 7]),
        star=np.array([0.25, -0.25]),
    )


class TestCheckFlow:
    """The conservation and capacity checks of ``verify_certificate``."""

    def test_zero_flow(self, chain):
        g, obs, partition = chain
        f = Flow(np.zeros(9), np.array([2, 7]), np.zeros(2))
        report = verify_certificate(Problem(g, obs, 1.0), f, partition)
        assert report.flow_ok
        assert report.conservation_residual == 0.0
        assert report.capacity_excess == 0.0
        assert report.failure_reason == "a boundary edge is not saturated"

    def test_chain_certificate(self, chain):
        g, obs, partition = chain
        report = verify_certificate(
            Problem(g, obs, 1.0), chain_certificate_flow(), partition
        )
        assert report.flow_ok
        assert report.conservation_residual == 0.0

    def test_unbalanced_single_edge_flow(self, chain):
        g, obs, partition = chain
        y = np.zeros(9)
        y[0] = 0.5  # edge (1, 2) only: imbalance at node 1 and node 2
        f = Flow(y, np.array([2, 7]), np.zeros(2))
        report = verify_certificate(Problem(g, obs, 1.0), f, partition)
        assert not report.flow_ok
        assert report.conservation_residual == pytest.approx(0.5)
        assert report.failure_reason == "conservation or capacity violated"

    def test_capacity_excess(self, chain):
        g, obs, partition = chain
        y = np.zeros(9)
        y[4] = 0.30  # capacity there is 0.25
        f = Flow(y, np.array([2, 7]), np.zeros(2))
        report = verify_certificate(Problem(g, obs, 1.0), f, partition, tol=1e-9)
        assert report.capacity_excess == pytest.approx(0.05)
        assert not report.flow_ok

    def test_star_mismatch_rejected(self, chain):
        g, obs, partition = chain
        f = Flow(np.zeros(9), np.array([2, 8]), np.zeros(2))
        with pytest.raises(ValueError, match="star nodes"):
            verify_certificate(Problem(g, obs, 1.0), f, partition)


class TestDualToExtendedFlow:
    """A dual edge vector on the extended graph: the star values are its
    divergence at the sampled nodes."""

    def test_chain_converged_dual(self, chain):
        g, obs, partition = chain
        f = Flow(CHAIN_REF_DUAL, obs.nodes, divergence(g, CHAIN_REF_DUAL)[obs.indices])
        assert f.star_nodes.tolist() == [2, 7]
        assert f.star.tolist() == [0.25, -0.25]
        assert np.array_equal(f.base, CHAIN_REF_DUAL)
        report = verify_certificate(Problem(g, obs, 1.0), f, partition)
        assert report.conservation_residual == 0.0

    def test_zero_dual(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        f = Flow(y, obs.nodes, divergence(g, y)[obs.indices])
        assert f.star.tolist() == [0.0, 0.0]

    def test_star_values_sum_to_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g, _ = random_connected_instance(rng)
            obs = Observations(
                np.arange(1, g.node_count + 1),
                rng.uniform(-1, 1, size=g.node_count),
            )
            y = rng.uniform(-1, 1, size=g.edge_count)
            f = Flow(y, obs.nodes, divergence(g, y)[obs.indices])
            assert abs(f.star.sum()) <= 1e-12


class TestVerifyCertificate:
    def test_chain_certificate_verifies(self, chain):
        g, obs, partition = chain
        report = verify_certificate(
            Problem(g, obs, 1.0), chain_certificate_flow(), partition
        )
        assert report.verdict
        assert report.status == "verified"
        assert np.array_equal(report.reconstructed, CHAIN_REF_PRIMAL)

    def test_wrong_lambda_fails_saturation(self, chain):
        g, obs, partition = chain
        report = verify_certificate(
            Problem(g, obs, 2.0), chain_certificate_flow(), partition
        )
        assert not report.verdict
        assert report.saturation_ok is False
        assert report.status == "failed"

    def test_lambda_scaling_family(self, chain):
        g, obs, partition = chain
        for lam in (0.5, 2.0, 3.0):
            report = verify_certificate(
                Problem(g, obs, lam), chain_certificate_flow(), partition
            )
            assert not report.verdict

    def test_cluster_without_samples_indeterminate(self, chain):
        g, _, partition = chain
        obs = Observations.from_dict({2: 1.0})
        y = np.zeros(9)
        f = Flow(y, np.array([2]), np.zeros(1))
        p = partition
        report = verify_certificate(Problem(g, obs, 1.0), f, p)
        assert report.indeterminate_clusters == (1,)
        assert report.cluster_spreads == (0.0, None)
        assert report.status in ("failed", "indeterminate")

    def test_misoriented_saturation_rejected(self):
        # A saturated boundary flow pushed against the reconstructed jump
        # passes the counting checks but does not solve the flow problem:
        # 3-chain, boundary weight 0.8, labels 1 and 0.  The reconstruction
        # would be x1 = 0.2 < x2 = 0.8 while the flow points 1 -> 2.
        g = build_graph(3, [(1, 2, 0.8), (2, 3, 1.0)])
        p = Partition([0, 1, 1])
        obs = Observations.from_dict({1: 1.0, 2: 0.0})
        problem = Problem(g, obs, 1.0)
        f = construct_tree_certificate(g, p, obs, 1.0)
        report = verify_certificate(problem, f, p)
        assert report.saturation_ok and report.strict_interior_ok and report.balance_ok
        assert report.orientation_ok is False
        assert not report.verdict
        # The flow's dual value falls strictly short of the true optimum
        # 0.25, the constant signal's primal value, so certifying it would
        # have been wrong.
        assert duality_gap(problem, np.full(3, 0.5), f.base).dual < 0.25 - 1e-3

    def test_tight_interior_edge_verifies_at_tol_zero(self):
        # Edge {6, 7} carries exactly its capacity 1/4 inside cluster 2.  At
        # tol 0 that passes the slack check and cuts node 6 off from every
        # label; node 6 takes its cluster's value and the certificate
        # verifies.
        problem, f, partition = tight_chain()
        report = verify_certificate(problem, f, partition, tol=0.0)
        assert report.strict_interior_ok and report.interior_slack == 0.0
        assert report.status == "verified"
        assert np.array_equal(report.reconstructed, np.repeat([0.75, 0.25], 5))
        # At the default tolerance the slack check itself fails.
        report = verify_certificate(problem, f, partition)
        assert report.strict_interior_ok is False
        assert report.status == "failed"

    def test_verifies_without_components(self, monkeypatch, chain):
        # The reconstruction reads the clusters off the partition.
        def no_components(*args, **kwargs):
            raise AssertionError("components ran")

        monkeypatch.setattr("tvflow.flow.components", no_components)
        monkeypatch.setattr("tvflow.graph.components", no_components)
        g, obs, partition = chain
        report = verify_certificate(
            Problem(g, obs, 1.0), chain_certificate_flow(), partition
        )
        assert np.array_equal(report.reconstructed, CHAIN_REF_PRIMAL)

    def test_balance_violation_detected(self):
        # Two sampled nodes in one cluster with different label-minus-star
        # values must fail the balance condition.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition([0, 0, 0])
        obs = Observations.from_dict({1: 1.0, 3: 0.0})
        f = Flow(np.zeros(2), np.array([1, 3]), np.zeros(2))
        report = verify_certificate(Problem(g, obs, 1.0), f, p)
        assert report.balance_ok is False
        assert not report.verdict


    @pytest.mark.parametrize("tol", [0.5, 2.0])
    def test_tol_below_half_the_smallest_capacity(self, tol):
        # Path 1-2-3 labelled 0, 1, 0 in singleton clusters, zero flow,
        # lambda 1: from tol 1 on the zero flow passes as saturating every
        # edge, and the signal 0, 1, 0 (objective 2, against the optimum's
        # 1/3) would verify.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        obs = Observations.from_dict({1: 0.0, 2: 1.0, 3: 0.0})
        f = Flow(np.zeros(2), obs.nodes, np.zeros(3))
        message = (
            "tol must be below half the smallest capacity lambda * min w,"
            f" 0.5, got {tol}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_certificate(Problem(g, obs, 1.0), f, Partition([0, 1, 2]), tol)


class TestReconstructPrimal:
    """The signal ``verify_certificate`` reconstructs once every other check
    has passed, and the reconstruction's own errors as failure reasons."""

    def test_chain_exact(self, chain):
        g, obs, partition = chain
        problem = Problem(g, obs, 1.0)
        report = verify_certificate(problem, chain_certificate_flow(), partition)
        assert np.array_equal(report.reconstructed, CHAIN_REF_PRIMAL)

    def test_fully_saturated_singletons(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition([0, 1, 2])
        obs = Observations.from_dict({1: 1.0, 2: 0.5, 3: -1.0})
        lam = 0.25
        y = lam * np.array([1.0, 1.0])  # saturate both edges
        v = divergence(g, y)
        f = Flow(y, np.array([1, 2, 3]), v)
        report = verify_certificate(Problem(g, obs, lam), f, p)
        assert report.verdict, report.failure_reason
        assert np.array_equal(report.reconstructed, obs.labels - v)

    @pytest.mark.parametrize("make, reason", [
        (lambda: saturated_path(3), _AGAINST_JUMP),
        (lambda: saturated_path(10**4), _AGAINST_JUMP),
        (tight_chain, None),
    ], ids=["short_path", "long_path", "tight_chain"])
    def test_unlabeled_piece_takes_cluster_value(self, make, reason):
        # At tol 0 an interior edge that carries exactly its capacity passes
        # the slack check and cuts a piece of its cluster off from every
        # label.  The piece takes its cluster's value, and the orientation
        # of the saturated edges decides.
        problem, f, partition = make()
        report = verify_certificate(problem, f, partition, tol=0.0)
        assert report.flow_ok and report.saturation_ok and report.balance_ok
        assert report.strict_interior_ok and report.interior_slack == 0.0
        assert report.failure_reason == reason
        assert report.orientation_ok is (reason is None)
        if reason is not None:
            return
        x = report.reconstructed
        for c in range(partition.cluster_count):
            assert np.unique(x[partition.cluster_index == c]).size == 1
        assert duality_gap(problem, x, f.base).gap == 0.0
        oracle = oracle_nlasso(problem)
        assert not oracle.flagged
        assert abs(primal_objective(problem, x) - oracle.objective) <= 1e-3

    def test_inconsistent_samples_rejected(self):
        # One edge inside one cluster, zero flow, labels 0.15 and 0 and
        # star values 0.075 and -0.075: each check holds to within tol 0.1,
        # but label minus divergence, 0.15 and 0, is 0.15 apart.
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 0.15, 2: 0.0})
        f = Flow(np.zeros(1), obs.nodes, np.array([0.075, -0.075]))
        report = verify_certificate(Problem(g, obs, 1.0), f, Partition([0, 0]), tol=0.1)
        assert report.flow_ok and report.saturation_ok and report.balance_ok
        assert report.strict_interior_ok
        assert report.status == "failed"
        assert report.failure_reason == (
            "sampled nodes 1 and 2 give inconsistent values 0.15 vs 0"
        )

    def test_disconnected_cluster_takes_one_value(self):
        # Path 1-2-3-4 split as {1, 4} / {2, 3}, every node labelled, and a
        # unit flow from each end into the middle that saturates both
        # boundary edges: cluster {1, 4} is two pieces with one value.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        p = Partition([0, 1, 1, 0])
        y = np.array([1.0, 0.0, -1.0])
        div = divergence(g, y)
        obs = Observations.from_dict({1: 3.0, 2: 0.0, 3: 0.0, 4: 3.0})
        report = verify_certificate(Problem(g, obs, 1.0), Flow(y, obs.nodes, div), p)
        assert report.verdict, report.failure_reason
        assert np.array_equal(report.reconstructed, [2.0, 1.0, 1.0, 2.0])
        # Star values 0.075 off the divergence at nodes 1 and 4 keep label
        # minus star at 2.075 on both pieces, so the balance check passes
        # at tol 0.1, but label minus divergence is 2.15 against 2.
        obs = Observations.from_dict({1: 3.15, 2: 0.0, 3: 0.0, 4: 3.0})
        star = div + np.array([0.075, 0.0, 0.0, -0.075])
        report = verify_certificate(
            Problem(g, obs, 1.0), Flow(y, obs.nodes, star), p, tol=0.1
        )
        assert report.flow_ok and report.saturation_ok and report.balance_ok
        assert report.strict_interior_ok
        assert report.failure_reason == (
            "sampled nodes 1 and 4 give inconsistent values 2.15 vs 2"
        )

    @pytest.mark.parametrize("tol_scale", [1e-9, 0.1, 0.499])
    def test_verified_reconstruction_constant_on_clusters(self, tol_scale):
        # Certificates of the planted partitions of random block models at
        # tol, a fraction of min capacity, with each boundary flow then
        # pulled back from its capacity by up to twice tol over the most
        # boundary edges at a node, so some flows leave saturation or
        # conservation and some still verify.  Whatever verifies leaves no
        # boundary edge with strict slack, and its signal is constant on
        # every cluster.
        rng = np.random.default_rng(67)
        verified = 0
        for _ in range(150):
            k = int(rng.integers(2, 5))
            sizes = rng.integers(3, 12, size=k).tolist()
            coeffs = (2.0 * rng.permutation(k)).tolist()
            samples = int(rng.integers(1, 4))
            g, partition, _, obs = sbm_instance(
                sizes, 0.6, 0.05, 1.0, 0.25, samples, coeffs, rng=rng
            )
            problem = Problem(g, obs, float(rng.choice([0.05, 0.2, 1.0])))
            tol = tol_scale * float(np.min(problem.capacities, initial=1.0))
            try:
                f = certificate_from_partition(problem, partition, tol).flow
            except ValueError:
                continue
            bmask = boundary_mask(g, partition)
            ends = np.concatenate([g._head_idx[bmask], g._tail_idx[bmask]])
            share = tol / max(1, int(np.bincount(ends).max(initial=0)))
            y = f.base.copy()
            y[bmask] -= np.sign(y[bmask]) * share * rng.uniform(0, 2, bmask.sum())
            report = verify_certificate(problem, Flow(y, f.star_nodes, f.star), partition, tol)
            if not report.verdict:
                continue
            verified += 1
            assert not np.any(bmask & (np.abs(y) < problem.capacities - tol))
            for c in range(partition.cluster_count):
                values = report.reconstructed[partition.cluster_index == c]
                assert np.unique(values).size == 1
        assert verified >= 30


class TestConstructTreeCertificate:
    def test_chain_closed_form(self, chain):
        g, obs, partition = chain
        f = construct_tree_certificate(g, partition, obs, 1.0)
        assert np.array_equal(f.base, CHAIN_REF_DUAL)
        assert f.star.tolist() == [0.25, -0.25]

    def test_single_cluster_equal_labels_zero_flow(self):
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        p = Partition([0, 0, 0, 0])
        obs = Observations.from_dict({2: 0.7, 4: 0.7})
        f = construct_tree_certificate(g, p, obs, 1.0)
        assert np.array_equal(f.base, np.zeros(3))

    def test_cycle_accepted(self):
        # One cluster on a triangle labelled 1 and 0 at nodes 1 and 3: the
        # half unit from node 1 to node 3 splits 2:1 between the direct
        # edge and the path through node 2.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        p = Partition([0, 0, 0])
        obs = Observations.from_dict({1: 1.0, 3: 0.0})
        f = construct_tree_certificate(g, p, obs, 1.0)
        assert np.allclose(f.base, [1 / 6, 1 / 3, 1 / 6], rtol=0, atol=1e-15)
        report = verify_certificate(Problem(g, obs, 1.0), f, p)
        assert report.verdict, report.failure_reason
        assert np.allclose(report.reconstructed, 0.5, rtol=0, atol=1e-15)

    def test_disconnected_cluster_rejected(self):
        # Path 1-2-3-4 split as {1, 4} / {2, 3}: cluster one is disconnected.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        p = Partition([0, 1, 1, 0])
        obs = Observations.from_dict({1: 1.0, 2: 0.0})
        with pytest.raises(ValueError, match="not connected"):
            construct_tree_certificate(g, p, obs, 1.0)

    def test_cluster_without_sample_rejected(self, chain):
        g, _, partition = chain
        obs = Observations.from_dict({2: 1.0})
        with pytest.raises(ValueError, match="no sampled node"):
            construct_tree_certificate(g, partition, obs, 1.0)

    def test_clusters_checked_without_components(self, monkeypatch, chain):
        # The forest that routes the flow is also the connectivity check.
        def no_components(*args, **kwargs):
            raise AssertionError("components ran")

        monkeypatch.setattr("tvflow.flow.components", no_components)
        g, obs, partition = chain
        f = construct_tree_certificate(g, partition, obs, 1.0)
        assert np.array_equal(f.base, CHAIN_REF_DUAL)

    def test_random_trees_verify_and_reconstruct(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g, obs, partition = random_tree_instance(rng)
            lam = float(rng.choice([0.1, 1.0, 5.0]))
            f = construct_tree_certificate(g, partition, obs, lam)
            report = verify_certificate(Problem(g, obs, lam), f, partition, tol=1e-9)
            assert report.verdict, report.failure_reason
            assert report.status == "verified"
            assert report.reconstructed is not None
            # At twice the lambda the boundary is no longer saturated.
            doubled = verify_certificate(Problem(g, obs, 2 * lam), f, partition)
            assert doubled.status == "failed"
            assert not doubled.verdict
            # Reconstruction is exactly piecewise constant on the partition.
            for k in range(partition.cluster_count):
                values = report.reconstructed[partition.cluster_index == k]
                assert np.unique(values).size == 1


    def test_matches_per_cluster_reference(self):
        rng = np.random.default_rng(61)
        errors = set()
        for _ in range(150):
            g, partition, obs = random_clustered_tree(rng)
            lam = float(rng.choice([0.1, 1.0, 5.0]))
            try:
                want = reference_tree_certificate(g, partition, obs, lam)
            except ValueError as exc:
                # The construction accepts any graph; the reference only trees.
                if "expected a tree" in str(exc):
                    continue
                with pytest.raises(ValueError) as got:
                    construct_tree_certificate(g, partition, obs, lam)
                assert str(got.value) == str(exc)
                kinds = ("is not connected", "has no sampled node")
                errors.update(kind for kind in kinds if kind in str(exc))
                continue
            f = construct_tree_certificate(g, partition, obs, lam)
            for got, ref in ((f.base, want.base), (f.star, want.star)):
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            assert np.array_equal(f.star_nodes, want.star_nodes)
            report = verify_certificate(Problem(g, obs, lam), f, partition)
            assert (report.status == "verified") == report.verdict
            assert report.verdict == (report.reconstructed is not None)
        assert len(errors) == 2

    def test_flow_csv_bytes_pinned(self, tmp_path):
        # SHA-256 of write_flow_csv over the trees of
        # test_matches_per_cluster_reference that have a certificate, pinned
        # in two digests: trees whose clusters each hold one label (their
        # flows do not depend on how several labels are combined into c_k)
        # and trees with several labels in a cluster.
        rng = np.random.default_rng(61)
        digests = {True: hashlib.sha256(), False: hashlib.sha256()}
        written = 0
        for _ in range(150):
            g, partition, obs = random_clustered_tree(rng)
            lam = float(rng.choice([0.1, 1.0, 5.0]))
            if g.edge_count != g.node_count - 1 or components(g).max() != 0:
                continue  # not a tree
            try:
                f = construct_tree_certificate(g, partition, obs, lam)
            except ValueError:
                continue
            write_flow_csv(tmp_path / "flow.csv", g, f)
            one_label = np.all(np.bincount(partition.cluster_index[obs.indices]) == 1)
            digests[bool(one_label)].update((tmp_path / "flow.csv").read_bytes())
            written += 1
        assert written == 103
        assert digests[True].hexdigest() == (
            "685dd793e79a09932568cde3111a22d84ba0787a7ab1c14d674881fdb49e2426"
        )
        assert digests[False].hexdigest() == (
            "c58ac206a70b7d7be2c211436fc474dda825c9e9aac0ee33870fc80d3b0673be"
        )

    def test_two_labels_per_cluster(self):
        # Path 1-...-6 with the light edge {3, 4} between clusters {1, 2, 3}
        # and {4, 5, 6}, labels 1 and 0.8 in one and 0 and 0.2 in the other:
        # the values c_k = (label sum -+ lam / 10) / 2 are optimal at lam 0.5
        # and 1.
        edges = [(i, i + 1, 0.1 if i == 3 else 1.0) for i in range(1, 6)]
        g = build_graph(6, edges)
        partition = Partition([0, 0, 0, 1, 1, 1])
        obs = Observations.from_dict({1: 1.0, 3: 0.8, 4: 0.0, 6: 0.2})
        for lam, values in ((0.5, (0.875, 0.125)), (1.0, (0.85, 0.15))):
            problem = Problem(g, obs, lam)
            f = construct_tree_certificate(g, partition, obs, lam)
            report = verify_certificate(problem, f, partition)
            assert report.verdict, report.failure_reason
            want = np.repeat(values, 3)
            assert np.allclose(report.reconstructed, want, rtol=0, atol=1e-15)
            value = primal_objective(problem, report.reconstructed)
            oracle = oracle_nlasso(problem)
            assert oracle.objective - oracle.certified_gap - 1e-9 <= value
            assert value <= oracle.objective + 1e-9
        # At lam 0.1 node 1 must send 1 - c_1 = 0.105 over edges of capacity
        # 0.1: the partition is not optimal there.
        f = construct_tree_certificate(g, partition, obs, 0.1)
        report = verify_certificate(Problem(g, obs, 0.1), f, partition)
        assert report.failure_reason == "conservation or capacity violated"
        assert report.capacity_excess == pytest.approx(0.005)

    def test_deep_path_verifies(self):
        # 2 * 10^4 nodes in 50 clusters of 400: every cluster is a path
        # hundreds of levels deep.
        n, size = 20_000, 400
        edges = [(i, i + 1, 0.1 if i % size == 0 else 1.0) for i in range(1, n)]
        g = build_graph(n, edges)
        partition = Partition(np.arange(n) // size)
        nodes = np.arange(1, n + 1, size) + size // 2
        obs = Observations(nodes, (np.arange(nodes.size) % 2).astype(float))
        f = construct_tree_certificate(g, partition, obs, 1.0)
        report = verify_certificate(Problem(g, obs, 1.0), f, partition)
        assert report.verdict, report.failure_reason


class TestCertificateFromSignal:
    def test_chain_optimum(self, chain):
        g, obs, partition = chain
        problem = Problem(g, obs, 1.0)
        cert, cg_iters = certificate_from_signal(problem, CHAIN_REF_PRIMAL)
        assert cg_iters == 0  # the interior edges form a forest
        assert np.array_equal(cert.partition.cluster_index, partition.cluster_index)
        assert np.array_equal(cert.flow.base, CHAIN_REF_DUAL)
        assert cert.flow.star.tolist() == [0.25, -0.25]
        assert np.array_equal(cert.report.reconstructed, CHAIN_REF_PRIMAL)

    def test_cycle_runs_cg(self):
        # One cluster on a 4-cycle: the unit from node 1 to node 3 splits
        # evenly over the two paths.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
        problem = Problem(g, Observations.from_dict({1: 1.0, 3: 0.0}), 1.0)
        cert, cg_iters = certificate_from_signal(problem, np.full(4, 0.5))
        assert cg_iters > 0
        assert cert.partition.cluster_count == 1
        assert np.allclose(cert.flow.base, [0.25, 0.25, 0.25, -0.25], atol=1e-15)
        assert np.array_equal(cert.report.reconstructed, np.full(4, 0.5))

    def test_unlabeled_optimal_cluster(self):
        # Path 1-2-3 labelled +-1 at its ends: every x2 between x3 and x1 is
        # optimal, and the solver's symmetric iterate keeps x2 = 0, an
        # unlabeled cluster of its own.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        obs = Observations.from_dict({1: 1.0, 3: -1.0})
        problem = Problem(g, obs, 0.1)
        assert certificate_from_signal(problem, np.array([0.9, 0.0, -0.9])) == (None, 0)
        result = run(g, obs, SolverConfig(lam=0.1, max_iters=1000, gap_tol=1e-6))
        assert result.stop_reason == "gap_tol"
        assert result.certificate is None
        assert result.gap.gap <= 1e-6

    def test_sign_seed_corrected_and_ties_rejected(self, chain):
        # A boundary jump seeded the wrong way round is corrected in one
        # round; equal coefficients across a boundary give a zero sign.
        g, obs, _ = chain
        problem = Problem(g, obs, 1.0)
        flipped = np.array([0.0] * 5 + [1.0] * 5)
        cert, _ = certificate_from_signal(problem, flipped)
        assert np.array_equal(cert.flow.base, CHAIN_REF_DUAL)
        tied = Problem(g, Observations.from_dict({2: 1.0, 7: 0.5}), 1.0)
        assert certificate_from_signal(tied, CHAIN_REF_PRIMAL) == (None, 0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 3.0),
        steps=st.sampled_from([50, 400]),
    )
    @settings(max_examples=25, deadline=None)
    def test_verified_certificates_are_optimal(self, seed, lam, steps):
        g, obs = random_connected_instance(np.random.default_rng(seed))
        problem = Problem(g, obs, lam)
        state = init_state(problem)
        for _ in range(steps):
            state = pd_step(state, problem)
        cert, _ = certificate_from_signal(problem, state.x_curr)
        if cert is None:
            return
        value = primal_objective(problem, cert.report.reconstructed)
        oracle = oracle_nlasso(problem)
        lower = oracle.objective - oracle.certified_gap
        assert lower - 1e-6 <= value <= oracle.objective + 1e-6


class TestCertificateFromPartition:
    def test_sbm_matches_signal_certificate(self):
        # The seeded 2x50 SBM of test_certificate_from_signal_matches_reference
        # (540 edges, cycles inside and across clusters): the generator's own
        # partition certifies with the flow the exact finish builds.
        g, partition, _, obs = sbm_instance(
            [50, 50], 0.2, 0.01, 1.0, 0.25, 2, [1, 0], rng=np.random.default_rng(0)
        )
        assert g.edge_count == 540
        problem = Problem(g, obs, 0.1)
        state = init_state(problem)
        for _ in range(50):
            state = pd_step(state, problem)
        want, cg_iters = certificate_from_signal(problem, state.x_curr)
        assert cg_iters == 31
        cert = certificate_from_partition(problem, partition)
        assert np.array_equal(cert.partition.cluster_index, partition.cluster_index)
        assert cert.flow.base.tobytes() == want.flow.base.tobytes()
        assert cert.flow.star.tobytes() == want.flow.star.tobytes()
        assert cert.report.verdict

    def test_cycle_one_cluster(self):
        # The 4-cycle of test_cycle_runs_cg as one given cluster.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
        problem = Problem(g, Observations.from_dict({1: 1.0, 3: 0.0}), 1.0)
        cert = certificate_from_partition(problem, Partition([0, 0, 0, 0]))
        assert np.allclose(cert.flow.base, [0.25, 0.25, 0.25, -0.25], atol=1e-15)
        assert np.array_equal(cert.report.reconstructed, np.full(4, 0.5))

    @pytest.mark.parametrize("lam, reason", [
        (0.1, "conservation or capacity violated"),
        (0.5, "no sign fixpoint"),
    ])
    def test_grid_failure_says_why(self, lam, reason):
        # The default 30x30 grid's own partition is not optimal: at lambda
        # 0.1 the electrical flow breaks a capacity inside a cluster, and at
        # 0.5 the boundary signs never settle.
        g, partition, _, obs = grid_instance(30, 30, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{reason}"):
            certificate_from_partition(Problem(g, obs, lam), partition)

    @pytest.mark.parametrize("clusters, message", [
        ([0, 0, 1, 1], "cluster 2 has no sampled node"),
        ([0, 1, 0, 1], "cluster 1 is not connected in the graph"),
    ])
    def test_bad_clusters_rejected(self, clusters, message):
        # Path 1-2-3-4 labelled at nodes 1 and 2.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        problem = Problem(g, Observations.from_dict({1: 1.0, 2: 0.0}), 1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            certificate_from_partition(problem, Partition(clusters))


def components_check(
    g: EmpiricalGraph, partition: Partition, obs: Observations
) -> str | None:
    """The cluster check by connected components: the message that names
    the lowest unlabeled cluster, else the lowest cluster that is not one
    component of the edges inside clusters; None when there is none."""
    ci, count = partition.cluster_index, partition.cluster_count
    labeled = np.bincount(ci[obs.indices], minlength=count)
    if not labeled.all():
        return f"cluster {int(np.argmin(labeled)) + 1} has no sampled node"
    comp = components(g, ~boundary_mask(g, partition))
    for k in range(count):
        if np.unique(comp[ci == k]).size > 1:
            return f"cluster {k + 1} is not connected in the graph"
    return None


def both_builders(g: EmpiricalGraph, partition: Partition, obs: Observations):
    """The two public builders that check a partition's clusters."""
    return [
        lambda: construct_tree_certificate(g, partition, obs, 1.0),
        lambda: certificate_from_partition(Problem(g, obs, 1.0), partition),
    ]


class TestDisconnectedClusters:
    """The breadth-first forest is the connectivity check: a node it does
    not reach lies in a cluster that is not connected."""

    def test_named_like_components(self):
        # Merged clusters of random_clustered_tree draws, trees and trees
        # with one extra edge alike.
        rng = np.random.default_rng(83)
        named = 0
        for _ in range(300):
            g, partition, obs = random_clustered_tree(rng)
            want = components_check(g, partition, obs)
            if want is None or "not connected" not in want:
                continue
            for build in both_builders(g, partition, obs):
                with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                    build()
            named += 1
        assert named >= 10

    def test_lowest_cluster_named(self):
        # Path 1-...-6 in clusters {2, 3, 6}, {1, 5} and {4}: the first two
        # are not connected, and the search misses node 5 of cluster 2 and
        # node 6 of cluster 1.
        g = build_graph(6, [(i, i + 1, 1.0) for i in range(1, 6)])
        partition = Partition([1, 0, 0, 2, 1, 0])
        obs = Observations.from_dict({1: 1.0, 2: 0.0, 4: 0.5})
        want = "cluster 1 is not connected in the graph"
        assert components_check(g, partition, obs) == want
        for build in both_builders(g, partition, obs):
            with pytest.raises(ValueError, match=f"^{want}$"):
                build()

    def test_cyclic_interior_raises_before_cg(self, monkeypatch):
        # The 4-cycle 1-2-3-4 with the chord {1, 3}, plus the path 4-5-6, in
        # clusters {1, 2, 3, 4, 6} and {5}: the first has cycles inside and
        # node 6 apart from them, so no electrical flow may be computed.
        def no_cg(*args, **kwargs):
            raise AssertionError("grounded_laplacian_cg ran")

        monkeypatch.setattr("tvflow.flow.grounded_laplacian_cg", no_cg)
        edges = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (4, 5), (5, 6)]
        g = build_graph(6, [(a, b, 1.0) for a, b in edges])
        partition = Partition([0, 0, 0, 0, 1, 0])
        obs = Observations.from_dict({1: 1.0, 5: 0.0})
        for build in both_builders(g, partition, obs):
            with pytest.raises(ValueError, match="^cluster 1 is not connected"):
                build()


def assert_routes_like_reference(
    g: EmpiricalGraph,
    interior: np.ndarray,
    roots: np.ndarray,
    routed: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Build the forest of ``interior`` from ``roots`` and route the
    divergence of random boundary flows (interior edges start at +0.0) with
    both implementations; compare the forests and the bits of ``y``."""
    want_forest = reference_forest(g, interior, roots)
    got_forest = _bfs_forest(g, interior, roots)
    assert got_forest.parent.tolist() == want_forest.parent.tolist()
    assert got_forest.parent_edge.tolist() == want_forest.parent_edge.tolist()
    assert [level.tolist() for level in got_forest.levels if level.size] == [
        level.tolist() for level in want_forest.levels
    ]
    y = np.where(interior, 0.0, rng.normal(size=g.edge_count))
    leftover = divergence(g, y) - np.where(rng.random(g.node_count) < 0.3, 0.0, 1.0)
    want, got = y.copy(), y.copy()
    reference_route(g, want_forest, want, leftover, routed)
    _route_to_roots(g, got_forest, got, leftover, routed)
    assert got.tobytes() == want.tobytes()


def lowest_sampled_roots(partition: Partition, obs: Observations) -> np.ndarray:
    """Each cluster's lowest sampled node, as the certificate construction
    chooses its roots."""
    first = np.unique(partition.cluster_index[obs.indices], return_index=True)[1]
    return obs.indices[first]


class TestRouteToRoots:
    """The level-synchronous forest and routing give the same forest as
    ``reference_forest`` and the same bits as ``reference_route``."""

    @pytest.mark.parametrize("labels_per_cluster", [1, 3])
    def test_clustered_trees(self, labels_per_cluster):
        # Random recursive trees of 3,000 shuffled nodes cut into 30
        # clusters, routed two ways: from all but the roots, as the
        # certificate construction routes, and from the unsampled nodes only.
        rng = np.random.default_rng(71 + labels_per_cluster)
        n, k = 3000, 30
        for _ in range(4):
            ids = rng.permutation(n) + 1
            parents = ids[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
            g = build_graph(n, [(int(a), int(b), 1.0) for a, b in zip(parents, ids[1:])])
            cut = np.zeros(g.edge_count, dtype=bool)
            cut[rng.choice(g.edge_count, size=k - 1, replace=False)] = True
            ci = components(g, ~cut)
            partition = Partition(ci)
            nodes = np.concatenate([
                rng.choice(m, size=min(labels_per_cluster, m.size), replace=False)
                for m in (np.flatnonzero(ci == c) + 1 for c in range(k))
            ])
            obs = Observations(nodes, rng.normal(size=nodes.size))
            roots = lowest_sampled_roots(partition, obs)
            unsampled = np.ones(n, dtype=bool)
            unsampled[obs.indices] = False
            all_but_roots = np.ones(n, dtype=bool)
            all_but_roots[roots] = False
            for routed in (unsampled, all_but_roots):
                assert_routes_like_reference(g, ~cut, roots, routed, rng)

    @pytest.mark.parametrize("make", [
        lambda rng: sbm_instance([50, 50], 0.2, 0.01, 1.0, 0.25, 2, [1, 0], rng=rng),
        lambda rng: sbm_instance([20, 30, 25], 0.3, 0.05, 1.0, 0.25, 3, [1, 0, -1], rng=rng),
        lambda rng: grid_instance(30, 30, 15, 1.0, 0.25, 4, [1, 0], rng=rng),
    ], ids=["sbm-2x50", "sbm-3-blocks", "grid-30x30"])
    def test_cyclic_interiors(self, make):
        rng = np.random.default_rng(5)
        g, partition, _, obs = make(rng)
        roots = lowest_sampled_roots(partition, obs)
        routed = np.ones(g.node_count, dtype=bool)
        routed[roots] = False
        assert_routes_like_reference(g, ~boundary_mask(g, partition), roots, routed, rng)

    @pytest.mark.parametrize("root", [0, 1234, 2999])
    def test_path_with_one_root(self, root):
        n = 3000
        g = build_graph(n, [(i, i + 1, 1.0) for i in range(1, n)])
        routed = np.ones(n, dtype=bool)
        routed[root] = False
        rng = np.random.default_rng(root)
        assert_routes_like_reference(
            g, np.ones(n - 1, dtype=bool), np.array([root]), routed, rng
        )

    def test_single_root_clusters(self):
        # Every node of the chain is a cluster of its own root; then nodes
        # 1-4 form one cluster rooted at node 3 and the rest are singletons.
        g, _, _ = make_chain()
        rng = np.random.default_rng(9)
        none = np.zeros(9, dtype=bool)
        assert_routes_like_reference(
            g, none, np.arange(10), np.zeros(10, dtype=bool), rng
        )
        interior = none.copy()
        interior[:3] = True
        roots = np.array([2, 4, 5, 6, 7, 8, 9])
        routed = np.zeros(10, dtype=bool)
        routed[[0, 1, 3]] = True
        assert_routes_like_reference(g, interior, roots, routed, rng)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed):
        # Connected graphs with a random interior mask and roots in some of
        # its components; only nodes a root reaches may be routed.
        rng = np.random.default_rng(seed)
        g, _ = random_connected_instance(rng, max_nodes=14)
        interior = rng.random(g.edge_count) < 0.7
        comp = components(g, interior)
        rooted = rng.random(int(comp.max()) + 1) < 0.8
        roots = np.array([
            int(rng.choice(np.flatnonzero(comp == c))) for c in np.flatnonzero(rooted)
        ], dtype=np.int64)
        rng.shuffle(roots)
        routed = rooted[comp] & (rng.random(g.node_count) < 0.8)
        routed[roots] = False
        assert_routes_like_reference(g, interior, roots, routed, rng)

    def test_certificate_from_signal_matches_reference(self, monkeypatch, tmp_path):
        # The seeded 2x50 SBM that `solve --gap-tol` finishes on a
        # certificate; the flow's bytes equal those routed by the reference.
        g, _, _, obs = sbm_instance(
            [50, 50], 0.2, 0.01, 1.0, 0.25, 2, [1, 0], rng=np.random.default_rng(0)
        )
        problem = Problem(g, obs, 0.1)
        state = init_state(problem)
        for _ in range(50):
            state = pd_step(state, problem)
        cert, _ = certificate_from_signal(problem, state.x_curr)
        assert cert is not None
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_flow_csv(got, g, cert.flow)
        monkeypatch.setattr("tvflow.flow._bfs_forest", reference_forest)
        monkeypatch.setattr("tvflow.flow._route_to_roots", reference_route)
        ref, _ = certificate_from_signal(problem, state.x_curr)
        write_flow_csv(want, g, ref.flow)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("call", [
    lambda g, obs, p: boundary_mask(g, p),
    lambda g, obs, p: construct_tree_certificate(g, p, obs, 1.0),
    lambda g, obs, p: certificate_from_partition(Problem(g, obs, 1.0), p),
], ids=[
    "boundary_mask", "construct_tree_certificate",
    "certificate_from_partition",
])
def test_partition_size_checked(chain, call):
    g, obs, _ = chain
    with pytest.raises(ValueError, match="partition covers 3 nodes, graph has 10"):
        call(g, obs, Partition([0, 0, 1]))


class TestDualityIdentities:
    def test_certificate_closes_gap(self):
        # Verified certificate: primal objective of the reconstruction
        # equals the flow's dual value.
        rng = np.random.default_rng(53)
        for _ in range(15):
            g, obs, partition = random_tree_instance(rng)
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            f = construct_tree_certificate(g, partition, obs, lam)
            problem = Problem(g, obs, lam)
            report = verify_certificate(problem, f, partition)
            assert report.verdict
            assert report.status == "verified"
            L = primal_objective(problem, report.reconstructed)
            assert abs(L - duality_gap(problem, report.reconstructed, f.base).dual) <= 1e-9

    def test_chain_identity(self, chain):
        g, obs, partition = chain
        problem = Problem(g, obs, 1.0)
        f = chain_certificate_flow()
        report = duality_gap(problem, CHAIN_REF_PRIMAL, f.base)
        assert report.dual == 0.1875
        assert report.primal == 0.1875
        assert primal_objective(problem, CHAIN_REF_PRIMAL) == 0.1875
