from __future__ import annotations

import hashlib

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
    certificate_from_signal,
    check_flow,
    construct_tree_certificate,
    dual_to_extended_flow,
    mincost_objective,
    reconstruct_primal,
    verify_certificate,
)
from tvflow.graph import EmpiricalGraph, build_graph, components, divergence
from tvflow.instances import CHAIN_REF_DUAL, CHAIN_REF_PRIMAL
from tvflow.io import write_flow_csv
from tvflow.oracle import oracle_nlasso
from tvflow.signal import (
    Observations,
    Partition,
    Problem,
    boundary_mask,
    primal_objective,
)
from tvflow.solver import SolverConfig, dual_objective, init_state, pd_step, run


def reference_tree_certificate(
    g: EmpiricalGraph, partition: Partition, obs: Observations, lam: float
) -> Flow:
    """construct_tree_certificate as a breadth-first search per cluster over
    node sets, which scans every edge once per cluster: the reference for
    the single-pass version."""
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
    sampled_set = set((obs.nodes - 1).tolist())

    coeffs = np.empty(partition.cluster_count)
    for k, cluster in enumerate(clusters):
        in_cluster = sorted((i - 1) for i in cluster if (i - 1) in sampled_set)
        if not in_cluster:
            raise ValueError(f"cluster {k + 1} has no sampled node")
        labels = [obs.labels[np.searchsorted(obs.nodes, i + 1)] for i in in_cluster]
        coeffs[k] = float(np.mean(labels))

    y = np.zeros(g.edge_count)
    bmask = boundary_mask(g, partition)
    jumps = coeffs[ci[g._head_idx[bmask]]] - coeffs[ci[g._tail_idx[bmask]]]
    y[bmask] = np.sign(jumps) * caps[bmask]

    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in range(g.edge_count):
        incident[g._head_idx[e]].append((e, +1))
        incident[g._tail_idx[e]].append((e, -1))

    for k, cluster in enumerate(clusters):
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
                    parent_edge[neighbor] = (e, -sign_at_node)
                    order.append(neighbor)
        if seen != members:
            raise ValueError(f"cluster {k + 1} is not connected in the graph")
        for node in reversed(order[1:]):
            if node in sampled_set:
                continue
            e_p, sign_p = parent_edge[node]
            partial = sum(sign * y[e] for e, sign in incident[node] if e != e_p)
            y[e_p] = -partial * sign_p

    star = divergence(g, y)[obs.indices]
    return Flow(base=y, star_nodes=obs.nodes.copy(), star=star)


def random_clustered_tree(
    rng: np.random.Generator,
) -> tuple[EmpiricalGraph, Partition, Observations]:
    """Random tree cut into 1-60 connected clusters with 1-3 labels each.
    Some draws break one precondition of the tree certificate: an extra
    edge closes a cycle, two clusters merge into one that may be
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


def chain_certificate_flow() -> Flow:
    return Flow(
        base=CHAIN_REF_DUAL.copy(),
        star_nodes=np.array([2, 7]),
        star=np.array([0.25, -0.25]),
    )


class TestCheckFlow:
    def test_zero_flow(self, chain):
        g, obs, _ = chain
        f = Flow(np.zeros(9), np.array([2, 7]), np.zeros(2))
        report = check_flow(Problem(g, obs, 1.0), f)
        assert report.flow_ok
        assert report.conservation_residual == 0.0
        assert report.capacity_excess == 0.0

    def test_chain_certificate(self, chain):
        g, obs, _ = chain
        report = check_flow(Problem(g, obs, 1.0), chain_certificate_flow())
        assert report.flow_ok
        assert report.conservation_residual == 0.0

    def test_unbalanced_single_edge_flow(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[0] = 0.5  # edge (1, 2) only: imbalance at node 1 and node 2
        f = Flow(y, np.array([2, 7]), np.zeros(2))
        report = check_flow(Problem(g, obs, 1.0), f)
        assert not report.flow_ok
        assert report.conservation_residual == pytest.approx(0.5)

    def test_capacity_excess(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[4] = 0.30  # capacity there is 0.25
        f = Flow(y, np.array([2, 7]), np.zeros(2))
        report = check_flow(Problem(g, obs, 1.0), f, tol=1e-9)
        assert report.capacity_excess == pytest.approx(0.05)
        assert not report.flow_ok

    def test_star_mismatch_rejected(self, chain):
        g, obs, _ = chain
        f = Flow(np.zeros(9), np.array([2, 8]), np.zeros(2))
        with pytest.raises(ValueError, match="star nodes"):
            check_flow(Problem(g, obs, 1.0), f)

    def test_report_is_never_verified(self, chain):
        # Conservation and capacity alone certify nothing.
        g, obs, _ = chain
        report = check_flow(Problem(g, obs, 1.0), chain_certificate_flow())
        assert report.flow_ok
        assert report.status == "failed"
        assert not report.verdict
        assert report.reconstructed is None


class TestMincostObjective:
    def test_zero_flow(self, chain):
        g, obs, _ = chain
        f = Flow(np.zeros(9), np.array([2, 7]), np.zeros(2))
        assert mincost_objective(Problem(g, obs, 1.0), f) == 0.0

    def test_chain_certificate(self, chain):
        g, obs, _ = chain
        cost = mincost_objective(Problem(g, obs, 1.0), chain_certificate_flow())
        assert cost == -0.1875

    def test_doubling_star_values(self, chain):
        g, obs, _ = chain
        f = chain_certificate_flow()
        doubled = Flow(f.base, f.star_nodes, 2.0 * f.star)
        # sum of v(v/2 - x) with v -> 2v: 0.5*(0.25 - 1) + (-0.5)*(-0.25 - 0)
        assert mincost_objective(Problem(g, obs, 1.0), doubled) == pytest.approx(-0.25)


class TestDualToExtendedFlow:
    def test_chain_converged_dual(self, chain):
        g, obs, _ = chain
        f = dual_to_extended_flow(Problem(g, obs, 1.0), CHAIN_REF_DUAL)
        assert f.star_nodes.tolist() == [2, 7]
        assert f.star.tolist() == [0.25, -0.25]
        assert np.array_equal(f.base, CHAIN_REF_DUAL)

    def test_zero_dual(self, chain):
        g, obs, _ = chain
        f = dual_to_extended_flow(Problem(g, obs, 1.0), np.zeros(9))
        assert f.star.tolist() == [0.0, 0.0]

    def test_nonconserving_dual_rejected(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[2] = 0.5  # divergence at unsampled nodes 3 and 4
        with pytest.raises(ValueError, match="unsampled node"):
            dual_to_extended_flow(Problem(g, obs, 1.0), y)

    def test_star_values_sum_to_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g, _ = random_connected_instance(rng)
            obs = Observations(
                np.arange(1, g.node_count + 1),
                rng.uniform(-1, 1, size=g.node_count),
            )
            y = rng.uniform(-1, 1, size=g.edge_count)
            f = dual_to_extended_flow(Problem(g, obs, 1.0), y)
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
        # The flow's cost is strictly beaten by the true optimum (-0.25,
        # matching the constant-signal primal value 0.25), so certifying it
        # would have been wrong.
        assert mincost_objective(problem, f) > -0.25 + 1e-3

    def test_unreconstructable_flow_fails(self):
        # Edge {6, 7} carries exactly its capacity 1/4 inside cluster 2.  At
        # tol 0 that passes the slack check, but it cuts node 6 off from
        # every label, so no signal can be reconstructed.
        edges = [(i, i + 1, 1.0) for i in range(1, 10)]
        edges[4] = (5, 6, 0.25)
        edges[5] = (6, 7, 0.25)
        g = build_graph(10, edges)
        _, obs, partition = make_chain()
        f = construct_tree_certificate(g, partition, obs, 1.0)
        report = verify_certificate(Problem(g, obs, 1.0), f, partition, tol=0.0)
        assert report.flow_ok and report.saturation_ok and report.balance_ok
        assert report.strict_interior_ok and report.interior_slack == 0.0
        assert report.reconstructed is None
        assert report.status == "failed"
        assert not report.verdict
        assert report.failure_reason == "component [6] contains no sampled node"
        # At the default tolerance the slack check itself fails.
        report = verify_certificate(Problem(g, obs, 1.0), f, partition)
        assert report.strict_interior_ok is False
        assert report.status == "failed"

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


class TestReconstructPrimal:
    def test_chain_exact(self, chain):
        g, obs, partition = chain
        problem = Problem(g, obs, 1.0)
        x = reconstruct_primal(problem, chain_certificate_flow(), partition)
        assert np.array_equal(x, CHAIN_REF_PRIMAL)

    def test_fully_saturated_singletons(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition([0, 1, 2])
        obs = Observations.from_dict({1: 1.0, 2: 0.5, 3: -1.0})
        lam = 0.25
        y = lam * np.array([1.0, -1.0])  # saturate both edges
        v = divergence(g, y)
        f = Flow(y, np.array([1, 2, 3]), v)
        x = reconstruct_primal(Problem(g, obs, lam), f, p)
        assert np.array_equal(x, obs.labels - v)

    def test_component_without_sample_rejected(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition([0, 1, 1])
        obs = Observations.from_dict({2: 1.0})
        lam = 1.0
        y = np.array([1.0, 0.0])  # saturates edge (1,2), isolating node 1
        f = Flow(y, np.array([2]), divergence(g, y)[[1]])
        with pytest.raises(ValueError, match="no sampled node"):
            reconstruct_primal(Problem(g, obs, lam), f, p)

    def test_component_across_clusters_rejected(self):
        # Zero flow leaves every edge open, so one component spans both
        # clusters of the path.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition([0, 1, 1])
        obs = Observations.from_dict({1: 1.0, 3: 0.0})
        f = Flow(np.zeros(2), obs.nodes, np.zeros(2))
        with pytest.raises(ValueError, match=r"component \[1, 2, 3\] spans multiple"):
            reconstruct_primal(Problem(g, obs, 1.0), f, p)

    def test_inconsistent_samples_rejected(self):
        # Component {3, 4, 5} is sampled at 3 and 5 with labels that
        # disagree; component {1, 2} is consistent and comes first.
        g = build_graph(5, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        p = Partition([0, 0, 1, 1, 1])
        obs = Observations.from_dict({1: 1.0, 3: 0.0, 5: 0.5})
        y = np.array([0.0, 1.0, 0.0, 0.0])  # saturates edge (2, 3) only
        f = Flow(y, obs.nodes, divergence(g, y)[obs.indices])
        with pytest.raises(ValueError, match="sampled nodes 3 and 5 give inconsistent"):
            reconstruct_primal(Problem(g, obs, 1.0), f, p)


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

    def test_cycle_rejected(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        p = Partition([0, 0, 0])
        obs = Observations.from_dict({1: 1.0})
        with pytest.raises(ValueError, match="tree"):
            construct_tree_certificate(g, p, obs, 1.0)

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
                with pytest.raises(ValueError) as got:
                    construct_tree_certificate(g, partition, obs, lam)
                assert str(got.value) == str(exc)
                kinds = ("expected a tree", "is not connected", "has no sampled node")
                errors.update(kind for kind in kinds if kind in str(exc))
                continue
            f = construct_tree_certificate(g, partition, obs, lam)
            for got, ref in ((f.base, want.base), (f.star, want.star)):
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            assert np.array_equal(f.star_nodes, want.star_nodes)
            report = verify_certificate(Problem(g, obs, lam), f, partition)
            assert (report.status == "verified") == report.verdict
            assert report.verdict == (report.reconstructed is not None)
        assert len(errors) == 3

    def test_flow_csv_bytes_pinned(self, tmp_path):
        # SHA-256 of write_flow_csv over the trees of
        # test_matches_per_cluster_reference that have a certificate,
        # pinned: the tree certificate's bytes must not change.
        rng = np.random.default_rng(61)
        digest = hashlib.sha256()
        written = 0
        for _ in range(150):
            g, partition, obs = random_clustered_tree(rng)
            lam = float(rng.choice([0.1, 1.0, 5.0]))
            try:
                f = construct_tree_certificate(g, partition, obs, lam)
            except ValueError:
                continue
            write_flow_csv(tmp_path / "flow.csv", g, f)
            digest.update((tmp_path / "flow.csv").read_bytes())
            written += 1
        assert written == 103
        assert digest.hexdigest() == (
            "b807ad7b11ce8e15ef7f873a22a0d4fa0ce24ff2559223aa2303718212e26f2f"
        )

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


@pytest.mark.parametrize("call", [
    lambda g, obs, p: boundary_mask(g, p),
    lambda g, obs, p: reconstruct_primal(
        Problem(g, obs, 1.0), chain_certificate_flow(), p
    ),
    lambda g, obs, p: construct_tree_certificate(g, p, obs, 1.0),
], ids=["boundary_mask", "reconstruct_primal", "construct_tree_certificate"])
def test_partition_size_checked(chain, call):
    g, obs, _ = chain
    with pytest.raises(ValueError, match="partition covers 3 nodes, graph has 10"):
        call(g, obs, Partition([0, 0, 1]))


class TestDualityIdentities:
    def test_mincost_equals_negative_dual_objective(self):
        # The flow cost of a lifted dual vector is exactly minus the dual
        # objective, for any conserving dual vector within capacities.
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(30):
            g, _ = random_connected_instance(rng)
            obs = Observations(
                np.arange(1, g.node_count + 1),
                rng.uniform(-1, 1, size=g.node_count),
            )
            lam = float(rng.uniform(0.2, 2.0))
            caps = lam * g.weights
            y = rng.uniform(-caps, caps)
            problem = Problem(g, obs, lam)
            f = dual_to_extended_flow(problem, y)
            cost = mincost_objective(problem, f)
            dual = dual_objective(problem, y)
            assert dual.feasible
            assert abs(cost + dual.value) <= 1e-12 * max(1.0, abs(cost))
            checked += 1
        assert checked == 30

    def test_certificate_closes_gap(self):
        # Verified certificate: primal objective of the reconstruction
        # equals minus the flow cost.
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
            cost = mincost_objective(problem, f)
            assert abs(L + cost) <= 1e-9

    def test_chain_identity(self, chain):
        g, obs, partition = chain
        problem = Problem(g, obs, 1.0)
        f = chain_certificate_flow()
        assert mincost_objective(problem, f) == -0.1875
        assert dual_objective(problem, f.base).value == 0.1875
        assert primal_objective(problem, CHAIN_REF_PRIMAL) == 0.1875
