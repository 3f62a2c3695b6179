from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    make_chain,
    random_connected_instance,
    random_tree_instance,
)
from tvflow.flow import (
    Flow,
    check_flow,
    construct_tree_certificate,
    dual_to_extended_flow,
    mincost_objective,
    reconstruct_primal,
    verify_certificate,
)
from tvflow.graph import build_graph, divergence, extend_graph
from tvflow.instances import CHAIN_REF_DUAL, CHAIN_REF_PRIMAL
from tvflow.signal import Observations, Partition, primal_objective
from tvflow.solver import dual_objective


def chain_certificate_flow() -> Flow:
    return Flow(
        base=CHAIN_REF_DUAL.copy(),
        star_nodes=np.array([2, 7]),
        star=np.array([0.25, -0.25]),
    )


class TestCheckFlow:
    def test_zero_flow(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        f = Flow(np.zeros(9), np.array([2, 7]), np.zeros(2))
        report = check_flow(eg, f, 1.0)
        assert report.flow_ok
        assert report.conservation_residual == 0.0
        assert report.capacity_excess == 0.0

    def test_chain_certificate(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        report = check_flow(eg, chain_certificate_flow(), 1.0)
        assert report.flow_ok
        assert report.conservation_residual == 0.0

    def test_unbalanced_single_edge_flow(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        y = np.zeros(9)
        y[0] = 0.5  # edge (1, 2) only: imbalance at node 1 and node 2
        f = Flow(y, np.array([2, 7]), np.zeros(2))
        report = check_flow(eg, f, 1.0)
        assert not report.flow_ok
        assert report.conservation_residual == pytest.approx(0.5)

    def test_capacity_excess(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        y = np.zeros(9)
        y[4] = 0.30  # capacity there is 0.25
        f = Flow(y, np.array([2, 7]), np.zeros(2))
        report = check_flow(eg, f, 1.0, tol=1e-9)
        assert report.capacity_excess == pytest.approx(0.05)
        assert not report.flow_ok

    def test_star_mismatch_rejected(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        f = Flow(np.zeros(9), np.array([2, 8]), np.zeros(2))
        with pytest.raises(ValueError, match="star nodes"):
            check_flow(eg, f, 1.0)


class TestMincostObjective:
    def test_zero_flow(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        f = Flow(np.zeros(9), np.array([2, 7]), np.zeros(2))
        assert mincost_objective(eg, f, obs) == 0.0

    def test_chain_certificate(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        assert mincost_objective(eg, chain_certificate_flow(), obs) == -0.1875

    def test_doubling_star_values(self, chain):
        g, obs, _ = chain
        eg = extend_graph(g, obs.nodes)
        f = chain_certificate_flow()
        doubled = Flow(f.base, f.star_nodes, 2.0 * f.star)
        # sum of v(v/2 - x) with v -> 2v: 0.5*(0.25 - 1) + (-0.5)*(-0.25 - 0)
        assert mincost_objective(eg, doubled, obs) == pytest.approx(-0.25)


class TestDualToExtendedFlow:
    def test_chain_converged_dual(self, chain):
        g, obs, _ = chain
        f = dual_to_extended_flow(g, obs, CHAIN_REF_DUAL)
        assert f.star_nodes.tolist() == [2, 7]
        assert f.star.tolist() == [0.25, -0.25]
        assert np.array_equal(f.base, CHAIN_REF_DUAL)

    def test_zero_dual(self, chain):
        g, obs, _ = chain
        f = dual_to_extended_flow(g, obs, np.zeros(9))
        assert f.star.tolist() == [0.0, 0.0]

    def test_nonconserving_dual_rejected(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[2] = 0.5  # divergence at unsampled nodes 3 and 4
        with pytest.raises(ValueError, match="unsampled node"):
            dual_to_extended_flow(g, obs, y)

    def test_star_values_sum_to_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g, _ = random_connected_instance(rng)
            obs = Observations(
                np.arange(1, g.node_count + 1),
                rng.uniform(-1, 1, size=g.node_count),
            )
            y = rng.uniform(-1, 1, size=g.edge_count)
            f = dual_to_extended_flow(g, obs, y)
            assert abs(f.star.sum()) <= 1e-12


class TestVerifyCertificate:
    def test_chain_certificate_verifies(self, chain):
        g, obs, partition = chain
        eg = extend_graph(g, obs.nodes)
        report = verify_certificate(eg, chain_certificate_flow(), partition, obs, 1.0)
        assert report.verdict
        assert report.status == "verified"
        assert np.array_equal(report.reconstructed, CHAIN_REF_PRIMAL)

    def test_wrong_lambda_fails_saturation(self, chain):
        g, obs, partition = chain
        eg = extend_graph(g, obs.nodes)
        report = verify_certificate(eg, chain_certificate_flow(), partition, obs, 2.0)
        assert not report.verdict
        assert report.saturation_ok is False
        assert report.status == "failed"

    def test_lambda_scaling_family(self, chain):
        g, obs, partition = chain
        eg = extend_graph(g, obs.nodes)
        for lam in (0.5, 2.0, 3.0):
            report = verify_certificate(
                eg, chain_certificate_flow(), partition, obs, lam
            )
            assert not report.verdict

    def test_cluster_without_samples_indeterminate(self, chain):
        g, _, partition = chain
        obs = Observations.from_dict({2: 1.0})
        eg = extend_graph(g, obs.nodes)
        y = np.zeros(9)
        f = Flow(y, np.array([2]), np.zeros(1))
        p = partition
        report = verify_certificate(eg, f, p, obs, 1.0)
        assert report.indeterminate_clusters == (1,)
        assert report.status in ("failed", "indeterminate")

    def test_misoriented_saturation_rejected(self):
        # A saturated boundary flow pushed against the reconstructed jump
        # passes the counting checks but does not solve the flow problem:
        # 3-chain, boundary weight 0.8, labels 1 and 0.  The reconstruction
        # would be x1 = 0.2 < x2 = 0.8 while the flow points 1 -> 2.
        g = build_graph(3, [(1, 2, 0.8), (2, 3, 1.0)])
        p = Partition((frozenset({1}), frozenset({2, 3})), 3)
        obs = Observations.from_dict({1: 1.0, 2: 0.0})
        eg = extend_graph(g, obs.nodes)
        f = construct_tree_certificate(g, p, obs, 1.0)
        report = verify_certificate(eg, f, p, obs, 1.0)
        assert report.saturation_ok and report.strict_interior_ok and report.balance_ok
        assert report.orientation_ok is False
        assert not report.verdict
        # The flow's cost is strictly beaten by the true optimum (-0.25,
        # matching the constant-signal primal value 0.25), so certifying it
        # would have been wrong.
        assert mincost_objective(eg, f, obs) > -0.25 + 1e-3

    def test_balance_violation_detected(self):
        # Two sampled nodes in one cluster with different label-minus-star
        # values must fail the balance condition.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition((frozenset({1, 2, 3}),), 3)
        obs = Observations.from_dict({1: 1.0, 3: 0.0})
        eg = extend_graph(g, obs.nodes)
        f = Flow(np.zeros(2), np.array([1, 3]), np.zeros(2))
        report = verify_certificate(eg, f, p, obs, 1.0)
        assert report.balance_ok is False
        assert not report.verdict


class TestReconstructPrimal:
    def test_chain_exact(self, chain):
        g, obs, partition = chain
        eg = extend_graph(g, obs.nodes)
        x = reconstruct_primal(eg, chain_certificate_flow(), partition, obs, 1.0)
        assert np.array_equal(x, CHAIN_REF_PRIMAL)

    def test_fully_saturated_singletons(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition(tuple(frozenset({i}) for i in (1, 2, 3)), 3)
        obs = Observations.from_dict({1: 1.0, 2: 0.5, 3: -1.0})
        eg = extend_graph(g, obs.nodes)
        lam = 0.25
        y = lam * np.array([1.0, -1.0])  # saturate both edges
        v = divergence(g, y)
        f = Flow(y, np.array([1, 2, 3]), v)
        x = reconstruct_primal(eg, f, p, obs, lam)
        assert np.array_equal(x, obs.labels - v)

    def test_component_without_sample_rejected(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition((frozenset({1}), frozenset({2, 3})), 3)
        obs = Observations.from_dict({2: 1.0})
        eg = extend_graph(g, obs.nodes)
        lam = 1.0
        y = np.array([1.0, 0.0])  # saturates edge (1,2), isolating node 1
        f = Flow(y, np.array([2]), divergence(g, y)[[1]])
        with pytest.raises(ValueError, match="no sampled node"):
            reconstruct_primal(eg, f, p, obs, lam)

    def test_component_across_clusters_rejected(self):
        # Zero flow leaves every edge open, so one component spans both
        # clusters of the path.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        p = Partition((frozenset({1}), frozenset({2, 3})), 3)
        obs = Observations.from_dict({1: 1.0, 3: 0.0})
        eg = extend_graph(g, obs.nodes)
        f = Flow(np.zeros(2), obs.nodes, np.zeros(2))
        with pytest.raises(ValueError, match=r"component \[1, 2, 3\] spans multiple"):
            reconstruct_primal(eg, f, p, obs, 1.0)

    def test_inconsistent_samples_rejected(self):
        # Component {3, 4, 5} is sampled at 3 and 5 with labels that
        # disagree; component {1, 2} is consistent and comes first.
        g = build_graph(5, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        p = Partition((frozenset({1, 2}), frozenset({3, 4, 5})), 5)
        obs = Observations.from_dict({1: 1.0, 3: 0.0, 5: 0.5})
        eg = extend_graph(g, obs.nodes)
        y = np.array([0.0, 1.0, 0.0, 0.0])  # saturates edge (2, 3) only
        f = Flow(y, obs.nodes, divergence(g, y)[obs.indices])
        with pytest.raises(ValueError, match="sampled nodes 3 and 5 give inconsistent"):
            reconstruct_primal(eg, f, p, obs, 1.0)


class TestConstructTreeCertificate:
    def test_chain_closed_form(self, chain):
        g, obs, partition = chain
        f = construct_tree_certificate(g, partition, obs, 1.0)
        assert np.array_equal(f.base, CHAIN_REF_DUAL)
        assert f.star.tolist() == [0.25, -0.25]

    def test_single_cluster_equal_labels_zero_flow(self):
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        p = Partition((frozenset({1, 2, 3, 4}),), 4)
        obs = Observations.from_dict({2: 0.7, 4: 0.7})
        f = construct_tree_certificate(g, p, obs, 1.0)
        assert np.array_equal(f.base, np.zeros(3))

    def test_cycle_rejected(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
        p = Partition((frozenset({1, 2, 3}),), 3)
        obs = Observations.from_dict({1: 1.0})
        with pytest.raises(ValueError, match="tree"):
            construct_tree_certificate(g, p, obs, 1.0)

    def test_disconnected_cluster_rejected(self):
        # Path 1-2-3-4 split as {1, 4} / {2, 3}: cluster one is disconnected.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        p = Partition((frozenset({1, 4}), frozenset({2, 3})), 4)
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
            eg = extend_graph(g, obs.nodes)
            report = verify_certificate(eg, f, partition, obs, lam, tol=1e-9)
            assert report.verdict, report.failure_reason
            assert report.reconstructed is not None
            # Reconstruction is exactly piecewise constant on the partition.
            for cluster in partition.clusters:
                values = {report.reconstructed[i - 1] for i in cluster}
                assert len(values) == 1


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
            f = dual_to_extended_flow(g, obs, y)
            eg = extend_graph(g, obs.nodes)
            cost = mincost_objective(eg, f, obs)
            dual = dual_objective(g, obs, y, lam)
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
            eg = extend_graph(g, obs.nodes)
            report = verify_certificate(eg, f, partition, obs, lam)
            assert report.verdict
            L = primal_objective(g, obs, report.reconstructed, lam)
            cost = mincost_objective(eg, f, obs)
            assert abs(L + cost) <= 1e-9

    def test_chain_identity(self, chain):
        g, obs, partition = chain
        eg = extend_graph(g, obs.nodes)
        f = chain_certificate_flow()
        assert mincost_objective(eg, f, obs) == -0.1875
        assert dual_objective(g, obs, f.base, 1.0).value == 0.1875
        assert primal_objective(g, obs, CHAIN_REF_PRIMAL, 1.0) == 0.1875
