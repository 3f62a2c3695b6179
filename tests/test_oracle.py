from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    make_chain,
    random_connected_instance,
)
from tvflow.graph import build_graph, divergence
from tvflow.instances import CHAIN_REF_DUAL, CHAIN_REF_PRIMAL
from tvflow.oracle import oracle_mincost_flow, oracle_nlasso, project_dual_feasible
from tvflow.signal import Observations, Problem, primal_objective
from tvflow.solver import SolverConfig, run


class TestNlassoOracle:
    def test_chain_instance(self, chain):
        g, obs, _ = chain
        result = oracle_nlasso(Problem(g, obs, 1.0))
        assert not result.flagged
        assert result.objective == pytest.approx(0.1875, abs=1e-3)
        assert np.max(np.abs(result.x - CHAIN_REF_PRIMAL)) <= 1e-2

    def test_fully_labeled_constant_instance(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        obs = Observations.from_dict({1: 0.6, 2: 0.6, 3: 0.6})
        result = oracle_nlasso(Problem(g, obs, 1.0))
        assert result.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(result.x, 0.6, atol=1e-6)

    def test_two_nodes_one_label(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 0.9})
        result = oracle_nlasso(Problem(g, obs, 1.0))
        assert np.allclose(result.x, 0.9, atol=1e-3)

    def test_single_node(self):
        # Edgeless single-node graph: the label is the whole answer.  The
        # main solver rejects isolated nodes but the oracle has no
        # degree-based steps and need not.
        g = build_graph(1, [])
        obs = Observations.from_dict({1: -2.5})
        result = oracle_nlasso(Problem(g, obs, 1.0))
        assert result.x.tolist() == [-2.5]
        assert result.objective == 0.0
        assert not result.flagged

    def test_lambda_must_be_positive(self, chain):
        g, obs, _ = chain
        with pytest.raises(ValueError):
            oracle_nlasso(Problem(g, obs, 0.0))


class TestMincostOracle:
    def test_chain_instance(self, chain):
        g, obs, _ = chain
        result = oracle_mincost_flow(Problem(g, obs, 1.0))
        assert not result.flagged
        assert result.objective == pytest.approx(-0.1875, abs=1e-4)
        assert np.max(np.abs(result.flow.base - CHAIN_REF_DUAL)) <= 1e-2

    def test_flow_is_feasible(self, chain):
        g, obs, _ = chain
        problem = Problem(g, obs, 1.0)
        result = oracle_mincost_flow(problem)
        assert np.all(np.abs(result.flow.base) <= 1.0 * g.weights + 1e-9)
        v = divergence(g, result.flow.base)
        assert np.max(np.abs(v[problem.unsampled])) <= 1e-9

    def test_tiny_lambda_forces_small_flow(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 1.0, 2: 0.0})
        result = oracle_mincost_flow(Problem(g, obs, 1e-6))
        assert np.all(np.abs(result.flow.base) <= 1e-6 + 1e-12)
        assert result.objective == pytest.approx(0.0, abs=1e-5)

    def test_matches_scipy_reference(self, chain):
        # Same quadratic program solved by an off-the-shelf constrained
        # optimizer; the two must land on the same optimal value.
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(59)
        cases = [make_chain()[:2]]
        for _ in range(4):
            cases.append(random_connected_instance(rng, max_nodes=6))
        for lam, (g, obs) in zip((1.0, 0.5, 1.0, 2.0, 0.2), cases):
            problem = Problem(g, obs, lam)
            ours = oracle_mincost_flow(problem)
            m_idx = obs.indices
            unsampled = np.flatnonzero(problem.unsampled)

            def objective(y):
                vm = divergence(g, y)[m_idx]
                return float(np.sum(vm * (0.5 * vm - obs.labels)))

            constraints = []
            if unsampled.size:
                a = np.zeros((unsampled.size, g.edge_count))
                for r, node in enumerate(unsampled):
                    a[r, g._head_idx == node] = 1.0
                    a[r, g._tail_idx == node] = -1.0
                constraints.append(
                    scipy_opt.LinearConstraint(a, 0.0, 0.0)
                )
            res = scipy_opt.minimize(
                objective,
                np.zeros(g.edge_count),
                method="SLSQP",
                bounds=scipy_opt.Bounds(-lam * g.weights, lam * g.weights),
                constraints=constraints,
                options={"maxiter": 500, "ftol": 1e-12},
            )
            assert res.success
            assert ours.objective == pytest.approx(res.fun, abs=1e-6)


class TestProjectDualFeasible:
    def test_projected_point_is_feasible(self, chain):
        g, obs, _ = chain
        problem = Problem(g, obs, 1.0)
        rng = np.random.default_rng(61)
        for _ in range(10):
            y = rng.standard_normal(9) * 2
            y_proj = project_dual_feasible(problem, y)
            assert np.all(np.abs(y_proj) <= g.weights + 1e-9)
            v = divergence(g, y_proj)
            assert np.max(np.abs(v[problem.unsampled])) <= 1e-10

    def test_feasible_point_unchanged(self, chain):
        g, obs, _ = chain
        y_proj = project_dual_feasible(Problem(g, obs, 1.0), CHAIN_REF_DUAL)
        assert np.allclose(y_proj, CHAIN_REF_DUAL, atol=1e-10)


class TestStrongDuality:
    def test_random_instances(self):
        # Primal and flow oracles agree across random graphs and lambdas.
        rng = np.random.default_rng(67)
        lams = [0.1, 1.0, 5.0]
        for trial in range(8):
            g, obs = random_connected_instance(rng)
            lam = lams[trial % 3]
            problem = Problem(g, obs, lam)
            nl = oracle_nlasso(problem)
            mc = oracle_mincost_flow(problem)
            assert not nl.flagged
            assert abs(nl.objective + mc.objective) <= 2e-3

    def test_solver_equivalence(self):
        # The main solver lands on the oracle's objective.
        rng = np.random.default_rng(71)
        lams = [0.1, 1.0, 5.0]
        for trial in range(6):
            g, obs = random_connected_instance(rng)
            lam = lams[trial % 3]
            nl = oracle_nlasso(Problem(g, obs, lam), target_gap=3e-4)
            result = run(g, obs, SolverConfig(lam=lam, max_iters=80_000))
            L_solver = primal_objective(Problem(g, obs, lam), result.x_avg)
            assert abs(L_solver - nl.objective) <= 1e-3
            # Secondary check; minimizers need not be unique in general,
            # but on these seeded instances the solutions coincide.
            assert np.max(np.abs(result.x_avg - nl.x)) <= 1e-2
