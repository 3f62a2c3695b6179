from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    make_chain,
    random_connected_instance,
)
from tvflow.graph import build_graph
from tvflow.instances import CHAIN_REF_DUAL, CHAIN_REF_PRIMAL
from tvflow.oracle import project_dual_feasible
from tvflow.signal import Observations, primal_objective
from tvflow.solver import (
    SolverConfig,
    dual_objective,
    duality_gap,
    init_state,
    pd_step,
    run,
)


def scripted_step(state, g, obs, lam):
    """Single-step oracle: the six updates written out edge by edge and
    node by node in pure Python, with the dual projection in its
    divide-by-max form.  Shares no code with the solver."""
    n = g.node_count
    edges = g.edges()
    x = state.x_curr.tolist()
    xp = state.x_prev.tolist()
    y = state.y.tolist()
    xavg = state.x_avg.tolist()
    labels = dict(zip(obs.nodes.tolist(), obs.labels.tolist()))
    deg = [0] * n
    for h, t, _ in edges:
        deg[h - 1] += 1
        deg[t - 1] += 1

    xt = [2.0 * x[i] - xp[i] for i in range(n)]
    for e, (h, t, w) in enumerate(edges):
        y[e] = y[e] + 0.5 * (xt[h - 1] - xt[t - 1])
        y[e] = y[e] / max(1.0, abs(y[e]) / (lam * w))
    x_new = list(x)
    for i in range(1, n + 1):
        outflow = sum(y[e] for e, (h, _, _) in enumerate(edges) if h == i)
        inflow = sum(y[e] for e, (_, t, _) in enumerate(edges) if t == i)
        x_new[i - 1] = x[i - 1] - (1.0 / deg[i - 1]) * (outflow - inflow)
    for i, label in labels.items():
        gamma = 1.0 / deg[i - 1]
        x_new[i - 1] = (gamma * label + x_new[i - 1]) / (gamma + 1.0)
    k = state.k + 1
    xavg = [(1.0 - 1.0 / k) * xavg[i] + (1.0 / k) * x_new[i] for i in range(n)]
    return np.array(x_new), np.array(y), np.array(xavg), k


class TestConfig:
    def test_json_round_trip(self):
        cfg = SolverConfig.from_json('{"lambda": 2.0, "max_iters": 10, "gap_tol": 0.5}')
        assert cfg.lam == 2.0
        assert cfg.max_iters == 10
        assert cfg.gap_tol == 0.5
        assert cfg.feas_tol == 1e-9
        assert SolverConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, max_iters=0)
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig.from_mapping({"lambda": 1.0, "bogus": 1})
        with pytest.raises(ValueError, match="lambda"):
            SolverConfig.from_mapping({"max_iters": 5})


class TestInitState:
    def test_chain_dimensions(self, chain):
        g, obs, _ = chain
        state = init_state(g, obs)
        assert state.x_curr.shape == (10,)
        assert state.y.shape == (9,)
        assert state.k == 0
        assert not state.x_curr.any() and not state.y.any() and not state.x_avg.any()

    def test_two_node_graph(self):
        g = build_graph(2, [(1, 2, 1.0)])
        state = init_state(g, Observations.from_dict({1: 1.0}))
        assert state.x_curr.shape == (2,)
        assert state.y.shape == (1,)

    def test_isolated_node_rejected(self):
        g = build_graph(3, [(1, 2, 1.0)])
        with pytest.raises(ValueError, match="isolated"):
            init_state(g, Observations.from_dict({1: 1.0}))

    def test_unlabeled_component_rejected(self):
        g = build_graph(6, [(1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0)])
        with pytest.raises(ValueError, match=r"component with nodes \{3, 4, 5, 6\}"):
            init_state(g, Observations.from_dict({1: 1.0, 2: 0.0}))
        # One label per component is enough.
        init_state(g, Observations.from_dict({2: 0.0, 6: 1.0}))


class TestPdStep:
    def test_two_node_hand_trace(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 1.0})
        cfg = SolverConfig(lam=1.0)
        state = pd_step(init_state(g, obs), g, obs, cfg)
        assert state.x_curr.tolist() == [0.5, 0.0]
        assert state.y.tolist() == [0.0]
        assert state.x_avg.tolist() == [0.5, 0.0]
        assert state.x_prev.tolist() == [0.0, 0.0]
        assert state.k == 1

    def test_matches_scripted_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            g, obs = random_connected_instance(rng)
            lam = float(rng.uniform(0.2, 3.0))
            cfg = SolverConfig(lam=lam)
            state = init_state(g, obs)
            for _ in range(4):
                expected = scripted_step(state, g, obs, lam)
                state = pd_step(state, g, obs, cfg)
                x_ref, y_ref, xavg_ref, k_ref = expected
                # The projection here divides instead of clipping, so allow
                # one rounding step per entry.
                assert np.allclose(state.x_curr, x_ref, rtol=0, atol=1e-13)
                assert np.allclose(state.y, y_ref, rtol=0, atol=1e-14)
                assert np.allclose(state.x_avg, xavg_ref, rtol=0, atol=1e-13)
                assert state.k == k_ref

    def test_unlabeled_zero_region_stays_zero(self):
        g, _, _ = make_chain()
        obs = Observations.from_dict({2: 1.0})
        cfg = SolverConfig(lam=1.0)
        state = pd_step(init_state(g, obs), g, obs, cfg)
        # Only the labeled node moves after one step from zero.
        assert state.x_curr[1] != 0.0
        assert np.all(state.x_curr[2:] == 0.0)
        assert state.x_curr[0] == 0.0

    def test_capacity_exact_after_projection(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g, obs = random_connected_instance(rng)
            lam = float(rng.uniform(0.05, 2.0))
            cfg = SolverConfig(lam=lam)
            state = init_state(g, obs)
            # Start from a wild state to stress the projection.
            state = type(state)(
                x_curr=rng.standard_normal(g.node_count) * 10,
                x_prev=rng.standard_normal(g.node_count) * 10,
                y=rng.standard_normal(g.edge_count) * 10,
                x_avg=np.zeros(g.node_count),
                k=0,
            )
            state = pd_step(state, g, obs, cfg)
            assert np.all(np.abs(state.y) <= lam * g.weights)

    def test_dimension_mismatch(self, chain):
        g, obs, _ = chain
        other = build_graph(2, [(1, 2, 1.0)])
        with pytest.raises(ValueError):
            pd_step(init_state(other, Observations.from_dict({1: 0.0})), g, obs,
                    SolverConfig(lam=1.0))


class TestDualObjective:
    def test_zero_flow(self, chain):
        g, obs, _ = chain
        report = dual_objective(g, obs, np.zeros(9), 1.0)
        assert report.feasible
        assert report.value == 0.0

    def test_chain_certificate_flow(self, chain):
        g, obs, _ = chain
        report = dual_objective(g, obs, CHAIN_REF_DUAL, 1.0)
        assert report.feasible
        assert report.value == 0.1875

    def test_capacity_violation_reported(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[0] = 1.0 + 2e-9  # capacity on edge (1,2) is 1
        report = dual_objective(g, obs, y, 1.0, feas_tol=1e-9)
        assert not report.feasible
        assert report.value is None
        assert report.capacity_excess == pytest.approx(2e-9)

    def test_conservation_violation_reported(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[0] = 0.5  # leaves divergence at unsampled nodes 1
        report = dual_objective(g, obs, y, 1.0)
        assert not report.feasible
        assert report.conservation_residual == pytest.approx(0.5)


class TestDualityGap:
    def test_optimal_pair(self, chain):
        g, obs, _ = chain
        report = duality_gap(g, obs, CHAIN_REF_PRIMAL, CHAIN_REF_DUAL, 1.0)
        assert report.certified
        assert abs(report.gap) <= 1e-6

    def test_zero_pair_single_label(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 1.0})
        report = duality_gap(g, obs, np.zeros(2), np.zeros(1), 1.0)
        assert report.certified
        assert report.gap == 0.5

    def test_weak_duality_on_random_feasible_pairs(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 1000:
            g, _ = random_connected_instance(rng)
            # Label every node: any capacity-feasible y is then dual feasible.
            obs = Observations(
                np.arange(1, g.node_count + 1),
                rng.uniform(-1, 1, size=g.node_count),
            )
            lam = float(rng.uniform(0.1, 3.0))
            caps = lam * g.weights
            for _ in range(25):
                x = rng.uniform(-2, 2, size=g.node_count)
                y = rng.uniform(-caps, caps)
                report = duality_gap(g, obs, x, y, lam)
                assert report.certified
                assert report.gap >= -1e-9
                checked += 1


class TestRun:
    def test_chain_dual_reproduction(self, chain):
        g, obs, _ = chain
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=1000))
        assert result.iters == 1000
        assert np.max(np.abs(result.y - CHAIN_REF_DUAL)) <= 0.02

    def test_chain_primal_reproduction(self, chain):
        g, obs, _ = chain
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=1000))
        assert np.max(np.abs(result.x_avg - CHAIN_REF_PRIMAL)) <= 0.02

    def test_chain_saturated_set_is_boundary_only(self, chain):
        # At convergence the only capacity-tight edge is the boundary edge.
        g, obs, _ = chain
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=2000))
        slack = g.weights - np.abs(result.y)
        saturated = set(np.flatnonzero(slack <= 1e-2).tolist())
        assert saturated == {4}

    def test_fully_labeled_pair_converges_to_labels(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 0.8, 2: 0.8})
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=2000))
        assert np.allclose(result.x_avg, 0.8, atol=1e-3)

    def test_gap_tol_stops_early(self, chain):
        g, obs, _ = chain
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=100_000, gap_tol=1e-3))
        assert result.iters < 100_000
        assert result.iters % 50 == 0
        assert result.gap.certified
        assert result.gap.gap <= 1e-3

    def test_deterministic_runs(self, chain):
        g, obs, _ = chain
        cfg = SolverConfig(lam=1.0, max_iters=500)
        a = run(g, obs, cfg)
        b = run(g, obs, cfg)
        assert np.array_equal(a.x_avg, b.x_avg)
        assert np.array_equal(a.y, b.y)
        assert a.gap == b.gap

    def test_large_lambda_gives_label_mean(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            g, obs = random_connected_instance(rng, max_nodes=6)
            lam = 10.0 * (np.sum(np.abs(obs.labels)) + 1.0) / float(g.weights.min())
            result = run(g, obs, SolverConfig(lam=lam, max_iters=8000))
            mean = float(np.mean(obs.labels))
            assert np.max(np.abs(result.x_avg - mean)) <= 1e-2

    def test_non_finite_objective_rejected(self):
        # Labels of +-1e300 overflow the squared error to inf.
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        obs = Observations.from_dict({1: 1e300, 3: -1e300})
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="primal objective is inf"
        ):
            run(g, obs, SolverConfig(lam=1.0, max_iters=10))

    def test_gap_checkpoints_decrease(self, chain):
        # Certified gap of (averaged primal, feasibility-projected dual)
        # roughly halves when the iteration count doubles.
        g, obs, _ = chain
        cfg = SolverConfig(lam=1.0, max_iters=800)
        state = init_state(g, obs)
        gaps = {}
        while state.k < 800:
            state = pd_step(state, g, obs, cfg)
            if state.k in (100, 200, 400, 800):
                y_feas = project_dual_feasible(g, obs, state.y, 1.0)
                report = duality_gap(g, obs, state.x_avg, y_feas, 1.0, feas_tol=1e-8)
                assert report.certified
                gaps[state.k] = report.gap
        for k in (100, 200, 400):
            assert gaps[2 * k] <= 0.9 * gaps[k]
            assert gaps[2 * k] <= gaps[k]  # non-increasing at checkpoints
