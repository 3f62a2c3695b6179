from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    edge_triples,
    make_chain,
    random_connected_instance,
)
import tvflow.solver
from tvflow.graph import build_graph, divergence, incidence_apply
from tvflow.instances import (
    CHAIN_REF_DUAL,
    CHAIN_REF_PRIMAL,
    chain_instance,
    grid_instance,
    sbm_instance,
)
from tvflow.oracle import project_dual_feasible
from tvflow.signal import Observations, Problem
from tvflow.solver import (
    SolverConfig,
    SolverState,
    duality_gap,
    init_state,
    pd_step,
    repair_dual,
    run,
)


def scripted_step(state, g, obs, lam):
    """Single-step oracle: the six updates written out edge by edge and
    node by node in pure Python, with the dual projection in its
    divide-by-max form.  Shares no code with the solver."""
    n = g.node_count
    edges = edge_triples(g)
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


def operator_step(state, problem):
    """Bitwise reference for ``pd_step``: the same six updates composed
    from the public operators ``incidence_apply`` and ``divergence``, with
    every constant derived in place."""
    g = problem.graph
    gamma = problem.inv_degrees

    x_tilde = 2.0 * state.x_curr - state.x_prev
    y = state.y + 0.5 * incidence_apply(g, x_tilde)
    cap = problem.capacities
    y = np.clip(y, -cap, cap)

    x = state.x_curr - gamma * divergence(g, y)
    m = problem.sampled
    x[m] = (gamma[m] * problem.obs.labels + x[m]) / (gamma[m] + 1.0)

    k = state.k + 1
    x_avg = (1.0 - 1.0 / k) * state.x_avg + (1.0 / k) * x
    return SolverState(x_curr=x, x_prev=state.x_curr, y=y, x_avg=x_avg, k=k)


def assert_steps_match_reference(problem, state, steps):
    """Run ``pd_step`` and ``operator_step`` side by side from ``state`` and
    require bit-identical iterates after every step."""
    ref = state
    for _ in range(steps):
        state, ref = pd_step(state, problem), operator_step(ref, problem)
        for name in ("x_curr", "x_prev", "y", "x_avg"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), name
        assert state.k == ref.k


class TestConfig:
    def test_json_round_trip(self):
        cfg = SolverConfig.from_mapping(
            json.loads('{"lambda": 2.0, "max_iters": 10, "gap_tol": 0.5}')
        )
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
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(lam=1.0, max_iters=2.7)
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig.from_mapping({"lambda": 1.0, "bogus": 1})
        with pytest.raises(ValueError, match="lambda"):
            SolverConfig.from_mapping({"max_iters": 5})

    @pytest.mark.parametrize("key", ["gap_tol", "feas_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_tolerances_finite_and_non_negative(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite and non-negative"):
            SolverConfig(lam=1.0, **{key: value})

    @pytest.mark.parametrize("data, message", [
        ({"lambda": True}, "config key 'lambda' must be a number, got true"),
        ({"lambda": "2"}, 'config key \'lambda\' must be a number, got "2"'),
        ({"lambda": 1.0, "gap_tol": None},
         "config key 'gap_tol' must be a number, got null"),
        ({"lambda": 1.0, "max_iters": 2.7},
         "max_iters must be an integer >= 1, got 2.7"),
        ({"lambda": 1.0, "max_iters": 10.0},
         "max_iters must be an integer >= 1, got 10.0"),
        ({"lambda": 1.0, "max_iters": False},
         "config key 'max_iters' must be a number, got false"),
        ({"lambda": 10**400}, "config key 'lambda' is beyond double range"),
        ({"lambda": 1.0, "feas_tol": math.nan},
         "feas_tol must be finite and non-negative, got nan"),
    ])
    def test_mapping_takes_numbers_only(self, data, message):
        with pytest.raises(ValueError) as exc:
            SolverConfig.from_mapping(data)
        assert str(exc.value) == message

    def test_mapping_integers_become_floats(self):
        cfg = SolverConfig.from_mapping({"lambda": 2, "gap_tol": 0, "max_iters": 5})
        assert cfg.to_mapping() == {
            "lambda": 2.0, "max_iters": 5, "gap_tol": 0.0, "feas_tol": 1e-9
        }
        assert json.dumps(cfg.to_mapping()) == (
            '{"lambda": 2.0, "max_iters": 5, "gap_tol": 0.0, "feas_tol": 1e-09}'
        )


class TestInitState:
    def test_chain_dimensions(self, chain):
        g, obs, _ = chain
        state = init_state(Problem(g, obs, 1.0))
        assert state.x_curr.shape == (10,)
        assert state.y.shape == (9,)
        assert state.k == 0
        assert not state.x_curr.any() and not state.y.any() and not state.x_avg.any()

    def test_two_node_graph(self):
        g = build_graph(2, [(1, 2, 1.0)])
        state = init_state(Problem(g, Observations.from_dict({1: 1.0}), 1.0))
        assert state.x_curr.shape == (2,)
        assert state.y.shape == (1,)

    def test_isolated_node_rejected(self):
        g = build_graph(3, [(1, 2, 1.0)])
        with pytest.raises(ValueError, match="isolated"):
            init_state(Problem(g, Observations.from_dict({1: 1.0}), 1.0))

    def test_unlabeled_component_rejected(self):
        g = build_graph(6, [(1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0)])
        with pytest.raises(ValueError, match=r"component with nodes \{3, 4, 5, 6\}"):
            init_state(Problem(g, Observations.from_dict({1: 1.0, 2: 0.0}), 1.0))
        # One label per component is enough.
        init_state(Problem(g, Observations.from_dict({2: 0.0, 6: 1.0}), 1.0))


class TestPdStep:
    def test_two_node_hand_trace(self):
        g = build_graph(2, [(1, 2, 1.0)])
        problem = Problem(g, Observations.from_dict({1: 1.0}), 1.0)
        state = pd_step(init_state(problem), problem)
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
            problem = Problem(g, obs, lam)
            state = init_state(problem)
            for _ in range(4):
                expected = scripted_step(state, g, obs, lam)
                state = pd_step(state, problem)
                x_ref, y_ref, xavg_ref, k_ref = expected
                # The projection here divides instead of clipping, so allow
                # one rounding step per entry.
                assert np.allclose(state.x_curr, x_ref, rtol=0, atol=1e-13)
                assert np.allclose(state.y, y_ref, rtol=0, atol=1e-14)
                assert np.allclose(state.x_avg, xavg_ref, rtol=0, atol=1e-13)
                assert state.k == k_ref

    def test_unlabeled_zero_region_stays_zero(self):
        g, _, _ = make_chain()
        problem = Problem(g, Observations.from_dict({2: 1.0}), 1.0)
        state = pd_step(init_state(problem), problem)
        # Only the labeled node moves after one step from zero.
        assert state.x_curr[1] != 0.0
        assert np.all(state.x_curr[2:] == 0.0)
        assert state.x_curr[0] == 0.0

    def test_capacity_exact_after_projection(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g, obs = random_connected_instance(rng)
            lam = float(rng.uniform(0.05, 2.0))
            problem = Problem(g, obs, lam)
            state = init_state(problem)
            # Start from a wild state to stress the projection.
            state = type(state)(
                x_curr=rng.standard_normal(g.node_count) * 10,
                x_prev=rng.standard_normal(g.node_count) * 10,
                y=rng.standard_normal(g.edge_count) * 10,
                x_avg=np.zeros(g.node_count),
                k=0,
            )
            state = pd_step(state, problem)
            assert np.all(np.abs(state.y) <= lam * g.weights)

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    @pytest.mark.parametrize("kind", ["chain", "grid", "sbm"])
    def test_bitwise_equal_to_operator_form(self, kind, lam):
        rng = np.random.default_rng(17)
        g, _, _, obs = {
            "chain": chain_instance,
            "grid": lambda: grid_instance(8, 9, 4, 1.0, 0.25, 2, [1.0, 0.0], rng=rng),
            "sbm": lambda: sbm_instance(
                [30, 30], 0.3, 0.05, 1.0, 0.25, 2, [1.0, -1.0], rng=rng
            ),
        }[kind]()
        problem = Problem(g, obs, lam)
        assert_steps_match_reference(problem, init_state(problem), 320)

    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_operator_form_on_random_instances(self, seed, lam):
        # From a random state, so the box projection binds on many edges.
        rng = np.random.default_rng(seed)
        g, obs = random_connected_instance(rng, max_nodes=12)
        problem = Problem(g, obs, lam)
        state = SolverState(
            x_curr=rng.standard_normal(g.node_count),
            x_prev=rng.standard_normal(g.node_count),
            y=rng.standard_normal(g.edge_count),
            x_avg=rng.standard_normal(g.node_count),
            k=int(rng.integers(0, 50)),
        )
        assert_steps_match_reference(problem, state, 40)

    def test_dimension_mismatch(self, chain):
        g, obs, _ = chain
        other = build_graph(2, [(1, 2, 1.0)])
        with pytest.raises(ValueError):
            pd_step(init_state(Problem(other, Observations.from_dict({1: 0.0}), 1.0)),
                    Problem(g, obs, 1.0))


class TestDualObjective:
    """The dual side of ``duality_gap``: its value and feasibility."""

    def test_zero_flow(self, chain):
        g, obs, _ = chain
        report = duality_gap(Problem(g, obs, 1.0), np.zeros(10), np.zeros(9))
        assert report.certified
        assert report.dual == 0.0

    def test_chain_certificate_flow(self, chain):
        g, obs, _ = chain
        report = duality_gap(Problem(g, obs, 1.0), np.zeros(10), CHAIN_REF_DUAL)
        assert report.certified
        assert report.dual == 0.1875

    def test_capacity_violation_reported(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[0] = 1.0 + 2e-9  # capacity on edge (1,2) is 1
        report = duality_gap(Problem(g, obs, 1.0), np.zeros(10), y, feas_tol=1e-9)
        assert not report.certified
        assert report.dual is None
        assert report.gap is None
        assert report.capacity_excess == pytest.approx(2e-9)

    def test_conservation_violation_reported(self, chain):
        g, obs, _ = chain
        y = np.zeros(9)
        y[0] = 0.5  # leaves divergence at unsampled nodes 1
        report = duality_gap(Problem(g, obs, 1.0), np.zeros(10), y)
        assert not report.certified
        assert report.conservation_residual == pytest.approx(0.5)


class TestDualityGap:
    def test_optimal_pair(self, chain):
        g, obs, _ = chain
        report = duality_gap(Problem(g, obs, 1.0), CHAIN_REF_PRIMAL, CHAIN_REF_DUAL)
        assert report.certified
        assert abs(report.gap) <= 1e-6

    def test_zero_pair_single_label(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 1.0})
        report = duality_gap(Problem(g, obs, 1.0), np.zeros(2), np.zeros(1))
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
                report = duality_gap(Problem(g, obs, lam), x, y)
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
        with pytest.raises(ValueError, match="primal objective is inf"):
            run(g, obs, SolverConfig(lam=1.0, max_iters=10))

    def test_gap_checkpoints_decrease(self, chain):
        # Certified gap of (averaged primal, feasibility-projected dual)
        # roughly halves when the iteration count doubles.
        g, obs, _ = chain
        problem = Problem(g, obs, 1.0)
        state = init_state(problem)
        gaps = {}
        while state.k < 800:
            state = pd_step(state, problem)
            if state.k in (100, 200, 400, 800):
                y_feas = project_dual_feasible(problem, state.y)
                report = duality_gap(problem, state.x_avg, y_feas, feas_tol=1e-8)
                assert report.certified
                gaps[state.k] = report.gap
        for k in (100, 200, 400):
            assert gaps[2 * k] <= 0.9 * gaps[k]
            assert gaps[2 * k] <= gaps[k]  # non-increasing at checkpoints


class TestRepairDual:
    def test_conserving_and_inside_capacities(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g, obs = random_connected_instance(rng, max_nodes=12)
            problem = Problem(g, obs, float(rng.uniform(0.1, 3.0)))
            caps = problem.capacities
            y = rng.uniform(-3.0, 3.0, g.edge_count) * caps
            repaired, _ = repair_dual(problem, y)
            _, excess, conservation = problem.dual_residuals(repaired)
            assert conservation <= 1e-12
            assert excess == 0.0
            assert np.all(np.abs(repaired) <= caps)

    def test_orthogonal_projection_inside_box(self):
        # A small flow stays inside the box, so the repair is the plain
        # orthogonal projection onto the conservation constraints.
        rng = np.random.default_rng(8)
        for _ in range(20):
            g, obs = random_connected_instance(rng, max_nodes=10)
            problem = Problem(g, obs, 1.0)
            y = rng.uniform(-1e-3, 1e-3, g.edge_count)
            rows = np.flatnonzero(problem.unsampled)
            a = np.zeros((rows.size, g.edge_count))
            for r, node in enumerate(rows):
                a[r, g._head_idx == node] = 1.0
                a[r, g._tail_idx == node] = -1.0
            expected = y - np.linalg.pinv(a) @ (a @ y) if rows.size else y
            repaired, _ = repair_dual(problem, y)
            assert np.max(np.abs(repaired - expected)) <= 1e-14

    def test_bits_pinned(self):
        # SHA-256 of repaired flows and CG counts, pinned: the repair must
        # stay bit-identical.
        rng = np.random.default_rng(29)
        digest = hashlib.sha256()
        cases = [random_connected_instance(rng, max_nodes=20) + (0.7,) for _ in range(100)]
        g, _, _, obs = grid_instance(
            20, 20, 10, 1.0, 0.25, 3, [1.0, 0.0], rng=np.random.default_rng(1)
        )
        cases.append((g, obs, 0.1))
        for g, obs, lam in cases:
            problem = Problem(g, obs, lam)
            y = rng.uniform(-2.0, 2.0, g.edge_count) * problem.capacities
            repaired, cg_iters = repair_dual(problem, y)
            digest.update(repaired.tobytes() + cg_iters.to_bytes(4, "little"))
        assert digest.hexdigest() == (
            "b39be80183259a96bd1d7179d762dad1c638362b6a71b8eb609abc92e65c235e"
        )

    def test_no_op_when_every_node_labelled(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g, _ = random_connected_instance(rng)
            obs = Observations(
                np.arange(1, g.node_count + 1), rng.uniform(-1, 1, g.node_count)
            )
            problem = Problem(g, obs, 0.7)
            y = rng.uniform(-1.0, 1.0, g.edge_count) * problem.capacities
            repaired, cg_iters = repair_dual(problem, y)
            assert cg_iters == 0
            assert np.array_equal(repaired, y)

    def test_scaling_keeps_conservation(self):
        # Chain labelled at its ends: the repaired flow is constant along
        # the path; scaling brings it down to the smallest capacity.
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 0.25), (3, 4, 1.0)])
        problem = Problem(g, Observations.from_dict({1: 1.0, 4: 0.0}), 1.0)
        repaired, _ = repair_dual(problem, np.array([3.0, 3.0, 3.0]))
        assert repaired.tolist() == [0.25, 0.25, 0.25]
        assert not divergence(g, repaired)[1:3].any()


class TestGapMode:
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 10.0),
        max_iters=st.integers(1, 400),
        gap_tol=st.sampled_from([1e-2, 1e-6, 1e-14]),
    )
    @settings(max_examples=120, deadline=None)
    def test_certified_gap_never_negative(self, seed, lam, max_iters, gap_tol):
        g, obs = random_connected_instance(np.random.default_rng(seed))
        cfg = SolverConfig(lam=lam, max_iters=max_iters, gap_tol=gap_tol)
        result = run(g, obs, cfg)
        report = result.gap
        assert report.certified
        assert report.gap >= -1e-12 * max(1.0, abs(report.primal))
        # The returned pair reproduces the report.
        again = duality_gap(Problem(g, obs, lam), result.x, result.y, cfg.feas_tol)
        assert again == report
        met = result.stop_reason in {"gap_tol", "certificate"}
        assert met == (report.gap <= gap_tol)

    def test_chain_certifies_1e6_within_1000_iterations(self, chain):
        g, obs, _ = chain
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=1000, gap_tol=1e-6))
        assert result.stop_reason == "certificate"
        assert result.iters <= 1000
        assert result.gap.certified
        assert result.gap.gap <= 1e-6
        assert np.max(np.abs(result.x - CHAIN_REF_PRIMAL)) <= 1e-3

    def test_budget_exhausted_reports_final_probe(self, chain):
        # At lambda 0.1 the chain's iterate is still too far from the
        # optimum at 50 and 70 steps for a certificate to verify.
        g, obs, _ = chain
        result = run(g, obs, SolverConfig(lam=0.1, max_iters=70, gap_tol=1e-12))
        assert result.iters == 70
        assert result.stop_reason == "max_iters"
        assert result.certificate is None
        assert result.gap.certified
        problem = Problem(g, obs, 0.1)
        assert duality_gap(problem, result.x, result.y) == result.gap

    def test_verified_finish_above_gap_tol_discarded(self, monkeypatch):
        # Every finish on this block model verifies, with a gap of about
        # 5.6e-17, which misses a gap_tol of 1e-300: each is dropped, and the
        # run ends on its budget without a certificate.
        g, _, _, obs = sbm_instance(
            sizes=(10, 10), p_in=0.5, p_out=0.05, samples_per_cluster=2,
            rng=np.random.default_rng(2),
        )
        finishes = []
        certificate_from_signal = tvflow.solver.certificate_from_signal

        def spy(*args):
            certificate, cg_iters = certificate_from_signal(*args)
            finishes.append(certificate)
            return certificate, cg_iters

        monkeypatch.setattr(tvflow.solver, "certificate_from_signal", spy)
        result = run(g, obs, SolverConfig(lam=0.2, max_iters=300, gap_tol=1e-300))
        assert finishes and all(f is not None for f in finishes)
        assert result.stop_reason == "max_iters"
        assert result.iters == 300
        assert result.certificate is None

    def test_fixed_mode_returns_average_and_raw_dual(self, chain):
        g, obs, _ = chain
        problem = Problem(g, obs, 1.0)
        state = init_state(problem)
        for _ in range(300):
            state = pd_step(state, problem)
        result = run(g, obs, SolverConfig(lam=1.0, max_iters=300))
        assert result.stop_reason == "max_iters"
        assert result.primal_iterate == "average"
        assert result.x is result.x_avg
        assert np.array_equal(result.x_avg, state.x_avg)
        assert np.array_equal(result.y, state.y)
        assert result.gap == duality_gap(problem, state.x_avg, state.y)
