"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
individual assertions carry the tolerances.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import (
    make_chain,
    random_connected_instance,
)
from tvflow import cli
from tvflow.flow import (
    construct_tree_certificate,
    dual_to_extended_flow,
    mincost_objective,
    reconstruct_primal,
    verify_certificate,
)
from tvflow.graph import (
    build_graph,
    divergence,
    incidence_apply,
    scaled_operator_norm,
)
from tvflow.instances import CHAIN_REF_DUAL, CHAIN_REF_PRIMAL, CHAIN_REF_OBJECTIVE
from tvflow.oracle import oracle_mincost_flow, oracle_nlasso, project_dual_feasible
from tvflow.signal import Observations, Problem, primal_objective
from tvflow.solver import (
    SolverConfig,
    dual_objective,
    duality_gap,
    init_state,
    pd_step,
    run,
)


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_1_dual_reproduction(chain):
    g, obs, _ = chain
    start = time.perf_counter()
    result = run(g, obs, SolverConfig(lam=1.0, max_iters=1000))
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(result.y - CHAIN_REF_DUAL)))
    assert result.iters == 1000
    assert deviation <= 0.02
    assert elapsed < 1.0
    _report(
        f"1 dual reproduction: PASS (max deviation {deviation:.2e},"
        f" {elapsed * 1e3:.0f} ms)"
    )


def test_criterion_2_primal_reproduction(chain):
    g, obs, _ = chain
    result = run(g, obs, SolverConfig(lam=1.0, max_iters=1000))
    deviation = float(np.max(np.abs(result.x_avg - CHAIN_REF_PRIMAL)))
    assert deviation <= 0.02
    oracle = oracle_nlasso(Problem(g, obs, 1.0))
    assert not oracle.flagged
    assert float(np.max(np.abs(oracle.x - CHAIN_REF_PRIMAL))) <= 1e-2
    _report(
        f"2 primal reproduction: PASS (solver deviation {deviation:.2e},"
        f" oracle confirms to 1e-2)"
    )


def test_criterion_3_strong_duality_at_certificate(chain):
    g, obs, partition = chain
    problem = Problem(g, obs, 1.0)
    certificate = construct_tree_certificate(g, partition, obs, 1.0)
    recon = reconstruct_primal(problem, certificate, partition)
    primal = primal_objective(problem, recon)
    dual = dual_objective(problem, certificate.base)
    cost = mincost_objective(problem, certificate)
    assert dual.feasible
    assert abs(primal - CHAIN_REF_OBJECTIVE) <= 1e-9
    assert abs(dual.value - CHAIN_REF_OBJECTIVE) <= 1e-9
    assert abs(primal - dual.value) <= 1e-9
    assert abs(cost + CHAIN_REF_OBJECTIVE) <= 1e-9
    _report(
        f"3 strong duality: PASS (primal {primal}, dual {dual.value},"
        f" flow cost {cost})"
    )


def test_criterion_4_certificate_round_trip(chain):
    g, obs, partition = chain
    certificate = construct_tree_certificate(g, partition, obs, 1.0)
    report = verify_certificate(Problem(g, obs, 1.0), certificate, partition, tol=1e-9)
    assert report.verdict
    assert np.array_equal(report.reconstructed, CHAIN_REF_PRIMAL)
    _report("4 certificate round trip: PASS (verified at 1e-9, exact signal)")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20250814)
    lams = [0.1, 1.0, 5.0]
    start = time.perf_counter()
    worst_solver = 0.0
    worst_duality = 0.0
    for trial in range(20):
        g, obs = random_connected_instance(rng)
        lam = lams[trial % 3]
        problem = Problem(g, obs, lam)
        nl = oracle_nlasso(problem, target_gap=3e-4)
        mc = oracle_mincost_flow(problem)
        result = run(g, obs, SolverConfig(lam=lam, max_iters=80_000))
        L_solver = primal_objective(problem, result.x_avg)
        assert not nl.flagged
        assert not mc.flagged
        worst_solver = max(worst_solver, abs(L_solver - nl.objective))
        worst_duality = max(worst_duality, abs(nl.objective + mc.objective))
    elapsed = time.perf_counter() - start
    assert worst_solver <= 1e-3
    assert worst_duality <= 2e-3
    assert elapsed < 120.0
    _report(
        f"5 oracle equivalence: PASS (worst |dL| {worst_solver:.2e}, worst"
        f" duality residual {worst_duality:.2e}, {elapsed:.1f} s)"
    )


def test_criterion_6_convergence_rate(chain):
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
    _report(
        "6 convergence rate: PASS (certified gaps "
        + ", ".join(f"k={k}: {gaps[k]:.2e}" for k in sorted(gaps))
        + ")"
    )


def test_criterion_7_invariant_suites():
    rng = np.random.default_rng(97)

    # Adjointness of the edge-difference and divergence operators.
    worst_adjoint = 0.0
    graphs = []
    for _ in range(20):
        g, obs = random_connected_instance(rng)
        graphs.append((g, obs))
        for _ in range(10):
            x = rng.standard_normal(g.node_count)
            y = rng.standard_normal(g.edge_count)
            lhs = float(incidence_apply(g, x) @ y)
            rhs = float(x @ divergence(g, y))
            scale = max(1.0, abs(lhs), abs(rhs))
            worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / scale)
    assert worst_adjoint <= 1e-12

    # Post-projection capacities hold exactly after every step.
    for g, obs in graphs[:10]:
        lam = float(rng.uniform(0.1, 2.0))
        problem = Problem(g, obs, lam)
        state = init_state(problem)
        state = type(state)(
            x_curr=rng.standard_normal(g.node_count) * 5,
            x_prev=rng.standard_normal(g.node_count) * 5,
            y=rng.standard_normal(g.edge_count) * 5,
            x_avg=np.zeros(g.node_count),
            k=0,
        )
        state = pd_step(state, problem)
        assert np.all(np.abs(state.y) <= lam * g.weights)

    # Weak duality on 1000 random feasible pairs (fully labeled graphs so
    # capacity-feasible vectors are dual feasible).
    checked = 0
    while checked < 1000:
        g, _ = random_connected_instance(rng)
        obs = Observations(
            np.arange(1, g.node_count + 1), rng.uniform(-1, 1, g.node_count)
        )
        lam = float(rng.uniform(0.1, 3.0))
        caps = lam * g.weights
        for _ in range(50):
            x = rng.uniform(-2, 2, g.node_count)
            y = rng.uniform(-caps, caps)
            report = duality_gap(Problem(g, obs, lam), x, y)
            assert report.certified and report.gap >= -1e-9
            checked += 1

    # Scaled operator norm below one on every generated test graph with
    # min degree >= 1 (a single-edge graph sits exactly at 1, so it gets
    # the documented 1e-9 slack).
    chain_g, chain_obs, _ = make_chain()
    for g, _ in graphs + [(chain_g, chain_obs)]:
        norm = scaled_operator_norm(g)
        if g.edge_count == 1:
            assert norm < 1.0 + 1e-9
        else:
            assert norm < 1.0

    # Star values of conserving flows sum to zero.
    for g, _ in graphs[:10]:
        obs = Observations(
            np.arange(1, g.node_count + 1), rng.uniform(-1, 1, g.node_count)
        )
        y = rng.uniform(-1, 1, g.edge_count)
        flow = dual_to_extended_flow(Problem(g, obs, 1.0), y)
        assert abs(float(flow.star.sum())) <= 1e-12

    _report(
        f"7 invariant suites: PASS (worst adjointness residual"
        f" {worst_adjoint:.2e}, 1000 weak-duality pairs, capacities exact)"
    )


def test_criterion_8_cli_determinism(tmp_path):
    def run_cli(args):
        try:
            return cli.main(args)
        except SystemExit as exc:
            return int(exc.code)

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["experiment-chain", "--out-dir", str(out)]) == 0
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "manifest.json"  # timestamped by design
            }
        )
    assert outputs[0].keys() == outputs[1].keys()
    assert outputs[0] == outputs[1]
    _report(
        f"8 CLI determinism: PASS ({len(outputs[0])} artifacts byte-identical)"
    )
