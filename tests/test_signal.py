from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from tvflow.graph import build_graph, incidence_apply
from tvflow.signal import (
    Observations,
    Partition,
    Problem,
    boundary_mask,
    empirical_error,
    piecewise_constant,
    primal_objective,
    tv,
)

CHAIN_XHAT = np.array([0.75] * 5 + [0.25] * 5)


class TestObservations:
    def test_sorted_and_aligned(self):
        obs = Observations(np.array([7, 2]), np.array([0.0, 1.0]))
        assert obs.nodes.tolist() == [2, 7]
        assert obs.labels.tolist() == [1.0, 0.0]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Observations(np.array([2, 2]), np.array([1.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Observations(np.array([], dtype=np.int64), np.array([]))

    def test_nonfinite_label_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Observations(np.array([1]), np.array([np.nan]))

    def test_validate_for_range(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        Problem(g, Observations.from_dict({3: 1.0}), 1.0)
        with pytest.raises(ValueError):
            Problem(g, Observations.from_dict({4: 1.0}), 1.0)


class TestProblem:
    def test_chain_sampling_set(self):
        g, obs, _ = make_chain()
        problem = Problem(g, obs, 1.0)
        assert problem.graph is g and problem.obs is obs
        assert problem.sampled.tolist() == [1, 6]
        assert np.flatnonzero(~problem.unsampled).tolist() == [1, 6]
        assert np.array_equal(problem.capacities, g.weights)

    def test_all_nodes(self):
        g, _, _ = make_chain()
        problem = Problem(g, Observations(np.arange(1, 11), np.zeros(10)), 2.0)
        assert problem.sampled.size == 10
        assert not problem.unsampled.any()
        assert np.array_equal(problem.capacities, 2.0 * g.weights)

    def test_empty_rejected(self):
        # Observations refuse an empty sampling set before a Problem exists.
        g, _, _ = make_chain()
        with pytest.raises(ValueError, match="non-empty"):
            Problem(g, Observations(np.array([], dtype=np.int64), np.array([])), 1.0)

    def test_out_of_range_rejected(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError, match="sampled node 11 exceeds node count 10"):
            Problem(g, Observations.from_dict({11: 0.0}), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_lambda_must_be_positive_and_finite(self, lam):
        g, obs, _ = make_chain()
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            Problem(g, obs, lam)

    def test_derived_arrays(self):
        g = build_graph(3, [(1, 2, 0.5), (2, 3, 1.0)])
        problem = Problem(g, Observations.from_dict({2: 1.0}), 3)
        assert problem.lam == 3.0 and isinstance(problem.lam, float)
        assert problem.inv_degrees.tolist() == [1.0, 0.5, 1.0]
        for arr in (problem.capacities, problem.sampled, problem.unsampled,
                    problem.inv_degrees):
            assert not arr.flags.writeable


class TestPartition:
    def test_valid(self):
        ids = np.array([0, 0, 1])
        p = Partition(ids)
        ids[0] = 1
        assert (p.node_count, p.cluster_count) == (3, 2)
        assert p.cluster_index.tolist() == [0, 0, 1]
        assert not p.cluster_index.flags.writeable

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="cluster 2 is empty"):
            Partition(np.array([0, 2, 2]))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="cluster 1 is empty"):
            Partition(np.array([1, 1, 1]))

    @pytest.mark.parametrize("cluster_index, message", [
        ([], "non-empty 1-d integer"),
        ([[0, 1]], "non-empty 1-d integer"),
        ([0.0, 1.0], "non-empty 1-d integer"),
        ([0, -1], "must be >= 0"),
    ])
    def test_malformed_array_rejected(self, cluster_index, message):
        with pytest.raises(ValueError, match=message):
            Partition(np.array(cluster_index))


class TestTv:
    def test_unit_chain_step(self):
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        assert tv(g, np.array([1.0, 1.0, 0.0, 0.0])) == 1.0

    def test_constant_signal(self):
        g, _, _ = make_chain()
        assert tv(g, np.full(10, 2.5)) == 0.0

    def test_chain_recovered_signal(self):
        g, _, _ = make_chain()
        assert tv(g, CHAIN_XHAT) == 0.125

    def test_dimension_mismatch(self):
        g, _, _ = make_chain()
        with pytest.raises(ValueError):
            tv(g, np.zeros(9))

    def test_matches_incidence_route(self):
        # Same number through the operator route, as an independent check.
        rng = np.random.default_rng(7)
        g, _, _ = make_chain()
        for _ in range(25):
            x = rng.standard_normal(10) * 5
            direct = tv(g, x)
            via_op = float(np.sum(g.weights * np.abs(incidence_apply(g, x))))
            assert direct == pytest.approx(via_op, rel=1e-12, abs=1e-12)

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_seminorm_scaling_and_shift(self, alpha, shift):
        rng = np.random.default_rng(11)
        g, _, _ = make_chain()
        x = rng.standard_normal(10)
        base = tv(g, x)
        assert tv(g, alpha * x) == pytest.approx(abs(alpha) * base, rel=1e-10, abs=1e-10)
        assert tv(g, x + shift) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        g, _, _ = make_chain()
        for _ in range(50):
            x = rng.standard_normal(10)
            z = rng.standard_normal(10)
            assert tv(g, x + z) <= tv(g, x) + tv(g, z) + 1e-10


class TestPiecewiseConstant:
    def test_chain_model(self, chain):
        _, _, partition = chain
        x = piecewise_constant(partition, [1.0, 0.0])
        assert x.tolist() == [1.0] * 5 + [0.0] * 5

    def test_single_cluster(self):
        p = Partition([0, 0, 0])
        assert piecewise_constant(p, [5.0]).tolist() == [5.0, 5.0, 5.0]

    def test_coefficient_count_mismatch(self, chain):
        _, _, partition = chain
        with pytest.raises(ValueError, match="coefficients"):
            piecewise_constant(partition, [1.0])

    def test_tv_of_model_sums_boundary_jumps(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            triples = [
                (i, j, float(rng.uniform(0.1, 2)))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.6
            ]
            if not triples:
                continue
            g = build_graph(n, triples)
            k = int(rng.integers(1, n + 1))
            assignment = rng.integers(0, k, size=n)
            assignment[: k] = np.arange(k)  # keep every cluster non-empty
            p = Partition(assignment)
            coeffs = rng.uniform(-3, 3, size=k)
            x = piecewise_constant(p, coeffs)
            expected = 0.0
            for h, t, w in g.edges():
                ch = assignment[h - 1]
                ct = assignment[t - 1]
                if ch != ct:
                    expected += w * abs(coeffs[ch] - coeffs[ct])
            assert tv(g, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def boundary_pairs(g, p):
    mask = boundary_mask(g, p)
    return set(zip(g.heads[mask].tolist(), g.tails[mask].tolist()))


class TestBoundaryEdges:
    def test_chain_boundary(self, chain):
        g, _, partition = chain
        assert boundary_pairs(g, partition) == {(5, 6)}

    def test_single_cluster_empty(self):
        g, _, _ = make_chain()
        p = Partition(np.zeros(10, dtype=int))
        assert boundary_pairs(g, p) == set()

    def test_singletons_all_edges(self):
        g, _, _ = make_chain()
        p = Partition(np.arange(10))
        assert boundary_pairs(g, p) == set(zip(g.heads.tolist(), g.tails.tolist()))


class TestEmpiricalError:
    def test_exact_fit(self, chain):
        _, obs, _ = chain
        x = np.zeros(10)
        x[1] = 1.0
        x[6] = 0.0
        assert empirical_error(obs, x) == 0.0

    def test_chain_recovered_signal(self, chain):
        _, obs, _ = chain
        assert empirical_error(obs, CHAIN_XHAT) == 0.0625

    def test_single_label(self):
        obs = Observations.from_dict({1: 2.0})
        assert empirical_error(obs, np.zeros(3)) == 2.0

    def test_short_signal_rejected(self, chain):
        _, obs, _ = chain
        with pytest.raises(ValueError):
            empirical_error(obs, np.zeros(5))


class TestPrimalObjective:
    def test_chain_recovered_value(self, chain):
        g, obs, _ = chain
        assert primal_objective(Problem(g, obs, 1.0), CHAIN_XHAT) == 0.1875

    def test_constant_exact_fit_is_zero(self):
        g = build_graph(2, [(1, 2, 1.0)])
        obs = Observations.from_dict({1: 3.0})
        assert primal_objective(Problem(g, obs, 1.0), np.array([3.0, 3.0])) == 0.0

    def test_lambda_zero_rejected(self, chain):
        g, obs, _ = chain
        with pytest.raises(ValueError, match="positive"):
            primal_objective(Problem(g, obs, 0.0), CHAIN_XHAT)
