"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from tvflow.graph import EmpiricalGraph, build_graph
from tvflow.signal import Observations, Partition


def edge_triples(g: EmpiricalGraph) -> list[tuple[int, int, float]]:
    """The graph's canonical edges as (head, tail, weight) tuples."""
    return list(zip(g.heads.tolist(), g.tails.tolist(), g.weights.tolist()))


def make_chain() -> tuple[EmpiricalGraph, Observations, Partition]:
    """The canonical two-cluster chain: 10 nodes, unit weights except the
    boundary edge {5, 6} at 1/4, labels 1 at node 2 and 0 at node 7; its
    reference solution is ``tvflow.instances.CHAIN_REF_*``."""
    edges = [(i, i + 1, 1.0) for i in range(1, 10)]
    edges[4] = (5, 6, 0.25)
    g = build_graph(10, edges)
    obs = Observations.from_dict({2: 1.0, 7: 0.0})
    partition = Partition(np.repeat([0, 1], 5))
    return g, obs, partition


@pytest.fixture
def chain() -> tuple[EmpiricalGraph, Observations, Partition]:
    return make_chain()


def random_connected_instance(
    rng: np.random.Generator, max_nodes: int = 8
) -> tuple[EmpiricalGraph, Observations]:
    """Random connected graph (tree plus extra edges), weights in [0.1, 2],
    at least one label, labels in [-1, 1]."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    for v in range(2, n + 1):
        parent = int(rng.integers(1, v))
        edges.add((parent, v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < 0.25:
                edges.add((i, j))
    triples = [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in sorted(edges)]
    g = build_graph(n, triples)
    m_size = int(rng.integers(1, n + 1))
    nodes = rng.choice(np.arange(1, n + 1), size=m_size, replace=False)
    labels = rng.uniform(-1.0, 1.0, size=m_size)
    return g, Observations(nodes, labels)


def random_tree_instance(
    rng: np.random.Generator, max_nodes: int = 10
) -> tuple[EmpiricalGraph, Observations, Partition]:
    """Random tree split into two connected clusters by one light boundary
    edge, with exactly one sampled node per cluster and piecewise-constant
    labels.  Boundary weight 0.1 against intra weight 1.0 keeps interior
    slack strict for every lambda, and the cluster coefficients are kept
    at least 2 apart so that lam * 0.1 stays below half the label gap for
    lam up to 5; in that regime the tree certificate verifies."""
    n = int(rng.integers(4, max_nodes + 1))
    parents = {v: int(rng.integers(1, v)) for v in range(2, n + 1)}
    boundary_child = int(rng.integers(2, n + 1))

    # Nodes in the subtree under the boundary edge form the second cluster.
    children: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for v, p in parents.items():
        children[p].append(v)
    second = set()
    stack = [boundary_child]
    while stack:
        u = stack.pop()
        second.add(u)
        stack.extend(children[u])
    first = set(range(1, n + 1)) - second

    triples = []
    for v, p in parents.items():
        weight = 0.1 if v == boundary_child else 1.0
        triples.append((p, v, weight))
    g = build_graph(n, triples)
    cluster_index = np.zeros(n, dtype=np.int64)
    cluster_index[[v - 1 for v in second]] = 1
    partition = Partition(cluster_index)
    c1 = float(rng.uniform(1.0, 2.0))
    c2 = float(rng.uniform(-2.0, -1.0))
    if rng.random() < 0.5:
        c1, c2 = c2, c1
    s1 = int(rng.choice(sorted(first)))
    s2 = int(rng.choice(sorted(second)))
    obs = Observations.from_dict({s1: c1, s2: c2})
    return g, obs, partition
