"""Graph signals, sparse observations, cluster partitions, the prepared
recovery problem and the primal objective pieces built from them.

A graph signal is a plain float array of length ``node_count``; position
i - 1 holds the value at node i.  Observed labels are stored sparsely as
a sorted node-id array plus an aligned label array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .graph import EmpiricalGraph, _incidence, divergence

__all__ = [
    "Observations",
    "Partition",
    "Problem",
    "tv",
    "piecewise_constant",
    "boundary_mask",
    "empirical_error",
    "primal_objective",
]

# Edges per block of a solver step's dual update: the block's temporaries,
# 128 KB each, stay in cache from one operation on them to the next.
_STEP_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class Observations:
    """Labels known on a sampling set: sorted node ids plus values."""

    nodes: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if nodes.ndim != 1 or labels.ndim != 1 or nodes.size != labels.size:
            raise ValueError("observations need aligned 1-d node and label arrays")
        if nodes.size == 0:
            raise ValueError("sampling set must be non-empty")
        # Each message names the first faulty entry in input order.
        if nodes.min() < 1:
            raise ValueError(f"node ids must be >= 1, got {nodes[nodes < 1][0]}")
        order = np.argsort(nodes, kind="stable")
        # The sort is stable, so of two equal ids the later repeats the earlier.
        repeats = order[1:][nodes[order[1:]] == nodes[order[:-1]]]
        if repeats.size:
            first = nodes[repeats.min()]
            raise ValueError(f"duplicate node id {first} in sampling set")
        bad = np.flatnonzero(~np.isfinite(labels))
        if bad.size:
            value, node = labels[bad[0]], nodes[bad[0]]
            raise ValueError(f"labels must be finite, got {value} at node {node}")
        nodes = nodes[order]
        labels = labels[order]
        nodes.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_dict(cls, mapping: Mapping[int, float]) -> "Observations":
        return cls(
            nodes=np.asarray(list(mapping.keys()), dtype=np.int64),
            labels=np.asarray(list(mapping.values()), dtype=np.float64),
        )

    @property
    def indices(self) -> np.ndarray:
        """0-based positions of the sampled nodes."""
        return self.nodes - 1


@dataclass(frozen=True, eq=False)
class Partition:
    """Clusters of nodes 1..node_count: ``cluster_index[i]`` is the 0-based
    cluster of node i + 1, and every cluster 0..cluster_count - 1 has a
    node.  Messages name a cluster by its 1-based position."""

    cluster_index: np.ndarray

    def __post_init__(self) -> None:
        ci = np.asarray(self.cluster_index)
        if ci.ndim != 1 or not ci.size or not np.issubdtype(ci.dtype, np.integer):
            raise ValueError("partition needs a non-empty 1-d integer array")
        ci = ci.astype(np.int64)  # a copy: the caller's writes cannot reach it
        low = int(ci.min())
        if low < 0:
            raise ValueError(f"cluster ids must be >= 0, got {low}")
        # n nodes fill at most n of the bins 0..n, the last one counting
        # every id >= n, so some id k <= n has no node; cluster k + 1 is
        # empty when a node has a larger id.
        n = ci.size
        present = np.bincount(np.minimum(ci, n), minlength=n + 1) > 0
        k = int(np.argmin(present))
        if present[k:].any():
            raise ValueError(f"cluster {k + 1} is empty")
        ci.setflags(write=False)
        object.__setattr__(self, "cluster_index", ci)

    @property
    def node_count(self) -> int:
        return int(self.cluster_index.size)

    @property
    def cluster_count(self) -> int:
        return int(self.cluster_index.max()) + 1

    def check_graph(self, g: EmpiricalGraph) -> None:
        """Raise unless the partition has one entry per node of ``g``."""
        if self.node_count != g.node_count:
            raise ValueError(
                f"partition covers {self.node_count} nodes, graph has {g.node_count}"
            )


@dataclass(frozen=True, eq=False)
class Problem:
    """The recovery problem: a graph, its observed labels and lambda.

    Seen from the flow side it is the extended graph: the base edges with
    capacities lambda * W_e plus one uncapacitated accumulator edge per
    sampled node.  Construction validates the three inputs together once
    and derives the read-only arrays every consumer shares: ``capacities``,
    ``sampled`` (0-based positions of the labeled nodes) and, on first use,
    the ``unsampled`` node mask, ``inv_degrees`` (the solver's node steps),
    ``step_constants`` (the other constants of a solver step) and
    ``step_blocks`` (the edge blocks of its dual update).
    """

    graph: EmpiricalGraph
    obs: Observations
    lam: float
    capacities: np.ndarray = field(init=False, repr=False)
    sampled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.check_lambda(self.lam)
        g, obs = self.graph, self.obs
        if obs.nodes[-1] > g.node_count:
            raise ValueError(
                f"sampled node {int(obs.nodes[-1])} exceeds node count {g.node_count}"
            )
        lam = float(self.lam)
        object.__setattr__(self, "lam", lam)
        for name, value in (("capacities", lam * g.weights), ("sampled", obs.indices)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @staticmethod
    def check_lambda(lam: float) -> None:
        """The one rule for lambda: positive and finite."""
        if not (lam > 0.0) or not np.isfinite(lam):
            raise ValueError(f"lambda must be positive and finite, got {lam}")

    # The default of every feasibility and certificate tolerance.
    DEFAULT_TOL = 1e-9

    @staticmethod
    def check_tol(name: str, tol: float) -> None:
        """The one rule for a tolerance: finite and non-negative."""
        if not (0.0 <= tol < np.inf):
            raise ValueError(f"{name} must be finite and non-negative, got {tol}")

    def check_certificate_tol(self, name: str, tol: float) -> None:
        """The one rule for a certificate's tolerance: ``check_tol``, and
        below half the smallest capacity lambda * min w, from where a flow of
        half an edge's capacity or less passes as saturated."""
        self.check_tol(name, tol)
        half = 0.5 * float(np.min(self.capacities, initial=np.inf))
        if tol >= half:
            raise ValueError(
                f"{name} must be below half the smallest capacity lambda * min w,"
                f" {half:g}, got {tol}"
            )

    @cached_property
    def unsampled(self) -> np.ndarray:
        """Mask of the unsampled nodes, by node position."""
        unsampled = np.ones(self.graph.node_count, dtype=bool)
        unsampled[self.sampled] = False
        unsampled.setflags(write=False)
        return unsampled

    @cached_property
    def inv_degrees(self) -> np.ndarray:
        """1/d_i per node position; defined when no node is isolated."""
        gamma = 1.0 / self.graph.degrees
        gamma.setflags(write=False)
        return gamma

    @cached_property
    def step_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only constants of a solver step besides ``capacities`` and
        ``inv_degrees``: -capacities, the lower end of the dual box, and at
        the sampled nodes gamma * labels and gamma + 1, with gamma the
        inverse degree there (the label update is
        x <- (gamma * label + x) / (gamma + 1)).  Defined when no node is
        isolated."""
        gamma = self.inv_degrees[self.sampled]
        constants = (-self.capacities, gamma * self.obs.labels, gamma + 1.0)
        for arr in constants:
            arr.setflags(write=False)
        return constants

    @cached_property
    def step_blocks(
        self,
    ) -> tuple[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """The edges of a solver step's dual update in consecutive blocks of
        ``_STEP_BLOCK``: per block its slice and views of the head and tail
        positions, the capacities and -capacities on it."""
        g, cap = self.graph, self.capacities
        neg_cap = self.step_constants[0]
        starts = range(0, g.edge_count, _STEP_BLOCK)
        return tuple(
            (edges, g._head_idx[edges], g._tail_idx[edges], cap[edges], neg_cap[edges])
            for edges in (slice(start, start + _STEP_BLOCK) for start in starts)
        )

    def dual_residuals(self, y: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Divergence of the edge flow y, its capacity excess (largest
        |y_e| - lambda * W_e, at least 0) and its conservation residual
        (largest |divergence| at an unsampled node, 0 when there is none).
        y is dual feasible when both residuals are zero."""
        g = self.graph
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (g.edge_count,):
            raise ValueError(f"flow has shape {y.shape}, expected ({g.edge_count},)")
        excess = 0.0
        if g.edge_count:
            excess = float(max(0.0, np.max(np.abs(y) - self.capacities)))
        v = divergence(g, y)
        free = v[self.unsampled]
        conservation = float(np.max(np.abs(free))) if free.size else 0.0
        return v, excess, conservation


def tv(g: EmpiricalGraph, x: np.ndarray) -> float:
    """Weighted total variation: sum over edges of W_e * |x_head - x_tail|."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.node_count,):
        raise ValueError(f"signal has shape {x.shape}, expected ({g.node_count},)")
    if g.edge_count == 0:
        return 0.0
    return float(np.sum(g.weights * np.abs(_incidence(g, x))))


def piecewise_constant(p: Partition, coeffs: Sequence[float]) -> np.ndarray:
    """Signal equal to coeffs[k] on every node of cluster k."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (p.cluster_count,):
        raise ValueError(
            f"expected {p.cluster_count} coefficients, got {coeffs.shape}"
        )
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    return coeffs[p.cluster_index]


def boundary_mask(g: EmpiricalGraph, p: Partition) -> np.ndarray:
    """Boolean edge mask, True where the endpoints lie in different clusters."""
    p.check_graph(g)
    ci = p.cluster_index
    return ci[g._head_idx] != ci[g._tail_idx]


def empirical_error(obs: Observations, x: np.ndarray) -> float:
    """Half the squared error against the observed labels."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < int(obs.nodes[-1]):
        raise ValueError(
            f"signal of length {x.size} cannot cover sampled node {int(obs.nodes[-1])}"
        )
    diff = x[obs.indices] - obs.labels
    return float(0.5 * np.dot(diff, diff))


def primal_objective(problem: Problem, x: np.ndarray) -> float:
    """Empirical error plus lambda times total variation.  Terms too large
    for double precision give inf without a numpy warning; callers that
    need a finite value check for it."""
    with np.errstate(over="ignore"):
        return empirical_error(problem.obs, x) + problem.lam * tv(problem.graph, x)
