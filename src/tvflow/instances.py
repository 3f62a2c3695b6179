"""Instance generators and the canonical chain experiment's reference
values and checks.

Three generators build a graph, its ground-truth partition and
piecewise-constant signal, and the observed labels: a two-cluster chain, a
two-cluster lattice and a weighted stochastic block model.  The lattice and
the block model draw their random choices from the numpy ``Generator``
``rng``, so a seed always yields the same instance.  The CLI's
``generate`` flags and their defaults are read from these signatures.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .flow import CertificateReport, Flow
from .graph import EmpiricalGraph, build_graph
from .signal import Observations, Partition, Problem, piecewise_constant
from .solver import SolverResult, duality_gap

__all__ = [
    "CHAIN_REF_DUAL",
    "CHAIN_REF_PRIMAL",
    "CHAIN_REF_OBJECTIVE",
    "chain_instance",
    "grid_instance",
    "sbm_instance",
    "chain_checks",
]

# Reference values of the canonical chain experiment (10 nodes, unit weights
# except the boundary edge {5, 6} at 1/4, labels 1 at node 2 and 0 at node 7,
# lambda = 1, K = 1000): flow 1/4 through the five edges feeding the two
# sampled nodes, recovered signal 3/4 and 1/4 on the two clusters,
# objective 0.1875.
CHAIN_REF_DUAL = np.array([0.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0])
CHAIN_REF_PRIMAL = np.array([0.75] * 5 + [0.25] * 5)
CHAIN_REF_OBJECTIVE = 0.1875
_REPRODUCTION_TOL = 0.02
_GAP_THRESHOLD = 0.01

Instance = tuple[EmpiricalGraph, Partition, np.ndarray, Observations]


def _finish(
    n: int,
    heads: np.ndarray,
    tails: np.ndarray,
    weights: np.ndarray,
    partition: Partition,
    coeffs: Sequence[float],
    sampled: np.ndarray,
) -> Instance:
    g = build_graph(n, np.rec.fromarrays([heads, tails, weights], names="i,j,w"))
    signal = piecewise_constant(partition, coeffs)
    return g, partition, signal, Observations(sampled, signal[sampled - 1])


def _sample_per_cluster(
    partition: Partition, per_cluster: int, rng: np.random.Generator
) -> np.ndarray:
    # One draw per cluster, in cluster order: seeded instances depend on it.
    chosen = []
    for k in range(partition.cluster_count):
        members = np.flatnonzero(partition.cluster_index == k) + 1
        take = min(per_cluster, members.size)
        chosen.append(rng.choice(members, size=take, replace=False))
    return np.sort(np.concatenate(chosen))


def chain_instance(
    n: int = 10,
    split: int = 5,
    intra_weight: float = 1.0,
    boundary_weight: float = 0.25,
    samples: Sequence[int] = (2, 7),
    coeffs: Sequence[float] = (1.0, 0.0),
) -> Instance:
    """Path 1..n cut after node ``split`` by one edge of ``boundary_weight``;
    the defaults give the canonical chain."""
    if n < 2:
        raise ValueError(f"chain needs at least 2 nodes, got {n}")
    if not (1 <= split < n):
        raise ValueError(f"split must lie in 1..{n - 1}, got {split}")
    if not samples:
        raise ValueError("chain needs at least one sampled node")
    if any(not (1 <= s <= n) for s in samples):
        raise ValueError(f"sampled nodes must lie in 1..{n}, got {list(samples)}")
    heads = np.arange(1, n)
    weights = np.where(heads == split, boundary_weight, intra_weight)
    partition = Partition((np.arange(n) >= split).astype(np.int64))
    sampled = np.asarray(samples, dtype=np.int64)
    return _finish(n, heads, heads + 1, weights, partition, coeffs, sampled)


def grid_instance(
    rows: int = 4,
    cols: int = 6,
    split_col: int = 3,
    intra_weight: float = 1.0,
    boundary_weight: float = 0.25,
    samples_per_cluster: int = 2,
    coeffs: Sequence[float] = (1.0, 0.0),
    *,
    rng: np.random.Generator,
) -> Instance:
    """rows x cols lattice, node (r, c) numbered (r - 1) * cols + c, cut into
    columns 1..split_col and the rest by light horizontal edges."""
    if rows < 1 or cols < 2:
        raise ValueError("grid needs rows >= 1 and cols >= 2")
    if not (1 <= split_col < cols):
        raise ValueError(f"split-col must lie in 1..{cols - 1}, got {split_col}")
    node = np.arange(1, rows * cols + 1).reshape(rows, cols)
    right_w = np.where(np.arange(1, cols) == split_col, boundary_weight, intra_weight)
    heads = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    tails = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    weights = np.concatenate(
        [np.tile(right_w, rows), np.full((rows - 1) * cols, intra_weight)]
    )
    n = rows * cols
    partition = Partition(np.tile(np.arange(cols) >= split_col, rows).astype(np.int64))
    sampled = _sample_per_cluster(partition, samples_per_cluster, rng)
    return _finish(n, heads, tails, weights, partition, coeffs, sampled)


def sbm_instance(
    sizes: Sequence[int] = (5, 5),
    p_in: float = 0.7,
    p_out: float = 0.1,
    intra_weight: float = 1.0,
    inter_weight: float = 0.25,
    samples_per_cluster: int = 1,
    coeffs: Sequence[float] = (1.0, 0.0),
    *,
    rng: np.random.Generator,
) -> Instance:
    """Stochastic block model over consecutive blocks of nodes.

    Each pair i < j, taken in lexicographic order, is an edge with
    probability p_in inside a block and p_out across blocks.  The draws are
    made one row i at a time, which yields the same doubles (and generator
    state) as one draw per pair while keeping memory linear in n.
    """
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {list(sizes)}")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    partition = Partition(block)
    heads, tails = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    weights = [np.empty(0)]
    for i in range(n - 1):
        same = block[i + 1 :] == block[i]
        keep = np.flatnonzero(rng.random(n - 1 - i) < np.where(same, p_in, p_out))
        heads.append(np.full(keep.size, i + 1))
        tails.append(keep + i + 2)
        weights.append(np.where(same[keep], intra_weight, inter_weight))
    sampled = _sample_per_cluster(partition, samples_per_cluster, rng)
    heads, tails, weights = map(np.concatenate, (heads, tails, weights))
    return _finish(n, heads, tails, weights, partition, coeffs, sampled)


def chain_checks(
    problem: Problem,
    result: SolverResult,
    certificate: Flow,
    cert_report: CertificateReport,
) -> list[dict[str, Any]]:
    """Threshold checks of a chain experiment run, one dict per check with
    ``name``, ``passed`` and ``detail``.

    The solver's returned pair (``result.x``, ``result.y``) is compared to
    the reference values, the certificate must verify, and at the
    certificate primal and dual must agree to 1e-9 (also with the
    reference objective when lambda is 1).
    """
    checks: list[dict[str, Any]] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    for name, got, want in (
        ("dual_matches_reference", result.y, CHAIN_REF_DUAL),
        ("primal_matches_reference", result.x, CHAIN_REF_PRIMAL),
    ):
        deviation = float(np.max(np.abs(got - want)))
        check(
            name,
            deviation <= _REPRODUCTION_TOL,
            f"max deviation {deviation:.3e} (tol {_REPRODUCTION_TOL})",
        )
    reason = cert_report.failure_reason
    check(
        "certificate_verified",
        cert_report.verdict,
        f"status {cert_report.status}" + (f": {reason}" if reason else ""),
    )
    if cert_report.reconstructed is not None:
        at_cert = duality_gap(problem, cert_report.reconstructed, certificate.base)
        recon_L = at_cert.primal
        dual_value = at_cert.dual if at_cert.dual is not None else float("nan")
        check(
            "strong_duality_at_certificate",
            abs(recon_L - dual_value) <= 1e-9,
            f"primal {recon_L:.12g}, dual {dual_value:.12g}",
        )
        if problem.lam == 1.0:
            check(
                "reference_objective",
                abs(recon_L - CHAIN_REF_OBJECTIVE) <= 1e-9,
                f"objective {recon_L:.12g} vs {CHAIN_REF_OBJECTIVE}",
            )
    else:
        check("strong_duality_at_certificate", False, "no reconstruction available")
    gap = result.gap
    gap_ok = gap.certified and gap.gap is not None and gap.gap <= _GAP_THRESHOLD
    gap_text = (
        f"{gap.gap:.3e}" if gap.gap is not None
        else f"not certified (conservation residual {gap.conservation_residual:.3e})"
    )
    check("gap_below_threshold", gap_ok, f"gap {gap_text} (threshold {_GAP_THRESHOLD})")
    return checks
