"""Desk-scale reference solvers, independent of the main iteration.

These exist to cross-check the primal-dual solver and the duality claims
on small instances, so they deliberately share none of its update logic:
the primal side runs projected subgradient descent with decreasing steps
and iterate averaging, the dual side runs projected gradient on the flow
polytope.  ``scaled_operator_norm`` checks the bound the solver's step
sizes rely on.  Dense matrices are fine here; nothing in this module is
meant to scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import Flow
from .graph import EmpiricalGraph, divergence, incidence_apply
from .signal import Problem, primal_objective

__all__ = [
    "OracleResult",
    "FlowOracleResult",
    "oracle_nlasso",
    "oracle_mincost_flow",
    "project_dual_feasible",
    "scaled_operator_norm",
]

# Iteration budgets: Dykstra rounds per projection, projected-gradient steps
# of the flow oracle and subgradient steps of the nLasso oracle.
_DYKSTRA_ITERS = 20_000
_FLOW_BUDGET = 50_000
_NLASSO_BUDGET = 1_000_000
# Power iteration stops when the estimate moves by at most _POWER_RTOL
# relative to itself, and fails after _POWER_MAX_ITERS iterations.
_POWER_RTOL = 1e-8
_POWER_MAX_ITERS = 50_000


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Reference primal solution with its certified sub-optimality."""

    x: np.ndarray
    objective: float
    method: str
    iterations: int
    certified_gap: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class FlowOracleResult:
    """Reference optimal flow with the objective it converged to: its cost
    sum of v_i * (v_i / 2 - label_i) over the sampled nodes, v the
    divergence, which is minus its dual value."""

    flow: Flow
    objective: float
    method: str
    iterations: int
    flagged: bool


def _dual_subspace_projector(problem: Problem) -> np.ndarray:
    """Orthogonal projector onto {y : divergence(y) = 0 at unsampled nodes}."""
    g = problem.graph
    rows = np.flatnonzero(problem.unsampled)
    m = g.edge_count
    if rows.size == 0:
        return np.eye(m)
    a = np.zeros((rows.size, m))
    for r, node in enumerate(rows):
        a[r, g._head_idx == node] = 1.0
        a[r, g._tail_idx == node] = -1.0
    return np.eye(m) - np.linalg.pinv(a) @ a


def project_dual_feasible(
    problem: Problem,
    y: np.ndarray,
    tol: float = 1e-12,
    _projector: np.ndarray | None = None,
) -> np.ndarray:
    """Project y onto the dual-feasible set (capacity box intersected with
    zero divergence at unsampled nodes), by Dykstra's alternating scheme.

    The returned point lies exactly in the divergence subspace and within
    ``tol`` of the box, unless ``_DYKSTRA_ITERS`` rounds do not get it there.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        return y.copy()
    caps = problem.capacities
    proj = _dual_subspace_projector(problem) if _projector is None else _projector
    x = proj @ y
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(_DYKSTRA_ITERS):
        z = np.clip(x + p, -caps, caps)
        p = x + p - z
        w = proj @ (z + q)
        q = z + q - w
        x = w
        if np.max(np.abs(w - z)) <= tol:
            return x
    return x


def oracle_mincost_flow(problem: Problem) -> FlowOracleResult:
    """Solve the flow problem by projected gradient over base edges.

    Star values are eliminated through conservation (each becomes the base
    flow's divergence at its node), leaving a smooth quadratic in the base
    edge values over the capacity box intersected with the zero-divergence
    subspace of the unsampled nodes.  Steps use the inverse of the exact
    curvature bound; each step re-projects with Dykstra.  Flagged when the
    objective has not settled within ``_FLOW_BUDGET`` iterations.
    """
    g, obs = problem.graph, problem.obs
    m_idx = problem.sampled

    proj = _dual_subspace_projector(problem)

    # Exact Lipschitz constant of the gradient: top eigenvalue of the
    # sampled-node Gram matrix of the incidence operator.
    sel = np.zeros(g.node_count)
    sel[m_idx] = 1.0
    hess = np.zeros((g.edge_count, g.edge_count))
    for e in range(g.edge_count):
        unit = np.zeros(g.edge_count)
        unit[e] = 1.0
        hess[:, e] = incidence_apply(g, sel * divergence(g, unit))
    lip = float(np.max(np.linalg.eigvalsh((hess + hess.T) / 2.0))) if g.edge_count else 0.0
    step = 1.0 / max(lip, 1e-12)

    def objective(y: np.ndarray) -> float:
        vm = divergence(g, y)[m_idx]
        return float(np.sum(vm * (0.5 * vm - obs.labels)))

    y = np.zeros(g.edge_count)
    prev_obj = objective(y)
    converged = False
    used = 0
    for it in range(1, _FLOW_BUDGET + 1):
        used = it
        v = divergence(g, y)
        u = np.zeros(g.node_count)
        u[m_idx] = v[m_idx] - obs.labels
        grad = incidence_apply(g, u)
        y = project_dual_feasible(problem, y - step * grad, tol=1e-13, _projector=proj)
        if it % 50 == 0:
            obj = objective(y)
            if abs(obj - prev_obj) <= 1e-13 * max(1.0, abs(obj)):
                converged = True
                break
            prev_obj = obj

    flow = Flow(base=y, star_nodes=obs.nodes.copy(), star=divergence(g, y)[m_idx])
    return FlowOracleResult(
        flow=flow,
        objective=objective(y),
        method="projected-gradient",
        iterations=used,
        flagged=not converged,
    )


def _subgradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    g, obs = problem.graph, problem.obs
    diff = incidence_apply(g, x)
    edge_part = problem.lam * g.weights * np.sign(diff)  # 0 at kinks
    sg = np.bincount(
        g._head_idx, weights=edge_part, minlength=g.node_count
    ).astype(np.float64, copy=False)
    sg -= np.bincount(g._tail_idx, weights=edge_part, minlength=g.node_count)
    sg[obs.indices] += x[obs.indices] - obs.labels
    return sg


def oracle_nlasso(
    problem: Problem, target_gap: float = 5e-4
) -> OracleResult:
    """Minimize the recovery objective by projected subgradient descent.

    Iterates are clipped to the label range (which contains a minimizer),
    steps decrease as c / sqrt(t) within a phase, and the running average
    of the iterates is the candidate solution.  Between phases the step
    scale shrinks and the phase grows, warm-starting from the best point so
    far; the starting point is the better of the constant label mean and
    the mean with observed labels imputed.  Certified against the lower
    bound supplied by :func:`oracle_mincost_flow`; stops early once the
    certified gap falls below ``target_gap`` and is flagged when the gap is
    still above 1e-3 after ``_NLASSO_BUDGET`` steps.
    """
    g, obs = problem.graph, problem.obs
    mc = oracle_mincost_flow(problem)
    dual_bound = -mc.objective

    lo = float(np.min(obs.labels))
    hi = float(np.max(obs.labels))
    n = g.node_count

    mean = float(np.mean(obs.labels))
    imputed = np.full(n, mean)
    imputed[obs.indices] = obs.labels
    best_x = None
    best_obj = np.inf
    for start in (np.full(n, mean), imputed):
        obj = primal_objective(problem, start)
        if obj < best_obj:
            best_obj = obj
            best_x = start.copy()

    g0 = _subgradient(problem, best_x)
    scale = max(hi - lo, 1.0) * np.sqrt(n)
    c = scale / max(float(np.linalg.norm(g0)), 1e-12)

    phase_len = 2000.0
    used = 0
    while used < _NLASSO_BUDGET and best_obj - dual_bound > target_gap:
        steps = min(int(phase_len), _NLASSO_BUDGET - used)
        avg = np.zeros(n)
        xp = best_x.copy()
        for t in range(1, steps + 1):
            sg = _subgradient(problem, xp)
            xp = np.clip(xp - (c / np.sqrt(t)) * sg, lo, hi)
            avg += (xp - avg) / t
        used += steps
        for candidate in (avg, xp):
            obj = primal_objective(problem, candidate)
            if obj < best_obj:
                best_obj = obj
                best_x = candidate.copy()
        c *= 0.5
        phase_len = min(phase_len * 1.5, 32000.0)
        if c < 1e-14:
            break

    gap = best_obj - dual_bound
    return OracleResult(
        x=best_x,
        objective=best_obj,
        method="projected-subgradient",
        iterations=used,
        certified_gap=gap,
        flagged=gap > 1e-3,
    )


def scaled_operator_norm(g: EmpiricalGraph) -> float:
    """Spectral norm of the degree-scaled adjoint difference operator.

    This is the quantity the solver's step sizes are chosen to control:
    with node steps 1/d_i and edge steps 1/2 it never exceeds 1 (it equals
    1 exactly on bipartite graphs).  Computed matrix-free by power
    iteration on the PSD composition, to relative tolerance 1e-8 within
    50,000 iterations.  The Rayleigh-quotient estimate approaches the true
    value from below.
    """
    if g.node_count == 0:
        return 0.0
    g.check_no_isolated()
    inv_deg = 1.0 / g.degrees

    def apply_sym(u: np.ndarray) -> np.ndarray:
        # 0.5 * B diag(1/d) B^T u, the square of the scaled operator
        return 0.5 * incidence_apply(g, inv_deg * divergence(g, u))

    rng = np.random.default_rng(1905)
    v = rng.standard_normal(g.edge_count)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = apply_sym(v)
        new_estimate = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(new_estimate - estimate) <= _POWER_RTOL * max(abs(new_estimate), 1e-30):
            return float(np.sqrt(max(new_estimate, 0.0)))
        estimate = new_estimate
    raise RuntimeError(
        f"power iteration did not converge within {_POWER_MAX_ITERS} iterations"
    )
