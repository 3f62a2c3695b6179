"""Primal-dual splitting solver for TV-regularized label recovery.

One iteration applies, in order: primal extrapolation, a dual ascent step
over edges, projection of the dual onto the capacity box |y_e| <= lam*W_e,
a primal descent step scaled by inverse node degrees, the proximal label
update on sampled nodes, and a running average of the primal iterates.
The running average is the sequence that converges to a minimizer.

The dual iterate is a flow on the edges; its feasibility (capacities plus
zero divergence at unsampled nodes) is what certifies a duality gap, so
gap reports carry the residuals and say whether they certify anything.
With a gap tolerance the solver probes the gap as it runs: each probe
first tries to finish exactly, by building a flow certificate from the
last iterate, and else repairs the dual iterate into an exactly feasible
point (a lower bound on the optimum) and takes the better of the running
average and the last iterate as the upper bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Any, Mapping

import numpy as np

from .flow import Certificate, certificate_from_signal
from .graph import (
    EmpiricalGraph,
    _divergence,
    _incidence,
    _node_list,
    components,
    divergence,
    grounded_laplacian_cg,
    incidence_apply,
)
from .signal import Observations, Problem, primal_objective

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "GapReport",
    "init_state",
    "pd_step",
    "run",
    "duality_gap",
    "repair_dual",
]

_CONFIG_KEYS = ("lambda", "max_iters", "gap_tol", "feas_tol")

# Gap probes fall on multiples of _PROBE_EVERY; after a probe the next one
# waits at least as many steps as the probe took CG iterations (a CG
# iteration costs about one step), so on graphs where the CG is slow the
# probes still take at most about half of the time.
_PROBE_EVERY = 50


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; ``gap_tol = 0`` means fixed-iteration mode."""

    lam: float
    max_iters: int = 1000
    gap_tol: float = 0.0
    feas_tol: float = Problem.DEFAULT_TOL

    def __post_init__(self) -> None:
        Problem.check_lambda(self.lam)
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, Integral) or iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {iters}")
        Problem.check_tol("gap_tol", self.gap_tol)
        Problem.check_tol("feas_tol", self.feas_tol)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SolverConfig":
        """Config from its JSON keys, whose values must be numbers."""
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "lambda" not in data:
            raise ValueError("config requires a 'lambda' entry")
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, Real):
                shown = json.dumps(value, default=repr)
                raise ValueError(f"config key '{key}' must be a number, got {shown}")
            try:
                kwargs["lam" if key == "lambda" else key] = (
                    value if key == "max_iters" else float(value)
                )
            except OverflowError:
                raise ValueError(f"config key '{key}' is beyond double range") from None
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, Any]:
        return {
            "lambda": self.lam,
            "max_iters": self.max_iters,
            "gap_tol": self.gap_tol,
            "feas_tol": self.feas_tol,
        }


@dataclass(frozen=True, eq=False)
class SolverState:
    """Iterates after k completed steps; the average x_avg is the output."""

    x_curr: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    x_avg: np.ndarray
    k: int


@dataclass(frozen=True)
class GapReport:
    """Primal-dual gap; ``gap`` is None when the dual point certifies nothing."""

    primal: float
    dual: float | None
    gap: float | None
    certified: bool
    capacity_excess: float
    conservation_residual: float


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Solver output.  ``x`` and ``y`` are the pair the gap report belongs
    to.  In fixed-iteration mode they are the running average ``x_avg``
    and the dual iterate.  In gap mode they are either the signal and the
    base flow of a verified flow certificate built from the last iterate
    (``certificate``; ``stop_reason`` and ``primal_iterate`` are then
    "certificate"), or the better of the running average and the last
    iterate (``primal_iterate`` says which) with the repaired dual.
    ``stop_reason`` is "gap_tol" when a repaired-dual probe met the
    tolerance and "max_iters" when the budget ran out first."""

    x_avg: np.ndarray
    y: np.ndarray
    iters: int
    gap: GapReport
    x: np.ndarray
    stop_reason: str
    primal_iterate: str
    certificate: Certificate | None = None


def init_state(problem: Problem) -> SolverState:
    """Zero-initialized state; rejects graphs with isolated nodes and
    components without a label, whose values no label would determine."""
    g = problem.graph
    g.check_no_isolated()
    comp = components(g)
    labeled = np.zeros(comp.max() + 1, dtype=bool)
    labeled[comp[problem.sampled]] = True
    if not labeled.all():
        nodes = _node_list(np.flatnonzero(comp == np.argmin(labeled)) + 1)
        raise ValueError(
            f"component with nodes {{{nodes}}} has no labeled node;"
            " the solver requires a label in every connected component"
        )
    n, m = g.node_count, g.edge_count
    return SolverState(
        x_curr=np.zeros(n),
        x_prev=np.zeros(n),
        y=np.zeros(m),
        x_avg=np.zeros(n),
        k=0,
    )


def pd_step(state: SolverState, problem: Problem) -> SolverState:
    """Run one full primal-dual iteration and return the new state."""
    g = problem.graph
    if state.x_curr.shape != (g.node_count,) or state.y.shape != (g.edge_count,):
        raise ValueError("state dimensions do not match the graph")
    gamma = problem.inv_degrees
    neg_cap, gamma_labels, gamma_plus_one = problem.step_constants

    x_tilde = 2.0 * state.x_curr - state.x_prev
    y = state.y + 0.5 * _incidence(g, x_tilde)
    # Exact box projection; same point as y / max(1, |y|/cap) but keeps
    # |y_e| <= cap_e bitwise.  The capacities are positive, so minimum then
    # maximum gives np.clip's bits, signed zeros included.
    np.minimum(y, problem.capacities, out=y)
    np.maximum(y, neg_cap, out=y)

    x = state.x_curr - gamma * _divergence(g, y)
    m = problem.sampled
    x[m] = (gamma_labels + x[m]) / gamma_plus_one

    k = state.k + 1
    x_avg = (1.0 - 1.0 / k) * state.x_avg + (1.0 / k) * x
    return SolverState(x_curr=x, x_prev=state.x_curr, y=y, x_avg=x_avg, k=k)


def run(g: EmpiricalGraph, obs: Observations, cfg: SolverConfig) -> SolverResult:
    """Iterate until max_iters or, when gap_tol > 0, until a gap probe
    certifies a gap of at most gap_tol.  Probes fall at multiples of 50
    steps and after the last step.  Each probe first builds a flow
    certificate from the last iterate
    (:func:`~tvflow.flow.certificate_from_signal`); when it verifies and
    its gap is at most gap_tol, the run stops with the certificate.
    Otherwise the probe pairs the repaired dual with the better of the
    running average and the last iterate.  Raises before the first step
    when in gap mode feas_tol, at which every finish verifies, breaks
    :meth:`~tvflow.signal.Problem.check_certificate_tol`, and at the end
    when the final objectives or gap are not finite."""
    problem = Problem(g, obs, cfg.lam)
    gap_mode = cfg.gap_tol > 0.0
    if gap_mode:
        problem.check_certificate_tol("feas_tol", cfg.feas_tol)
    state = init_state(problem)
    next_probe = _PROBE_EVERY
    certificate = None
    while True:
        state = pd_step(state, problem)
        done = state.k >= cfg.max_iters
        if gap_mode and (done or state.k == next_probe):
            certificate, finish_iters = certificate_from_signal(
                problem, state.x_curr, cfg.feas_tol
            )
            if certificate is not None:
                x, y = certificate.report.reconstructed, certificate.flow.base
                report = duality_gap(problem, x, y, cfg.feas_tol)
                if report.certified and report.gap <= cfg.gap_tol:
                    stop_reason = iterate = "certificate"
                    break
                certificate = None
            x, y, report, iterate, cg_iters = _probe(problem, state, cfg.feas_tol)
            met = report.certified and report.gap <= cfg.gap_tol
            if met or done:
                stop_reason = "gap_tol" if met else "max_iters"
                break
            steps = max(_PROBE_EVERY, finish_iters + cg_iters)
            next_probe += -(-steps // _PROBE_EVERY) * _PROBE_EVERY
        elif done:
            x, y, iterate, stop_reason = state.x_avg, state.y, "average", "max_iters"
            report = duality_gap(problem, x, y, cfg.feas_tol)
            break
    for name, value in (
        ("primal objective", report.primal),
        ("dual objective", report.dual),
        ("duality gap", report.gap),
    ):
        if value is not None and not np.isfinite(value):
            raise ValueError(
                f"{name} is {value}: labels, weights or lambda are too large"
                " for double precision"
            )
    return SolverResult(
        x_avg=state.x_avg,
        y=y,
        iters=state.k,
        gap=report,
        x=x,
        stop_reason=stop_reason,
        primal_iterate=iterate,
        certificate=certificate,
    )


def _probe(
    problem: Problem, state: SolverState, feas_tol: float
) -> tuple[np.ndarray, np.ndarray, GapReport, str, int]:
    """Gap of the better primal iterate against the repaired dual: returns
    the primal point, the dual point, their gap report, which iterate
    ("average" or "last") won and the repair's CG iteration count."""
    y, cg_iters = repair_dual(problem, state.y)
    report = duality_gap(problem, state.x_avg, y, feas_tol)
    last = primal_objective(problem, state.x_curr)
    if last < report.primal:
        gap = last - report.dual if report.certified else None
        report = replace(report, primal=last, gap=gap)
        return state.x_curr, y, report, "last", cg_iters
    return state.x_avg, y, report, "average", cg_iters


def repair_dual(problem: Problem, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Exactly feasible dual point near the edge flow y.

    First y moves by B u onto zero divergence at the unsampled nodes U,
    with u zero on the sampled nodes and L_UU u_U = -divergence(y)_U
    (L = B^T B, the unit-weight graph Laplacian; B is ``incidence_apply``):
    the orthogonal projection onto the conservation constraints, solved by
    :func:`~tvflow.graph.grounded_laplacian_cg` with the sampled nodes
    grounded.  Then the flow is scaled by min(1, min_e cap_e/|y_e|)
    into the capacity box, which keeps conservation, and clipped so that
    |y_e| <= cap_e holds bitwise.  Returns the repaired flow and the CG
    iteration count; a CG that stops at its iteration cap leaves a
    conservation residual that the gap report shows.  Needs what
    ``init_state`` checks: no isolated node and a label in every component.
    """
    g = problem.graph
    y = np.asarray(y, dtype=np.float64)
    free = problem.unsampled
    rhs = -divergence(g, y)[free]
    u = np.zeros(g.node_count)
    iters = 0
    if rhs.any():
        u[free], iters = grounded_laplacian_cg(g, free, rhs)
        y = y + incidence_apply(g, u)
    cap = problem.capacities
    ratio = float(np.max(np.abs(y) / cap, initial=0.0))
    if ratio > 1.0:
        y = y / ratio
    return np.clip(y, -cap, cap), iters


def duality_gap(
    problem: Problem,
    x: np.ndarray,
    y: np.ndarray,
    feas_tol: float = Problem.DEFAULT_TOL,
) -> GapReport:
    """Primal objective at x minus dual (flow) objective at y.

    y is feasible when every |y_e| stays within lam*W_e + feas_tol and the
    divergence at every unsampled node is feas_tol-close to zero.  The dual
    value sums v_i * label_i - v_i^2 / 2 over sampled nodes, with v the
    divergence; it and the gap are None for infeasible y, which certifies
    nothing (the residual fields say why).
    """
    primal = primal_objective(problem, x)
    v, capacity_excess, conservation = problem.dual_residuals(y)
    certified = capacity_excess <= feas_tol and conservation <= feas_tol
    dual = gap = None
    if certified:
        vm = v[problem.sampled]
        dual = float(np.sum(vm * problem.obs.labels - 0.5 * vm * vm))
        gap = primal - dual
    return GapReport(
        primal=primal,
        dual=dual,
        gap=gap,
        certified=certified,
        capacity_excess=capacity_excess,
        conservation_residual=conservation,
    )
