"""Primal-dual splitting solver for TV-regularized label recovery.

One iteration applies, in order: primal extrapolation, a dual ascent step
over edges, projection of the dual onto the capacity box |y_e| <= lam*W_e,
a primal descent step scaled by inverse node degrees, the proximal label
update on sampled nodes, and a running average of the primal iterates.
The running average is the sequence that converges to a minimizer.

The dual iterate is a flow on the edges; its feasibility (capacities plus
zero divergence at unsampled nodes) is what certifies a duality gap, so
gap reports carry the residuals and say whether they certify anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .graph import EmpiricalGraph, components, divergence, incidence_apply
from .signal import Observations, primal_objective

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "DualReport",
    "GapReport",
    "init_state",
    "pd_step",
    "run",
    "dual_objective",
    "duality_gap",
]

_CONFIG_KEYS = ("lambda", "max_iters", "gap_tol", "feas_tol")


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; ``gap_tol = 0`` means fixed-iteration mode."""

    lam: float
    max_iters: int = 1000
    gap_tol: float = 0.0
    feas_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.lam > 0.0) or not np.isfinite(self.lam):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.gap_tol < 0.0 or self.feas_tol < 0.0:
            raise ValueError("tolerances must be non-negative")

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SolverConfig":
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "lambda" not in data:
            raise ValueError("config requires a 'lambda' entry")
        kwargs: dict[str, Any] = {"lam": float(data["lambda"])}
        if "max_iters" in data:
            kwargs["max_iters"] = int(data["max_iters"])
        if "gap_tol" in data:
            kwargs["gap_tol"] = float(data["gap_tol"])
        if "feas_tol" in data:
            kwargs["feas_tol"] = float(data["feas_tol"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return cls.from_mapping(data)

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
class DualReport:
    """Dual objective value when feasible, with feasibility residuals."""

    value: float | None
    feasible: bool
    capacity_excess: float
    conservation_residual: float


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
    x_avg: np.ndarray
    y: np.ndarray
    iters: int
    gap: GapReport


def init_state(g: EmpiricalGraph, obs: Observations) -> SolverState:
    """Zero-initialized state; rejects graphs with isolated nodes and
    components without a label, whose values no label would determine."""
    obs.validate_for(g)
    if g.min_degree() == 0:
        isolated = [i + 1 for i in np.flatnonzero(g.degrees == 0)]
        raise ValueError(
            f"solver requires min degree >= 1; isolated nodes {isolated}"
        )
    comp = components(g)
    labeled = np.zeros(comp.max() + 1, dtype=bool)
    labeled[comp[obs.indices]] = True
    if not labeled.all():
        nodes = (np.flatnonzero(comp == np.argmin(labeled)) + 1).tolist()
        shown = str(nodes[:5])[1:-1] + (", ..." if len(nodes) > 5 else "")
        raise ValueError(
            f"component with nodes {{{shown}}} has no labeled node;"
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


def pd_step(
    state: SolverState, g: EmpiricalGraph, obs: Observations, cfg: SolverConfig
) -> SolverState:
    """Run one full primal-dual iteration and return the new state."""
    if state.x_curr.shape != (g.node_count,) or state.y.shape != (g.edge_count,):
        raise ValueError("state dimensions do not match the graph")
    gamma = 1.0 / g.degrees

    x_tilde = 2.0 * state.x_curr - state.x_prev
    y = state.y + 0.5 * incidence_apply(g, x_tilde)
    cap = cfg.lam * g.weights
    # Exact box projection; same point as y / max(1, |y|/cap) but keeps
    # |y_e| <= cap_e bitwise.
    y = np.clip(y, -cap, cap)

    x = state.x_curr - gamma * divergence(g, y)
    m = obs.indices
    x[m] = (gamma[m] * obs.labels + x[m]) / (gamma[m] + 1.0)

    k = state.k + 1
    x_avg = (1.0 - 1.0 / k) * state.x_avg + (1.0 / k) * x
    return SolverState(x_curr=x, x_prev=state.x_curr, y=y, x_avg=x_avg, k=k)


def run(g: EmpiricalGraph, obs: Observations, cfg: SolverConfig) -> SolverResult:
    """Iterate until max_iters, or until the certified gap drops below
    gap_tol (checked every 50 iterations when gap_tol > 0).  Raises when
    the final objectives or gap are not finite."""
    state = init_state(g, obs)
    report: GapReport | None = None
    while state.k < cfg.max_iters:
        state = pd_step(state, g, obs, cfg)
        if cfg.gap_tol > 0.0 and state.k % 50 == 0:
            probe = duality_gap(g, obs, state.x_avg, state.y, cfg.lam, cfg.feas_tol)
            if probe.certified and probe.gap <= cfg.gap_tol:
                report = probe
                break
    if report is None:
        report = duality_gap(g, obs, state.x_avg, state.y, cfg.lam, cfg.feas_tol)
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
    return SolverResult(x_avg=state.x_avg, y=state.y, iters=state.k, gap=report)


def dual_objective(
    g: EmpiricalGraph,
    obs: Observations,
    y: np.ndarray,
    lam: float,
    feas_tol: float = 1e-9,
) -> DualReport:
    """Evaluate the dual (flow) objective at y.

    y is feasible when every |y_e| stays within lam*W_e + feas_tol and the
    divergence at every unsampled node is feas_tol-close to zero.  The value
    sums v_i * label_i - v_i^2 / 2 over sampled nodes, with v the divergence;
    it is None for infeasible y (the residual fields say why).
    """
    if not (lam > 0.0):
        raise ValueError(f"lambda must be positive, got {lam}")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.edge_count,):
        raise ValueError(f"flow has shape {y.shape}, expected ({g.edge_count},)")
    obs.validate_for(g)

    if g.edge_count:
        capacity_excess = float(max(0.0, np.max(np.abs(y) - lam * g.weights)))
    else:
        capacity_excess = 0.0
    v = divergence(g, y)
    mask = obs.unsampled_mask(g.node_count)
    conservation = float(np.max(np.abs(v[mask]))) if mask.any() else 0.0

    feasible = capacity_excess <= feas_tol and conservation <= feas_tol
    value = None
    if feasible:
        vm = v[obs.indices]
        value = float(np.sum(vm * obs.labels - 0.5 * vm * vm))
    return DualReport(
        value=value,
        feasible=feasible,
        capacity_excess=capacity_excess,
        conservation_residual=conservation,
    )


def duality_gap(
    g: EmpiricalGraph,
    obs: Observations,
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    feas_tol: float = 1e-9,
) -> GapReport:
    """Primal objective minus dual objective, certified only for feasible y."""
    primal = primal_objective(g, obs, x, lam)
    dual = dual_objective(g, obs, y, lam, feas_tol)
    gap = primal - dual.value if dual.feasible else None
    return GapReport(
        primal=primal,
        dual=dual.value,
        gap=gap,
        certified=dual.feasible,
        capacity_excess=dual.capacity_excess,
        conservation_residual=dual.conservation_residual,
    )
