"""Recovery of clustered graph signals from few labels, by balancing the
squared label error against the signal's weighted total variation, plus
the network-flow machinery that certifies a recovered signal as optimal.

The solver is a degree-scaled primal-dual splitting iteration whose dual
iterate is a flow on the graph's edges; a flow that conserves mass on the
extended graph, saturates exactly the cluster-boundary edges and balances
per-cluster supplies proves optimality of the piecewise-constant signal
it induces.
"""

from .graph import (
    EmpiricalGraph,
    build_graph,
    components,
    degree,
    divergence,
    grounded_laplacian_cg,
    incidence_apply,
    scaled_operator_norm,
)
from .signal import (
    GraphSignal,
    Observations,
    Partition,
    Problem,
    boundary_edges,
    boundary_mask,
    empirical_error,
    piecewise_constant,
    primal_objective,
    tv,
)
from .solver import (
    DualReport,
    GapReport,
    SolverConfig,
    SolverResult,
    SolverState,
    dual_objective,
    duality_gap,
    init_state,
    pd_step,
    repair_dual,
    run,
)
from .flow import (
    Certificate,
    CertificateReport,
    Flow,
    certificate_from_signal,
    check_flow,
    construct_tree_certificate,
    dual_to_extended_flow,
    mincost_objective,
    reconstruct_primal,
    verify_certificate,
)
from .oracle import (
    FlowOracleResult,
    OracleResult,
    oracle_mincost_flow,
    oracle_nlasso,
    project_dual_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "EmpiricalGraph",
    "build_graph",
    "components",
    "degree",
    "divergence",
    "grounded_laplacian_cg",
    "incidence_apply",
    "scaled_operator_norm",
    "GraphSignal",
    "Observations",
    "Partition",
    "Problem",
    "boundary_edges",
    "boundary_mask",
    "empirical_error",
    "piecewise_constant",
    "primal_objective",
    "tv",
    "DualReport",
    "GapReport",
    "SolverConfig",
    "SolverResult",
    "SolverState",
    "dual_objective",
    "duality_gap",
    "init_state",
    "pd_step",
    "repair_dual",
    "run",
    "Certificate",
    "CertificateReport",
    "Flow",
    "certificate_from_signal",
    "check_flow",
    "construct_tree_certificate",
    "dual_to_extended_flow",
    "mincost_objective",
    "reconstruct_primal",
    "verify_certificate",
    "FlowOracleResult",
    "OracleResult",
    "oracle_mincost_flow",
    "oracle_nlasso",
    "project_dual_feasible",
    "__version__",
]
