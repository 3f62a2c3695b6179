"""Recovery of clustered graph signals from few labels, by balancing the
squared label error against the signal's weighted total variation, plus
the network-flow machinery that certifies a recovered signal as optimal.

The solver is a degree-scaled primal-dual splitting iteration whose dual
iterate is a flow on the graph's edges; a flow that conserves mass on the
extended graph, saturates exactly the cluster-boundary edges and balances
per-cluster supplies proves optimality of the piecewise-constant signal
it induces.
"""

from . import flow, graph, oracle, signal, solver
from .graph import *  # noqa: F403
from .signal import *  # noqa: F403
from .solver import *  # noqa: F403
from .flow import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *graph.__all__,
    *signal.__all__,
    *solver.__all__,
    *flow.__all__,
    *oracle.__all__,
    "__version__",
]
