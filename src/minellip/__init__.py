"""Leader-following consensus design with minimal invariant ellipsoids.

The toolkit designs linear consensus protocols for identical LTI agents
tracking a virtual leader under a shared bounded disturbance, certifies
invariance of error ellipsoids through an S-procedure block test, minimizes
the ellipsoid size (trace of P^{-1}) along a one-parameter family, and
simulates the closed loop to validate the certificates.
"""

from .ellipsoid import (
    InvarianceCertificate,
    MinimizationResult,
    check_input_bound,
    check_invariant,
    find_beta,
    invariance_block,
    minimize_trace,
    worst_disturbance,
)
from .errors import ConfigError, ToolkitError
from .gainsynth import DesignResult, consensus_feasible, design_gain, optimize_gain
from .graph import LaplacianPair, Topology, build_laplacian, has_spanning_tree
from .matkit import SpectrumSummary, are_solve, eig_sym, lyap_solve, spectrum
from .protocol import PlantModel, closed_loop
from .sim import DisturbanceSpec, ErrorMetrics, Trajectory, make_disturbance, metrics, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DesignResult",
    "DisturbanceSpec",
    "ErrorMetrics",
    "InvarianceCertificate",
    "LaplacianPair",
    "MinimizationResult",
    "PlantModel",
    "SpectrumSummary",
    "ToolkitError",
    "Topology",
    "Trajectory",
    "are_solve",
    "build_laplacian",
    "check_input_bound",
    "check_invariant",
    "closed_loop",
    "consensus_feasible",
    "design_gain",
    "eig_sym",
    "find_beta",
    "has_spanning_tree",
    "invariance_block",
    "lyap_solve",
    "make_disturbance",
    "metrics",
    "minimize_trace",
    "optimize_gain",
    "simulate",
    "spectrum",
    "worst_disturbance",
]
