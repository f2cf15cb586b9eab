"""Exception hierarchy for the toolkit.

``ConfigError`` marks unusable input files or command-line arguments; every
other subclass of ``ToolkitError`` marks an analytic outcome (infeasibility,
loss of a precondition, numerical breakdown) that a caller may want to catch
and report rather than treat as a bug.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """A scenario file or CLI argument could not be parsed or validated."""


class NotSymmetricError(ToolkitError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NoConvergenceError(ToolkitError):
    """An eigenvalue or Newton iteration failed to converge."""


class SingularSylvesterError(ToolkitError):
    """A Lyapunov/Sylvester solve is refused: singular operator or residual above bound."""


class NotStabilizableError(ToolkitError):
    """No stabilizing gain exists or could be found for the pair (A, B)."""


class DimensionMismatchError(ToolkitError):
    """Operands have inconsistent shapes."""


class InvalidTopologyError(ToolkitError):
    """A communication topology violates the leader-follower graph class."""


class NotHurwitzError(ToolkitError):
    """A matrix required to be Hurwitz has spectral abscissa >= 0."""


class NoSpanningTreeError(ToolkitError):
    """The communication graph has no spanning tree rooted at the leader."""


class NoFeasibleDesignError(ToolkitError):
    """Every candidate gain violates the input constraint."""


class DegenerateDirectionError(ToolkitError):
    """The worst-case disturbance direction is undefined at this state."""


class MissingEllipsoidError(ToolkitError):
    """An operation that needs an ellipsoid matrix P was not given one."""


class DisturbanceBoundViolatedError(ToolkitError):
    """A disturbance sample exceeds the admissible quadratic bound."""


class UnstableStepError(ToolkitError):
    """The integration step lies outside the RK4 stability region of a
    Hurwitz closed loop, so the simulated error would diverge."""
