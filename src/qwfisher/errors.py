"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, a numerical result that failed its own accuracy check with 3,
and model-level failures (singular information, unidentifiable
parameters, degenerate dynamics) with 4.
"""


class QwfError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QwfError):
    """Invalid run configuration (bad flag value, malformed config file)."""


class QuadratureError(QwfError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NoConvergence(QwfError):
    """A numerical result failed its own accuracy check.

    Today only the case inverses raise it, when the field run back
    through the coin map misses the coin angles by more than
    ``cases.ROUND_TRIP_TOL``.  Carries that residual.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateWalk(QwfError):
    """Coin angles sit at a degenerate point (sin theta = 0)."""


class OutOfWindow(QwfError):
    """Physical parameters outside the invertibility window of a coin map."""


class SingularFisher(QwfError):
    """Fisher information (block) is singular; names the flat direction."""

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


class IncompatibleModel(QwfError):
    """Holevo evaluation requested outside the compatible regime."""


class ChargeUnidentifiable(QwfError):
    """Dirac coupling cannot be identified (vanishing vector potential)."""


class SingularJacobian(QwfError):
    """Parameter-map Jacobian is singular at the requested point."""
