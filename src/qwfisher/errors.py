"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical non-convergence with 3, and model-level failures
(singular information, unidentifiable parameters, degenerate dynamics)
with 4.
"""


class QwfError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QwfError):
    """Invalid run configuration (bad flag value, malformed config file)."""


class QuadratureError(QwfError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NoConvergence(QwfError):
    """Iterative solve exhausted its iteration budget.

    Carries the last residual so callers can report how close it got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


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
