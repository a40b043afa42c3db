"""Exception types shared across the package, each with its exit code.

This is the one statement of the ``qwf`` exit codes.  Each subclass of
:class:`QwfError` names its code where it is declared, and ``cli.main``
prints ``<label> error: <message>`` on stderr and exits with that code
(0 on success):

    2  config     a bad value, config file or write, or an argparse refusal;
                  ``cli.main`` maps ValueError and MemoryError here too
    3  numerical  a result that failed its own accuracy check
    4  model      singular information, an unidentifiable parameter,
                  degenerate dynamics or an out-of-window encoding
"""

_LABELS = {2: "config", 3: "numerical", 4: "model"}


class QwfError(Exception):
    """Base class for all package-specific errors.  A subclass states
    its code as ``class X(QwfError, code=N)``; its label follows."""

    exit_code = None
    label = None

    def __init_subclass__(cls, code=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exit_code, cls.label = code, _LABELS.get(code)


class ConfigError(QwfError, code=2):
    """Invalid run configuration (bad flag, flag value or config file)."""


class QuadratureError(QwfError, code=3):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NoConvergence(QwfError, code=3):
    """A numerical result failed its own accuracy check.

    Today only the case inverses raise it, when the field run back
    through the coin map misses the coin angles by more than
    ``cases.ROUND_TRIP_TOL``.  Carries that residual.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateWalk(QwfError, code=4):
    """Coin angles sit at a degenerate point (sin theta = 0)."""


class OutOfWindow(QwfError, code=4):
    """Physical parameters outside the invertibility window of a coin map."""


class SingularFisher(QwfError, code=4):
    """Fisher information (block) is singular; names the flat direction."""

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


class IncompatibleModel(QwfError, code=4):
    """Holevo evaluation requested outside the compatible regime."""


class ChargeUnidentifiable(QwfError, code=4):
    """Dirac coupling cannot be identified (vanishing vector potential)."""


class SingularJacobian(QwfError, code=4):
    """Parameter-map Jacobian is singular at the requested point."""
