"""Fisher-information toolkit for coined discrete-time quantum walks.

Position/momentum walk evolution, asymptotic and exact finite-time
quantum Fisher information matrices, precision bounds, physical coin
encodings (magnetic field, Dirac mass/charge), and a seeded
measurement/estimation pipeline with a CLI front end (``qwf``).

Submodules load lazily so that ``import qwfisher`` stays cheap and
``import qwfisher.cli`` does not import numpy.
"""
from __future__ import annotations

import importlib

from . import errors
from .errors import (ChargeUnidentifiable, ConfigError, DegenerateWalk,
                     IncompatibleModel, NoConvergence, OutOfWindow,
                     QuadratureError, QwfError, SingularFisher,
                     SingularJacobian)

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ["HolevoResult", "WeightMatrix", "g_of_theta",
               "holevo_compatible", "incompatibility_R", "sandwich",
               "symmetric_bound"],
    "cases": ["DiracParams", "MagneticField", "coin_from_dirac",
              "coin_from_magnetic", "dirac_first_order", "dirac_from_coin",
              "dirac_jacobian", "magnetic_from_coin", "magnetic_jacobian",
              "pullback_qfim", "sweep_fig1", "sweep_fig2"],
    "estimation": ["GridSpec", "LikelihoodTable", "MLEResult",
                   "MeasurementRecord", "PositionDistribution",
                   "classical_fi", "make_likelihood_table", "mle_fit",
                   "position_distribution", "sample"],
    "oracle": ["derivative_state", "exact_matrices", "qfim_exact",
               "uhlmann_exact"],
    "qfim": ["QFIMatrix", "beta_null_check", "qfim_localized",
             "qfim_theorem1", "single_param_qfi", "uhlmann_analytic"],
    "walk": ["CoinBlochState", "CoinParams", "WalkerState", "evolve",
             "initial_entangled", "initial_gamma", "initial_localized"],
}

_ATTR_TO_MODULE = {name: mod for mod, names in _EXPORTS.items()
                   for name in names}

__all__ = sorted(_ATTR_TO_MODULE) + [
    "ChargeUnidentifiable", "ConfigError", "DegenerateWalk",
    "IncompatibleModel", "NoConvergence", "OutOfWindow", "QuadratureError",
    "QwfError", "SingularFisher", "SingularJacobian", "errors",
]


def __getattr__(name):
    mod = _ATTR_TO_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ATTR_TO_MODULE))
