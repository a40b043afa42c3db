"""Shared pieces of the benchmark: the stage timer, operation accounting
and the summary statistics used for every timing.

Standard library only, so that a workload whose set-up must not import
numpy (the CLI one) can still use it.
"""
from __future__ import annotations

import inspect
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# results, span files and temporary CLI output; inside the checkout,
# ignored by git
OUT = ROOT / ".bench_out"


@contextmanager
def stage(sink: dict, name: str):
    """Append the wall time of the ``with`` body to ``sink[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        sink.setdefault(name, []).append(time.perf_counter() - t0)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the max.

    Returns the value and its label (``p90``, ``max``, ...).
    """
    if not values:
        return 0.0, "none"
    xs = sorted(values)
    n = len(xs)
    for level in TAIL_LEVELS:
        if n * (1.0 - level) >= 10.0:
            pos = level * (n - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, n - 1)
            return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)), \
                f"p{100 * level:g}"
    return float(xs[-1]), "max"


# output-check tolerances shared by the workloads
# acceptance criterion 4: oracle and asymptotic diagonals within 5 %
ROUTE_TOL = 0.05
ROUND_TRIP_TOL = 1e-10
# a fitted theta further than this many Cramer-Rao sigmas from the truth
# fails; at 5 sigma a correct fitter trips it about once in 1.7 million
SIGMA_MULTIPLE = 5.0


def refine_budget(mle_fit) -> int:
    """The default number of Fisher-scoring steps of ``mle_fit``."""
    return int(inspect.signature(mle_fit).parameters["max_refine"].default)


def fit_flag_ok(converged: bool, iterations: int, budget: int) -> bool:
    """Whether a fit's ``converged`` flag is consistent with its steps.

    Fisher scoring steps with the expected information, so it converges
    linearly, at a rate set by how far the record's observed information
    lies from the expected one.  At 1000 shots about one record in a
    hundred needs more steps than the default budget (seed 1684432014 at
    the estimation-closure point needs 13 of 12) and is honestly flagged
    not converged; the package's own tests and criterion 12 do not ask
    for convergence there.  So a fit passes if it converged, or if it
    used its whole budget; its estimate is checked against the
    Cramer-Rao sigma either way, and ``estimation.converged_frac``
    reports the share that converged.
    """
    return bool(converged) or int(iterations) == budget


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ops:
    """Attempted and failed operation counts for one benchmark run.

    ``with ops.op(name):`` counts one operation; it fails if its body
    raises, including a :class:`CheckFailed` from :func:`expect`.  The
    exception is recorded and swallowed so the run goes on.
    """

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{name}: {type(exc).__name__}: {exc}")
