"""The cli-quickstart workload: the six README/ROADMAP commands.

Untraced, each command runs as its own ``python -m qwfisher.cli``
process, so every command pays interpreter start and imports; this is
the only workload that does, and the only one that writes CSV/JSON
through ``qwfisher._io``.  Traced, the same argument lists go to
``qwfisher.cli.main`` in the benchmark's own process.

Set-up is the import of ``qwfisher.cli`` alone, so this module imports
nothing outside the standard library at load time.  Outputs are checked
by their numbers, not their bytes, against references computed in
process; a report that gains fields still passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from harness import (OUT, ROUND_TRIP_TOL, ROUTE_TOL, SIGMA_MULTIPLE, SRC,
                     expect, fit_flag_ok, refine_budget, stage)

QUARTER_PI = 0.7853981633974483
FIG2_THETAS = (0.7853981633974483, 1.1780972450961724)
REL_TOL = 1e-12


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


class CliQuickstart:
    """Six ``qwf`` commands per job, into a fresh output directory."""

    # peak memory is the CLI processes', not the benchmark's
    measure_children = True

    SIZES = {
        "full": {"evolve": 1000, "qfim": 200, "bounds": 100, "case": 100,
                 "estimate": (50, 100_000, 200), "sweep": 1000},
        "tiny": {"evolve": 20, "qfim": 16, "bounds": 10, "case": 10,
                 "estimate": (10, 1000, 12), "sweep": 20},
    }

    def __init__(self, seed: int, size: str, wrong_reference: bool = False):
        self.size = self.SIZES[size]
        self.seed = seed % 2**32
        self.reference_scale = 1.0 + 1e-6 if wrong_reference else 1.0
        self.in_process = False
        t_est, shots, grid = self.size["estimate"]
        self.commands = [
            ("evolve", ["evolve", "--t", str(self.size["evolve"])]),
            ("qfim", ["qfim", "--t", str(self.size["qfim"]),
                      "--routes", "analytic,oracle"]),
            ("bounds", ["bounds", "--t", str(self.size["bounds"])]),
            ("case", ["case", "dirac", "--m", "1", "--q", "1", "--ax", "1",
                      "--eps", "0.01", "--t", str(self.size["case"])]),
            ("estimate", ["estimate", "--shots", str(shots),
                          "--seed", str(self.seed), "--t", str(t_est),
                          "--grid-n", str(grid)]),
            ("sweep", ["sweep", "fig2", "--t-max", str(self.size["sweep"])]),
        ]

    def setup(self) -> None:
        import qwfisher.cli  # noqa: F401

    def prepare(self) -> None:
        """In-process references for every command's key numbers."""
        import numpy as np

        from qwfisher import bounds, cases, estimation, qfim, walk

        self.np = np
        p = walk.CoinParams(QUARTER_PI, 0.0, 0.0)
        ent = walk.initial_entangled(0, 1)
        final = walk.evolve(walk.initial_localized(0), p, self.size["evolve"])
        self.ref_evolve = {"probs": np.sum(np.abs(final.amps) ** 2, axis=1),
                           "norm": final.norm * self.reference_scale}
        self.ref_qfim = qfim.qfim_theorem1(p, ent, self.size["qfim"]).entries
        self.ref_bounds = bounds.symmetric_bound(
            qfim.qfim_theorem1(p, ent, self.size["bounds"]))
        dp = cases.DiracParams(m=1.0, q=1.0, a_x=1.0, eps=0.01)
        coin = cases.coin_from_dirac(dp)
        self.ref_case = bounds.symmetric_bound(cases.pullback_qfim(
            qfim.qfim_theorem1(coin, ent, self.size["case"]),
            cases.dirac_jacobian(dp), ("m", "q")))
        t_est, shots, _ = self.size["estimate"]
        dist = estimation.position_distribution(walk.evolve(ent, p, t_est))
        self.ref_counts = estimation.sample(dist, shots, self.seed).counts
        info = estimation.classical_fi(p, ent, t_est)[0, 0]
        self.ref_sigma = 1.0 / math.sqrt(shots * info)
        self.ref_g = {th: bounds.g_of_theta(th) for th in FIG2_THETAS}
        self.refine_budget = refine_budget(estimation.mle_fit)

    def _run(self, argv) -> tuple[int, str]:
        """Exit code and standard error of one command."""
        if self.in_process:
            from qwfisher import cli
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                return cli.main(argv), err.getvalue()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "qwfisher.cli"] + argv,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stderr

    def job(self, ops, timer: dict) -> None:
        OUT.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        try:
            for name, argv in self.commands:
                prefix = os.path.join(out_dir, name)
                with ops.op(f"cli {name}"):
                    with stage(timer, "cli." + name):
                        code, err = self._run(argv + ["--out", prefix])
                    expect(code == 0,
                           f"exit code {code}: {err.strip()[-200:]}")
                    getattr(self, "_check_" + name)(prefix)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    # -- output checks, one per command ------------------------------------

    def _check_evolve(self, prefix) -> None:
        state = _read(prefix + "_state.json")
        dist = _read(prefix + "_distribution.json")
        expect(_close(state["norm"], self.ref_evolve["norm"]),
               f"norm {state['norm']!r}")
        probs = self.np.asarray(dist["columns"]["probability"])
        ref = self.ref_evolve["probs"]
        expect(probs.shape == ref.shape
               and float(self.np.max(self.np.abs(probs - ref))) <= 1e-14,
               "distribution differs from the in-process evolution")

    def _check_qfim(self, prefix) -> None:
        rep = _read(prefix + "_report.json")
        analytic = self.np.asarray(rep["routes"]["analytic"]["entries"])
        oracle = self.np.asarray(rep["routes"]["oracle"]["per_t2"])
        scale = float(self.np.max(self.np.abs(self.ref_qfim)))
        expect(float(self.np.max(self.np.abs(analytic - self.ref_qfim)))
               <= REL_TOL * scale, "analytic route differs from reference")
        ref_t2 = self.ref_qfim / float(self.size["qfim"]) ** 2
        dev = max(abs(oracle[i, i] / ref_t2[i, i] - 1.0) for i in range(2))
        expect(dev <= ROUTE_TOL, f"oracle off the asymptote by {dev:.2e}")

    def _check_bounds(self, prefix) -> None:
        rep = _read(prefix + "_bounds_report.json")
        expect(_close(rep["symmetric"], self.ref_bounds),
               f"symmetric bound {rep['symmetric']!r}")
        lo, hi = rep["sandwich"]
        expect(lo <= hi and _close(rep["holevo"], self.ref_bounds),
               f"sandwich {lo, hi}, holevo {rep['holevo']!r}")

    def _check_case(self, prefix) -> None:
        rep = _read(prefix + "_report.json")
        expect(_close(rep["symmetric_bound"], self.ref_case),
               f"physical bound {rep['symmetric_bound']!r}")
        for name in ("m", "q"):
            err = rep["round_trip"][name]["abs_err"]
            expect(err <= ROUND_TRIP_TOL, f"{name} round trip {err:.2e}")

    def _check_estimate(self, prefix) -> None:
        record = _read(prefix + "_record.json")["record"]
        counts = {int(x): c for x, c in record["counts"].items()}
        expect(counts == self.ref_counts, "sampled counts differ")
        res = _read(prefix + "_result.json")
        expect(fit_flag_ok(res["converged"], res["iterations"],
                           self.refine_budget),
               f"not converged after {res['iterations']} steps")
        z = abs(res["theta_hat"] - QUARTER_PI) / self.ref_sigma
        expect(z <= SIGMA_MULTIPLE, f"theta_hat is {z:.1f} sigma off")

    def _check_sweep(self, prefix) -> None:
        cols = _read(prefix + "_curves.json")["columns"]
        expect(len(cols["t"]) > 0, "empty sweep")
        for th, t, c_h in zip(cols["theta"], cols["t"], cols["c_h"]):
            expect(_close(c_h, self.ref_g[th] / float(t) ** 2),
                   f"C^H at theta={th}, t={t}")
        expect(max(cols["t"]) == self.size["sweep"], "sweep misses t_max")
