#!/usr/bin/env python3
"""Measure how fast the exact finite-time information matrix approaches
its asymptotic form on the entangled two-site input.

For each step count the script computes both matrices, records the
relative deviation of the diagonal entries, and at the end fits the
log-log decay exponent.  The neglected fast-oscillation terms are first
order in 1/t in general; at the symmetric default point the first-order
piece cancels and the fit comes out near -2.

The exact matrix is formed from node means of real fields on the even
5-smooth grid of ``walk.SiteWindow.after`` (at least 2 + 2t nodes), with
no FFT and no loop over t, so the default ladder doubles from t = 25 to
t = 25600 and runs in seconds; the deviations there reach about 1e-9.
"""
import argparse

import numpy as np

from qwfisher import CoinParams, initial_entangled, qfim_theorem1
from qwfisher._io import DataTable
from qwfisher.oracle import exact_matrices


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta", type=float, default=0.7853981633974483)
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--t-list", default="25,50,100,200,400,800,1600,3200,"
                                        "6400,12800,25600")
    ap.add_argument("--out", default="convergence.csv")
    ns = ap.parse_args()

    p = CoinParams(theta=ns.theta, alpha=ns.alpha, beta=0.0)
    init = initial_entangled(0, 1)
    asym = qfim_theorem1(p, init, 1).per_t2

    ts = [int(x) for x in ns.t_list.split(",") if x.strip()]
    rows = {"t": [], "dev_mixing": [], "dev_phase": [], "curvature_norm": []}
    for t in ts:
        f, d = exact_matrices(init, p, t, params=("theta", "alpha"))
        rows["t"].append(t)
        rows["dev_mixing"].append(abs(f.per_t2[0, 0] / asym[0, 0] - 1.0))
        rows["dev_phase"].append(abs(f.per_t2[1, 1] / asym[1, 1] - 1.0))
        rows["curvature_norm"].append(float(np.max(np.abs(d.per_t2))))
        print(f"t={t:5d}  dev ({rows['dev_mixing'][-1]:.3e}, "
              f"{rows['dev_phase'][-1]:.3e})  |D|/t^2 "
              f"{rows['curvature_norm'][-1]:.3e}")

    table = DataTable(columns=rows,
                      meta={"theta": ns.theta, "alpha": ns.alpha})
    table.to_csv(ns.out)

    worst = np.maximum(rows["dev_mixing"], rows["dev_phase"])
    slope = np.polyfit(np.log(ts), np.log(worst), 1)[0]
    print(f"wrote {ns.out}; deviation decay exponent {slope:+.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
