#!/usr/bin/env python3
"""Fit a fixed set of seeded records and write one JSON line per fit.

The set crosses four inputs (the entangled pair (0, 1), gamma(0.6), a
complex two-site spinor and a seeded random 9-site input) with three
grid boxes (the default box, a narrow one around the true point, and one
whose upper theta edge lies below the true theta, so the edge holds the
fit), t = 10, 50 and 51, seven shot levels from 30 to 100000 and three
fixed seeds: 756 fits on 36 likelihood tables.  Each line names its
record (input, box, t, shots, seed) and its counts, and holds what
``mle_fit`` returned: theta_hat, alpha_hat, the grid argmax, the
iterations, the converged, multimodal and scoring flags, on_edge,
rows_evaluated and whether alpha is identified (a finite variance, the
rule ``qwf estimate`` uses).

Two such files, made from two checkouts, are compared with --compare.
A record whose counts differ between the two is reported once as
"record moved" and its fits are not compared: the sampler drew another
record, so a different fit says nothing about the fitter.  Every other
fit is held to the gates, and each miss is printed.  The exit status is
1 on a moved record or a miss.  The gates:

- the same records in the same order;
- theta_hat within 1e-10;
- identical iterations, converged, multimodal, scoring_steps, on_edge,
  rows_evaluated, grid_theta and alpha_identified;
- where alpha is identified, alpha_hat within 1e-10 and an identical
  grid_alpha.

    python scripts/fit_equivalence.py OUT.jsonl [--tiny]
    python scripts/fit_equivalence.py --compare A.jsonl B.jsonl

The package is imported from this checkout's ``src``.  --tiny fits a
12-record subset on 16 x 16 grids, in about a second.
"""
import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (after the path above)

from qwfisher import (CoinParams, GridSpec, WalkerState, evolve,  # noqa: E402
                      initial_entangled, initial_gamma,
                      make_likelihood_table, mle_fit, position_distribution,
                      sample)

THETA_TOL = ALPHA_TOL = 1e-10
EQUAL_FIELDS = ("iterations", "converged", "multimodal", "scoring_steps",
                "on_edge", "rows_evaluated", "grid_theta", "alpha_identified")
RECORD_FIELDS = ("input", "box", "t", "shots", "seed")


def _inputs():
    """(name, input, true coin) of the set."""
    two_site = np.array([[0.6, 0.48j], [0.36 - 0.1j, 0.52j]])
    rng = np.random.default_rng(5)
    nine = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    return (
        ("entangled(0,1)", initial_entangled(0, 1),
         CoinParams(math.pi / 4, 0.0, 0.0)),
        ("gamma(0.6)", initial_gamma(0.6), CoinParams(0.7, -0.2, 0.4)),
        ("two-site-spinor", WalkerState(
            origin=0, amps=two_site / np.linalg.norm(two_site)),
         CoinParams(1.0, 0.3, -0.5)),
        ("random-9-sites", WalkerState(
            origin=-4, amps=nine / np.linalg.norm(nine)),
         CoinParams(0.9, 0.25, 0.1)),
    )


def _boxes(truth: CoinParams, n):
    """(name, GridSpec) of the three boxes, ``n`` points per axis or the
    default resolution where ``n`` is None."""
    size = {} if n is None else {"n_theta": n, "n_alpha": n}
    return (
        ("default", GridSpec(**size)),
        ("narrow", GridSpec(theta_min=truth.theta - 0.15,
                            theta_max=truth.theta + 0.15,
                            alpha_min=truth.alpha - 0.3,
                            alpha_max=truth.alpha + 0.3,
                            **({"n_theta": 41, "n_alpha": 41} if n is None
                               else size))),
        ("edge", GridSpec(theta_min=truth.theta - 0.6,
                          theta_max=truth.theta - 0.1,
                          **({"n_theta": 61, "n_alpha": 61} if n is None
                             else size))),
    )


def fit_lines(tiny: bool = False):
    """One dict per fit of the set (the tiny subset if ``tiny``)."""
    inputs = _inputs()[:2] if tiny else _inputs()
    steps = (10,) if tiny else (10, 50, 51)
    levels = (30, 4642) if tiny else (30, 100, 300, 1000, 4642, 21544,
                                      100_000)
    seeds = (11,) if tiny else (11, 12, 13)
    for name, init, truth in inputs:
        for steps_t in steps:
            dist = position_distribution(evolve(init, truth, steps_t))
            records = [sample(dist, shots, seed, params_true=truth,
                              stream=(shots,))
                       for shots in levels for seed in seeds]
            for box, grid in _boxes(truth, 16 if tiny else None):
                table = make_likelihood_table(init, truth, steps_t, grid)
                for rec in records:
                    fit = mle_fit(rec, table=table)
                    yield {
                        "input": name, "box": box, "t": steps_t,
                        "shots": rec.shots, "seed": rec.seed,
                        "counts": rec.to_json_dict()["counts"],
                        "theta_hat": fit.theta, "alpha_hat": fit.alpha,
                        "grid_theta": fit.grid_theta,
                        "grid_alpha": fit.grid_alpha,
                        "iterations": fit.iterations,
                        "converged": fit.converged,
                        "multimodal": fit.multimodal,
                        "scoring_steps": fit.scoring_steps,
                        "on_edge": list(fit.on_edge),
                        "rows_evaluated": fit.rows_evaluated,
                        "alpha_identified": bool(np.isfinite(fit.cov[1, 1])),
                    }


def compare(lines_a, lines_b):
    """(moved, misses): the records whose counts differ, once each, and
    the misses of the gates on the fits of every other record."""
    if len(lines_a) != len(lines_b):
        return [], [f"{len(lines_a)} fits against {len(lines_b)}"]
    moved, misses = {}, []
    for a, b in zip(lines_a, lines_b):
        key = " ".join(str(a[f]) for f in RECORD_FIELDS)
        if any(a[f] != b[f] for f in RECORD_FIELDS):
            misses.append(f"{key}: another record, "
                          + " ".join(str(b[f]) for f in RECORD_FIELDS))
            continue
        if a["counts"] != b["counts"]:
            record = " ".join(str(a[f]) for f in RECORD_FIELDS if f != "box")
            moved[record] = moved.get(record, 0) + 1
            continue
        fields = [f for f in EQUAL_FIELDS if a[f] != b[f]]
        if abs(a["theta_hat"] - b["theta_hat"]) > THETA_TOL:
            fields.append("theta_hat")
        if a["alpha_identified"] and b["alpha_identified"]:
            if abs(a["alpha_hat"] - b["alpha_hat"]) > ALPHA_TOL:
                fields.append("alpha_hat")
            if a["grid_alpha"] != b["grid_alpha"]:
                fields.append("grid_alpha")
        misses += [f"{key}: {f} {a[f]!r} against {b[f]!r}" for f in fields]
    return [f"{record}: record moved ({fits} fits not compared)"
            for record, fits in moved.items()], misses


def _read(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path,
                    help="the JSON-lines file to write")
    ap.add_argument("--tiny", action="store_true",
                    help="the 12-fit subset on 16 x 16 grids")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two files instead of fitting")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = map(_read, args.compare)
        moved, misses = compare(a, b)
        for line in moved + misses:
            print(line)
        print(f"{len(a)} fits, {len(misses)} misses"
              + (f", {len(moved)} records moved" if moved else ""))
        return 1 if moved or misses else 0
    if args.out is None:
        ap.error("give an output file or --compare A B")
    lines = [json.dumps(line) for line in fit_lines(args.tiny)]
    args.out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} fits written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
