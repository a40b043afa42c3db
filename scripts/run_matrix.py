#!/usr/bin/env python3
"""Run a fixed matrix of ``qwf`` commands and keep everything they leave.

Each run gets its own subdirectory of OUT_DIR, named by its number and
command.  It holds the files the command wrote under its default output
prefix, and ``stdout.txt``, ``stderr.txt`` and ``exit.txt``.  The runs
go through ``cli.main`` in this process, with the package imported from
this checkout's ``src``.  Two such directories, made from two checkouts,
compare file by file with ``compare_outputs.py``:

    python scripts/run_matrix.py OUT_DIR
    python scripts/compare_outputs.py OUT_A OUT_B --rel-tol 0

The matrix holds the README quick-start commands, runs on sparse, gamma
and localized inputs (among them estimates at an odd t with alpha
identified and at t = 1000, and an evolution and an oracle run at
nonzero alpha and beta), and refused runs that exit 2 and 4.  Runs 30-33,
at nonzero alpha and beta, check the analytic route against the
localized closed form on a gamma input, run the analytic route over all
three parameters, run ``bounds`` on the oracle route, and check the
closed form's three-parameter matrix (a zero beta row and column)
against the analytic route.  Runs 34-37 reach the bounds paths the rest
never do: the closed form on a single-site spinor whose norm is 1 +
9e-13, an oracle ``bounds`` run whose Holevo bound is unavailable (the
bracket goes into the note), the same run with --strict (exit 4), and a
singular block at theta = pi/2 (exit 4).  Run 38 is an oracle ``bounds``
run near theta = pi/2 whose incompatibility R = 9.5e-05 is above the
default threshold although max |D| / max |F| is below it: its Holevo
bound is unavailable.  Runs 39 and 40 evolve and estimate on run 34's
spinor: its probabilities sum to 1 + 1.8e-12, and the position
distribution takes every state the walk's norm rule takes.  Runs 41-44
give a non-finite field component, Dirac mass, vector potential and
compatibility threshold: each exits 2 with the one real-number rule's
wording, "<name> must be finite, got <value>".  New runs go at the end
so that the runs before them keep their numbers.
"""
import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qwfisher import cli  # noqa: E402  (after the path above)

RUNS = tuple(tuple(line.split()) for line in """
qfim --theta 0.7853981633974483 --t 200 --routes analytic,oracle
bounds --t 100
case dirac --m 1 --q 1 --ax 1 --eps 0.01 --t 100
estimate --shots 100000 --seed 7
sweep fig2 --t-max 1000
evolve --t 1000
evolve --t 7 --init localized:2 --bloch 1,0,0
evolve --t 20 --init gamma:0.6
evolve --t 300 --alpha 0.7 --beta -0.4 --init gamma:0.6
estimate --shots 500 --seed 3 --t 20 --init gamma:0.6 --grid-n 40 --alpha 0.3
estimate --shots 2000 --seed 5 --t 300 --grid-n 40
sweep fig1 --t-max 300
case magnetic --b2 0.4 --b3 -0.3 --t 20
qfim --t 50 --init localized:0 --spinor 0.6,0.8j --routes analytic,localized-closed-form,oracle
qfim --t 30 --params theta,alpha,beta --routes analytic,oracle
qfim --t 200 --alpha 0.7 --beta -0.4 --params theta,alpha,beta --routes analytic,oracle
bounds --t 10 --route oracle --weight 1,0.2,2
estimate --shots 500 --seed 1 --t 30 --init localized:3 --grid-n 40
estimate --shots 4642 --seed 9 --t 51 --init gamma:0.6 --alpha -0.2 --beta 0.4 --grid-n 60
estimate --shots 100000 --seed 2 --t 1000 --grid-n 60
qfim --t 9007199254740992
qfim --t 9007199254740993
evolve --t -1
sweep fig2 --t-max 0
estimate --t 0
estimate --shots 0
qfim --theta 0
case magnetic --b2 0
case dirac --m 1 --q 1 --ax 0 --eps 0.01
qfim --t 200 --alpha 0.5 --beta -0.9 --init gamma:0.6 --routes analytic,localized-closed-form
qfim --t 200 --alpha 0.5 --beta -0.9 --init gamma:0.6 --params theta,alpha,beta --routes analytic
bounds --t 10 --alpha 0.5 --beta -0.9 --route oracle --weight 1,0.2,2
qfim --params theta,alpha,beta --routes analytic,localized-closed-form --init gamma:0.6 --alpha 0.5 --beta -0.9
qfim --t 10 --routes analytic,localized-closed-form --init localized:0 --spinor 1.0000000000009,0
bounds --t 10 --route oracle --init gamma:0.6 --alpha 0.5 --beta -0.9
bounds --t 10 --route oracle --init gamma:0.6 --alpha 0.5 --beta -0.9 --strict
bounds --t 10 --theta 1.5707963267948966
bounds --route oracle --t 10 --theta 1.5707 --init gamma:0.6 --alpha 0.5 --beta -0.9
evolve --t 10 --init localized:0 --spinor 1.0000000000009,0
estimate --t 10 --init localized:0 --spinor 1.0000000000009,0 --shots 100 --grid-n 8
case magnetic --b2 nan
case dirac --m nan --q 1 --ax 1 --eps 0.01
case dirac --m 1 --q 1 --ax nan --eps 0.01
bounds --eps-compat inf
""".strip().splitlines())


def run_matrix(out_dir, runs=RUNS) -> list:
    """Run each argv of ``runs`` through ``cli.main`` in its own new
    subdirectory of ``out_dir``; return the exit codes in order."""
    out_dir = Path(out_dir).resolve()
    here = os.getcwd()
    codes = []
    for i, argv in enumerate(runs, 1):
        run_dir = out_dir / f"{i:02d}_{argv[0]}"
        run_dir.mkdir(parents=True)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(run_dir)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(here)
        (run_dir / "stdout.txt").write_text(out.getvalue())
        (run_dir / "stderr.txt").write_text(err.getvalue())
        (run_dir / "exit.txt").write_text(f"{code}\n")
        codes.append(code)
    return codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="a new or empty directory")
    args = ap.parse_args(argv)
    codes = run_matrix(args.out_dir)
    print(f"{len(codes)} runs; exit codes " + " ".join(map(str, codes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
