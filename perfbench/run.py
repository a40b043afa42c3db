"""qwfisher benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` there and exits with code 2 if that is missing.  ``--trace 0``
measures the end-to-end metrics with tracing off.  ``--trace 1`` runs an
untraced and a traced job in turn and reports the per-layer metrics
from the traced job's spans, plus the tracing overhead.  Every job's
outputs are checked.

Standard output shows every metric with its unit, the machine and the
environment; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(and, traced, the span file) is also written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from harness import OUT, SRC, Ops, median, stage

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "QWF_THREADS")
# One BLAS/OpenMP thread (at most nproc on any machine): the package's
# arrays are small enough that a second thread changes no timing beyond
# the noise, and one thread gives the same figures on any core count.
THREADS = 1
WORKLOADS = {
    "routes-ladder": ("workloads", "RoutesLadder"),
    "analytic-scan": ("workloads", "AnalyticScan"),
    "estimation-closure": ("workloads", "EstimationClosure"),
    "cli-quickstart": ("cli_quickstart", "CliQuickstart"),
}
# set-up is timed in this many fresh processes, half before the timed
# loop and half after it so that they see more of the host's drift, and
# reported as the median
SETUP_PROBES = 10
# untraced runs time at least this many jobs, whatever --seconds says
MIN_JOBS = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="check against one wrong reference value "
                         "(self-test: the run must report failures)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(args):
    module, name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module), name)
    return cls(args.seed, args.size, args.wrong_reference)


def probe_setup(args) -> float:
    """Seconds from process start to the end of set-up, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading compares with the parent's
    return float(proc.stdout.split()[-1]) - t0


def peak_rss_mb(workload) -> float:
    who = (resource.RUSAGE_CHILDREN
           if getattr(workload, "measure_children", False)
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def untraced_run(args, workload, ops) -> dict:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES // 2)]
    workload.setup()
    workload.prepare()
    timer: dict = {}
    start = time.perf_counter()
    while True:
        with stage(timer, "job"):
            workload.job(ops, timer)
        jobs = timer["job"]
        if (len(jobs) >= MIN_JOBS and time.perf_counter() - start
                + max(jobs) > args.seconds):
            break
    setups += [probe_setup(args) for _ in range(SETUP_PROBES - len(setups))]
    metrics = {"setup_s": (median(setups), "s"),
               "run_s": (median(jobs), "s"),
               "peak_rss_mb": (peak_rss_mb(workload), "MB")}
    # end-to-end figures that exist on one workload only; shown and saved,
    # not part of the compared metrics
    extra = {"fail_frac": (ops.failed / max(ops.attempted, 1), "fraction"),
             "jobs": (len(jobs), "count")}
    if "table" in timer:
        extra["table_s"] = (median(timer["table"]), "s")
    if "fit" in timer:
        extra["fits_per_s"] = (len(timer["fit"]) / sum(timer["fit"]), "1/s")
    for key, samples in timer.items():
        if key.startswith("cli."):
            extra[key + "_s"] = (median(samples), "s")
    return {"metrics": metrics, "extra": extra,
            "samples": {"setup_s": setups, **timer}}


def traced_run(args, workload, ops) -> dict:
    import tracing

    workload.setup()
    workload.prepare()
    # traced, the CLI workload calls qwfisher.cli.main in this process,
    # where the wrappers are; its untraced partner does the same
    workload.in_process = True
    tracer = tracing.Tracer()
    timer: dict = {}
    start = time.perf_counter()
    while True:
        with stage(timer, "untraced"):
            workload.job(ops, {})
        tracing.install(tracer)
        try:
            with stage(timer, "traced"):
                workload.job(ops, {})
        finally:
            tracer.uninstall()
        tracer.run += 1
        pair = max(a + b for a, b in zip(timer["untraced"], timer["traced"]))
        if time.perf_counter() - start + pair > args.seconds:
            break
    metrics = tracing.layer_metrics(tracer, len(timer["traced"]))
    traced, untraced = median(timer["traced"]), median(timer["untraced"])
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.untraced_run_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.dump(span_file)
    return {"metrics": metrics, "extra": {}, "samples": timer,
            "span_file": str(span_file.relative_to(OUT.parent))}


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine() -> dict:
    """Machine and environment, read-only from /proc and /sys."""
    import numpy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = _read(idx / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "caches_per_core_or_shared": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def report(args, result: dict, ops: Ops) -> None:
    env = machine()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}")
    for name, (value, unit) in {**result["metrics"],
                                **result["extra"]}.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(f"  operations: {ops.attempted} attempted, {ops.failed} failed")
    for msg in ops.messages:
        print(f"  FAILED {msg}")
    print(f"  machine: {env['cpu_model']}, nproc {env['nproc']}, caches "
          f"{env['caches_per_core_or_shared']}, python {env['python']}, "
          f"numpy {env['numpy']}, threads {THREADS}")
    full = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "size": args.size, "seconds": args.seconds,
            "machine": env, "attempted": ops.attempted, "failed": ops.failed,
            "failures": ops.messages,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in result["metrics"].items()},
            "extra": {k: {"value": v, "unit": u}
                      for k, (v, u) in result["extra"].items()},
            "samples": result["samples"]}
    if "span_file" in result:
        full["span_file"] = result["span_file"]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(f"  result file: {out_file.relative_to(OUT.parent)}")
    print(json.dumps({
        "correct": ops.failed == 0, "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwfisher" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a "
              "qwfisher checkout", file=sys.stderr)
        return 2
    # before numpy is imported, here or in a CLI child
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    workload = make_workload(args)
    if args.setup_probe:
        workload.setup()
        print(repr(time.perf_counter()))
        return 0
    ops = Ops()
    run = traced_run if args.trace else untraced_run
    result = run(args, workload, ops)
    report(args, result, ops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
