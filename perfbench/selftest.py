"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at its tiny size, traced and
untraced, and checks that the last output line carries exactly the
declared metrics with their units and that every check passed.  Then
each workload runs against one deliberately wrong reference value and
must report failed operations, which shows that its checks catch wrong
outputs.  Last, a directory holding only ``BENCHMARK.json`` and the
benchmark (no package source) must make the benchmark exit non-zero
without a result.  Takes about a minute; exits 1 on any problem.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import OUT, ROOT

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra, cwd=ROOT, runner=None):
    cmd = [sys.executable, str(runner or HERE / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def result_of(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ValueError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def check_metrics(result: dict, declared: list) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"checks failed: {result.get('failed')!r}")
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    for name in sorted(set(want) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(want) & set(got)):
        entry = got[name]
        if entry.get("unit") != want[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"declared {want[name]!r}")
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            try:
                found = check_metrics(result_of(run(workload, trace)),
                                      declared)
            except ValueError as exc:
                found = [str(exc)]
            problems += [f"{workload} trace {trace}: {p}" for p in found]
        try:
            wrong = result_of(run(workload, 0, "--wrong-reference"))
            if wrong["failed"] < 1 or wrong["correct"]:
                problems.append(f"{workload}: a wrong reference went "
                                "unnoticed")
        except ValueError as exc:
            problems.append(f"{workload} wrong reference: {exc}")
        print(f"{workload}: done", flush=True)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, Path(bare) / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run(workload, 0, cwd=bare,
                   runner=Path(bare) / spec["command"][1])
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("ran without the package source")

    for p in problems:
        print("PROBLEM", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
