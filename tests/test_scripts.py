"""The runnable studies in scripts/, end to end at small sizes."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_convergence_study_runs(tmp_path):
    out = tmp_path / "convergence.csv"
    res = run_script("convergence_study.py", "--t-list", "25,50,100,200",
                     "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert out.stat().st_size > 0
    m = re.search(r"decay exponent ([-+]?\d+\.\d+)", res.stdout)
    assert m is not None, res.stdout
    assert float(m.group(1)) < 0.0
