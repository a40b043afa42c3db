"""The runnable studies in scripts/, end to end at small sizes."""
import importlib.util
import json
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


def _write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)


COMMENT = '# config: {"t": 5}\n'


def test_compare_outputs_verdicts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, {
        "same.txt": "x\n",
        "near.csv": COMMENT + "site,p\n0,0.25\n1,0.75\n",
        "near.json": '{"f": [[2.0, 1e-17], [1e-17, 1.0]], "n": null, "s": "ok"}',
        "far.csv": COMMENT + "site,p\n0,0.25\n1,0.75\n",
        "text.csv": COMMENT + "name,v\nalpha,1\n",
        "shape.json": '{"f": [1.0, 2.0]}',
        "only_a.json": "{}"})
    _write(b, {
        "same.txt": "x\n",
        # within 1e-14 of the column's and the matrix's scale
        "near.csv": COMMENT + "site,p\n0,0.25000000000000006\n1,0.75\n",
        "near.json": '{"f": [[2.0000000000000004, -3e-17], [-3e-17, 1.0]], '
                     '"n": null, "s": "ok"}',
        "far.csv": COMMENT + "site,p\n0,0.2500001\n1,0.75\n",
        "text.csv": COMMENT + "name,v\nbeta,1\n",
        "shape.json": '{"f": [1.0, 2.0, 3.0]}'})
    res = run_script("compare_outputs.py", str(a), str(b), cwd=tmp_path)
    assert res.returncode == 1, res.stderr
    verdicts = dict(reversed(line.split()[:2]) for line in
                    res.stdout.splitlines()[:-1])
    assert verdicts == {"same.txt": "identical", "near.csv": "equal",
                        "near.json": "equal", "far.csv": "different",
                        "text.csv": "different", "shape.json": "different",
                        "only_a.json": "different"}
    assert "max rel dev 2.220e-16 at $.f[0][0]" in res.stdout
    assert res.stdout.splitlines()[-1] == "1 identical, 2 equal, 4 different"
    # equal files pass; a zero tolerance leaves only the identical ones
    for name in ("far.csv", "text.csv", "shape.json", "only_a.json"):
        (a / name).unlink(missing_ok=True)
        (b / name).unlink(missing_ok=True)
    assert run_script("compare_outputs.py", str(a), str(b),
                      cwd=tmp_path).returncode == 0
    strict = run_script("compare_outputs.py", str(a), str(b), "--rel-tol",
                        "0", cwd=tmp_path)
    assert strict.returncode == 1
    assert strict.stdout.splitlines()[-1] == "1 identical, 0 equal, 2 different"


def _qfim_report(beta_null, f_tt):
    """A qfim report with one route, as ``qwf qfim`` writes it."""
    per_t2 = [[f_tt, 2.6e-16], [2.6e-16, 1.17]]
    return json.dumps({"beta_null_residual": beta_null, "routes": {
        "analytic": {"entries": [[4e4 * x for x in row] for row in per_t2],
                     "per_t2": per_t2, "uhlmann": [[0.0, 0.0], [0.0, 0.0]]}}})


def test_compare_outputs_scales_zero_in_theory_quantities(tmp_path):
    # beta_null_residual is zero in theory: a 1e-16 change is rounding
    # against max |per_t2| (an 18% change on its own scale), in the
    # report and in stdout, and so is a 1e-17 change to a bounds note's
    # R against 1; a 1e-6 relative change to an F entry stays a
    # difference, and so does any other changed text: an unlabelled
    # number, a diag entry beyond the tolerance on max |entries|, stderr,
    # or a trailing newline
    a, b = tmp_path / "a", tmp_path / "b"
    null_line = "beta_null_residual = {:.3e}\n".format
    cases = {  # name: (report args of b, {file: (text of a, text of b)})
        "null": ((4.6e-16, 1.66),
                 {"stdout.txt": (null_line(5.6e-16), null_line(4.6e-16))}),
        "entry": ((5.6e-16, 1.66 * (1 + 1e-6)),
                  {"stdout.txt": (null_line(5.6e-16),) * 2}),
        "diag": ((5.6e-16, 1.66), {"stdout.txt": (
            "analytic: diag = theta=0.5, alpha=46800\n",
            "analytic: diag = theta=0.6, alpha=46800\n")}),
        "note": ((5.6e-16, 1.66), {"qwf_bounds_report.json": (
            '{"note": "R = 1.000e-17 <= 1.0e-06"}',
            '{"note": "R = 2.000e-17 <= 1.0e-06"}')}),
        "sandwich": ((5.6e-16, 1.66), {"stdout.txt": (
            "incompatibility R  = 1.000e-17; sandwich = [0.5, 0.5]\n",
            "incompatibility R  = 1.000e-17; sandwich = [0.5, 0.6]\n")}),
        "stderr": ((5.6e-16, 1.66), {"stderr.txt": (
            "error: --t must be <= 9007199254740992\n",
            "error: --t must be <= 9007199254740993\n")}),
        "newline": ((5.6e-16, 1.66),
                    {"stdout.txt": (null_line(5.6e-16),
                                    null_line(5.6e-16) + "\n")}),
    }
    for name, (args_b, files) in cases.items():
        for root, args, side in ((a, (5.6e-16, 1.66), 0), (b, args_b, 1)):
            (root / name).mkdir(parents=True)
            (root / name / "qwf_qfim_report.json").write_text(_qfim_report(*args))
            for file, texts in files.items():
                (root / name / file).write_text(texts[side])
    res = run_script("compare_outputs.py", str(a), str(b), "--rel-tol",
                     "1e-13", cwd=tmp_path)
    lines = {line.split()[1]: line for line in res.stdout.splitlines()[:-1]}
    assert lines["null/qwf_qfim_report.json"].split(None, 2)[::2] == [
        "equal", "(max rel dev 6.024e-17 at $.beta_null_residual)"]
    assert lines["null/stdout.txt"].split(None, 2)[::2] == [
        "equal", "(max rel dev 6.024e-17 at line 1 beta_null_residual)"]
    assert lines["note/qwf_bounds_report.json"].split(None, 2)[::2] == [
        "equal", "(max rel dev 1.000e-17 at $.note line 1 R)"]
    entry = lines["entry/qwf_qfim_report.json"]
    assert entry.startswith("different ") and "at $.routes.analytic" in entry
    assert lines["entry/stdout.txt"].startswith("identical ")
    for name in ("diag/stdout.txt", "sandwich/stdout.txt", "stderr/stderr.txt",
                 "newline/stdout.txt"):
        assert lines[name].startswith("different "), lines[name]
    assert res.stdout.splitlines()[-1] == "6 identical, 3 equal, 5 different"
    assert res.returncode == 1


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_matrix_keeps_each_runs_files_streams_and_exit(tmp_path):
    matrix = _load_script("run_matrix.py")
    runs = [argv for argv in matrix.RUNS
            if argv in (("evolve", "--t", "7", "--init", "localized:2",
                         "--bloch", "1,0,0"),
                        ("qfim", "--t", "9007199254740993"))]
    assert len(runs) == 2
    assert matrix.run_matrix(tmp_path / "a", runs) == [0, 2]
    ran, refused = tmp_path / "a" / "01_evolve", tmp_path / "a" / "02_qfim"
    assert sorted(p.name for p in ran.iterdir()) == [
        "exit.txt", "qwf_evolve_distribution.csv",
        "qwf_evolve_distribution.json", "qwf_evolve_state.json",
        "stderr.txt", "stdout.txt"]
    assert (ran / "stdout.txt").read_text().startswith(
        "evolved t=7: window [-5, 9]")
    assert (ran / "exit.txt").read_text() == "0\n"
    assert sorted(p.name for p in refused.iterdir()) == [
        "exit.txt", "stderr.txt", "stdout.txt"]
    assert (refused / "stderr.txt").read_text() == (
        "config error: --t 9007199254740993 is beyond MAX_STEPS = 2**53, "
        "above which a step count is not exact as a float\n")
    assert (refused / "exit.txt").read_text() == "2\n"
    # the same runs again give the same bytes, file by file
    assert matrix.run_matrix(tmp_path / "b", runs) == [0, 2]
    res = run_script("compare_outputs.py", str(tmp_path / "a"),
                     str(tmp_path / "b"), "--rel-tol", "0", cwd=tmp_path)
    assert res.returncode == 0, res.stdout
    assert res.stdout.splitlines()[-1] == "9 identical, 0 equal, 0 different"


def test_fit_equivalence_set_is_reproducible_and_gated(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        res = run_script("fit_equivalence.py", str(out), "--tiny",
                         cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"12 fits written to {out}\n"
    assert a.read_bytes() == b.read_bytes()
    res = run_script("fit_equivalence.py", "--compare", str(a), str(b),
                     cwd=tmp_path)
    assert res.returncode == 0, res.stdout
    assert res.stdout == "12 fits, 0 misses\n"
    # a theta_hat off by more than 1e-10 and another iteration count miss
    lines = [json.loads(line) for line in a.read_text().splitlines()]
    lines[0]["theta_hat"] += 2e-10
    lines[-1]["iterations"] += 1
    b.write_text("".join(json.dumps(line) + "\n" for line in lines))
    res = run_script("fit_equivalence.py", "--compare", str(a), str(b),
                     cwd=tmp_path)
    assert res.returncode == 1
    assert res.stdout.splitlines()[-1] == "12 fits, 2 misses"
    # a record drawn with other counts moved: its fits are not compared
    lines = [json.loads(line) for line in a.read_text().splitlines()]
    moved = lines[0]
    sites = sorted(moved["counts"], key=int)
    moved["counts"][sites[0]] -= 1
    moved["counts"][sites[-1]] += 1
    moved["theta_hat"] += 1.0
    b.write_text("".join(json.dumps(line) + "\n" for line in lines))
    res = run_script("fit_equivalence.py", "--compare", str(a), str(b),
                     cwd=tmp_path)
    assert res.returncode == 1
    record = " ".join(str(moved[f]) for f in ("input", "t", "shots", "seed"))
    assert res.stdout.splitlines() == [
        f"{record}: record moved (1 fits not compared)",
        "12 fits, 0 misses, 1 records moved"]
