"""End-to-end CLI checks, run in process against temp directories."""
import json
import math
import os

import pytest

from qwfisher.cli import main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def csv_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    return comments, data[0].split(","), data[1:]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qwfisher" in capsys.readouterr().out


def test_evolve_writes_distribution(workdir, capsys):
    assert main(["evolve", "--t", "100"]) == 0
    out = capsys.readouterr().out
    assert "evolved t=100" in out
    comments, header, rows = csv_rows(workdir / "qwf_evolve_distribution.csv")
    assert header[0] == "site"
    assert len(rows) == 201            # localized walker, window 1 + 2t
    assert any("schema_version" in c for c in comments)
    state = read_json(workdir / "qwf_evolve_state.json")
    assert state["config"]["command"] == "evolve"
    dist = read_json(workdir / "qwf_evolve_distribution.json")
    total = sum(dist["columns"]["probability"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_outputs_are_byte_deterministic(tmp_path, monkeypatch):
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(["evolve", "--t", "40", "--theta", "0.9"]) == 0
        blobs.append((d / "qwf_evolve_distribution.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_config_file_and_flag_precedence(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("# комментарий are ignored\nt = 3\ntheta = 0.9\n")
    assert main(["evolve", "--config", str(cfg)]) == 0
    assert "evolved t=3" in capsys.readouterr().out
    # explicit flag beats the file
    assert main(["evolve", "--config", str(cfg), "--t", "5"]) == 0
    assert "evolved t=5" in capsys.readouterr().out
    echo = read_json(workdir / "qwf_evolve_state.json")["config"]
    assert echo["t"] == 5 and echo["theta"] == 0.9


def test_config_rejects_unknown_keys(workdir, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text("no_such_option = 1\n")
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["evolve", "--theta", "0"], 4),                       # degenerate coin
    (["case", "dirac", "--m", "1", "--q", "1", "--ax", "0",
      "--eps", "0.1"], 4),                                 # hidden charge
    (["case", "magnetic", "--b2", "1.2", "--b3", "1.2"], 4),  # window
    (["evolve", "--t", "-3"], 2),
    (["qfim", "--routes", "bogus"], 2),
    (["qfim", "--params", "theta,zeta"], 2),
    (["case", "magnetic"], 2),                             # missing --b2
    (["estimate", "--init", "sideways:1"], 2),
    (["evolve", "--t", "5", "--out", "missing_dir/x"], 2),   # unwritable
    (["estimate", "--t", "5", "--shots", "10", "--grid-n", "8",
      "--out", "missing_dir/x"], 2),
    (["evolve", "--t", "3", "--init", "gamma:nan"], 2),    # NaN inputs
    (["evolve", "--t", "3", "--spinor", "nan,0"], 2),
    (["evolve", "--t", "3", "--bloch", "nan,0,0"], 2),
])
def test_exit_codes(workdir, capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    expected = {4: "model error", 3: "numerical error", 2: "config error"}
    assert expected[code] in err
    assert "Traceback" not in err


def test_thread_cap_validation(workdir, capsys, monkeypatch):
    monkeypatch.setenv("QWF_THREADS", "abc")
    assert main(["evolve", "--t", "2"]) == 2
    assert "QWF_THREADS" in capsys.readouterr().err


def test_qfim_two_routes_and_deviation(workdir, capsys):
    assert main(["qfim", "--routes", "analytic,oracle", "--t", "60"]) == 0
    out = capsys.readouterr().out
    assert "deviation oracle vs analytic" in out
    _, header, rows = csv_rows(workdir / "qwf_qfim_report.csv")
    assert header == ["param_row", "param_col", "f_analytic", "f_oracle",
                      "dev_oracle"]
    assert len(rows) == 4
    body = read_json(workdir / "qwf_qfim_report.json")
    assert body["params"] == ["theta", "alpha"]
    assert body["routes"]["analytic"]["asymptotic"] is True
    assert body["routes"]["oracle"]["asymptotic"] is False
    assert body["deviations"]["oracle"]["max_rel"] < 0.05
    assert abs(body["beta_null_residual"]) < 1e-10


def test_qfim_localized_closed_form_route(workdir):
    assert main(["qfim", "--routes", "localized-closed-form,oracle",
                 "--init", "localized:0", "--bloch", "0,0,1",
                 "--theta", "0.9", "--t", "80"]) == 0
    body = read_json(workdir / "qwf_qfim_report.json")
    assert body["deviations"]["oracle"]["max_rel"] < 0.05


def test_bounds_compatible_fixture(workdir, capsys):
    assert main(["bounds", "--t", "100"]) == 0
    out = capsys.readouterr().out
    assert "holevo bound" in out
    report = read_json(workdir / "qwf_bounds_bounds_report.json")
    cs = report["symmetric"]
    t = 100
    g = (math.sin(math.pi / 4) + 0.5) / (4 * math.sin(math.pi / 4)
                                         * (1 - math.sin(math.pi / 4)))
    assert cs * t * t == pytest.approx(g, rel=1e-6)
    _, header, rows = csv_rows(workdir / "qwf_bounds_bounds.csv")
    assert "holevo" in header
    assert len(rows) == 1


def test_bounds_incompatible_note_and_strict(workdir, capsys):
    args = ["bounds", "--route", "oracle", "--init", "gamma:0.9",
            "--theta", "0.8", "--alpha", "0.3", "--t", "30"]
    assert main(args) == 0
    assert "holevo: unavailable" in capsys.readouterr().out
    report = read_json(workdir / "qwf_bounds_bounds_report.json")
    assert report["holevo"] is None
    assert main(args + ["--strict"]) == 4
    assert "model error" in capsys.readouterr().err


def test_sweep_file_sets(workdir):
    assert main(["sweep", "fig1", "--t-max", "20"]) == 0
    assert main(["sweep", "fig2", "--t-max", "20"]) == 0
    assert main(["sweep", "prefactor-insets"]) == 0
    for name in ("qwf_sweep_curves.csv", "qwf_sweep_inset.csv",
                 "qwf_sweep_prefactor.csv", "qwf_sweep_holevo_g.csv"):
        assert (workdir / name).exists()


def test_case_magnetic_report(workdir, capsys):
    assert main(["case", "magnetic", "--b2", "-0.6", "--b3", "0.3",
                 "--t", "50"]) == 0
    assert "round trip b2" in capsys.readouterr().out
    body = read_json(workdir / "qwf_case_magnetic_report.json")
    assert body["round_trip"]["b2"]["abs_err"] <= 1e-10
    assert body["round_trip"]["b3"]["abs_err"] <= 1e-10
    assert body["labels"] == ["b2", "b3"]
    _, header, rows = csv_rows(workdir / "qwf_case_magnetic_report.csv")
    assert len(rows) == 4


def test_case_dirac_first_order(workdir):
    assert main(["case", "dirac", "--m", "1.2", "--q", "0.7", "--ax", "1.0",
                 "--eps", "0.01", "--t", "50"]) == 0
    body = read_json(workdir / "qwf_case_dirac_report.json")
    assert body["first_order"]["abs_err_m"] <= 1e-3
    assert body["first_order"]["abs_err_q"] <= 1e-3
    assert body["round_trip"]["m"]["abs_err"] <= 1e-10


def test_estimate_deterministic_and_honest(workdir, capsys):
    args = ["estimate", "--t", "30", "--shots", "5000", "--seed", "7",
            "--grid-n", "60"]
    assert main(args) == 0
    first = (workdir / "qwf_estimate_result.json").read_bytes()
    out1 = capsys.readouterr().out
    assert "+/- inf" in out1          # flat alpha direction, said plainly
    assert main(args) == 0
    assert (workdir / "qwf_estimate_result.json").read_bytes() == first
    result = read_json(workdir / "qwf_estimate_result.json")
    assert abs(result["theta_hat"] - math.pi / 4) < 0.05
    assert result["identified"]["theta"] is True
    assert result["identified"]["alpha"] is False
    assert result["stderr_alpha"] is None     # inf maps to null in JSON
    rec = read_json(workdir / "qwf_estimate_record.json")
    assert sum(rec["record"]["counts"].values()) == 5000


def test_out_prefix_respected(workdir):
    assert main(["evolve", "--t", "5", "--out", "runA"]) == 0
    assert (workdir / "runA_distribution.csv").exists()
    assert not (workdir / "qwf_evolve_distribution.csv").exists()
