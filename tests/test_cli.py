"""End-to-end CLI checks, run in process against temp directories."""
import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwfisher.cli import MAX_SITE_POSITION, main

from oracles import cli_peak_rss


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
    (["qfim", "--theta", "1e-4", "--alpha", "0.3", "--t", "100"], 0),  # tiny s
    (["bounds", "--eps-compat", "nan"], 2),                # certifies nothing
    (["sweep", "fig1", "--theta", "nan"], 2),              # sweep angles pass
    (["sweep", "fig1", "--theta", "0"], 4),                # the coin's gates
    (["sweep", "fig2", "--theta-list", "0.5,nan"], 2),
    (["sweep", "fig2", "--theta-list", "0"], 4),
    (["sweep", "fig2", "--theta-list", "1.5707963267948966"], 4),  # F singular
    # site 200,001 is beyond MAX_SITE_POSITION: refused before anything
    # is allocated
    (["evolve", "--t", "1", "--init", "entangled:0,200001"], 2),
    # sites far from the origin: no overflow, no misleading norm error
    (["evolve", "--t", "1", "--init", "localized:99999999999999999999"], 2),
    (["evolve", "--t", "1", "--init", "localized:4611686018427387904"], 2),
    (["evolve", "--t", "1", "--init", "localized:9999"], 0),
    (["evolve", "--t", "1", "--init", "localized:10001"], 2),
    (["evolve", "--t", "1", "--init", "entangled:-9999,-9998"], 0),
    (["evolve", "--t", "1", "--init", "entangled:-10001,-10000"], 2),
    # |b| = pi/2 - 1e-8: the closed-form inverse holds at the window edge
    (["case", "magnetic", "--b2", "-0.95838930278208434", "--b3",
      "1.2445445002768214"], 0),
    # the commands writing a CSV table and a report refuse a write too
    (["qfim", "--t", "5", "--out", "missing_dir/x"], 2),
    (["case", "magnetic", "--b2", "0.4", "--t", "5",
      "--out", "missing_dir/x"], 2),
    # the closed forms hold for sin(theta) < 0, as the coin does
    (["qfim", "--theta", "-0.5", "--init", "localized:0", "--t", "10",
      "--routes", "analytic,localized-closed-form"], 0),
    (["sweep", "fig1", "--theta", "-0.5", "--t-max", "10"], 0),
    (["sweep", "fig2", "--theta-list", "-0.5", "--t-max", "10"], 0),
    # a config file is held to a flag's choices as the command line is
    (["bounds", "--config", "route.cfg"], 2),
    # a choice list names each item once
    (["qfim", "--t", "5", "--routes", "analytic,analytic"], 2),
    (["qfim", "--t", "5", "--params", "theta,theta"], 2),
    # a step count above 2**53 is not exact as a float: t^2 overflowed
    # near 1.3e154 and the sweep grid's int64 near 9.2e18
    (["qfim", "--t", str(2 * 10**154)], 2),
    (["bounds", "--t", str(2 * 10**154)], 2),
    (["case", "magnetic", "--b2", "0.4", "--t", str(2 * 10**154)], 2),
    (["sweep", "fig1", "--t-max", str(10**19)], 2),
    (["sweep", "fig1", "--t-max", str(10**20)], 2),
    (["qfim", "--t", str(2**53)], 0),
    # a weight with a non-finite entry certifies nothing
    (["bounds", "--weight", "inf,0,1"], 2),
    (["bounds", "--weight", "1,nan,1"], 2),
])
def test_exit_codes(workdir, capsys, argv, code):
    (workdir / "route.cfg").write_text("route = localized-closed-form\n"
                                       "init = localized:0\n")
    assert main(argv) == code
    err = capsys.readouterr().err
    expected = {0: "", 4: "model error", 3: "numerical error",
                2: "config error"}
    assert expected[code] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "fig2", "--t-max", "5", "--theta-list"],
    ["sweep", "fig1", "--t-max", "5", "--theta"],
    ["evolve", "--t", "3", "--theta"],
], ids=["fig2", "fig1", "evolve"])
@pytest.mark.parametrize("theta,code", [("1e-12", 0), ("9e-13", 4),
                                        ("-1e-12", 0), ("-9e-13", 4)])
def test_one_sin_theta_floor(workdir, capsys, argv, theta, code):
    # every gate reads walk.MIN_SIN_THETA with the coin's comparison, and
    # sin(1e-12) == 1e-12 sits on the floor, on either side of zero
    assert math.sin(1e-12) == 1e-12
    assert main(argv[:-1] + [f"{argv[-1]}={theta}"]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_widest_input_window_runs(workdir, capsys):
    # no layer is quadratic in the span: the widest entangled pair the
    # site bound allows runs through both oracle-backed commands
    wide = ["--init", "entangled:-10000,9999", "--t", "1"]
    assert main(["qfim", "--routes", "analytic,oracle"] + wide) == 0
    assert main(["bounds", "--route", "oracle"] + wide) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,limit_mb", [
    # the widest input: 47 MB measured, 160 MB when span 1,024 was the cap
    (["qfim", "--routes", "analytic,oracle", "--init",
      "entangled:-10000,9999", "--t", "1"], 90),
    # the README estimate config, documented at 40 MB
    (["estimate", "--shots", "100000", "--seed", "7"], 60),
])
def test_cli_peak_memory(tmp_path, argv, limit_mb):
    code, peak_mb, err = cli_peak_rss(argv + ["--out", "run"], tmp_path)
    assert code == 0, err
    assert peak_mb <= limit_mb


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--seed", "-1", "--shots", "10", "--grid-n", "8"],
     "seed must be >= 0, got -1"),
    (["estimate", "--grid-n", "1"], "grid needs at least 2 points per axis"),
    (["bounds", "--route", "oracle", "--eps-compat", "-1"],
     "compatibility threshold must be finite and >= 0, got -1.0"),
    (["qfim", "--routes", "oracle,localized-closed-form"],
     "the localized closed form needs a single-site input; "
     "use --init localized:X"),
    (["qfim", "--routes", "oracle", "--out", "missing/x"],
     "cannot write in 'missing': not a writable directory"),
], ids=["seed", "grid", "eps-compat", "closed-form", "sink"])
def test_refused_run_costs_nothing(tmp_path, argv, message):
    # each input is refused before the first engine run, so at t = 1e6,
    # where the engine alone takes 575-945 MB, the run peaks as at t = 10
    peaks = []
    for t in ("10", "1000000"):
        code, peak_mb, err = cli_peak_rss(argv + ["--t", t], tmp_path)
        assert (code, err) == (2, f"config error: {message}\n")
        peaks.append(peak_mb)
    assert peaks[1] <= peaks[0] + 5


@pytest.mark.parametrize("pair", ["0,2", "2,0"])
def test_even_separation_warning_is_one_line(workdir, capsys, pair):
    assert main(["evolve", "--t", "2", "--init", f"entangled:{pair}"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: separation 2 is even: the k-spinor norm varies over the "
        "zone and the asymptotic formulas apply in their weighted form"]
    assert "UserWarning" not in err and "warn(" not in err


@pytest.mark.parametrize("argv,flag", [
    (["evolve", "--t"], "--t"), (["estimate", "--t"], "--t"),
    (["sweep", "fig2", "--t-max"], "--t-max")])
def test_step_count_bound_is_named(workdir, capsys, argv, flag):
    assert main(argv + [str(2**53 + 1)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag} {2**53 + 1} is beyond MAX_STEPS = 2**53" in err
    assert main(argv + ["-1"]) == 2
    assert f"config error: {flag} must be >= " in capsys.readouterr().err
    assert not list(workdir.iterdir())


def test_negative_seed_is_named(workdir, capsys):
    assert main(["estimate", "--t", "5", "--shots", "10", "--grid-n", "8",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == (
        "config error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("weight", ["inf,0,1", "1,-inf,1", "nan,0,1"])
def test_non_finite_weight_is_named(workdir, capsys, weight):
    assert main(["bounds", "--t", "5", "--weight", weight]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: --weight: weight matrix must have finite "
                   "entries\n")
    assert not list(workdir.iterdir())


def test_site_position_bound_is_named(workdir, capsys):
    assert main(["evolve", "--t", "1", "--init", "localized:-10001"]) == 2
    assert "MAX_SITE_POSITION = 10000" in capsys.readouterr().err
    assert main(["evolve", "--t", "1", "--init", "localized:-10000"]) == 0


@pytest.mark.parametrize("command", [["qfim"], ["bounds"],
                                     ["case", "magnetic", "--b2", "1"]])
@pytest.mark.parametrize("flag", ["--rel-tol=1e-9", "--n-nodes=64"])
def test_quadrature_flags_are_gone(workdir, capsys, command, flag):
    assert main(command + [flag]) == 2
    assert "config error: unrecognized arguments" in capsys.readouterr().err
    key = flag[2:].split("=")[0]
    cfg = workdir / "old.cfg"
    cfg.write_text(key + " = 1\n")
    assert main(command + ["--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_removed_options_are_gone(workdir, capsys):
    estimate = ["estimate", "--t", "5", "--shots", "10", "--grid-n", "8"]
    for argv in (estimate + ["--no-refine"], ["sweep", "prefactor-insets"]):
        assert main(argv) == 2
        assert "config error: " in capsys.readouterr().err
    cfg = workdir / "old.cfg"
    cfg.write_text("no_refine = 1\n")
    assert main(estimate + ["--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["evolve", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["evolve", "--t"], "argument --t: expected one argument"),
    # no prefix of a flag stands for it, as no prefix of a config key does
    (["qfim", "--route", "oracle"], "unrecognized arguments: --route oracle"),
    (["bounds", "--eps", "2"], "unrecognized arguments: --eps 2"),
    (["case"], "the following arguments are required: which"),
    (["sweep", "fig3"], "argument which: invalid choice: 'fig3' "
                        "(choose from 'fig1', 'fig2')"),
    ([], "the following arguments are required: command"),
], ids=["unknown-flag", "missing-value", "prefix-route",
        "prefix-eps", "missing-which", "bad-which", "missing-command"])
def test_argparse_refusals_exit_2(workdir, capsys, argv, message):
    # every refusal returns from main, none exits through argparse
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("argv,key,value,message", [
    (["evolve"], "t", "x", "invalid literal for int() with base 10: 'x'"),
    (["bounds", "--t", "5"], "route", "exact",
     "invalid choice 'exact' (choose from analytic, oracle)"),
], ids=["literal", "choice"])
def test_one_conversion_for_both_sources(workdir, capsys, argv, key, value,
                                         message):
    # a value is converted and checked by its one registry entry, from
    # the command line or a config file; only its source is named apart
    assert main(argv + ["--" + key, value]) == 2
    assert capsys.readouterr().err == f"config error: --{key}: {message}\n"
    (workdir / "run.cfg").write_text(f"{key} = {value}\n")
    assert main(argv + ["--config", "run.cfg"]) == 2
    assert capsys.readouterr().err \
        == f"config error: config key {key!r}: {message}\n"


def test_config_line_needs_an_equals_sign(workdir, capsys):
    (workdir / "run.cfg").write_text("theta = 0.9\n\nt 5  # no '='\n")
    assert main(["evolve", "--config", "run.cfg"]) == 2
    assert capsys.readouterr().err \
        == "config error: run.cfg:3: expected key = value, got 't 5'\n"
    assert not list(workdir.glob("qwf_*"))


def test_empty_parameter_list_is_named(workdir, capsys):
    assert main(["qfim", "--params", ","]) == 2
    assert "--params is empty" in capsys.readouterr().err


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


def test_qfim_repeated_choice_is_refused(workdir, capsys):
    # a route or parameter named twice is refused before anything runs,
    # not computed twice against itself
    for flag, items, item in (("--routes", "analytic,oracle,analytic",
                               "analytic"),
                              ("--params", "theta, theta", "theta")):
        assert main(["qfim", "--t", "5", flag, items]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag}: {item!r} is given twice" in err
    assert not list(workdir.iterdir())


@pytest.mark.parametrize("argv,flag,value", [
    (["evolve", "--t", "2"], "--theta", "-1e-3"),
    (["sweep", "fig2", "--t-max", "5"], "--theta-list", "-1e-3,0.5"),
])
def test_negative_values_in_exponent_notation(tmp_path, monkeypatch, argv,
                                              flag, value):
    # a value after its flag runs as the --flag=value form does
    written = []
    for i, run in enumerate(([flag, value], [f"{flag}={value}"])):
        out = tmp_path / str(i)
        out.mkdir()
        monkeypatch.chdir(out)
        assert main(argv + run) == 0
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert written[0] and written[0] == written[1]


def test_qfim_localized_closed_form_route(workdir):
    assert main(["qfim", "--routes", "localized-closed-form,oracle",
                 "--init", "localized:0", "--bloch", "0,0,1",
                 "--theta", "0.9", "--t", "80"]) == 0
    body = read_json(workdir / "qwf_qfim_report.json")
    assert body["deviations"]["oracle"]["max_rel"] < 0.05


def test_closed_form_route_at_negative_theta(workdir):
    assert main(["qfim", "--theta", "-0.5", "--init", "localized:0",
                 "--routes", "analytic,localized-closed-form"]) == 0
    body = read_json(workdir / "qwf_qfim_report.json")
    assert body["deviations"]["localized-closed-form"]["max_rel"] <= 1e-12


@pytest.mark.parametrize("params", ["theta,alpha,beta", "alpha"])
def test_closed_form_route_serves_any_params(workdir, params):
    # the closed form's (theta, alpha) entries in the order asked, with
    # beta's row and column zero, against the analytic route
    assert main(["qfim", "--params", params,
                 "--routes", "analytic,localized-closed-form",
                 "--init", "gamma:0.6", "--alpha", "0.5",
                 "--beta", "-0.9"]) == 0
    body = read_json(workdir / "qwf_qfim_report.json")
    assert body["deviations"]["localized-closed-form"]["max_rel"] <= 1e-12


def test_closed_form_route_takes_every_single_site_input(workdir):
    # a spinor whose norm the walk accepts (within 1e-12 of 1) has a
    # Bloch length |chi|^2 above 1 + 1e-12; the route reads the
    # normalised coin state's Bloch vector
    assert main(["qfim", "--t", "10", "--init", "localized:0",
                 "--spinor", "1.0000000000009,0",
                 "--routes", "analytic,localized-closed-form"]) == 0
    body = read_json(workdir / "qwf_qfim_report.json")
    assert body["deviations"]["localized-closed-form"]["max_rel"] <= 1e-11


@pytest.mark.parametrize("argv,files", [
    (["evolve"], ["qwf_evolve_distribution.csv", "qwf_evolve_state.json"]),
    (["estimate", "--shots", "100", "--grid-n", "8"],
     ["qwf_estimate_counts.csv", "qwf_estimate_result.json"]),
])
def test_every_command_takes_a_state_the_walk_accepts(workdir, argv, files):
    # the same spinor as above: its probabilities sum to 1 + 1.8e-12, and
    # the position distribution reads the walk's norm rule on their root
    assert main(argv + ["--t", "10", "--init", "localized:0",
                        "--spinor", "1.0000000000009,0"]) == 0
    assert all((workdir / name).stat().st_size for name in files)


def test_norm_refusal_prints_a_plain_number(workdir, capsys):
    assert main(["evolve", "--t", "3", "--init", "localized:0",
                 "--spinor", "1.5,0"]) == 2
    assert capsys.readouterr().err == (
        "config error: bad initial state 'localized:0': state norm 1.5 "
        "deviates from 1 beyond 1e-12\n")


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
    assert report["note"] == f"R = {report['r']:.3e} <= 1.0e-06"
    _, header, rows = csv_rows(workdir / "qwf_bounds_bounds.csv")
    assert "holevo" in header
    assert len(rows) == 1


def test_bounds_weight_scalarizes_the_reported_matrix(workdir):
    assert main(["bounds", "--t", "40", "--weight", "2,0.5,1"]) == 0
    report = read_json(workdir / "qwf_bounds_bounds_report.json")
    f = np.array(report["fisher"])
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    expected = float(np.trace(np.linalg.inv(f) @ w))
    assert report["symmetric"] == pytest.approx(expected, rel=1e-12)
    assert report["config"]["weight"] == "2,0.5,1"


def test_bounds_incompatible_note_and_strict(workdir, capsys):
    args = ["bounds", "--route", "oracle", "--init", "gamma:0.9",
            "--theta", "0.8", "--alpha", "0.3", "--t", "30"]
    assert main(args) == 0
    assert "holevo: unavailable" in capsys.readouterr().out
    report = read_json(workdir / "qwf_bounds_bounds_report.json")
    assert report["holevo"] is None
    assert main(args + ["--strict"]) == 4
    assert "model error" in capsys.readouterr().err


def test_bounds_gate_reads_R(workdir, capsys):
    # max |D| / max |F| is below eps = 1e-6 here; R = 9.491e-05 is not
    args = ["bounds", "--route", "oracle", "--t", "10", "--theta", "1.5707",
            "--init", "gamma:0.6", "--alpha", "0.5", "--beta", "-0.9"]
    assert main(args) == 0
    assert "holevo: unavailable (incompatibility R = 9.491e-05 exceeds " \
        "1.0e-06; " in capsys.readouterr().out
    report = read_json(workdir / "qwf_bounds_bounds_report.json")
    assert report["holevo"] is None
    assert report["note"].startswith(
        f"incompatibility R = {report['r']:.3e} exceeds 1.0e-06; ")
    assert main(args + ["--strict"]) == 4
    assert capsys.readouterr().err.startswith(
        "model error: incompatibility R = 9.491e-05 exceeds 1.0e-06; ")


def test_sweep_file_sets(workdir):
    assert main(["sweep", "fig1", "--t-max", "20"]) == 0
    assert main(["sweep", "fig2", "--t-max", "20"]) == 0
    for name in ("qwf_sweep_curves.csv", "qwf_sweep_inset.csv"):
        assert (workdir / name).exists()


def test_sweep_fig2_theta_list(workdir, capsys):
    assert main(["sweep", "fig2", "--t-max", "5",
                 "--theta-list", "0.5, 1.0,"]) == 0
    cols = read_json(workdir / "qwf_sweep_curves.json")["columns"]
    assert cols["theta"] == [0.5] * 5 + [1.0] * 5
    assert cols["t"] == [1, 2, 3, 4, 5] * 2
    assert main(["sweep", "fig2", "--theta-list", " , "]) == 2
    assert main(["sweep", "fig2", "--theta-list", "0.5,pi/4"]) == 2
    assert "--theta-list expects" in capsys.readouterr().err


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


def test_non_finite_gamma_is_named(workdir, capsys):
    # gamma is checked before e^{i gamma} is formed: no numpy warning and
    # no norm error downstream
    assert main(["evolve", "--t", "3", "--init", "gamma:inf"]) == 2
    err = capsys.readouterr().err
    assert "gamma must be finite, got inf" in err
    assert "norm" not in err


@pytest.mark.parametrize("k", [1, 6, 12])
def test_case_round_trips_at_the_window_edge(workdir, capsys, k):
    # fields at |B| = pi/2 - 10^-k through qwf.main, in both encodings,
    # recovered within the property tests' tolerances
    big = math.pi / 2 - 10.0 ** -k
    eps, a_x = 0.1, 0.7
    for phi in (0.3, 1.0, 2.5):
        b2, b3 = -big * math.sin(phi), big * math.cos(phi)
        assert main(["case", "magnetic", "--b2", repr(b2), "--b3", repr(b3),
                     "--t", "50"]) == 0
        trip = read_json(workdir / "qwf_case_magnetic_report.json")[
            "round_trip"]
        assert trip["b2"]["abs_err"] <= 1e-15
        assert trip["b3"]["abs_err"] <= 1e-15
        m, q = b2 / eps, b3 / (eps * a_x)
        assert main(["case", "dirac", "--m", repr(m), "--q", repr(q),
                     "--ax", repr(a_x), "--eps", repr(eps),
                     "--t", "50"]) == 0
        trip = read_json(workdir / "qwf_case_dirac_report.json")[
            "round_trip"]
        scale = max(abs(m), abs(q))
        assert trip["m"]["abs_err"] <= 1e-15 * scale
        assert trip["q"]["abs_err"] <= 1e-15 * scale
    assert "error" not in capsys.readouterr().err


def test_case_dirac_first_order(workdir):
    assert main(["case", "dirac", "--m", "1.2", "--q", "0.7", "--ax", "1.0",
                 "--eps", "0.01", "--t", "50"]) == 0
    body = read_json(workdir / "qwf_case_dirac_report.json")
    assert body["first_order"]["abs_err_m"] <= 1e-3
    assert body["first_order"]["abs_err_q"] <= 1e-3
    assert body["round_trip"]["m"]["abs_err"] <= 1e-10


def test_case_dirac_ax_alias(workdir):
    args = ["case", "dirac", "--m", "1.2", "--q", "0.7", "--eps", "0.01",
            "--t", "50"]
    assert main(args + ["--Ax", "0.8", "--out", "alias"]) == 0
    assert main(args + ["--ax", "0.8", "--out", "plain"]) == 0
    alias = read_json(workdir / "alias_report.json")
    plain = read_json(workdir / "plain_report.json")
    assert alias["config"]["ax"] == 0.8
    assert alias["coin"] == plain["coin"]
    assert alias["fisher_physical"] == plain["fisher_physical"]


def test_estimate_deterministic_and_honest(workdir, capsys):
    args = ["estimate", "--t", "30", "--shots", "5000", "--seed", "7",
            "--grid-n", "60"]
    assert main(args) == 0
    first = (workdir / "qwf_estimate_result.json").read_bytes()
    out1 = capsys.readouterr().out
    assert "+/- inf" in out1          # flat alpha direction, said plainly
    assert "alpha_hat = unidentified (+/- inf)" in out1
    assert main(args) == 0
    assert (workdir / "qwf_estimate_result.json").read_bytes() == first
    result = read_json(workdir / "qwf_estimate_result.json")
    assert abs(result["theta_hat"] - math.pi / 4) < 0.05
    assert result["identified"]["theta"] is True
    assert result["identified"]["alpha"] is False
    assert result["stderr_alpha"] is None     # inf maps to null in JSON
    # the grid picks a flat alpha by rounding: no number is quoted
    assert result["alpha_hat"] is None
    assert result["grid_argmax"]["alpha"] is None
    rec = read_json(workdir / "qwf_estimate_record.json")
    assert sum(rec["record"]["counts"].values()) == 5000


def test_estimate_diagnostics_and_box_warnings(workdir, capsys):
    assert main(["estimate", "--t", "30", "--shots", "5000", "--seed", "7",
                 "--grid-n", "60"]) == 0
    out = capsys.readouterr().out
    assert "grid-box edge" not in out and "outside the grid box" not in out
    result = read_json(workdir / "qwf_estimate_result.json")
    diag = result["diagnostics"]
    assert diag["grid"] == {"n_theta": 60, "n_alpha": 60,
                            "rows_evaluated": 4}
    assert diag["newton_steps"] + diag["scoring_steps"] \
        == result["iterations"]
    assert result["converged"] and diag["last_step"] < 1e-9
    assert 0.0 <= diag["score_norm"] < 1e-3
    # the true theta lies above the box's theta_max = 1.47, and the fit,
    # clipped to the box, stops on that edge
    assert main(["estimate", "--theta", "1.52", "--t", "10", "--shots",
                 "2000", "--grid-n", "20"]) == 0
    out = capsys.readouterr().out
    assert "theta_hat on the grid-box edge" in out
    assert "true (theta, alpha) outside the grid box" in out
    assert read_json(workdir / "qwf_estimate_result.json")["theta_hat"] \
        == 1.47


def test_estimate_edge_fit_converges_on_the_edge(workdir, capsys):
    # the score points out of the box at theta_max: theta is held on the
    # edge and the step on alpha alone converges
    assert main(["estimate", "--theta", "1.52", "--t", "10", "--shots",
                 "2000", "--grid-n", "20"]) == 0
    assert "not converged" not in capsys.readouterr().out
    result = read_json(workdir / "qwf_estimate_result.json")
    assert result["converged"] and result["theta_hat"] == 1.47
    assert result["diagnostics"]["on_edge"] == ["theta"]
    assert result["diagnostics"]["last_step"] < 1e-9
    assert result["iterations"] < 12
    # an interior fit holds nothing
    assert main(["estimate", "--t", "30", "--shots", "5000", "--seed", "7",
                 "--grid-n", "60"]) == 0
    assert read_json(workdir / "qwf_estimate_result.json")[
        "diagnostics"]["on_edge"] == []


def test_estimate_identified_alpha_keeps_its_number(workdir, capsys):
    assert main(["estimate", "--init", "gamma:0.6", "--alpha", "0.3",
                 "--beta", "0.4", "--t", "30", "--shots", "5000",
                 "--seed", "7", "--grid-n", "60"]) == 0
    out = capsys.readouterr().out
    assert "unidentified" not in out
    result = read_json(workdir / "qwf_estimate_result.json")
    assert result["identified"]["alpha"] is True
    assert abs(result["alpha_hat"] - 0.3) < 5 * result["stderr_alpha"]
    assert isinstance(result["grid_argmax"]["alpha"], float)
    assert f"alpha_hat = {result['alpha_hat']:.12g} +/- " in out


@pytest.mark.parametrize("argv,files", [
    (["evolve", "--t", "3"],
     ["distribution.csv", "distribution.json", "state.json"]),
    (["qfim", "--t", "3"], ["report.csv", "report.json"]),
    (["bounds", "--t", "3"],
     ["bounds.csv", "bounds.json", "bounds_report.json"]),
    (["sweep", "fig1", "--t-max", "3"],
     ["curves.csv", "curves.json", "inset.csv", "inset.json"]),
    (["case", "magnetic", "--b2", "0.4", "--t", "3"],
     ["report.csv", "report.json"]),
    (["estimate", "--t", "5", "--shots", "10", "--grid-n", "8"],
     ["counts.csv", "counts.json", "record.json", "result.json"]),
], ids=["evolve", "qfim", "bounds", "sweep", "case", "estimate"])
def test_out_prefix_names_every_file(workdir, capsys, argv, files):
    # each command writes exactly its files under --out, and its last
    # stdout line lists them in the order written
    assert main(argv + ["--out", "run"]) == 0
    names = ["run_" + name for name in files]
    assert sorted(path.name for path in workdir.iterdir()) == sorted(names)
    assert capsys.readouterr().out.splitlines()[-1] \
        == "wrote " + ", ".join(names)


def test_out_prefix_respected(workdir):
    assert main(["evolve", "--t", "5", "--out", "runA"]) == 0
    assert (workdir / "runA_distribution.csv").exists()
    assert not (workdir / "qwf_evolve_distribution.csv").exists()


# ---------------------------------------------------------------------------
# fuzz: any flag values end in a typed exit code, never a traceback

_SPECIAL = ["nan", "inf", "-inf", "-1", "0", "1e-300"]
_floats = st.one_of(st.floats(-4.0, 4.0).map(repr), st.sampled_from(_SPECIAL))
# case values within 10^-k of the encodings' pi/2 window edge
_EDGES = [s * (math.pi / 2 - 10.0 ** -k) for s in (1, -1) for k in range(1, 13)]
_edge_floats = st.one_of(_floats, st.sampled_from(_EDGES).map(repr))
# junk holds no digits: sites and spans come only from the integer
# strategies, whose widest draws reach just past MAX_SITE_POSITION
_junk = st.text(alphabet="abgilmnortyz:,.-+ ()j", max_size=10)
_small = st.integers(-3, 4).map(str)
_site = st.one_of(_small, st.integers(-MAX_SITE_POSITION - 1,
                                      MAX_SITE_POSITION + 1).map(str))


def _init_strategy(site):
    return st.one_of(
        _junk,
        st.builds("entangled:{},{}".format, site, site),
        st.builds(lambda k, a: f"{k}:{a}",
                  st.sampled_from(["localized", "entangled", "gamma",
                                   "Gamma", "thermal", ""]),
                  st.one_of(site, _floats, _junk,
                            st.lists(site, max_size=3).map(",".join))))


_lists = lambda words: st.one_of(
    _junk, st.lists(st.sampled_from(words), max_size=4).map(",".join))
_FLAGS = {
    "theta": _floats, "alpha": _floats, "beta": _floats,
    # the engine is linear in the span, so the widest inputs are cheap
    "init": _init_strategy(_site), "spinor": st.one_of(_junk, st.lists(
        _floats, max_size=3).map(",".join)),
    "bloch": st.one_of(_junk, st.lists(_floats, max_size=4).map(",".join)),
    "t": st.integers(-2, 12).map(str),
    "routes": _lists(["analytic", "oracle", "localized-closed-form", "x"]),
    "params": _lists(["theta", "alpha", "beta", "", "zeta"]),
    "route": st.sampled_from(["analytic", "oracle", "exact"]),
    "weight": st.one_of(_junk, st.lists(_floats, max_size=4).map(",".join)),
    "eps-compat": _floats,
    "theta-list": st.one_of(_junk, st.lists(_floats, max_size=3).map(
        ",".join)),
    "t-max": st.integers(-1, 30).map(str),
    "b2": _edge_floats, "b3": _edge_floats, "m": _edge_floats, "q": _floats,
    "ax": _floats, "eps": _edge_floats,
    "shots": st.integers(-1, 50).map(str),
    "seed": st.integers(-2, 5).map(str),
    "grid-n": st.integers(-1, 6).map(str),
}
# estimate builds its table over the whole window, linear in the span
# but seconds at the widest one: its inputs stay narrow
_ESTIMATE_FLAGS = dict(_FLAGS, init=_init_strategy(_small))
_COMMANDS = {
    ("evolve",): ["theta", "alpha", "beta", "init", "spinor", "bloch", "t"],
    ("qfim",): ["theta", "alpha", "beta", "init", "t", "routes", "params"],
    ("bounds",): ["theta", "alpha", "beta", "init", "t", "route", "weight",
                  "eps-compat"],
    ("sweep", "fig1"): ["theta", "t-max"],
    ("sweep", "fig2"): ["theta-list", "t-max"],
    ("case", "magnetic"): ["b2", "b3", "init", "t"],
    ("case", "dirac"): ["m", "q", "ax", "eps", "init", "t"],
    ("estimate",): ["theta", "alpha", "beta", "init", "t", "shots", "seed",
                    "grid-n"],
}


def _placed(draw, command, values: dict):
    """(argv, config lines): each value goes on the command line or into
    a ``--config`` file."""
    argv, config = list(command), []
    for flag, value in values.items():
        if draw(st.booleans()):
            config.append(f"{flag} = {value}")
        else:
            argv.append(f"--{flag}={value}")
    return argv, config


@st.composite
def _argv(draw):
    """Any subset of a command's flags, each value valid or not."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _ESTIMATE_FLAGS if command == ("estimate",) else _FLAGS
    values = {flag: draw(flags[flag]) for flag in _COMMANDS[command]
              if draw(st.booleans())}
    if command[0] in ("qfim", "bounds", "case", "estimate") \
            and "t" not in values:
        values["t"] = "8"               # keep the default t = 100 cheap
    return _placed(draw, command, values)


# a field inside the encodings' window |B| < pi/2, edges included, at an
# angle phi from the b3 axis that keeps b2 = -|B| sin phi off zero
_field_size = st.one_of(st.floats(1e-3, math.pi / 2, exclude_max=True),
                        st.sampled_from([abs(e) for e in _EDGES]))
_field_angle = st.floats(0.01, math.pi - 0.01).flatmap(
    lambda phi: st.sampled_from([phi, -phi]))
_valid_inits = lambda site: st.one_of(
    st.builds("localized:{}".format, site),
    st.lists(site, min_size=2, max_size=2, unique=True).map(
        lambda pair: "entangled:" + ",".join(pair)),
    st.builds("gamma:{!r}".format, st.floats(-4.0, 4.0)))


@st.composite
def _complete_argv(draw):
    """Every flag of ``case`` or ``estimate``, drawn inside its window:
    the field (or the Dirac step's eps W) inside |B| < pi/2, and
    (theta, alpha) inside the estimator's grid box."""
    # case runs cost little: draw them twice as often
    command = draw(st.sampled_from([("case", "magnetic"), ("case", "dirac")]
                                   * 2 + [("estimate",)]))
    values = {"t": draw(st.integers(1, 12))}
    if command[0] == "case":
        size, phi = draw(_field_size), draw(_field_angle)
        b2, b3 = -size * math.sin(phi), size * math.cos(phi)
        values["init"] = draw(_valid_inits(_site))
        if command[1] == "magnetic":
            values.update(b2=repr(b2), b3=repr(b3))
        else:
            eps = draw(st.floats(1e-3, 1.0))
            a_x = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1, -1]))
            values.update(m=repr(b2 / eps), q=repr(b3 / (eps * a_x)),
                          ax=repr(a_x), eps=repr(eps))
    else:
        values.update(
            theta=repr(draw(st.floats(0.1, 1.47))),
            alpha=repr(draw(st.floats(-1.47, 1.47))),
            beta=repr(draw(st.floats(-math.pi, math.pi))),
            init=draw(_valid_inits(_small)),
            shots=str(draw(st.integers(1, 500))),
            seed=str(draw(st.integers(0, 2 ** 32 - 1))),
            **{"grid-n": str(draw(st.integers(2, 12)))})
    return command, _placed(draw, command, values)


def _exit_code(work, argv, config):
    """main's exit code, with the drawn config lines written to a file."""
    if config:
        cfg = work / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in config))
        argv = argv + ["--config", str(cfg)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(work / "run")])
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=_argv())
def test_fuzz_main_exits_typed(tmp_path_factory, drawn):
    _exit_code(tmp_path_factory.mktemp("fuzz"), *drawn)


def test_fuzz_complete_case_and_estimate_runs_succeed(tmp_path_factory):
    codes = {}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(drawn=_complete_argv())
    def run(drawn):
        command, (argv, config) = drawn
        codes.setdefault(command, []).append(
            _exit_code(tmp_path_factory.mktemp("fuzz"), argv, config))

    run()
    # a typed exit stays possible (|cos theta| < 3e-3 fails the round
    # trip, exit 3), but in-window draws mostly succeed
    assert len(codes) == 3
    for command, seen in codes.items():
        assert seen.count(0) >= len(seen) // 2, (command, seen)
