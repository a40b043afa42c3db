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
    (["qfim", "--theta", "1e-4", "--alpha", "0.3", "--t", "100"], 0),  # tiny s
    (["bounds", "--eps-compat", "nan"], 2),                # certifies nothing
    (["sweep", "fig1", "--theta", "nan"], 2),              # sweep angles pass
    (["sweep", "fig1", "--theta", "0"], 4),                # the coin's gates
    (["sweep", "fig2", "--theta-list", "0.5,nan"], 2),
    (["sweep", "fig2", "--theta-list", "0"], 4),
    (["sweep", "fig2", "--theta-list", "1.5707963267948966"], 4),  # F singular
    # a 200,002-site window is refused before anything is allocated
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
])
def test_exit_codes(workdir, capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    expected = {0: "", 4: "model error", 3: "numerical error",
                2: "config error"}
    assert expected[code] in err
    assert "Traceback" not in err


def test_input_window_cap_is_named(workdir, capsys):
    assert main(["evolve", "--t", "1", "--init", "entangled:0,200001"]) == 2
    assert "MAX_INPUT_SITES = 1024" in capsys.readouterr().err
    # the widest allowed input runs; one site more is refused
    assert main(["evolve", "--t", "1", "--init", "entangled:5,1028"]) == 0
    assert main(["evolve", "--t", "1", "--init", "entangled:1029,5"]) == 2


def test_site_position_bound_is_named(workdir, capsys):
    assert main(["evolve", "--t", "1", "--init", "localized:-10001"]) == 2
    assert "MAX_SITE_POSITION = 10000" in capsys.readouterr().err
    assert main(["evolve", "--t", "1", "--init", "localized:-10000"]) == 0


@pytest.mark.parametrize("command", [["qfim"], ["bounds"],
                                     ["case", "magnetic", "--b2", "1"]])
@pytest.mark.parametrize("flag", ["--rel-tol=1e-9", "--n-nodes=64"])
def test_quadrature_flags_are_gone(workdir, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(command + [flag])
    assert exc.value.code == 2
    key = flag[2:].split("=")[0]
    cfg = workdir / "old.cfg"
    cfg.write_text(key + " = 1\n")
    assert main(command + ["--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_removed_options_are_gone(workdir, capsys):
    estimate = ["estimate", "--t", "5", "--shots", "10", "--grid-n", "8"]
    for argv in (estimate + ["--no-refine"], ["sweep", "prefactor-insets"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    cfg = workdir / "old.cfg"
    cfg.write_text("no_refine = 1\n")
    assert main(estimate + ["--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_empty_parameter_list_is_named(workdir, capsys):
    assert main(["qfim", "--params", ","]) == 2
    assert "no parameters requested" in capsys.readouterr().err


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


def test_out_prefix_respected(workdir):
    assert main(["evolve", "--t", "5", "--out", "runA"]) == 0
    assert (workdir / "runA_distribution.csv").exists()
    assert not (workdir / "qwf_evolve_distribution.csv").exists()


# ---------------------------------------------------------------------------
# fuzz: any flag values end in a typed exit code, never a traceback

_SPECIAL = ["nan", "inf", "-inf", "-1", "0", "1e-300"]
_floats = st.one_of(st.floats(-4.0, 4.0).map(repr), st.sampled_from(_SPECIAL))
# case values within 10^-k of the encodings' pi/2 window edge
_edge_floats = st.one_of(_floats, st.sampled_from(
    [repr(s * (math.pi / 2 - 10.0 ** -k)) for s in (1, -1)
     for k in range(1, 13)]))
# digit-free junk keeps drawn windows small: a random
# "entangled:0,99999999" would allocate gigabytes before any check
_junk = st.text(alphabet="abgilmnortyz:,.-+ ()j", max_size=10)
_small = st.integers(-3, 4).map(str)
_inits = st.one_of(
    _junk,
    st.builds(lambda k, a: f"{k}:{a}",
              st.sampled_from(["localized", "entangled", "gamma", "Gamma",
                               "thermal", ""]),
              st.one_of(_small, _floats, _junk,
                        st.lists(_small, max_size=3).map(",".join))))
_lists = lambda words: st.one_of(
    _junk, st.lists(st.sampled_from(words), max_size=4).map(",".join))
_FLAGS = {
    "theta": _floats, "alpha": _floats, "beta": _floats,
    "init": _inits, "spinor": st.one_of(_junk, st.lists(
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


@st.composite
def _argv(draw):
    """(argv, config lines): each drawn flag goes on the command line or
    into a ``--config`` file."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, config = list(command), []
    for flag in _COMMANDS[command]:
        value = draw(st.none() | _FLAGS[flag])
        if value is None:
            continue
        if draw(st.booleans()):
            config.append(f"{flag} = {value}")
        else:
            argv.append(f"--{flag}={value}")
    if command[0] in ("qfim", "bounds", "case", "estimate") \
            and not any(a.startswith("--t=") or a.startswith("t = ")
                        for a in argv + config):
        argv.append("--t=8")            # keep the default t = 100 cheap
    return argv, config


@pytest.mark.filterwarnings("ignore:separation")      # even entangled pairs
@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=_argv())
def test_fuzz_main_exits_typed(tmp_path_factory, drawn):
    argv, config = drawn
    work = tmp_path_factory.mktemp("fuzz")
    if config:
        cfg = work / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in config))
        argv = argv + ["--config", str(cfg)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--out", str(work / "run")])
        except SystemExit as exc:       # argparse rejects a value
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
