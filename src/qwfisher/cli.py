"""``qwf``: command-line front end for the walk metrology toolkit.

Subcommands
    evolve     run the walk and dump state + position distribution
    qfim       information matrix by one or more routes, side by side
    bounds     scalar precision bounds (symmetric, sandwich, Holevo)
    sweep      figure-data tables (information growth, bound decay)
    case       physical encodings end to end (magnetic | dirac)
    estimate   sample a measurement record and fit (theta, alpha)

Every flag can also be given in a ``key = value`` config file passed
with ``--config``; explicit command-line flags win on conflict.  Every
refused value, flag or subcommand is a ConfigError (exit 2), and each
command validates all of its input before its first engine run.
Outputs are CSV/JSON with the resolved configuration embedded, no
timestamps, so a config reproduces its files byte for byte.

Exit codes and stderr labels: see ``qwfisher.errors``, where each
error type carries its own.  The heavy imports live inside the command
functions, so importing this module stays cheap.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import warnings

from .errors import ConfigError, IncompatibleModel, QwfError

_UNSET = object()

# Largest |x| of a site that ``--init`` may name.  The engine's phases
# e^{-ikx} lose digits in proportion to |x|: at t = 100 and
# theta = pi/4, ``evolve`` amplitudes differ from the same input at the
# origin by 2.1e-13 at |x| = 1e4, 1.3e-12 at 6.6e4 and 2.4e-11 at 1e6,
# so this bound keeps that error under 1e-12.
MAX_SITE_POSITION = 10_000

def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    val = str(raw).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


class _Parser(argparse.ArgumentParser):
    """argparse whose every refusal is a ConfigError (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


class _Cmd:
    """One subcommand: its argparse parser plus the flag registry.

    Flags are registered with sentinel defaults so that, after parsing,
    unset ones can be filled from the config file and finally from the
    recorded defaults.  That ordering makes the command line override
    the file without any token juggling.
    """

    def __init__(self, subparsers, name, help_text, func, stem=None):
        self.name = name
        self.func = func
        # default output prefix qwf_<stem>, formatted with the parsed flags
        self.stem = stem or name
        self.registry = {}
        # a flag is named in full, as its config key is
        self.parser = subparsers.add_parser(name, help=help_text,
                                            allow_abbrev=False)
        # argparse would take "-1e-3" for a flag; none starts with a digit
        self.parser._negative_number_matcher = re.compile(r"-\.?\d")
        self.parser.set_defaults(_cmd=self)
        self.parser.add_argument("--config", default=None, metavar="FILE",
                                 help="key = value file mirroring the flags")
        self.add("out", default=None, help="output file prefix")

    def add(self, flag, *, type=str, default=None, help=None, choices=None,
            metavar=None):
        dest, name = flag.replace("-", "_"), "--" + flag
        if type is bool:
            self.parser.add_argument(name, dest=dest, action="store_true",
                                     default=_UNSET, help=help)
        else:
            self.parser.add_argument(
                name, dest=dest, default=_UNSET, help=help,
                metavar="{" + ",".join(choices) + "}" if choices else metavar)
        self.registry[dest] = (_parse_bool if type is bool else type, default,
                               choices)

    def add_positional(self, name, choices, help=None):
        self.parser.add_argument(name, choices=choices, help=help)

    def resolve(self, ns) -> _Sink:
        """Convert each flag given on the command line or in the config
        file and fill the rest from the defaults; return the run's output
        sink, which carries the resolved config (its echo)."""
        cfg = _load_config(ns.config) if ns.config else {}
        for dest, (conv, default, choices) in self.registry.items():
            raw, source = cfg.pop(dest, _UNSET), f"config key {dest!r}"
            if getattr(ns, dest) is not _UNSET:     # the command line wins
                raw, source = getattr(ns, dest), "--" + dest.replace("_", "-")
            if raw is _UNSET:
                setattr(ns, dest, default)
                continue
            try:
                value = conv(raw)
                if choices and value not in choices:
                    raise ValueError(f"invalid choice {value!r} (choose "
                                     f"from {', '.join(choices)})")
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{source}: {exc}")
            setattr(ns, dest, value)
        if cfg:
            raise ConfigError(f"unknown config keys for {self.name!r}: "
                              + ", ".join(sorted(cfg)))
        echo = {"command": self.name}
        if ns.config:
            echo["config_file"] = ns.config
        for dest in sorted(self.registry):
            echo[dest] = getattr(ns, dest)
        if hasattr(ns, "which"):
            echo["which"] = ns.which
        return _Sink(ns.out or "qwf_" + self.stem.format_map(vars(ns)), echo)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    out = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value, "
                              f"got {line!r}")
        key = key.strip().lower().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = val.strip()
    return out


# ---------------------------------------------------------------------------
# shared option groups and small parsers


def _add_coin_flags(cmd, theta_default):
    cmd.add("theta", type=float, default=theta_default, help="coin rotation angle")
    cmd.add("alpha", type=float, default=0.0, help="first coin phase")
    cmd.add("beta", type=float, default=0.0, help="second coin phase")


def _add_init_flags(cmd, default="localized:0"):
    cmd.add("init", default=default,
            help="localized:X0 | entangled:X1,X2 | gamma:G")
    cmd.add("spinor", default=None, metavar="C0,C1",
            help="internal spinor for localized input, complex literals")
    cmd.add("bloch", default=None, metavar="RX,RY,RZ",
            help="internal Bloch vector for localized input")


def _items(raw, flag, conv=str, size=None, choices=None) -> list:
    """The items of the comma list ``raw`` that ``flag`` was given.

    Items are stripped and empty ones dropped; each is then checked
    against ``choices`` and converted by ``conv``.  An empty list, an
    unknown, repeated (of ``choices``) or unconvertible item, or a count
    other than ``size`` is a ConfigError naming the flag.
    """
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{flag} is empty")
    for i, item in enumerate(items):
        if choices and item not in choices:
            raise ConfigError(f"{flag}: unknown {item!r}; choose from "
                              + ", ".join(choices))
        if choices and item in items[:i]:
            raise ConfigError(f"{flag}: {item!r} is given twice")
    try:
        values = [conv(s) for s in items]
    except ValueError:
        values = None
    if values is None or len(values) != (size or len(values)):
        count = f"{size} " if size else ""
        raise ConfigError(f"{flag} expects {count}comma-separated values, "
                          f"got {raw!r}")
    return values


def _site(x: int) -> int:
    if abs(x) > MAX_SITE_POSITION:
        raise ConfigError(f"site {x} is beyond MAX_SITE_POSITION = "
                          f"{MAX_SITE_POSITION} from the origin")
    return x


def _parse_init(ns):
    import numpy as np

    from .walk import (CoinBlochState, initial_entangled, initial_gamma,
                       initial_localized)

    text = str(ns.init).strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    spinor = getattr(ns, "spinor", None)
    bloch = getattr(ns, "bloch", None)
    if kind != "localized" and (spinor or bloch):
        raise ConfigError("--spinor/--bloch only apply to localized inputs")
    try:
        if kind == "localized":
            kw = {"x0": _site(int(rest)) if rest else 0}
            if spinor and bloch:
                raise ConfigError("give either --spinor or --bloch, not both")
            if spinor:
                kw["spinor"] = np.array(_items(
                    spinor, "--spinor", lambda c: complex(c.replace(" ", "")),
                    size=2))
            if bloch:
                kw["bloch"] = CoinBlochState(
                    np.array(_items(bloch, "--bloch", float, size=3)))
            return initial_localized(**kw)
        if kind == "entangled":
            x1, x2 = _items(rest, "--init", int, size=2) if rest else (0, 1)
            return initial_entangled(_site(x1), _site(x2))
        if kind == "gamma":
            return initial_gamma(float(rest) if rest else 0.0)
    except ValueError as exc:
        raise ConfigError(f"bad initial state {text!r}: {exc}")
    raise ConfigError(f"unknown initial state kind {kind!r} "
                      "(localized | entangled | gamma)")


def _coin(ns):
    from .walk import CoinParams
    return CoinParams(theta=ns.theta, alpha=ns.alpha, beta=ns.beta)


class _StrColumnTable:
    """Columns whose first ones hold strings, written as one CSV table."""

    def __init__(self, columns: dict):
        self.columns = columns

    def to_csv(self, path, comments=()) -> None:
        from ._io import write_csv
        write_csv(path, self.columns, comments)


class _Sink:
    """Every file one run writes, each named once under the run's prefix.

    CSV files carry the config echo in their comments and JSON files in
    their envelope; an unwritable directory or write is a ConfigError;
    ``files`` lists the paths written, in order, for the ``wrote`` line.
    """

    def __init__(self, prefix, echo):
        from ._io import SCHEMA_VERSION, jsonable
        from . import __version__
        directory = os.path.dirname(prefix) or os.curdir
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ConfigError(f"cannot write in {directory!r}: not a "
                              "writable directory")
        self.prefix, self.echo, self.files = prefix, echo, []
        self.envelope = {"schema_version": SCHEMA_VERSION,
                         "qwfisher_version": __version__, "config": echo}
        self.comments = [
            "config: " + json.dumps(jsonable(echo), sort_keys=True),
            f"schema_version: {SCHEMA_VERSION}  qwfisher: {__version__}"]

    @contextlib.contextmanager
    def _path(self, name):
        path = f"{self.prefix}_{name}"
        try:
            yield path
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename}: "
                              f"{exc.strerror or exc}") from exc
        self.files.append(path)

    def _csv(self, stem, table) -> None:
        with self._path(stem + ".csv") as path:
            table.to_csv(path, comments=self.comments)

    def csv(self, stem, columns: dict) -> None:
        """Columns, string ones allowed, as a CSV table alone."""
        self._csv(stem, _StrColumnTable(columns))

    def table(self, stem, table) -> None:
        """A ``DataTable`` as a CSV table and its JSON twin."""
        self._csv(stem, table)
        with self._path(stem + ".json") as path:
            table.to_json(path, extra_meta={
                "config": self.echo,
                "qwfisher_version": self.envelope["qwfisher_version"]})

    def report(self, stem, body: dict) -> None:
        from ._io import write_json
        with self._path(stem + ".json") as path:
            write_json(path, {**self.envelope, **body})


def _matrix_rows(labels, mats: dict) -> dict:
    """CSV columns of named square matrices, one row per (row, col) pair;
    a column name has '_' where its matrix name has '-'."""
    cols = {"param_row": [a for a in labels for _ in labels],
            "param_col": [b for _ in labels for b in labels]}
    for name, mat in mats.items():
        cols[name.replace("-", "_")] = [float(x) for row in mat for x in row]
    return cols


# ---------------------------------------------------------------------------
# commands


def cmd_evolve(ns, out) -> None:
    from ._io import DataTable
    from .estimation import position_distribution
    from .walk import evolve, step_count

    p = _coin(ns)
    t = step_count(ns.t, 0, "--t")
    init = _parse_init(ns)
    final = evolve(init, p, t)
    dist = position_distribution(final)
    out.table("distribution", DataTable(
        columns={"site": dist.sites, "probability": dist.probs},
        meta={"t": t, "norm": final.norm}))
    out.report("state", {"state": final.to_json_dict(), "norm": final.norm})
    print(f"evolved t={t}: window [{final.origin}, "
          f"{final.origin + final.n_sites - 1}], norm={final.norm:.15f}")


_ROUTES = ("analytic", "localized-closed-form", "oracle")


def _qfim_by_route(route, p, init, t, params):
    import numpy as np
    from .oracle import exact_matrices
    from .qfim import (QFIMatrix, qfim_localized, qfim_theorem1, rho_bloch,
                       uhlmann_analytic)
    from .walk import PARAM_NAMES

    if route == "analytic":
        f = qfim_theorem1(p, init, t, params=params)
        return f, uhlmann_analytic(p, init, t, params=params)
    if route == "localized-closed-form":
        # one site (cmd_qfim's gate), by its coin state's Bloch vector,
        # which the closed form reads as the normalised state's
        f = qfim_localized(p.theta, p.alpha - p.beta,
                           rho_bloch(init.amps[0])[1:], t)
        # its (theta, phi) block is the (theta, alpha) block, and beta's
        # row and column are zero: beta never enters the information
        full = QFIMatrix(np.pad(f.entries, (0, 1)), PARAM_NAMES, f.t)
        return full.block(params), uhlmann_analytic(p, init, t, params=params)
    # "oracle": the flags admit no other route
    return exact_matrices(init, p, t, params=params)


def cmd_qfim(ns, out) -> None:
    import numpy as np
    from .qfim import beta_null_check
    from .walk import PARAM_NAMES, step_count

    p = _coin(ns)
    t = step_count(ns.t, 1, "--t")
    init = _parse_init(ns)
    params = tuple(_items(ns.params, "--params", choices=PARAM_NAMES))
    routes = _items(ns.routes, "--routes", choices=_ROUTES)
    if "localized-closed-form" in routes and init.n_sites != 1:
        raise ConfigError("the localized closed form needs a single-site "
                          "input; use --init localized:X")
    results = {route: _qfim_by_route(route, p, init, t, params)
               for route in routes}

    ref_route = routes[0]
    ref = results[ref_route][0].entries
    scale = max(1.0, float(np.max(np.abs(ref))))
    devs = {route: np.abs(results[route][0].entries - ref)
            for route in routes[1:]}
    deviations = {route: {"max_abs": float(np.max(dev)),
                          "max_rel": float(np.max(dev)) / scale,
                          "reference": ref_route}
                  for route, dev in devs.items()}
    beta_null = beta_null_check(p)
    mats = {"f_" + r: results[r][0].entries for r in routes}
    mats.update(("dev_" + r, dev) for r, dev in devs.items())
    out.csv("report", _matrix_rows(params, mats))
    out.report("report", {
        "params": list(params),
        "routes": {route: {
            "entries": results[route][0].entries,
            "per_t2": results[route][0].per_t2,
            "asymptotic": route != "oracle",
            "uhlmann": results[route][1].entries,
        } for route in routes},
        "deviations": deviations,
        "beta_null_residual": beta_null,
    })

    for route in routes:
        diag = np.diag(results[route][0].entries)
        print(f"{route}: diag = "
              + ", ".join(f"{params[i]}={diag[i]:.12g}" for i in range(len(params))))
    for route, dev in deviations.items():
        print(f"deviation {route} vs {ref_route}: max_abs={dev['max_abs']:.3e} "
              f"max_rel={dev['max_rel']:.3e}")
    print(f"beta_null_residual = {beta_null:.3e}")


def cmd_bounds(ns, out) -> None:
    import numpy as np
    from ._io import DataTable
    from .bounds import (WeightMatrix, check_eps_compat, holevo_compatible,
                         incompatibility_R, sandwich)
    from .walk import step_count

    p = _coin(ns)
    t = step_count(ns.t, 1, "--t")
    init = _parse_init(ns)
    w = None
    if ns.weight:
        w00, w01, w11 = _items(ns.weight, "--weight", float, size=3)
        try:
            w = WeightMatrix(np.array([[w00, w01], [w01, w11]]))
        except ValueError as exc:
            raise ConfigError(f"--weight: {exc}") from None
    check_eps_compat(ns.eps_compat)
    f, d = _qfim_by_route(ns.route, p, init, t, ("theta", "alpha"))

    cs, hi = sandwich(f, w, d)
    r = incompatibility_R(f, d)
    try:
        hres = holevo_compatible(f, w, d, eps=ns.eps_compat)
        holevo, note = hres.value, hres.certificate
    except IncompatibleModel as exc:
        if ns.strict:
            raise
        holevo, note = None, str(exc)

    out.table("bounds", DataTable(columns={
        "symmetric": [cs], "r": [r], "sandwich_lo": [cs], "sandwich_hi": [hi],
        "holevo": [float("nan") if holevo is None else holevo]}))
    out.report("bounds_report", {
        "fisher": f.entries, "uhlmann": d.entries, "route": ns.route,
        "symmetric": cs, "r": r, "sandwich": [cs, hi],
        "holevo": holevo, "note": note})
    print(f"symmetric bound C^S = {cs:.12g}")
    print(f"incompatibility R  = {r:.3e}; sandwich = [{cs:.12g}, {hi:.12g}]")
    if holevo is None:
        print(f"holevo: unavailable ({note})")
    else:
        print(f"holevo bound C^H   = {holevo:.12g}")


def cmd_sweep(ns, out) -> None:
    from .cases import sweep_fig1, sweep_fig2
    from .walk import step_count

    t_max = step_count(ns.t_max, 1, "--t-max")
    if ns.which == "fig2":
        thetas = _items(ns.theta_list, "--theta-list", float)
    tables = (sweep_fig1(ns.theta, t_max) if ns.which == "fig1"
              else sweep_fig2(thetas, t_max))
    out.table("curves", tables["curves"])
    out.table("inset", tables["inset"])


_CASE_FLAGS = {"magnetic": ("b2",), "dirac": ("m", "q", "ax", "eps")}


def cmd_case(ns, out) -> None:
    import numpy as np
    from .bounds import symmetric_bound
    from .cases import (DiracParams, MagneticField, coin_from_dirac,
                        coin_from_magnetic, dirac_first_order,
                        dirac_from_coin, dirac_jacobian, magnetic_from_coin,
                        magnetic_jacobian, pullback_qfim)
    from .walk import step_count

    t = step_count(ns.t, 1, "--t")
    init = _parse_init(ns)
    missing = [f for f in _CASE_FLAGS[ns.which] if getattr(ns, f) is None]
    if missing:
        raise ConfigError(f"{ns.which} case needs --{missing[0]}")
    if ns.which == "magnetic":
        model, labels = MagneticField(b2=ns.b2, b3=ns.b3), ("b2", "b3")
        to_coin, jacobian = coin_from_magnetic, magnetic_jacobian

        def invert(p):
            field, info = magnetic_from_coin(p, full_output=True)
            return (field.b2, field.b3), info
    else:  # dirac
        model = DiracParams(m=ns.m, q=ns.q, a_x=ns.ax, eps=ns.eps)
        labels = ("m", "q")
        to_coin, jacobian = coin_from_dirac, dirac_jacobian

        def invert(p):
            return dirac_from_coin(p, model.a_x, model.eps, full_output=True)
    p = to_coin(model)
    jac = jacobian(model)

    f_coin = _qfim_by_route("analytic", p, init, t, ("theta", "alpha"))[0]
    f_phys = pullback_qfim(f_coin, jac, labels)
    cs = symmetric_bound(f_phys)
    recovered, info = invert(p)
    truth = [getattr(model, name) for name in labels]
    round_trip = {name: {"true": x, "recovered": y, "abs_err": abs(y - x)}
                  for name, x, y in zip(labels, truth, recovered)}
    body = {
        "coin": {"theta": p.theta, "alpha": p.alpha, "beta": p.beta},
        "jacobian": jac, "jacobian_cond": float(np.linalg.cond(jac)),
        "fisher_coin": f_coin.entries, "fisher_physical": f_phys.entries,
        "labels": list(labels), "symmetric_bound": cs,
        "round_trip": round_trip, "inverse_map_info": info,
    }
    if ns.which == "dirac":
        m1, q1 = dirac_first_order(p, model.a_x, model.eps)
        body["first_order"] = {
            "m": m1, "q": q1,
            "abs_err_m": abs(m1 - model.m), "abs_err_q": abs(q1 - model.q)}

    out.csv("report", _matrix_rows(labels, {"f_physical": f_phys.entries}))
    out.report("report", body)
    print(f"coin: theta={p.theta:.12g} alpha={p.alpha:.12g} beta={p.beta:.12g}")
    for name in labels:
        rt = round_trip[name]
        print(f"round trip {name}: true={rt['true']:.12g} "
              f"recovered={rt['recovered']:.12g} err={rt['abs_err']:.3e}")
    if "first_order" in body:
        fo = body["first_order"]
        print(f"first order: m={fo['m']:.12g} (err {fo['abs_err_m']:.3e}), "
              f"q={fo['q']:.12g} (err {fo['abs_err_q']:.3e})")
    print(f"jacobian cond = {body['jacobian_cond']:.6g}; "
          f"symmetric bound C^S = {cs:.12g}")


def cmd_estimate(ns, out) -> None:
    import numpy as np
    from ._io import DataTable
    from .estimation import (GridSpec, check_shots_and_seed,
                             make_likelihood_table, mle_fit,
                             position_distribution, sample)
    from .walk import evolve, step_count

    p_true = _coin(ns)
    t = step_count(ns.t, 1, "--t")
    init = _parse_init(ns)
    check_shots_and_seed(ns.shots, ns.seed)
    grid = GridSpec(n_theta=ns.grid_n, n_alpha=ns.grid_n)

    final = evolve(init, p_true, t)
    dist = position_distribution(final)
    rec = sample(dist, ns.shots, ns.seed, params_true=p_true)
    table = make_likelihood_table(init, p_true, t, grid)
    result = mle_fit(rec, table=table)

    sites = sorted(rec.counts)
    out.table("counts", DataTable(
        columns={"site": sites, "count": [rec.counts[s] for s in sites]},
        meta={"shots": ns.shots, "seed": ns.seed, "t": t}))
    out.report("record", {"record": rec.to_json_dict()})
    err = np.sqrt(np.clip(np.diag(result.cov), 0.0, None))
    alpha_known = bool(np.isfinite(err[1]))
    # a likelihood flat in alpha picks its alpha by rounding: quote none
    alpha_hat = result.alpha if alpha_known else None
    out.report("result", {
        "theta_hat": result.theta, "alpha_hat": alpha_hat,
        "stderr_theta": float(err[0]), "stderr_alpha": float(err[1]),
        "identified": {"theta": bool(np.isfinite(err[0])),
                       "alpha": alpha_known},
        "cov": result.cov, "loglik": result.loglik,
        "multimodal": result.multimodal, "converged": result.converged,
        "iterations": result.iterations,
        "grid_argmax": {"theta": result.grid_theta,
                        "alpha": result.grid_alpha if alpha_known else None},
        "truth": {"theta": p_true.theta, "alpha": p_true.alpha},
        "diagnostics": {
            "grid": {"n_theta": grid.n_theta, "n_alpha": grid.n_alpha,
                     "rows_evaluated": result.rows_evaluated},
            "newton_steps": result.iterations - result.scoring_steps,
            "scoring_steps": result.scoring_steps,
            "last_step": result.last_step,
            "score_norm": result.score_norm,
            "on_edge": list(result.on_edge)}})

    print(f"theta_hat = {result.theta:.12g} +/- {err[0]:.3g} "
          f"(true {p_true.theta:.12g})")
    if alpha_known:
        print(f"alpha_hat = {alpha_hat:.12g} +/- {err[1]:.3g} "
              f"(true {p_true.alpha:.12g})")
    else:
        print(f"alpha_hat = unidentified (+/- inf) "
              f"(true {p_true.alpha:.12g})")
    flags = []
    if result.multimodal:
        flags.append("multimodal")
    if not result.converged:
        flags.append("not converged")
    # the fit is clipped to the grid box, so an edge estimate is exact
    edge = [name for name, value, lo, hi in (
        ("theta_hat", result.theta, grid.theta_min, grid.theta_max),
        ("alpha_hat", alpha_hat, grid.alpha_min, grid.alpha_max))
        if value in (lo, hi)]
    if edge:
        flags.append(" and ".join(edge) + " on the grid-box edge")
    if not (grid.theta_min <= p_true.theta <= grid.theta_max
            and grid.alpha_min <= p_true.alpha <= grid.alpha_max):
        flags.append("true (theta, alpha) outside the grid box")
    if flags:
        print("warning: " + ", ".join(flags))


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = _Parser(
        prog="qwf",
        description="Fisher information and estimation for coined quantum walks")
    from . import __version__
    parser.add_argument("--version", action="version",
                        version=f"qwfisher {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    quarter_pi = 0.7853981633974483

    ev = _Cmd(sub, "evolve", "run the walk, dump state and distribution",
              cmd_evolve)
    _add_coin_flags(ev, quarter_pi)
    _add_init_flags(ev)
    ev.add("t", type=int, default=100, help="number of steps")

    qf = _Cmd(sub, "qfim", "information matrix by one or more routes", cmd_qfim)
    _add_coin_flags(qf, quarter_pi)
    _add_init_flags(qf, default="entangled:0,1")
    qf.add("t", type=int, default=100, help="number of steps")
    qf.add("routes", default="analytic",
           help="comma list from: " + ", ".join(_ROUTES))
    qf.add("params", default="theta,alpha",
           help="comma list of coin parameters")

    bd = _Cmd(sub, "bounds", "scalar precision bounds from the QFIm",
              cmd_bounds)
    _add_coin_flags(bd, quarter_pi)
    _add_init_flags(bd, default="entangled:0,1")
    bd.add("t", type=int, default=100, help="number of steps")
    bd.add("route", default="analytic", choices=["analytic", "oracle"],
           help="how to compute the matrices")
    bd.add("weight", default=None, metavar="W00,W01,W11",
           help="weight matrix entries (default identity)")
    bd.add("eps-compat", type=float, default=1e-6,
           help="compatibility threshold: R <= eps certifies C^H = C^S")
    bd.add("strict", type=bool, default=False,
           help="fail (exit 4) when the model is incompatible")

    sw = _Cmd(sub, "sweep", "figure-data tables", cmd_sweep)
    sw.add_positional("which", ["fig1", "fig2"])
    sw.add("theta", type=float, default=quarter_pi,
           help="coin angle for fig1")
    sw.add("theta-list", default="0.7853981633974483,1.1780972450961724",
           help="comma list of angles for fig2")
    sw.add("t-max", type=int, default=100, help="largest step count")

    cs = _Cmd(sub, "case", "physical encodings end to end", cmd_case,
              stem="case_{which}")
    cs.add_positional("which", list(_CASE_FLAGS))
    cs.add("b2", type=float, default=None, help="transverse field component")
    cs.add("b3", type=float, default=0.0, help="longitudinal field component")
    cs.add("m", type=float, default=None, help="mass parameter")
    cs.add("q", type=float, default=None, help="charge parameter")
    cs.add("ax", type=float, default=None,
           help="vector potential (must be nonzero for charge)")
    cs.add("eps", type=float, default=None, help="lattice spacing")
    _add_init_flags(cs, default="entangled:0,1")
    cs.add("t", type=int, default=100, help="number of steps")

    es = _Cmd(sub, "estimate", "sample counts and fit (theta, alpha)",
              cmd_estimate)
    _add_coin_flags(es, quarter_pi)
    _add_init_flags(es, default="entangled:0,1")
    es.add("t", type=int, default=50, help="number of steps")
    es.add("shots", type=int, default=100000, help="measurement repetitions")
    es.add("seed", type=int, default=0, help="RNG seed")
    es.add("grid-n", type=int, default=200, help="grid points per axis")

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # a warning is one line on stderr, with no category or source line
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            ns = build_parser().parse_args(argv)
            out = ns._cmd.resolve(ns)
            ns._cmd.func(ns, out)
            print("wrote " + ", ".join(out.files))
            return 0
        except QwfError as exc:
            print(f"{exc.label} error: {exc}", file=sys.stderr)
            return exc.exit_code
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("config error: not enough memory for this configuration; "
                  "shrink the input window, t or --grid-n", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
