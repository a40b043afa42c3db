"""``qwf``: command-line front end for the walk metrology toolkit.

Subcommands
    evolve     run the walk and dump state + position distribution
    qfim       information matrix by one or more routes, side by side
    bounds     scalar precision bounds (symmetric, sandwich, Holevo)
    sweep      figure-data tables (information growth, bound decay)
    case       physical encodings end to end (magnetic | dirac)
    estimate   sample a measurement record and fit (theta, alpha)

Every flag can also be given in a plain ``key = value`` config file
passed with ``--config``; explicit command-line flags win on conflict.
Outputs are CSV/JSON with the resolved configuration embedded, no
timestamps, so a config reproduces its files byte for byte.

Exit codes: 0 success, 2 configuration problem, 3 a numerical result
that failed its own accuracy check (today only the case round trip),
4 model-level failure.

The environment variable QWF_THREADS caps BLAS/OpenMP parallelism; it
is applied before numpy is first imported, which is why the heavy
imports here live inside the command functions.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings

from .errors import (ChargeUnidentifiable, ConfigError, DegenerateWalk,
                     IncompatibleModel, NoConvergence, OutOfWindow,
                     SingularFisher, SingularJacobian)

_UNSET = object()

# Largest |x| of a site that ``--init`` may name.  The engine's phases
# e^{-ikx} lose digits in proportion to |x|: at t = 100 and
# theta = pi/4, ``evolve`` amplitudes differ from the same input at the
# origin by 2.1e-13 at |x| = 1e4, 1.3e-12 at 6.6e4 and 2.4e-11 at 1e6,
# so this bound keeps that error under 1e-12.
MAX_SITE_POSITION = 10_000

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _apply_thread_cap() -> None:
    raw = os.environ.get("QWF_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"QWF_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"QWF_THREADS must be >= 1, got {n}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    val = str(raw).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


class _Cmd:
    """One subcommand: its argparse parser plus the flag registry.

    Flags are registered with sentinel defaults so that, after parsing,
    unset ones can be filled from the config file and finally from the
    recorded defaults.  That ordering makes the command line override
    the file without any token juggling.
    """

    def __init__(self, subparsers, name, help_text, func):
        self.name = name
        self.func = func
        self.registry = {}
        self.parser = subparsers.add_parser(name, help=help_text)
        self.parser.set_defaults(_cmd=self)
        self.parser.add_argument("--config", default=None, metavar="FILE",
                                 help="key = value file mirroring the flags")

    def add(self, flag, *, type=str, default=None, help=None, aliases=(),
            choices=None, metavar=None):
        dest = flag.replace("-", "_")
        names = ["--" + flag] + ["--" + a for a in aliases]
        if type is bool:
            self.parser.add_argument(*names, dest=dest, action="store_true",
                                     default=_UNSET, help=help)
        else:
            self.parser.add_argument(*names, dest=dest, type=type,
                                     default=_UNSET, choices=choices,
                                     help=help, metavar=metavar)
        self.registry[dest] = (_parse_bool if type is bool else type, default)

    def add_positional(self, name, choices, help=None):
        self.parser.add_argument(name, choices=choices, help=help)

    def resolve(self, ns) -> dict:
        """Fill unset flags from config file and defaults; return the echo."""
        cfg = _load_config(ns.config) if ns.config else {}
        for dest, (conv, default) in self.registry.items():
            if getattr(ns, dest) is not _UNSET:
                cfg.pop(dest, None)
                continue
            if dest in cfg:
                raw = cfg.pop(dest)
                try:
                    setattr(ns, dest, conv(raw))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"config key {dest!r}: {exc}")
            else:
                setattr(ns, dest, default)
        if cfg:
            raise ConfigError(f"unknown config keys for {self.name!r}: "
                              + ", ".join(sorted(cfg)))
        echo = {"command": self.name}
        if ns.config:
            echo["config_file"] = ns.config
        for dest in sorted(self.registry):
            echo[dest] = getattr(ns, dest)
        for extra in ("which",):
            if hasattr(ns, extra):
                echo[extra] = getattr(ns, extra)
        return echo


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
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            key, val = parts[0], parts[1] if len(parts) > 1 else ""
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
                kw["spinor"] = np.array([complex(c.replace(" ", ""))
                                         for c in str(spinor).split(",")])
            if bloch:
                kw["bloch"] = CoinBlochState(
                    np.array([float(x) for x in str(bloch).split(",")]))
            return initial_localized(**kw)
        if kind == "entangled":
            x1, x2 = (int(x) for x in rest.split(",")) if rest else (0, 1)
            return initial_entangled(_site(x1), _site(x2))
        if kind == "gamma":
            return initial_gamma(float(rest) if rest else 0.0)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad initial state {text!r}: {exc}")
    raise ConfigError(f"unknown initial state kind {kind!r} "
                      "(localized | entangled | gamma)")


def _coin(ns):
    from .walk import CoinParams
    return CoinParams(theta=ns.theta, alpha=ns.alpha, beta=ns.beta)


def _check_t(t, minimum=1):
    t = int(t)
    if t < minimum:
        raise ConfigError(f"t must be >= {minimum}, got {t}")
    return t


def _prefix(ns, command):
    return ns.out if ns.out else f"qwf_{command}"


def _echo_comment(echo) -> list:
    from ._io import SCHEMA_VERSION, jsonable
    from . import __version__
    return [
        "config: " + json.dumps(jsonable(echo), sort_keys=True),
        f"schema_version: {SCHEMA_VERSION}  qwfisher: {__version__}",
    ]


@contextlib.contextmanager
def _output_errors():
    """A write that the file system refuses becomes a ConfigError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: "
                          f"{exc.strerror or exc}") from exc


def _write_report(path, echo, body: dict) -> None:
    from ._io import SCHEMA_VERSION, write_json
    from . import __version__
    payload = {"schema_version": SCHEMA_VERSION,
               "qwfisher_version": __version__,
               "config": echo}
    payload.update(body)
    with _output_errors():
        write_json(path, payload)


def _write_table(prefix, stem, table, echo) -> list:
    csv_path = f"{prefix}_{stem}.csv"
    json_path = f"{prefix}_{stem}.json"
    from . import __version__
    with _output_errors():
        table.to_csv(csv_path, comments=_echo_comment(echo))
        table.to_json(json_path, extra_meta={"config": echo,
                                             "qwfisher_version": __version__})
    return [csv_path, json_path]


def _matrix_rows(labels, *mats):
    rows = {"param_row": [], "param_col": []}
    names = [name for name, _ in mats]
    for name in names:
        rows[name] = []
    m = len(labels)
    for i in range(m):
        for j in range(m):
            rows["param_row"].append(labels[i])
            rows["param_col"].append(labels[j])
            for name, mat in mats:
                rows[name].append(float(mat[i, j]))
    return rows


class _StrColumnTable:
    """Columns whose first ones hold strings, written as one CSV table."""

    def __init__(self, columns: dict):
        self.columns = columns

    def to_csv(self, path, comments=()) -> None:
        from ._io import write_csv
        write_csv(path, self.columns, comments)


# ---------------------------------------------------------------------------
# commands


def cmd_evolve(ns, echo) -> int:
    from .estimation import position_distribution
    from .walk import evolve

    p = _coin(ns)
    t = _check_t(ns.t, minimum=0)
    init = _parse_init(ns)
    final = evolve(init, p, t)
    dist = position_distribution(final)

    from ._io import DataTable
    prefix = _prefix(ns, "evolve")
    table = DataTable(columns={"site": dist.sites, "probability": dist.probs},
                      meta={"t": t, "norm": final.norm})
    files = _write_table(prefix, "distribution", table, echo)
    state_path = f"{prefix}_state.json"
    _write_report(state_path, echo, {"state": final.to_json_dict(),
                                     "norm": final.norm})
    files.append(state_path)
    print(f"evolved t={t}: window [{final.origin}, "
          f"{final.origin + final.n_sites - 1}], norm={final.norm:.15f}")
    print("wrote " + ", ".join(files))
    return 0


_ROUTES = ("analytic", "localized-closed-form", "oracle")


def _route_column(route: str) -> str:
    return "f_" + route.replace("-", "_")


def _qfim_by_route(route, p, init, t, params):
    from .oracle import exact_matrices
    from .qfim import (QFIMatrix, qfim_localized, qfim_theorem1,
                       uhlmann_analytic)
    from .walk import rho_bloch

    if route == "analytic":
        f = qfim_theorem1(p, init, t, params=params)
        return f, uhlmann_analytic(p, init, t, params=params)
    if route == "localized-closed-form":
        if params != ("theta", "alpha"):
            raise ConfigError("the localized closed form covers exactly "
                              "(theta, alpha)")
        if init.n_sites != 1:
            raise ConfigError("the localized closed form needs a single-site "
                              "input; use --init localized:X")
        r = rho_bloch(init.amps[0])[1:]
        f = qfim_localized(p.theta, p.alpha - p.beta, r, t)
        relabeled = QFIMatrix(entries=f.entries, labels=("theta", "alpha"),
                              t=t, asymptotic=True)
        return relabeled, uhlmann_analytic(p, init, t, params=params)
    if route == "oracle":
        return exact_matrices(init, p, t, params=params)
    raise ConfigError(f"unknown route {route!r}; choose from {_ROUTES}")


def cmd_qfim(ns, echo) -> int:
    import numpy as np
    from .qfim import beta_null_check

    p = _coin(ns)
    t = _check_t(ns.t)
    init = _parse_init(ns)
    params = tuple(s.strip() for s in str(ns.params).split(",") if s.strip())
    if not params:
        raise ConfigError("no parameters requested")
    for name in params:
        if name not in ("theta", "alpha", "beta"):
            raise ConfigError(f"unknown parameter {name!r}")
    routes = [r.strip() for r in str(ns.routes).split(",") if r.strip()]
    if not routes:
        raise ConfigError("no routes requested")

    results = {}
    for route in routes:
        results[route] = _qfim_by_route(route, p, init, t, params)

    ref_route = routes[0]
    ref = results[ref_route][0].entries
    scale = max(1.0, float(np.max(np.abs(ref))))
    deviations = {}
    for route in routes[1:]:
        dev = np.max(np.abs(results[route][0].entries - ref))
        deviations[route] = {"max_abs": float(dev),
                             "max_rel": float(dev) / scale,
                             "reference": ref_route}

    beta_null = beta_null_check(p)
    cols = {"param_row": [], "param_col": []}
    mats = [(_route_column(r), results[r][0].entries) for r in routes]
    cols.update(_matrix_rows(params, *mats))
    for route in routes[1:]:
        cols["dev_" + route.replace("-", "_")] = [
            abs(float(results[route][0].entries[i, j]) - float(ref[i, j]))
            for i in range(len(params)) for j in range(len(params))]

    prefix = _prefix(ns, "qfim")
    csv_path = f"{prefix}_report.csv"
    with _output_errors():
        _StrColumnTable(cols).to_csv(csv_path, comments=_echo_comment(echo))
    body = {
        "params": list(params),
        "routes": {route: {
            "entries": results[route][0].entries,
            "per_t2": results[route][0].per_t2,
            "asymptotic": results[route][0].asymptotic,
            "uhlmann": results[route][1].entries,
        } for route in routes},
        "deviations": deviations,
        "beta_null_residual": beta_null,
    }
    json_path = f"{prefix}_report.json"
    _write_report(json_path, echo, body)

    for route in routes:
        diag = np.diag(results[route][0].entries)
        print(f"{route}: diag = "
              + ", ".join(f"{params[i]}={diag[i]:.12g}" for i in range(len(params))))
    for route, dev in deviations.items():
        print(f"deviation {route} vs {ref_route}: max_abs={dev['max_abs']:.3e} "
              f"max_rel={dev['max_rel']:.3e}")
    print(f"beta_null_residual = {beta_null:.3e}")
    print(f"wrote {csv_path}, {json_path}")
    return 0


def cmd_bounds(ns, echo) -> int:
    import numpy as np
    from .bounds import (WeightMatrix, holevo_compatible, incompatibility_R,
                         sandwich, symmetric_bound)

    p = _coin(ns)
    t = _check_t(ns.t)
    init = _parse_init(ns)
    params = ("theta", "alpha")
    f, d = _qfim_by_route(ns.route, p, init, t, params)

    w = None
    if ns.weight:
        try:
            w00, w01, w11 = (float(x) for x in str(ns.weight).split(","))
        except ValueError:
            raise ConfigError("--weight expects W00,W01,W11")
        w = WeightMatrix(np.array([[w00, w01], [w01, w11]]))

    cs = symmetric_bound(f, w)
    r = incompatibility_R(f, d)
    lo, hi = sandwich(f, w, d)
    holevo_value = None
    note = None
    try:
        hres = holevo_compatible(f, w, d, eps=ns.eps_compat)
        holevo_value = hres.value
        note = hres.certificate
    except IncompatibleModel as exc:
        if ns.strict:
            raise
        note = str(exc)

    prefix = _prefix(ns, "bounds")
    from ._io import DataTable
    table = DataTable(columns={
        "symmetric": [cs], "r": [r], "sandwich_lo": [lo], "sandwich_hi": [hi],
        "holevo": [float("nan") if holevo_value is None else holevo_value]})
    files = _write_table(prefix, "bounds", table, echo)
    _write_report(f"{prefix}_bounds_report.json", echo, {
        "fisher": f.entries, "uhlmann": d.entries, "route": ns.route,
        "symmetric": cs, "r": r, "sandwich": [lo, hi],
        "holevo": holevo_value, "note": note})
    files.append(f"{prefix}_bounds_report.json")
    print(f"symmetric bound C^S = {cs:.12g}")
    print(f"incompatibility R  = {r:.3e}; sandwich = [{lo:.12g}, {hi:.12g}]")
    if holevo_value is None:
        print(f"holevo: unavailable ({note})")
    else:
        print(f"holevo bound C^H   = {holevo_value:.12g}")
    print("wrote " + ", ".join(files))
    return 0


def cmd_sweep(ns, echo) -> int:
    from .cases import sweep_fig1, sweep_fig2

    prefix = _prefix(ns, "sweep")
    t_max = _check_t(ns.t_max)
    if ns.which == "fig1":
        out = sweep_fig1(ns.theta, t_max)
    else:  # fig2
        try:
            thetas = [float(x) for x in str(ns.theta_list).split(",")
                      if x.strip()]
        except ValueError:
            raise ConfigError(f"--theta-list expects comma-separated angles, "
                              f"got {ns.theta_list!r}")
        if not thetas:
            raise ConfigError("--theta-list is empty")
        out = sweep_fig2(thetas, t_max)
    files = (_write_table(prefix, "curves", out["curves"], echo)
             + _write_table(prefix, "inset", out["inset"], echo))
    print("wrote " + ", ".join(files))
    return 0


def cmd_case(ns, echo) -> int:
    import numpy as np
    from .bounds import symmetric_bound
    from .cases import (DiracParams, MagneticField, coin_from_dirac,
                        coin_from_magnetic, dirac_first_order,
                        dirac_from_coin, dirac_jacobian, magnetic_from_coin,
                        magnetic_jacobian, pullback_qfim)
    from .qfim import qfim_theorem1

    t = _check_t(ns.t)
    init = _parse_init(ns)
    body: dict = {}

    if ns.which == "magnetic":
        if ns.b2 is None:
            raise ConfigError("magnetic case needs --b2")
        field = MagneticField(b2=ns.b2, b3=ns.b3)
        p = coin_from_magnetic(field)
        jac = magnetic_jacobian(field)
        labels = ("b2", "b3")
        truth = (field.b2, field.b3)
    else:  # dirac
        for flag in ("m", "q", "ax", "eps"):
            if getattr(ns, flag) is None:
                raise ConfigError(f"dirac case needs --{flag}")
        dp = DiracParams(m=ns.m, q=ns.q, a_x=ns.ax, eps=ns.eps)
        p = coin_from_dirac(dp)
        jac = dirac_jacobian(dp)
        labels = ("m", "q")
        truth = (dp.m, dp.q)

    f_coin = qfim_theorem1(p, init, t, params=("theta", "alpha"))
    f_phys = pullback_qfim(f_coin, jac, labels)
    cs = symmetric_bound(f_phys)

    if ns.which == "magnetic":
        recovered, info = magnetic_from_coin(p, full_output=True)
        rec_pair = (recovered.b2, recovered.b3)
    else:
        rec_pair, info = dirac_from_coin(p, dp.a_x, dp.eps, full_output=True)
        m1, q1 = dirac_first_order(p, dp.a_x, dp.eps)
        body["first_order"] = {
            "m": m1, "q": q1,
            "abs_err_m": abs(m1 - dp.m), "abs_err_q": abs(q1 - dp.q)}

    round_trip = {labels[i]: {"true": truth[i], "recovered": rec_pair[i],
                              "abs_err": abs(rec_pair[i] - truth[i])}
                  for i in range(2)}
    body.update({
        "coin": {"theta": p.theta, "alpha": p.alpha, "beta": p.beta},
        "jacobian": jac, "jacobian_cond": float(np.linalg.cond(jac)),
        "fisher_coin": f_coin.entries, "fisher_physical": f_phys.entries,
        "labels": list(labels), "symmetric_bound": cs,
        "round_trip": round_trip, "inverse_map_info": info,
    })

    prefix = _prefix(ns, f"case_{ns.which}")
    cols = _matrix_rows(labels, ("f_physical", f_phys.entries))
    csv_path = f"{prefix}_report.csv"
    with _output_errors():
        _StrColumnTable(cols).to_csv(csv_path, comments=_echo_comment(echo))
    json_path = f"{prefix}_report.json"
    _write_report(json_path, echo, body)

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
    print(f"wrote {csv_path}, {json_path}")
    return 0


def cmd_estimate(ns, echo) -> int:
    import numpy as np
    from .estimation import (GridSpec, make_likelihood_table, mle_fit,
                             position_distribution, sample)
    from .walk import evolve

    p_true = _coin(ns)
    t = _check_t(ns.t)
    init = _parse_init(ns)
    shots = int(ns.shots)
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")

    final = evolve(init, p_true, t)
    dist = position_distribution(final)
    rec = sample(dist, shots, int(ns.seed), params_true=p_true)

    grid = GridSpec(n_theta=int(ns.grid_n), n_alpha=int(ns.grid_n))
    table = make_likelihood_table(init, p_true, t, grid)
    result = mle_fit(rec, table=table)

    prefix = _prefix(ns, "estimate")
    from ._io import DataTable
    sites = sorted(rec.counts)
    counts_table = DataTable(
        columns={"site": sites, "count": [rec.counts[s] for s in sites]},
        meta={"shots": shots, "seed": int(ns.seed), "t": t})
    files = _write_table(prefix, "counts", counts_table, echo)
    _write_report(f"{prefix}_record.json", echo,
                  {"record": rec.to_json_dict()})
    err = np.sqrt(np.clip(np.diag(result.cov), 0.0, None))
    alpha_known = bool(np.isfinite(err[1]))
    # a likelihood flat in alpha picks its alpha by rounding: quote none
    alpha_hat = result.alpha if alpha_known else None
    _write_report(f"{prefix}_result.json", echo, {
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
    files += [f"{prefix}_record.json", f"{prefix}_result.json"]

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
    print("wrote " + ", ".join(files))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = argparse.ArgumentParser(
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
    ev.add("out", default=None, help="output file prefix")

    qf = _Cmd(sub, "qfim", "information matrix by one or more routes", cmd_qfim)
    _add_coin_flags(qf, quarter_pi)
    _add_init_flags(qf, default="entangled:0,1")
    qf.add("t", type=int, default=100, help="number of steps")
    qf.add("routes", default="analytic",
           help="comma list from: " + ", ".join(_ROUTES))
    qf.add("params", default="theta,alpha",
           help="comma list of coin parameters")
    qf.add("out", default=None, help="output file prefix")

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
           help="compatibility threshold ||D|| <= eps ||F||")
    bd.add("strict", type=bool, default=False,
           help="fail (exit 4) when the model is incompatible")
    bd.add("out", default=None, help="output file prefix")

    sw = _Cmd(sub, "sweep", "figure-data tables", cmd_sweep)
    sw.add_positional("which", ["fig1", "fig2"])
    sw.add("theta", type=float, default=quarter_pi,
           help="coin angle for fig1")
    sw.add("theta-list", default="0.7853981633974483,1.1780972450961724",
           help="comma list of angles for fig2")
    sw.add("t-max", type=int, default=100, help="largest step count")
    sw.add("out", default=None, help="output file prefix")

    cs = _Cmd(sub, "case", "physical encodings end to end", cmd_case)
    cs.add_positional("which", ["magnetic", "dirac"])
    cs.add("b2", type=float, default=None, help="transverse field component")
    cs.add("b3", type=float, default=0.0, help="longitudinal field component")
    cs.add("m", type=float, default=None, help="mass parameter")
    cs.add("q", type=float, default=None, help="charge parameter")
    cs.add("ax", type=float, default=None, aliases=("Ax",),
           help="vector potential (must be nonzero for charge)")
    cs.add("eps", type=float, default=None, help="lattice spacing")
    _add_init_flags(cs, default="entangled:0,1")
    cs.add("t", type=int, default=100, help="number of steps")
    cs.add("out", default=None, help="output file prefix")

    es = _Cmd(sub, "estimate", "sample counts and fit (theta, alpha)",
              cmd_estimate)
    _add_coin_flags(es, quarter_pi)
    _add_init_flags(es, default="entangled:0,1")
    es.add("t", type=int, default=50, help="number of steps")
    es.add("shots", type=int, default=100000, help="measurement repetitions")
    es.add("seed", type=int, default=0, help="RNG seed")
    es.add("grid-n", type=int, default=200, help="grid points per axis")
    es.add("out", default=None, help="output file prefix")

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # a warning is one line on stderr, with no category or source line
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            _apply_thread_cap()
            parser = build_parser()
            ns = parser.parse_args(argv)
            echo = ns._cmd.resolve(ns)
            return ns._cmd.func(ns, echo)
        except (SingularFisher, IncompatibleModel, ChargeUnidentifiable,
                SingularJacobian, DegenerateWalk, OutOfWindow) as exc:
            print(f"model error: {exc}", file=sys.stderr)
            return 4
        except NoConvergence as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 3
        except (ConfigError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("config error: not enough memory for this configuration; "
                  "shrink the input window, t or --grid-n", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
