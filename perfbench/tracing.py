"""Span recording for the traced run, and the per-layer metrics from it.

Spans are recorded from outside the program: :class:`Tracer` replaces a
public function of a ``qwfisher`` module with a wrapper that notes the
call's start, end and enclosing span.  Every module binding of the same
function object is replaced too (``qwfisher.estimation`` imports
``derivative_state`` from ``qwfisher.oracle``, so patching the oracle
module alone would miss the calls the estimator makes).  No source file
of the package changes, and :meth:`Tracer.uninstall` puts every binding
back.  Spans stay in memory until :meth:`Tracer.dump` writes them.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time

from harness import median, tail


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, sid, name, start, parent, run):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "attrs": self.attrs}


class Tracer:
    """Wraps package functions in place and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Trace ``owner.attr`` (a module function or a class method).

        ``describe(args, kwargs, result)`` may return extra span
        attributes; it runs after the span is closed, so its cost is not
        counted in the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        self._patch(owner, attr, traced)
        if isinstance(owner, type):
            return
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", None) or ""
            if mod is owner or not (mod_name == "qwfisher"
                                    or mod_name.startswith("qwfisher.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict:
        """Span id -> duration minus the part its child spans cover."""
        children: dict = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.duration - covered
        return out

    def dump(self, path) -> None:
        """Write one JSON object per span, in call order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# what is traced


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _exact_nodes(width: int) -> int:
    """Node count of the exact uniform grid for a window of ``width`` sites.

    The rule the oracle and ``evolve_k`` use (smallest power of two above
    2 * width), restated here so that the computed work counts keep their
    meaning when the program's grid code changes.
    """
    n = 1
    while n <= 2 * width:
        n *= 2
    return n


def _walk_evolve(args, kwargs, result):
    t = int(_arg(args, kwargs, 2, "t"))
    n0 = _arg(args, kwargs, 0, "s").n_sites
    # the window grows by two sites per step: sum of n0 + 2s over s < t
    return {"t": t, "site_steps": t * n0 + t * (t - 1)}


def _oracle(args, kwargs, result):
    init = _arg(args, kwargs, 0, "init")
    t = int(_arg(args, kwargs, 2, "t"))
    n = kwargs.get("n_nodes") or _exact_nodes(init.n_sites + 2 * t)
    return {"t": t, "node_steps": t * n}


def _walk_evolve_k(args, kwargs, result):
    s = _arg(args, kwargs, 0, "s")
    t = int(_arg(args, kwargs, 2, "t"))
    n = _arg(args, kwargs, 3, "n_nodes") or _exact_nodes(s.n_sites + 2 * t)
    return {"t": t, "node_steps": t * n}


def _quadrature(args, kwargs, result):
    n0 = int(_arg(args, kwargs, 2, "n0", 64))
    n_used = int(result[1])
    # node doubling evaluates n0, 2 n0, ..., n_used
    return {"nodes_used": n_used, "nodes_evaluated": 2 * n_used - n0}


def _cases_invert(args, kwargs, result):
    if isinstance(result, tuple) and isinstance(result[-1], dict):
        return {"newton_iters": int(result[-1]["iterations"])}
    return {}


def _table(args, kwargs, result):
    return {"cells": int(result.probs.size)}


def _fit(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged),
            "multimodal": bool(result.multimodal)}


def _file_size(pos):
    def describe(args, kwargs, result):
        return {"bytes": os.path.getsize(args[pos])}
    return describe


def _cli_main(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
    return {"command": str(argv[0]), "exit": result}


# (module, owner class or None, attribute, span name, describe)
TRACED = (
    ("walk", None, "evolve", "walk.evolve", _walk_evolve),
    ("walk", None, "evolve_k", "walk.evolve_k", _walk_evolve_k),
    ("oracle", None, "qfim_exact", "oracle.qfim_exact", _oracle),
    ("oracle", None, "uhlmann_exact", "oracle.uhlmann_exact",
     _oracle),
    ("oracle", None, "derivative_state", "oracle.derivative_state",
     _oracle),
    ("qfim", None, "qfim_theorem1", "qfim.theorem1", None),
    ("qfim", None, "qfim_localized", "qfim.localized", None),
    ("quadrature", None, "adaptive_mean_over_bz", "quadrature.adaptive",
     _quadrature),
    ("bounds", None, "symmetric_bound", "bounds.symmetric", None),
    ("bounds", None, "holevo_compatible", "bounds.holevo", None),
    ("cases", None, "magnetic_from_coin", "cases.invert", _cases_invert),
    ("cases", None, "dirac_from_coin", "cases.invert", _cases_invert),
    ("cases", None, "pullback_qfim", "cases.pullback", None),
    ("estimation", None, "make_likelihood_table", "estimation.table", _table),
    ("estimation", None, "sample", "estimation.sample", None),
    ("estimation", None, "mle_fit", "estimation.fit", _fit),
    ("_io", "DataTable", "to_csv", "io.csv", _file_size(1)),
    ("cli", "_StrColumnTable", "to_csv", "io.csv", _file_size(1)),
    ("_io", None, "write_json", "io.json", _file_size(0)),
    ("cli", None, "main", "cli.main", _cli_main),
)

# cli.main is summarised per command instead
TIMED_SPANS = tuple(dict.fromkeys(entry[3] for entry in TRACED
                                  if entry[3] != "cli.main"))
LAYERS = ("walk", "oracle", "qfim", "quadrature", "bounds", "cases",
          "estimation", "io", "cli")
CLI_COMMANDS = ("evolve", "qfim", "bounds", "case", "estimate", "sweep")
SLOPE_SPANS = ("oracle.qfim_exact", "walk.evolve", "walk.evolve_k")


def install(tracer: Tracer) -> None:
    """Wrap every entry of :data:`TRACED` (importing its module first)."""
    for mod_name, cls, attr, name, describe in TRACED:
        mod = importlib.import_module("qwfisher." + mod_name)
        owner = getattr(mod, cls) if cls else mod
        tracer.wrap(owner, attr, name, describe)


def _slope_t(spans) -> float:
    """Log-log slope of per-call time against t; 0 with under 3 distinct t."""
    by_t: dict = {}
    for s in spans:
        by_t.setdefault(s.attrs["t"], []).append(s.duration)
    pts = [(math.log(t), math.log(median(d))) for t, d in sorted(by_t.items())
           if t > 0 and median(d) > 0]
    if len(pts) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics, name -> (value, unit), from the traced jobs.

    Counts and busy times are per job; timings are per call.  A layer
    the workload never calls reads 0.
    """
    by_name: dict = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    self_t = tracer.self_times()
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for name in TIMED_SPANS:
        durs = [s.duration for s in by_name.get(name, ())]
        put(name + ".s", median(durs), "s")
        put(name + ".tail_s", tail(durs)[0], "s")
        put(name + ".calls", len(durs) / jobs, "count")
    mains = by_name.get("cli.main", ())
    for cmd in CLI_COMMANDS:
        spans = [s for s in mains if s.attrs.get("command") == cmd]
        put(f"cli.{cmd}.s", median([s.duration for s in spans]), "s")
        put(f"cli.{cmd}.self_s", median([self_t[s.id] for s in spans]), "s")
    for layer in LAYERS:
        busy = sum(self_t[s.id] for s in tracer.spans
                   if s.name.split(".")[0] == layer)
        put(layer + ".busy_s", busy / jobs, "s")
    for name in SLOPE_SPANS:
        put(name + ".slope_t", _slope_t(by_name.get(name, ())), "slope")

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ())) / jobs

    put("oracle.node_steps", sum(total(n, "node_steps") for n in (
        "oracle.qfim_exact", "oracle.uhlmann_exact",
        "oracle.derivative_state")), "count")
    put("walk.site_steps", total("walk.evolve", "site_steps"), "count")
    put("walk.evolve_k.node_steps", total("walk.evolve_k", "node_steps"),
        "count")
    put("quadrature.nodes_evaluated",
        total("quadrature.adaptive", "nodes_evaluated"), "count")
    put("estimation.table.cells", total("estimation.table", "cells"), "count")
    put("io.bytes_written", total("io.csv", "bytes")
        + total("io.json", "bytes"), "B")

    holevo = by_name.get("bounds.holevo", ())
    put("bounds.incompatible_frac",
        _frac(holevo, lambda s: s.attrs.get("error") == "IncompatibleModel"),
        "fraction")
    inverts = [s.attrs["newton_iters"] for s in by_name.get("cases.invert", ())
               if "newton_iters" in s.attrs]
    put("cases.newton_iters", sum(inverts) / len(inverts) if inverts else 0.0,
        "count")

    fits = by_name.get("estimation.fit", ())
    fit_ids = {s.id for s in fits}
    put("estimation.fit.self_s", median([self_t[s.id] for s in fits]), "s")
    put("estimation.refine_iters",
        sum(s.attrs.get("iterations", 0) for s in fits) / len(fits)
        if fits else 0.0, "count")
    scores = sum(1 for s in by_name.get("walk.evolve", ())
                 if s.parent in fit_ids)
    put("estimation.score_calls_per_fit",
        scores / len(fits) if fits else 0.0, "count")
    put("estimation.converged_frac",
        _frac(fits, lambda s: s.attrs.get("converged")), "fraction")
    put("estimation.multimodal_frac",
        _frac(fits, lambda s: s.attrs.get("multimodal")), "fraction")
    put("trace.spans", len(tracer.spans) / jobs, "count")
    return out


def _frac(spans, pred) -> float:
    return sum(1 for s in spans if pred(s)) / len(spans) if spans else 0.0
