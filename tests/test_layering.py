"""Ratchets on the package's layering.

A module that imports an ``_``-prefixed name from another package
module couples itself to that module's internals.  Any that exist would
be listed below with their reason (none do); any other fails here, and
so does a listed one that is gone, so the list only shrinks.

The finite-t engine's rules (the uniform grid, its size for a window,
the site window after t steps and the closed forms of the one kernel,
``ThetaFamily``) live in ``walk`` alone, and ``quadrature`` is a test
reference no pipeline module imports.  The engine-boundary ratchet
below holds every other module in the package and in ``scripts/`` to
that, with its exemptions listed by module, function and name.

``SiteWindow.after`` is also the one light-cone rule: the window keeps
its input, and ``to_sites`` gives every cell the walk cannot reach from
it an exact zero.  No module outside ``walk`` names the window's input
or its unreachable cells, and ``parity_empty_rows``, one of the special
cases that rule replaced, exists nowhere.

``walk.step_count`` is the one step-count rule: ``MAX_STEPS`` is
assigned in ``walk`` alone, no package module calls ``int()`` on a ``t``
or ``t_max`` outside ``step_count``, and no module outside ``walk``
names ``MAX_STEPS`` or raises from a comparison of a step count of its
own.

Each walk rule is stated once.  ``qfim`` and ``estimation`` build no
node array of their own (``walk.uniform_k_grid`` is the grid), no
e^{-ikx} or D(a) phase of their own (``walk.plane_waves`` and
``walk.times_d`` are), and no closed form checks a Bloch length itself
(``walk.CoinBlochState`` is the gate).

``walk.as_int`` and ``walk.as_real`` are the one integer rule and the
one real-number rule: outside them, no ``if`` in the package raises on
an ``isfinite`` call or on an ``isinstance`` test about ``bool``.  The
array gates, ``all(map(math.isfinite, ...))``, are a rule of their own.

``walk.folded_angle`` is the one folded-angle rule: ``arctan2`` is
called in the package in that function alone, which the kernel and the
oracle both read.

``walk.generator_spatial`` is the one rule from parameter names to
generator rows: outside ``walk``, no module in the package or in
``scripts/`` calls ``PARAM_NAMES.index``, and every ``generator_spatial``
call passes its parameter names.

The fitter has one pseudo-inverse: no module calls ``pinv``, and
``estimation`` decomposes a matrix only in ``_pseudo_inverse``.

Every error type carries its exit code and stderr label, and ``cli.main``
exits with them; no raised exception escapes ``main`` untyped.

A refused run costs nothing: in each ``cli.cmd_*`` every call that
validates the input comes before the first engine run.

``src/`` holds only what the pipeline reads: every function, class and
method defined there, dunders aside, is named (as a name, an attribute
or a string) somewhere in ``src/`` outside its own definition, in
``scripts/`` or in ``perfbench/``.  What only tests read belongs in
``tests/oracles.py``.
"""
import ast
import builtins
import importlib
from collections import Counter
from pathlib import Path

import pytest

from qwfisher import cli
from qwfisher.errors import QwfError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qwfisher"

ALLOWED: dict = {}

# the kernel's closed forms: the folded angle and the powers' jet
ENGINE_NAMES = {"_fold", "_jet", "uniform_k_grid", "k_grid_size"}
# calling the class itself states the window rule again; SiteWindow.after
# is the one place that states it
WINDOW_CLASS = "SiteWindow"
ENGINE_EXEMPT = {
    ("qfim", "_zone_means", "k_grid_size"):
        "the asymptotic zone mean samples a numerator of degree "
        "1 + n_sites, not an evolved window",
    ("qfim", "_zone_means", "uniform_k_grid"):
        "the same numerator on the walk's own nodes, x = k - alpha",
    ("qfim", "beta_null_check", "uniform_k_grid"):
        "a fixed 512-node diagnostic grid for the stationary projector, "
        "not an evolved window",
}


def _private_imports(path: Path):
    """(importer, source module, name) for every private name imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:                      # from .x import y
            source = node.module or ""
        elif (node.module or "").startswith("qwfisher."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                yield path.stem, source, name


def _all_private_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {hit for path in files for hit in _private_imports(path)}


def test_no_new_private_reach_ins():
    new = _all_private_imports() - set(ALLOWED)
    assert not new, f"imports of private names from other modules: {sorted(new)}"


def test_allow_list_has_no_stale_entries():
    stale = set(ALLOWED) - _all_private_imports()
    assert not stale, f"listed reach-ins that no longer exist: {sorted(stale)}"


def _imports_quadrature(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "qwfisher.quadrature" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    source = node.module or ""
    if node.level == 0:
        if source == "qwfisher":
            source = ""
        elif source.startswith("qwfisher."):
            source = source.split(".", 1)[1]
        else:
            return False
    return source == "quadrature" or (
        source == "" and any(a.name == "quadrature" for a in node.names))


class _Refs(ast.NodeVisitor):
    """(function, name) for every reference to one of ``names``.

    The function is the dotted enclosing def, ``<module>`` at top level
    and ``<import>`` for a name brought in by an import.
    """

    def __init__(self, names):
        self.names = names
        self.scope = []
        self.hits = []

    def _hit(self, name, scope=None):
        self.hits.append((scope or ".".join(self.scope) or "<module>", name))

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id in self.names:
            self._hit(node.id)

    def visit_Attribute(self, node):
        if node.attr in self.names:
            self._hit(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name in self.names:
                self._hit(alias.name, "<import>")


class _EngineRefs(_Refs):
    """Every engine reference outside ``walk``: the engine names, calls of
    the window class and imports of ``quadrature``."""

    def __init__(self):
        super().__init__(ENGINE_NAMES)

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == WINDOW_CLASS:
            self._hit(WINDOW_CLASS + "()")
        self.generic_visit(node)

    def visit_Import(self, node):
        if _imports_quadrature(node):
            self._hit("qwfisher.quadrature", "<import>")

    def visit_ImportFrom(self, node):
        if _imports_quadrature(node):
            self._hit("qwfisher.quadrature", "<import>")
        super().visit_ImportFrom(node)


def _engine_refs():
    """(module, function, name) for every engine reference outside walk."""
    files = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "walk"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    hits = set()
    for path in files:
        refs = _EngineRefs()
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
        hits |= {(path.stem, scope, name) for scope, name in refs.hits}
    return hits


def _exempt(hit) -> bool:
    module, scope, name = hit
    if scope == "<import>":
        return any((module, name) == (m, n) for m, _, n in ENGINE_EXEMPT)
    return hit in ENGINE_EXEMPT


def test_engine_rules_stay_in_walk():
    outside = sorted(hit for hit in _engine_refs() if not _exempt(hit))
    assert not outside, f"engine rules used outside walk: {outside}"


def test_engine_exemptions_have_no_stale_entries():
    stale = set(ENGINE_EXEMPT) - _engine_refs()
    assert not stale, f"listed engine exemptions that no longer exist: " \
        f"{sorted(stale)}"


# the window's input and unreachable cells, read by to_sites alone
CONE_NAMES = {"_source", "_unreachable"}
GONE_NAMES = {"parity_empty_rows"}


def _identifiers(path: Path):
    """Every identifier ``path`` names: names, attributes, definitions,
    imports, arguments and keywords."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        for key in ("id", "attr", "name", "arg"):
            name = getattr(node, key, None)
            if isinstance(name, str):
                yield name


def test_light_cone_stays_in_walk():
    files = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "tests")
             for path in sorted(folder.glob("*.py"))]
    hits = sorted({(path.stem, name) for path in files
                   for name in _identifiers(path)
                   if name in GONE_NAMES
                   or (name in CONE_NAMES and path.stem != "walk")})
    assert not hits, f"light-cone rule stated outside SiteWindow: {hits}"


# ---------------------------------------------------------------------------
# one step-count rule

STEP_NAMES = {"t", "t_max"}
RULE = ("walk", "step_count")


def _step_name(node) -> bool:
    """Whether ``node`` is a name or attribute ``t`` or ``t_max``."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name in STEP_NAMES


def _step_rule_hits(module: str, source: str):
    """(module, function, what) for every statement of a step-count rule
    in ``source`` outside ``walk.step_count``: a name ``MAX_STEPS``
    (assigned or read) outside ``walk``, an ``int()`` of a step count,
    and an ``if`` that orders a step count and raises."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        here = (module, scope or "<module>")
        exempt = (module, scope) == RULE
        if (isinstance(node, ast.Name) and node.id == "MAX_STEPS"
                and module != "walk"):
            found.append(here + ("MAX_STEPS",))
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                == "int" and any(map(_step_name, node.args))
                and not exempt):
            found.append(here + ("int(t)",))
        if (isinstance(node, ast.If) and not exempt
                and any(isinstance(sub, ast.Raise) for stmt in node.body
                        for sub in ast.walk(stmt))
                and any(isinstance(cmp, ast.Compare)
                        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt,
                                                ast.GtE)) for op in cmp.ops)
                        and any(map(_step_name, [cmp.left, *cmp.comparators]))
                        for cmp in ast.walk(node.test))):
            found.append(here + ("check",))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_one_step_count_rule():
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _step_rule_hits(path.stem, path.read_text())]
    assert not hits, f"step-count rules outside walk.step_count: {hits}"
    assigned = [node for node in ast.walk(ast.parse(
        (PACKAGE / "walk.py").read_text())) if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "MAX_STEPS" for t in node.targets)]
    assert len(assigned) == 1


@pytest.mark.parametrize("module,source,what", [
    ("cli", "MAX_STEPS = 2 ** 53\n", "MAX_STEPS"),
    ("cli", "def _check_t(t, minimum=1):\n    t = int(t)\n"
            "    if t < minimum:\n        raise ValueError(t)\n", "int(t)"),
    ("qfim", "def f(self):\n    if self.t < 1:\n        raise ValueError\n",
     "check"),
    ("cases", "def g(t_max):\n    if not t_max >= 1:\n        raise E\n",
     "check"),
    ("walk", "def evolve(s, t):\n    if t < 0:\n        raise ValueError\n",
     "check"),
])
def test_step_count_ratchet_sees_a_second_rule(module, source, what):
    assert what in {hit[2] for hit in _step_rule_hits(module, source)}


# ---------------------------------------------------------------------------
# one statement of each walk rule

RULE_MODULES = tuple(sorted(path.stem for path in PACKAGE.glob("*.py")
                           if path.stem != "walk"))
# the fits' own parameter: alpha weights the frequency groups by
# e^{-i alpha f}, a phase no walk rule states
PHASE_EXEMPT = {("estimation", "_derivatives")}


def _calls(node, name) -> bool:
    """Whether ``node`` calls a function or method named ``name``."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _walk_rule_hits(module: str, source: str):
    """(module, function, what) for every walk rule ``source`` states
    itself: a node array (an ``arange`` divided by something), a phase
    (``exp`` of an imaginary argument), a Bloch-length gate (an ``if``
    that raises on a ``norm`` or on a bound 1 + eps) and a normalisation
    gate with its own tolerance (an ``if`` that raises on ``abs(x - 1)``
    compared with a number, where ``walk.NORM_TOL`` is the one)."""
    found = []

    def number(node) -> bool:
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float))

    def off_one(node) -> bool:
        return (_calls(node, "abs") and len(node.args) == 1
                and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Sub)
                and isinstance(node.args[0].right, ast.Constant)
                and node.args[0].right.value == 1)

    def gate(cmp) -> bool:
        sides = [cmp.left, *cmp.comparators]
        return (any(_calls(side, "norm") for side in sides)
                or any(isinstance(side, ast.BinOp)
                       and isinstance(side.op, ast.Add)
                       and isinstance(side.left, ast.Constant)
                       and side.left.value == 1
                       and isinstance(side.right, ast.Constant)
                       for side in sides))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        here = (module, scope or "<module>")
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and any(_calls(sub, "arange") for sub in ast.walk(node.left))):
            found.append(here + ("grid",))
        if (_calls(node, "exp") and here not in PHASE_EXEMPT
                and any(isinstance(sub, ast.Constant)
                        and isinstance(sub.value, complex)
                        for arg in node.args for sub in ast.walk(arg))):
            found.append(here + ("phase",))
        if isinstance(node, ast.If) and any(
                isinstance(sub, ast.Raise) for stmt in node.body
                for sub in ast.walk(stmt)):
            cmps = [cmp for cmp in ast.walk(node.test)
                    if isinstance(cmp, ast.Compare)]
            if any(map(gate, cmps)):
                found.append(here + ("bloch",))
            if any(any(map(off_one, sides)) and any(map(number, sides))
                   for sides in ([c.left, *c.comparators] for c in cmps)):
                found.append(here + ("norm",))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_each_walk_rule_is_stated_once():
    hits = [hit for module in RULE_MODULES
            for hit in _walk_rule_hits(module, (PACKAGE / f"{module}.py")
                                       .read_text())]
    assert not hits, f"walk rules stated outside walk: {hits}"


@pytest.mark.parametrize("module,source,what", [
    ("qfim", "def _zone_means(n):\n    x = TWO_PI * np.arange(n) / n\n",
     "grid"),
    ("estimation", "def _engine_inputs(beta, m, nodes):\n"
                   "    a = np.exp(-0.5j * beta * np.array([1.0, -1.0]))\n"
                   "    b = np.exp(-1j * m * nodes)\n", "phase"),
    ("qfim", "def qfim_localized(r):\n"
             "    if not np.linalg.norm(r) <= 1.0 + 1e-12:\n"
             "        raise ValueError\n", "bloch"),
    ("qfim", "def single_param_qfi(r_y):\n"
             "    if not abs(r_y) <= 1.0 + 1e-12:\n"
             "        raise ValueError\n", "bloch"),
    # PositionDistribution's own gate, which refused what the walk took
    ("estimation", "def __post_init__(self):\n"
                   "    if not abs(probs.sum() - 1.0) <= 1e-12:\n"
                   "        raise ValueError\n", "norm"),
])
def test_walk_rule_ratchet_sees_a_second_statement(module, source, what):
    assert what in {hit[2] for hit in _walk_rule_hits(module, source)}


# ---------------------------------------------------------------------------
# one rule per kind of number

NUMBER_RULES = {("walk", "as_int"), ("walk", "as_real")}


def _number_rule_hits(module: str, source: str):
    """(module, function, what) for every raising ``if`` in ``source``
    outside ``walk.as_int`` and ``walk.as_real`` that states a number rule
    itself: one that calls ``isfinite`` ("finite") or asks ``isinstance``
    about ``bool`` ("bool").  ``map(math.isfinite, ...)`` calls nothing
    here: it is an array gate."""
    found = []

    def about_bool(node) -> bool:
        return _calls(node, "isinstance") and len(node.args) == 2 and any(
            getattr(sub, "id", None) == "bool"
            for sub in ast.walk(node.args[1]))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        here = (module, scope or "<module>")
        if (isinstance(node, ast.If) and here not in NUMBER_RULES
                and any(isinstance(sub, ast.Raise) for stmt in node.body
                        for sub in ast.walk(stmt))):
            calls = list(ast.walk(node.test))
            if any(_calls(sub, "isfinite") for sub in calls):
                found.append(here + ("finite",))
            if any(map(about_bool, calls)):
                found.append(here + ("bool",))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_one_rule_per_kind_of_number():
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _number_rule_hits(path.stem, path.read_text())]
    assert not hits, f"number rules outside walk.as_int/as_real: {hits}"


@pytest.mark.parametrize("module,source,what", [
    # the gates MagneticField, GridSpec and check_shots_and_seed once had
    ("cases", "def __post_init__(self):\n"
              "    if not (np.isfinite(self.b2) and np.isfinite(self.b3)):\n"
              "        raise ValueError('field components must be finite')\n",
     "finite"),
    ("estimation", "def __post_init__(self):\n"
                   "    for name in ('theta_min', 'theta_max'):\n"
                   "        edge = getattr(self, name)\n"
                   "        if not math.isfinite(edge):\n"
                   "            raise ValueError(edge)\n", "finite"),
    ("estimation", "def __post_init__(self):\n"
                   "    for name in ('n_theta', 'n_alpha'):\n"
                   "        n = getattr(self, name)\n"
                   "        if isinstance(n, bool) or not isinstance(\n"
                   "                n, (int, np.integer)):\n"
                   "            raise ValueError(n)\n", "bool"),
    ("estimation", "def check_shots_and_seed(shots, seed):\n"
                   "    for name, n, least in (('shots', shots, 1),\n"
                   "                           ('seed', seed, 0)):\n"
                   "        if isinstance(n, (bool, float)):\n"
                   "            raise ValueError(name)\n", "bool"),
    # a second statement inside walk counts too
    ("walk", "def initial_gamma(gamma):\n"
             "    if not math.isfinite(gamma):\n"
             "        raise ValueError(gamma)\n", "finite"),
])
def test_number_rule_ratchet_sees_a_second_statement(module, source, what):
    assert what in {hit[2] for hit in _number_rule_hits(module, source)}


def test_number_rule_ratchet_passes_array_gates_and_the_rules():
    array_gate = ("def __post_init__(self):\n"
                  "    if not all(map(math.isfinite, s)):\n"
                  "        raise ValueError('entries must be finite')\n")
    rules = (PACKAGE / "walk.py").read_text()
    assert _number_rule_hits("qfim", array_gate) == []
    assert _number_rule_hits("walk", rules) == []
    assert {"finite", "bool"} <= {hit[2] for hit in _number_rule_hits(
        "cli", rules)}


# ---------------------------------------------------------------------------
# one parameter-name rule


def _name_rule_hits(module: str, source: str):
    """(module, function, what) for every name-to-row rule ``source``
    states itself: a ``PARAM_NAMES.index`` call ("index") and a
    ``generator_spatial`` call without parameter names ("all rows")."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        here = (module, scope or "<module>")
        if (_calls(node, "index") and isinstance(node.func, ast.Attribute)
                and "PARAM_NAMES" in (getattr(node.func.value, "id", None),
                                      getattr(node.func.value, "attr", None))):
            found.append(here + ("index",))
        if (_calls(node, "generator_spatial") and len(node.args) < 2
                and not any(k.arg == "params" for k in node.keywords)):
            found.append(here + ("all rows",))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_parameter_names_become_rows_in_walk_alone():
    files = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "walk"] + sorted((ROOT / "scripts").glob("*.py"))
    hits = [hit for path in files
            for hit in _name_rule_hits(path.stem, path.read_text())]
    assert not hits, f"parameter names turned into rows outside walk: {hits}"


_ZONE_MEANS = ("def _zone_means(p, init, params):\n"
               "    w = generator_spatial(p.theta)[[PARAM_NAMES.index(l)\n"
               "                                    for l in params]]\n")


@pytest.mark.parametrize("module,source,what", [
    ("qfim", _ZONE_MEANS, "index"),
    ("qfim", _ZONE_MEANS, "all rows"),
    ("oracle", "def _gram(params):\n"
               "    idx = [walk.PARAM_NAMES.index(l) for l in params]\n",
     "index"),
    ("qfim", "def beta_null_check(p):\n"
             "    ob = walk.generator_spatial(p.theta)[2]\n", "all rows"),
])
def test_name_rule_ratchet_sees_a_second_statement(module, source, what):
    assert what in {hit[2] for hit in _name_rule_hits(module, source)}


# ---------------------------------------------------------------------------
# one pseudo-inverse

# the fitter inverts every curvature (Newton step, scoring step, edge
# re-solve, covariance) with one helper, the only eigen-solver call it makes
SOLVER = ("estimation", "_pseudo_inverse")
EIGEN_NAMES = {"eigh", "eigvalsh"}


def _linalg_refs():
    """(module, function, name) for every pseudo-inverse or eigen-solver
    reference in the package."""
    hits = set()
    for path in sorted(PACKAGE.glob("*.py")):
        refs = _Refs(EIGEN_NAMES | {"pinv"})
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
        hits |= {(path.stem, scope, name) for scope, name in refs.hits}
    return hits


def test_no_pinv_in_the_package():
    pinv = sorted(hit for hit in _linalg_refs() if hit[2] == "pinv")
    assert not pinv, f"pinv references in the package: {pinv}"


def test_fitter_decomposes_only_in_its_helper():
    calls = {(scope, name) for module, scope, name in _linalg_refs()
             if module == SOLVER[0] and name in EIGEN_NAMES}
    assert calls and {scope for scope, _ in calls} == {SOLVER[1]}, \
        f"eigen-solver calls in {SOLVER[0]} outside {SOLVER[1]}: {calls}"


# ---------------------------------------------------------------------------
# one folded angle

FOLD = ("walk", "folded_angle")


def _arctan2_calls(module: str, source: str):
    """(module, function) of every ``arctan2`` call in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if _calls(node, "arctan2"):
            found.append((module, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_one_folded_angle_rule():
    calls = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _arctan2_calls(path.stem, path.read_text())]
    assert calls == [FOLD], f"arctan2 called outside the one fold: {calls}"


def test_fold_ratchet_sees_a_second_angle():
    # the kernel's fold as it stood before the rule moved into walk
    source = ("class ThetaFamily:\n"
              "    def _fold(self, theta):\n"
              "        return ct, st, sign, c, s, np.arctan2(s, c)\n")
    assert _arctan2_calls("walk", source) == [("walk", "_fold")]
    rules = (PACKAGE / "walk.py").read_text()
    assert _arctan2_calls("walk", rules + source) == [
        FOLD, ("walk", "_fold")]


# ---------------------------------------------------------------------------
# every definition in src has a pipeline reader

READER_DIRS = ("scripts", "perfbench")


def _name_of(node):
    """The name a node names: a name, an attribute or a string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _named(tree) -> Counter:
    return Counter(filter(None, map(_name_of, ast.walk(tree))))


def _definitions(node, scope=""):
    """(dotted name, node) of every def and class below ``node``, dunders
    aside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            dotted = f"{scope}.{child.name}" if scope else child.name
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield dotted, child
            yield from _definitions(child, dotted)
        else:
            yield from _definitions(child, scope)


def _unread_definitions(package: dict, readers: list):
    """(module, dotted name) of every definition in ``package`` ({module:
    source}) that no source names outside the definition itself: the
    package's and ``readers``'."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    named = sum(map(_named, [*trees.values(), *map(ast.parse, readers)]),
                Counter())
    return sorted((module, scope) for module, tree in trees.items()
                  for scope, node in _definitions(tree)
                  if named[node.name] <= _named(node)[node.name])


def _pipeline_sources():
    package = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    readers = [path.read_text() for folder in READER_DIRS
               for path in sorted((ROOT / folder).glob("*.py"))]
    return package, readers


def test_every_src_name_has_a_pipeline_reader():
    unread = _unread_definitions(*_pipeline_sources())
    assert not unread, f"defined in src but read only by tests: {unread}"


def test_reader_ratchet_sees_an_unread_def():
    package, readers = _pipeline_sources()
    before = _unread_definitions(package, readers)
    # a use inside its own definition does not count
    package["walk"] += ("\n\ndef unread_rule(n):\n"
                        "    return unread_rule(n - 1) if n else 'unread_rule'\n")
    after = _unread_definitions(package, readers)
    assert set(after) - set(before) == {("walk", "unread_rule")}
    readers.append("walk.unread_rule(3)\n")
    assert _unread_definitions(package, readers) == before


# ---------------------------------------------------------------------------
# validate before compute

ENGINE_ENTRIES = {"evolve", "exact_matrices", "qfim_theorem1",
                  "make_likelihood_table", "_qfim_by_route", "sweep_fig1",
                  "sweep_fig2"}
VALIDATORS = {"_coin", "step_count", "_parse_init", "_items", "ConfigError",
              "WeightMatrix", "check_eps_compat", "check_shots_and_seed",
              "GridSpec", "MagneticField", "DiracParams"}


def _late_validations(source: str):
    """{command: (the validating calls after its first engine call, its
    number of engine calls)} for each ``cmd_*`` function of ``source``.
    A call runs when its arguments are done, so calls are ordered by
    where they end."""
    found = {}
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")):
            continue
        calls = sorted(((node.end_lineno, node.end_col_offset), name)
                       for node in ast.walk(fn) if isinstance(node, ast.Call)
                       for name in [getattr(node.func, "id", None)
                                    or getattr(node.func, "attr", None)])
        engine = [at for at, name in calls if name in ENGINE_ENTRIES]
        late = [name for at, name in calls
                if name in VALIDATORS and engine and at > engine[0]]
        found[fn.name] = (late, len(engine))
    return found


def test_commands_validate_before_compute():
    found = _late_validations((PACKAGE / "cli.py").read_text())
    assert len(found) == 6
    assert all(n_engine for _, n_engine in found.values()), found
    late = {cmd: names for cmd, (names, _) in found.items() if names}
    assert not late, f"validation after the first engine run: {late}"


def test_validation_ratchet_sees_a_late_check():
    source = ("def cmd_estimate(ns, out):\n"
              "    final = evolve(init, p, t)\n"
              "    grid = GridSpec(n_theta=ns.grid_n, n_alpha=ns.grid_n)\n")
    assert _late_validations(source) == {"cmd_estimate": (["GridSpec"], 1)}


# ---------------------------------------------------------------------------
# exit codes

# the Gauss quadrature is a test reference the CLI never runs, and the
# package __getattr__ raises AttributeError as the import system expects
EXIT_EXEMPT_MODULES = {"quadrature"}
EXIT_EXEMPT_FUNCTIONS = {("__init__", "__getattr__")}


def _resolve(module, node):
    """The object an exception expression names in ``module``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(module, node.value), node.attr)
    assert isinstance(node, ast.Name), ast.dump(node)
    ns = importlib.import_module("qwfisher" if module == "__init__"
                                 else "qwfisher." + module)
    return getattr(ns, node.id, None) or getattr(builtins, node.id)


def _raised_classes():
    """{(module, class name): class} for every exception raised in src/."""
    raised = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXIT_EXEMPT_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and (path.stem, fn.name) in EXIT_EXEMPT_FUNCTIONS
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and node.exc is not None
                    and id(node) not in exempt):
                cls = _resolve(path.stem, node.exc)
                raised[(path.stem, cls.__name__)] = cls
    return raised


def _caught_by_main():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "main")
    caught = []
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            caught += [_resolve("cli", name) for name in names]
    return tuple(caught)


# the table the errors module documents, restated: a new error type
# must be entered here with its code
EXIT_CODES = {"ConfigError": 2, "QuadratureError": 3, "NoConvergence": 3,
              "DegenerateWalk": 4, "OutOfWindow": 4, "SingularFisher": 4,
              "IncompatibleModel": 4, "ChargeUnidentifiable": 4,
              "SingularJacobian": 4}
LABELS = {2: "config", 3: "numerical", 4: "model"}


def _error_types():
    """Every subclass of QwfError, however deep, by name."""
    found, todo = {}, [QwfError]
    while todo:
        for cls in todo.pop().__subclasses__():
            found[cls.__name__] = cls
            todo.append(cls)
    return [found[name] for name in sorted(found)]


def test_every_raised_exception_has_an_exit_code():
    # main catches QwfError, whose subclasses carry their code, and maps
    # the few builtin errors it names; anything else escapes as a traceback
    caught = _caught_by_main()
    assert QwfError in caught, "cli.main does not catch QwfError"
    untyped = sorted(key for key, cls in _raised_classes().items()
                     if not issubclass(cls, caught)
                     or (issubclass(cls, QwfError)
                         and cls.exit_code not in LABELS))
    assert not untyped, f"raised but not mapped to an exit code: {untyped}"


def test_every_error_type_carries_its_code_and_label():
    for cls in _error_types():
        assert cls.exit_code in LABELS, f"{cls.__name__} has no exit code"
        assert cls.label == LABELS[cls.exit_code], cls.__name__


@pytest.mark.parametrize("cls", _error_types(), ids=lambda cls: cls.__name__)
def test_main_exits_with_each_error_code(cls, monkeypatch, capsys):
    def stub(ns, out):
        raise cls("stub failure")

    monkeypatch.setattr(cli, "cmd_evolve", stub)
    code = EXIT_CODES[cls.__name__]
    assert cli.main(["evolve"]) == code
    assert capsys.readouterr().err == f"{LABELS[code]} error: stub failure\n"
