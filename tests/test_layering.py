"""A ratchet on private reach-ins between package modules.

A module that imports an ``_``-prefixed name from another package
module couples itself to that module's internals.  The ones that exist
are listed below with their reason; any other fails here, and so does a
listed one that is gone, so the list only shrinks.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qwfisher"

ALLOWED = {
    ("estimation", "oracle", "_evolve_with_generators"):
        "the exact scores run on the oracle's engine call",
    ("cli", "oracle", "_exact_matrices"):
        "one engine run gives both matrices of the oracle route",
    ("cli", "qfim", "_rho_bloch"):
        "the localized route needs the input's Bloch vector",
    ("cli", "_io", "_format_cell"):
        "the string-column CSV writer formats numbers like DataTable",
    ("convergence_study", "oracle", "_exact_matrices"):
        "one engine run per t gives both matrices",
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
