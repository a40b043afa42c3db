"""The lazy export table of the package root."""
import importlib

import qwfisher


def test_every_public_name_resolves():
    missing = [name for name in qwfisher.__all__
               if getattr(qwfisher, name, None) is None]
    assert missing == []


def test_every_export_is_defined_in_its_module():
    misplaced = []
    for module, names in qwfisher._EXPORTS.items():
        mod = importlib.import_module("qwfisher." + module)
        for name in names:
            defined_in = getattr(getattr(mod, name, None), "__module__", None)
            if defined_in != mod.__name__:
                misplaced.append((module, name, defined_in))
    assert misplaced == []
