"""Deterministic table/JSON output helpers shared by sweeps and the CLI.

CSV: :func:`write_csv` is the one CSV writer; every table the package
writes goes through it.  '.' decimal, 17 significant digits, string
cells verbatim, header row naming columns.
JSON: sorted keys, repr-shortest floats, schema version embedded.  No
timestamps anywhere so identical configs reproduce bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    return "%.17g" % float(x)


def write_csv(path, columns: dict, comments=()) -> None:
    """Write '# '-prefixed comment lines, a header naming the columns,
    then one row per entry of the equal-length columns."""
    lines = ["# " + c for c in comments]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_format_cell, row))
                 for row in zip(*columns.values()))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class DataTable:
    """Ordered named columns of equal length plus provenance metadata."""

    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lens = {name: len(col) for name, col in self.columns.items()}
        if len(set(lens.values())) > 1:
            raise ValueError(f"ragged columns: {lens}")

    def to_csv(self, path, comments=()) -> None:
        write_csv(path, self.columns, comments)

    def to_json(self, path, extra_meta: dict | None = None) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "meta": dict(self.meta, **(extra_meta or {})),
            "columns": {n: np.asarray(c).tolist() for n, c in self.columns.items()},
        }
        write_json(path, payload)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them.

    Non-finite floats map to null: the files stay strict JSON and an
    infinite variance shows up as an explicit missing value.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
