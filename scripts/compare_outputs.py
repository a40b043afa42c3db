#!/usr/bin/env python3
"""Compare two ``qwf`` output directories file by file.

Every file found in either directory (by its path relative to the
directory) is reported on one line as

    identical  byte for byte the same
    equal      every number within --rel-tol, with the largest relative
               deviation and where it sits
    different  anything else: a file missing on one side, another JSON
               structure, CSV header, comment or string, or a number
               beyond the tolerance

JSON files are compared by structure, null equal to null and numbers by
the tolerance; CSV files by their '#' comment lines and header (as text)
and their cells (numbers by the tolerance, other cells as text); any
other file only byte for byte.  Two numbers a != b deviate by
|a - b| / S, where S is the largest finite magnitude of the quantity
they belong to, in either file: the outermost JSON list holding them,
the CSV column, or the number itself.  An entry that is zero in theory,
such as an off-diagonal of a diagonal matrix, is so held to the scale
of its matrix and not to its own rounding.  NaN equals NaN.  Exits 1 if
any file is different, else 0.

    python scripts/compare_outputs.py DIR_A DIR_B [--rel-tol 1e-14]
"""
import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Different(Exception):
    """The two files do not match; the message says where."""


def rel_dev(a: float, b: float, scale: float = 0.0) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), scale)


def _number(x):
    """x as a float if it is a JSON number (not a bool), else None."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    return None


def _magnitudes(x):
    """The finite magnitudes of every number inside a parsed JSON value."""
    n = _number(x)
    if n is not None:
        if math.isfinite(n):
            yield abs(n)
    elif isinstance(x, (list, dict)):
        for v in (x.values() if isinstance(x, dict) else x):
            yield from _magnitudes(v)


def json_devs(a, b, where="$", scale=None):
    """(deviation, path) of every pair of numbers in two parsed JSON
    values of the same structure; Different on any other mismatch."""
    na, nb = _number(a), _number(b)
    if na is not None and nb is not None:
        yield (0.0 if a == b else rel_dev(na, nb, scale or 0.0)), where
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Different(f"{where}: keys {sorted(a)} vs {sorted(b)}")
        for key in a:
            yield from json_devs(a[key], b[key], f"{where}.{key}", scale)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Different(f"{where}: lengths {len(a)} vs {len(b)}")
        if scale is None:                   # the outermost list: one quantity
            scale = max(_magnitudes([a, b]), default=0.0)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_devs(x, y, f"{where}[{i}]", scale)
    elif type(a) is not type(b) or a != b:
        raise Different(f"{where}: {a!r} vs {b!r}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def csv_devs(text_a: str, text_b: str):
    """(deviation, place) of every pair of numeric cells of two CSV
    texts; Different if a comment, the header or a text cell differs."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    comments_a = [line for line in lines_a if line.startswith("#")]
    comments_b = [line for line in lines_b if line.startswith("#")]
    if comments_a != comments_b:
        raise Different("comment lines differ")
    rows_a = list(csv.reader(line for line in lines_a if not line.startswith("#")))
    rows_b = list(csv.reader(line for line in lines_b if not line.startswith("#")))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        raise Different("header or row count differs")
    header, body = rows_a[0] if rows_a else [], rows_a[1:] + rows_b[1:]
    if any(len(row) != len(header) for row in body):
        raise Different("a row's cell count differs from the header's")
    scales = [max((abs(v) for row in body if (v := _cell(row[j])) is not None
                   and math.isfinite(v)), default=0.0)
              for j in range(len(header))]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for j, (x, y) in enumerate(zip(ra, rb)):
            fx, fy = _cell(x), _cell(y)
            if fx is None or fy is None:
                if x != y:
                    raise Different(f"row {i} column {header[j]}: {x!r} vs {y!r}")
            else:
                yield rel_dev(fx, fy, scales[j]), f"row {i} column {header[j]}"


def compare_file(path_a: Path, path_b: Path, rel_tol: float) -> tuple[str, str]:
    """(verdict, detail) for one pair of files."""
    if not (path_a.is_file() and path_b.is_file()):
        side = "first" if not path_a.is_file() else "second"
        return "different", f"missing in the {side} directory"
    raw_a, raw_b = path_a.read_bytes(), path_b.read_bytes()
    if raw_a == raw_b:
        return "identical", ""
    try:
        if path_a.suffix == ".json":
            devs = json_devs(json.loads(raw_a), json.loads(raw_b))
        elif path_a.suffix == ".csv":
            devs = csv_devs(raw_a.decode(), raw_b.decode())
        else:
            raise Different("bytes differ")
        worst, where = max(devs, default=(0.0, "no numbers"))
    except (Different, ValueError) as exc:
        return "different", str(exc)
    detail = f"max rel dev {worst:.3e} at {where}"
    return ("equal" if worst <= rel_tol else "different"), detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--rel-tol", type=float, default=1e-14,
                    help="largest relative deviation of a number that "
                         "still counts as equal (default 1e-14)")
    args = ap.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    names = sorted({p.relative_to(d).as_posix()
                    for d in (args.dir_a, args.dir_b)
                    for p in d.rglob("*") if p.is_file()})
    verdicts = []
    for name in names:
        verdict, detail = compare_file(args.dir_a / name, args.dir_b / name,
                                       args.rel_tol)
        verdicts.append(verdict)
        print(f"{verdict:<10} {name}" + (f"  ({detail})" if detail else ""))
    counts = {v: verdicts.count(v) for v in ("identical", "equal", "different")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["different"] else 0


if __name__ == "__main__":
    sys.exit(main())
