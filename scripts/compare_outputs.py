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
of its matrix and not to its own rounding.  NaN equals NaN.

A quantity that is zero in theory, or a difference that cancels far
below F, may have a list or column of its own.  Its S is then also at
least the largest |F| of the information matrix of the report in the
file's directory (the ``entries``, ``per_t2`` or ``fisher`` of its
``*_report.json``, either side), in the quantity's own units, or for a
fit's score the scale of its log-likelihood:

    beta_null_residual   qfim report and stdout: max |per_t2| (a
                         projector on an O(1) generator vector)
    uhlmann              qfim and bounds reports, the curvature D:
                         max |entries|
    dev_*, max_abs       qfim CSV, report and stdout, a route's deviation
                         from the reference route (its off-diagonals
                         are zero in theory): max |entries|
    max_rel, r, R        qfim and bounds outputs, bounds report note and
                         stdout, ratios to F (R is D over F): 1
    "diag =" lines       qfim stdout, the diagonals (the analytic
                         route's beta entry is zero in theory):
                         max |entries|
    "bracketed: [lo, hi]"  bounds report note, stdout and a --strict
                         run's stderr, the Holevo bracket [C^S,
                         (1 + R) C^S]: each number on its own scale
    score_norm           estimate result, the norm of the score at the
                         fit: shots + |loglik| of the same result file
                         (either side).  The score sums the counts
                         times d log p, so it rounds on the scale of
                         the log-likelihood's sums, the scale the fit's
                         grid stage takes for its rounding margin

``stdout.txt`` and ``stderr.txt``, and the ``note`` string of a report,
compare byte for byte but for the numbers that these labels name, which
compare by the tolerance on their scale.  Every other text file,
``exit.txt`` among them, and every other string compare byte for byte.
A summary line follows, and the exit status is 1 if any file is
different, else 0.

    python scripts/compare_outputs.py DIR_A DIR_B [--rel-tol 1e-14]
"""
import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

# zero-in-theory quantities by JSON key or CSV column, and which scale
# of their report's information matrix holds them
ZERO_IN_THEORY = {"beta_null_residual": "per_t2", "uhlmann": "entries",
                  "max_abs": "entries", "max_rel": "ratio", "r": "ratio",
                  "score_norm": "fit"}
# the same in stdout and a report's note, by the text before the number
LABELS = {"beta_null_residual = ": "per_t2", "max_abs=": "entries",
          "max_rel=": "ratio", "incompatibility R  = ": "ratio",
          "R = ": "ratio"}
NUMBER = r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf))"
LABELLED = re.compile("(" + "|".join(map(re.escape, LABELS)) + ")" + NUMBER)
DIAG_LINE = re.compile(r"\S+: diag = ")
DIAG_ENTRY = re.compile(r"(\w+=)" + NUMBER)
BRACKET = re.compile(r"(bracketed: \[)" + NUMBER + "(, )" + NUMBER)


def _unit(name: str):
    """The scale that holds a JSON key or CSV column."""
    return "entries" if name.startswith("dev_") else ZERO_IN_THEORY.get(name)


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


def json_devs(a, b, scales, where="$", scale=None, zero=0.0):
    """(deviation, path) of every pair of numbers in two parsed JSON
    values of the same structure, with ``zero`` the matrix scale of a
    zero-in-theory key above them, and of every labelled number of a
    report note; Different on any other mismatch."""
    na, nb = _number(a), _number(b)
    if na is not None and nb is not None:
        yield rel_dev(na, nb, max(scale or 0.0, zero)), where
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Different(f"{where}: keys {sorted(a)} vs {sorted(b)}")
        for key in a:
            z = scales.get(_unit(key), zero)
            yield from json_devs(a[key], b[key], scales, f"{where}.{key}",
                                 scale, z)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Different(f"{where}: lengths {len(a)} vs {len(b)}")
        if scale is None:                   # the outermost list: one quantity
            scale = max(_magnitudes([a, b]), default=0.0)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_devs(x, y, scales, f"{where}[{i}]", scale, zero)
    elif (isinstance(a, str) and isinstance(b, str) and a != b
          and where.endswith(".note")):
        try:
            devs = list(text_devs(a, b, scales))
        except Different:
            raise Different(f"{where}: {a!r} vs {b!r}") from None
        for dev, place in devs:
            yield dev, f"{where} {place}"
    elif type(a) is not type(b) or a != b:
        raise Different(f"{where}: {a!r} vs {b!r}")


def text_devs(text_a: str, text_b: str, scales: dict):
    """(deviation, place) of every labelled number in two texts that
    match byte for byte elsewhere; Different otherwise."""
    lines_a, lines_b = text_a.split("\n"), text_b.split("\n")
    if len(lines_a) != len(lines_b):
        raise Different("line count differs")
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        (text, numbers_a), (text_b, numbers_b) = _labelled(la), _labelled(lb)
        if text != text_b:
            raise Different(f"line {i}: text differs")
        for (label, unit, x), (_, _, y) in zip(numbers_a, numbers_b):
            yield (rel_dev(float(x), float(y), scales.get(unit, 0.0)),
                   f"line {i} {label}")


def _labelled(line: str):
    """(the line without its labelled numbers, [(label, unit, number)])."""
    if DIAG_LINE.match(line):
        return DIAG_ENTRY.sub(r"\1", line), [
            (label.strip("="), "entries", x)
            for label, x in DIAG_ENTRY.findall(line)]
    numbers = [(label.strip(" ="), LABELS[label], x)
               for label, x in LABELLED.findall(line)]
    numbers += [(f"bracketed {end}", None, x)
                for _, lo, _, hi in BRACKET.findall(line)
                for end, x in (("lo", lo), ("hi", hi))]
    return BRACKET.sub(r"\1\3", LABELLED.sub(r"\1", line)), numbers


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def csv_devs(text_a: str, text_b: str, scales: dict):
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
    col_scales = [max((abs(v) for row in body if (v := _cell(row[j])) is not None
                       and math.isfinite(v)), default=0.0)
                  for j in range(len(header))]
    zeros = [scales.get(_unit(name), 0.0) for name in header]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for j, (x, y) in enumerate(zip(ra, rb)):
            fx, fy = _cell(x), _cell(y)
            if fx is None or fy is None:
                if x != y:
                    raise Different(f"row {i} column {header[j]}: {x!r} vs {y!r}")
            else:
                yield (rel_dev(fx, fy, max(col_scales[j], zeros[j])),
                       f"row {i} column {header[j]}")


def report_scales(*dirs) -> dict:
    """The largest |F| of the information matrix of the ``*_report.json``
    in each of ``dirs``, by unit: the matrix's ``entries`` (or a bounds
    report's ``fisher``), its ``per_t2``, and 1 for a ratio to F."""
    scales = {"ratio": 1.0}

    def visit(x):
        if isinstance(x, dict):
            for key, v in x.items():
                unit = {"entries": "entries", "fisher": "entries",
                        "per_t2": "per_t2"}.get(key)
                if unit:
                    scales[unit] = max(scales.get(unit, 0.0),
                                       max(_magnitudes(v), default=0.0))
                else:
                    visit(v)

    for d in dirs:
        for path in sorted(d.glob("*_report.json")):
            try:
                visit(json.loads(path.read_text()))
            except ValueError:
                pass
    return scales


def fit_scale(body) -> float:
    """shots + |loglik| of a parsed estimate result, else 0."""
    try:
        scale = float(body["config"]["shots"]) + abs(float(body["loglik"]))
    except (KeyError, TypeError, ValueError):
        return 0.0
    return scale if math.isfinite(scale) else 0.0


def compare_file(path_a: Path, path_b: Path, rel_tol: float):
    """(verdict, detail) for one pair of files."""
    if not (path_a.is_file() and path_b.is_file()):
        side = "first" if not path_a.is_file() else "second"
        return "different", f"missing in the {side} directory"
    raw_a, raw_b = path_a.read_bytes(), path_b.read_bytes()
    if raw_a == raw_b:
        return "identical", ""
    scales = report_scales(path_a.parent, path_b.parent)
    try:
        if path_a.suffix == ".json":
            body_a, body_b = json.loads(raw_a), json.loads(raw_b)
            scales["fit"] = max(fit_scale(body_a), fit_scale(body_b))
            devs = json_devs(body_a, body_b, scales)
        elif path_a.suffix == ".csv":
            devs = csv_devs(raw_a.decode(), raw_b.decode(), scales)
        elif path_a.name in ("stdout.txt", "stderr.txt"):
            devs = text_devs(raw_a.decode(), raw_b.decode(), scales)
        else:
            raise Different("bytes differ")
        worst, where = max(devs, default=(0.0, "no numbers"))
    except (Different, ValueError) as exc:
        return "different", str(exc)
    return (("equal" if worst <= rel_tol else "different"),
            f"max rel dev {worst:.3e} at {where}")


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
