"""File formats: measure and scenario files in, reports and CSVs out.

This is the only module that reads or writes files.  Input files are JSON
with one schema-version field; unknown fields are errors, not warnings, so
golden files stay stable.  A scenario is read here as an envelope only;
`cli.prepare` checks each of its runs against the command table.  Numbers
are serialized with 17 significant digits, which round-trips IEEE doubles
exactly; writes are atomic (temp file plus rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import IoError, ParseError
from .measures import GridDensity, Measure, Named, atomic, dirac

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# number and JSON formatting
# ---------------------------------------------------------------------------

def format_float(v: float) -> str:
    """17 significant digits: exact round-trip for IEEE doubles."""
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(float(v), ".17g")


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, out, indent)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = list(obj)
        for i, k in enumerate(keys):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (insertion-ordered dicts, 17-digit floats)."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _atomic_write(path: str, text: str) -> None:
    """Write `text` to `path` by an atomic rename, making the directory on
    the first write: a run that fails before writing leaves none behind."""
    try:
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# measure and scenario files
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _json(text: str, what: str):
    """`text` as JSON; a ParseError names `what` and the line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} JSON invalid at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)} in {where}; "
                         f"allowed: {sorted(allowed)}")


def parse_number(value, what: str, kind=float):
    """`kind(value)`, or a ParseError naming the field `what`: a boolean is
    no number, and an int field takes no fraction (8.9 is not 8)."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a number, got {value!r}") from exc
    if kind is int and not isinstance(value, str) and number != value:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return number


def parse_numbers(values, what: str) -> list[float]:
    """A list of floats, each through `parse_number`."""
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"{what} must be a list of numbers, got {values!r}")
    return [parse_number(v, what) for v in values]


def measure_from_dict(d: dict) -> Measure:
    if not isinstance(d, dict):
        raise ParseError(f"measure must be an object, got {type(d).__name__}")
    if "kind" not in d:
        raise ParseError("measure needs a 'kind' field (atomic | grid | named)")
    kind = d["kind"]
    if kind == "atomic":
        reject_unknown(d, {"kind", "atoms", "schema_version"}, "atomic measure")
        atoms = d.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ParseError("atomic measure needs a non-empty 'atoms' array")
        pairs = []
        for i, rec in enumerate(atoms):
            if not isinstance(rec, dict):
                raise ParseError(f"atoms[{i}] must be an object with 'w' and 'a'")
            reject_unknown(rec, {"w", "a"}, f"atoms[{i}]")
            if "w" not in rec or "a" not in rec:
                raise ParseError(f"atoms[{i}] needs both 'w' and 'a'")
            pairs.append((parse_number(rec["w"], f"atoms[{i}].w"),
                          parse_number(rec["a"], f"atoms[{i}].a")))
        return atomic(pairs)
    if kind == "grid":
        reject_unknown(d, {"kind", "grid", "normalize", "schema_version"},
                       "grid measure")
        g = d.get("grid")
        if not isinstance(g, dict):
            raise ParseError("grid measure needs a 'grid' object")
        reject_unknown(g, {"x", "f"}, "grid")
        if "x" not in g or "f" not in g:
            raise ParseError("grid needs 'x' and 'f' arrays")
        normalize = d.get("normalize")
        if normalize is not None and not isinstance(normalize, bool):
            raise ParseError(f"grid measure 'normalize' must be true or "
                             f"false, got {normalize!r}")
        return GridDensity(parse_numbers(g["x"], "grid.x"),
                           parse_numbers(g["f"], "grid.f"),
                           normalize=bool(normalize))
    if kind == "named":
        reject_unknown(d, {"kind", "family", "params", "schema_version"},
                       "named measure")
        family = d.get("family")
        if not isinstance(family, str):
            raise ParseError("named measure needs a 'family' string")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("'params' must be an object")
        params = {k: parse_number(v, f"params.{k}") for k, v in params.items()}
        if family == "dirac":
            # the point mass keeps its named file form but is an Atomic
            if set(params) != {"c"}:
                raise ParseError(f"family 'dirac' takes ('c',), got "
                                 f"{sorted(params)}")
            return dirac(params["c"])
        return Named(family, **params)
    raise ParseError(f"unknown measure kind {kind!r} (atomic | grid | named)")


def parse_measure(text: str) -> Measure:
    """Parse and validate a measure from JSON text.

    Raises ParseError on malformed input (with line/column information) and
    InvariantViolation when a construction invariant fails.
    """
    return measure_from_dict(_json(text, "measure"))


def load_measure(path: str) -> Measure:
    return parse_measure(_read(path))


def parse_measure_arg(value: str) -> Measure:
    """CLI helper: inline JSON when the value starts with '{', a path
    otherwise."""
    if value.lstrip().startswith("{"):
        return parse_measure(value)
    return load_measure(value)


def parse_scenario(text: str) -> dict:
    """A scenario's envelope: its `schema_version`, a string `out_dir` if it
    has one, and a non-empty `runs` list of objects with a `command`;
    `cli.prepare` checks each run."""
    d = _json(text, "scenario")
    if not isinstance(d, dict):
        raise ParseError("scenario must be a JSON object")
    reject_unknown(d, {"schema_version", "name", "runs", "out_dir"}, "scenario")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"scenario needs schema_version = {SCHEMA_VERSION}")
    if d.get("out_dir") is not None and not isinstance(d["out_dir"], str):
        raise ParseError(f"scenario out_dir must be a string, got "
                         f"{d['out_dir']!r}")
    runs = d.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ParseError("scenario needs a non-empty 'runs' array")
    for i, run in enumerate(runs):
        if not isinstance(run, dict) or "command" not in run:
            raise ParseError(f"runs[{i}] needs a 'command' field")
    return d


def load_scenario(path: str) -> dict:
    return parse_scenario(_read(path))


# ---------------------------------------------------------------------------
# reports and CSV
# ---------------------------------------------------------------------------

def write_report(record: dict, path: str) -> None:
    """A run's record (command, inputs, tolerances, results, warnings) under
    the schema version.  Wall-clock timing goes to stderr, never into the
    file, so identical configs produce byte-identical reports."""
    _atomic_write(path, dumps({"schema_version": SCHEMA_VERSION, **record}))


def write_curve_csv(curve, path: str) -> None:
    """A density curve (`flow.DensityCurve`) in fixed column order x,q,xq at
    17 significant digits."""
    lines = ["x,q,xq"]
    for x, q in zip(curve.x, curve.q):
        lines.append(f"{x:.17g},{q:.17g},{x * q:.17g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_violations_csv(violations, path: str) -> None:
    """Pick-check violations: re,im,value."""
    lines = ["re,im,value"]
    for z, v in violations:
        lines.append(f"{z.real:.17g},{z.imag:.17g},{v:.17g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_sweep_csv(report, path: str) -> None:
    """Angle sweep rows: R,count,effective_count,boundary,roots..."""
    lines = ["R,count,effective_count,boundary,roots"]
    for R, c, e, b, roots in zip(report.angles, report.counts,
                                 report.effective_counts,
                                 report.boundary_flags, report.roots):
        root_txt = ";".join(f"{rt:.17g}" for rt in roots)
        lines.append(f"{R:.17g},{c},{e},{int(b)},{root_txt}")
    _atomic_write(path, "\n".join(lines) + "\n")
