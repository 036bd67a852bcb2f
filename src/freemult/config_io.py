"""Measure/scenario file parsing and deterministic result serialization.

This is the only module that touches the filesystem.  File formats are JSON
with one schema-version field; unknown fields are errors, not warnings, so
golden files stay stable.  Numbers are serialized with 17 significant
digits, which round-trips IEEE doubles exactly; writes are atomic (temp
file plus rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import IoError, ParseError
from .flow import DensityCurve, FlowContext
from .measures import GridDensity, Measure, Named, atomic, dirac
from .unimodality import DEFAULT_HYSTERESIS, TOL_PICK

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
    try:
        d = os.path.dirname(os.path.abspath(path))
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
# measure schema
# ---------------------------------------------------------------------------

def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)} in {where}; "
                         f"allowed: {sorted(allowed)}")


def parse_number(value, what: str, kind=float):
    """`kind(value)`, or a ParseError naming the field `what`."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a number, got {value!r}") from exc


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
        _reject_unknown(d, {"kind", "atoms", "schema_version"}, "atomic measure")
        atoms = d.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ParseError("atomic measure needs a non-empty 'atoms' array")
        pairs = []
        for i, rec in enumerate(atoms):
            if not isinstance(rec, dict):
                raise ParseError(f"atoms[{i}] must be an object with 'w' and 'a'")
            _reject_unknown(rec, {"w", "a"}, f"atoms[{i}]")
            if "w" not in rec or "a" not in rec:
                raise ParseError(f"atoms[{i}] needs both 'w' and 'a'")
            pairs.append((parse_number(rec["w"], f"atoms[{i}].w"),
                          parse_number(rec["a"], f"atoms[{i}].a")))
        return atomic(pairs)
    if kind == "grid":
        _reject_unknown(d, {"kind", "grid", "normalize", "schema_version"},
                        "grid measure")
        g = d.get("grid")
        if not isinstance(g, dict):
            raise ParseError("grid measure needs a 'grid' object")
        _reject_unknown(g, {"x", "f"}, "grid")
        if "x" not in g or "f" not in g:
            raise ParseError("grid needs 'x' and 'f' arrays")
        return GridDensity(parse_numbers(g["x"], "grid.x"),
                           parse_numbers(g["f"], "grid.f"),
                           normalize=bool(d.get("normalize", False)))
    if kind == "named":
        _reject_unknown(d, {"kind", "family", "params", "schema_version"},
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
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"measure JSON invalid at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    return measure_from_dict(d)


def load_measure(path: str) -> Measure:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return parse_measure(text)


def parse_measure_arg(value: str) -> Measure:
    """CLI helper: inline JSON when the value starts with '{', a path
    otherwise."""
    if value.lstrip().startswith("{"):
        return parse_measure(value)
    return load_measure(value)


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

_TOLERANCE_DEFAULTS = {
    "tol_root": FlowContext.tol_root,
    "tol_quad": FlowContext.tol_quad,
    "tol_int": 1e-4,
    "tol_pick": TOL_PICK,
    "hysteresis": DEFAULT_HYSTERESIS,
    "tol_mean_rel": 1e-3,
    "tol_symmetry": 1e-3,
}
# per command: the fields a run may set besides `command` and `expect`, the
# tolerances it reads and reports, and the numeric fields of its summaries,
# which an `expect` key `<field>_min` may bound.  A run sets a tolerance
# through its `tolerances` object, or through a field of the same name (a
# check run's `hysteresis`).
_RUN_SETTINGS = {
    "density": ({"measure", "times", "grid", "checks", "tolerances"},
                tuple(_TOLERANCE_DEFAULTS),
                {"t", "support_components", "mass", "mean", "mean_expected",
                 "symmetry_defect", "theta_sweep_max_count"}),
    "check": ({"measure", "checks", "hysteresis"}, ("tol_pick", "hysteresis"),
              set()),
    "sweep": ({"measure", "times", "angles", "window", "grid"}, (),
              {"t", "max_count"}),
    "counterexample": ({"n_atoms", "times", "k_max", "rule", "tolerances"},
                       ("tol_root", "tol_quad"),
                       {"t", "support_components", "k", "midpoint", "f_value"}),
    "pick": ({"measure", "mode", "mode_sweep"}, ("tol_pick",),
             {"mode", "violations", "scale"}),
}


def effective_tolerances(command: str, run: dict) -> dict:
    """The tolerances `command` reads, defaults overridden by `run`; a
    tolerance the command does not read, or one that is not a finite
    number > 0, is a ParseError."""
    tol = {k: _TOLERANCE_DEFAULTS[k] for k in _RUN_SETTINGS[command][1]}
    over = run.get("tolerances")
    over = {} if over is None else over
    if not isinstance(over, dict):
        raise ParseError(f"tolerances must be an object, got {over!r}")
    fields = {k: run[k] for k in tol if k in run}
    for k, v in {**fields, **over}.items():
        if k not in tol:
            raise ParseError(f"{command} reads no tolerance {k!r}; "
                             f"it reads: {sorted(tol)}")
        tol[k] = parse_number(v, f"tolerance {k!r}")
        if not 0.0 < tol[k] < math.inf:
            raise ParseError(f"tolerance {k!r} must be finite and > 0, "
                             f"got {v!r}")
    return tol


def parse_scenario(text: str) -> dict:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario JSON invalid at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(d, dict):
        raise ParseError("scenario must be a JSON object")
    _reject_unknown(d, {"schema_version", "name", "runs", "out_dir"}, "scenario")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"scenario needs schema_version = {SCHEMA_VERSION}")
    runs = d.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ParseError("scenario needs a non-empty 'runs' array")
    for i, run in enumerate(runs):
        if not isinstance(run, dict) or "command" not in run:
            raise ParseError(f"runs[{i}] needs a 'command' field")
        cmd = run["command"]
        if cmd not in _RUN_SETTINGS:
            raise ParseError(f"runs[{i}]: unknown command {cmd!r}; known: "
                             f"{sorted(_RUN_SETTINGS)}")
        _reject_unknown(run, _RUN_SETTINGS[cmd][0] | {"command", "expect"},
                        f"runs[{i}] ({cmd})")
        effective_tolerances(cmd, run)
        _check_expect(cmd, run.get("expect"), f"runs[{i}] ({cmd})")
    return d


def _check_expect(command: str, expect, where: str) -> None:
    """An `expect` is an object; a `<field>_min` key bounds a numeric
    summary field of the command by a finite number."""
    if expect is None:
        return
    if not isinstance(expect, dict):
        raise ParseError(f"{where}: expect must be an object, got {expect!r}")
    numeric = _RUN_SETTINGS[command][2]
    for key, want in expect.items():
        if not key.endswith("_min"):
            continue
        if key[:-4] not in numeric:
            raise ParseError(f"{where}: expect {key!r} bounds no numeric "
                             f"field; those are: {sorted(numeric)}")
        if (isinstance(want, bool) or not isinstance(want, (int, float))
                or not math.isfinite(want)):
            raise ParseError(f"{where}: expect {key!r} must be a finite "
                             f"number, got {want!r}")


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# reports and CSV
# ---------------------------------------------------------------------------

def write_report(record: dict, path: str) -> None:
    """A run's record (command, inputs, tolerances, results, warnings) under
    the schema version.  Wall-clock timing goes to stderr, never into the
    file, so identical configs produce byte-identical reports."""
    _atomic_write(path, dumps({"schema_version": SCHEMA_VERSION, **record}))


def write_curve_csv(curve: DensityCurve, path: str) -> None:
    """Fixed column order x,q,xq at 17 significant digits; a curve with
    empty support writes the header alone."""
    lines = ["x,q,xq"]
    if len(curve.support) > 0:
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
