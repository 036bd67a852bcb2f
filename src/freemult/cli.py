"""Command-line front end.

Subcommands: density, check, sweep, counterexample, pick, scenario.  Each
command is one `_COMMANDS` entry: its run fields, its tolerances, its
numeric summary fields, its input reader and its runner.  A run record (a
scenario run, or the flags of one subcommand) goes through `prepare`, which
checks and reads it and writes nothing, then through `run`; a scenario
prepares every run before its first run starts.
Exit codes: 0 pass, 1 negative verdict, 2 config error, 3 numeric failure,
4 inconclusive.  All runs are deterministic.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import config_io, flow, unimodality
from .criteria import (
    build_counterexample,
    default_angle_sweep,
    gap_certificate,
    sweep_level_counts,
    time_threshold,
)
from .errors import (
    AtomicHasNoDensity,
    DomainError,
    FreemultError,
    HypothesisViolated,
    InvariantViolation,
    IoError,
    ParseError,
)
from .flow import FlowContext, blowup_region, density_curve
from .measures import GridDensity, Measure, is_mult_symmetric
from .unimodality import (
    DEFAULT_HYSTERESIS,
    PSI_PRIME_RTOL,
    TOL_PICK,
    is_log_unimodal,
    lambda_strong_check,
    pick_inequality_check,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

_DEFAULT_CHECKS = ("mass",)
_ALL_CHECKS = ("mass", "mean", "symmetry", "logunimodal", "pick",
               "theta_sweep")


def _contexts_of(value, nu: Measure, command: str) -> list[FlowContext]:
    """The run's `times`, a non-empty list, as the marginals of nu at them."""
    times = config_io.parse_numbers(value or [], "times")
    if not times:
        raise ParseError(f"{command} needs a non-empty 'times' list")
    return [FlowContext(nu, t) for t in times]


def _object(cfg: dict, name: str, command: str) -> dict:
    """The run's object field `name`, or {} when it is absent."""
    value = cfg.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{command} {name!r} must be an object, got {value!r}")
    return value


def _checks(cfg: dict, default) -> list:
    """The run's `checks` list, or `default` when it is absent or empty."""
    checks = cfg.get("checks")
    if checks is not None and not isinstance(checks, list):
        raise ParseError(f"checks must be a list, got {checks!r}")
    return checks or list(default)


def _measure_of(cfg: dict) -> Measure:
    """The run's `measure`: a measure object, or a --measure value."""
    if "measure" not in cfg:
        raise ParseError("the run needs a 'measure' field")
    if isinstance(cfg["measure"], dict):
        return config_io.measure_from_dict(cfg["measure"])
    return config_io.parse_measure_arg(str(cfg["measure"]))


def _log_symmetry_defect(curve) -> float:
    """sup |g(x) - g(1/x)| / max g over the curve, where g(x) = x q(x)."""
    g = curve.x * curve.q
    gmax = float(g.max())
    if gmax <= 0:
        return 0.0
    mirror = np.interp(1.0 / curve.x, curve.x, g, left=0.0, right=0.0)
    return float(np.max(np.abs(g - mirror))) / gmax


def _relaxation_warnings(pick) -> list[str]:
    """The report warning of a pick check whose psi' met only 100 * rtol at
    some grid points, or none."""
    if not pick.relaxed_points:
        return []
    return [f"pick check: psi' met only {100 * PSI_PRIME_RTOL:g} relative "
            f"accuracy, not {PSI_PRIME_RTOL:g}, at {pick.relaxed_points} grid "
            f"points"]


def _aggregate(codes) -> int:
    """Combine the exit codes of runs: negative > inconclusive > ok."""
    for code in (EXIT_NEGATIVE, EXIT_INCONCLUSIVE):
        if code in codes:
            return code
    return EXIT_OK


def _check_expectations(expect: dict | None, summaries: list[dict]) -> list[str]:
    failures = []
    for key, want in (expect or {}).items():
        for summary in summaries:
            if key.endswith("_min"):
                got = summary.get(key[:-4])
                if got is None or got < want:
                    failures.append(f"expected {key[:-4]} >= {want}, got {got}")
            else:
                got = summary.get(key)
                if got != want:
                    failures.append(f"expected {key} = {want!r}, got {got!r}")
    return failures


# ---------------------------------------------------------------------------
# commands: each has an input reader, which checks a run record's fields and
# returns them parsed, and a runner, which takes them as keywords with the
# effective tolerances, writes its CSVs, and returns (exit code, inputs echo,
# results, warnings, the summaries that `expect` is checked against);
# `prepare` and `run` do the rest
# ---------------------------------------------------------------------------

def density_inputs(cfg: dict) -> dict:
    contexts = _contexts_of(cfg.get("times"), _measure_of(cfg), "density")
    grid = _object(cfg, "grid", "density")
    points = config_io.parse_number(grid.get("points", 512), "grid.points", int)
    flow.check_points(points)
    checks = _checks(cfg, _DEFAULT_CHECKS)
    for c in checks:
        if c not in _ALL_CHECKS:
            raise ParseError(f"unknown check {c!r}; known: {list(_ALL_CHECKS)}")
    return {"contexts": contexts, "points": points, "checks": checks}


def run_density(tol: dict, out_dir: str, contexts, points, checks):
    nu = contexts[0].nu
    warnings: list[str] = []
    per_t = []
    for ctx in contexts:
        t = ctx.t
        curve = density_curve(ctx, points=points)
        csv_path = os.path.join(out_dir, f"density_t{t:.17g}.csv")
        config_io.write_curve_csv(curve, csv_path)
        warnings.extend(f"t={t:.17g}: {w}" for w in curve.warnings)

        mass = curve.mass()
        summary: dict = {
            "t": t,
            "csv": os.path.basename(csv_path),
            "support": [list(iv) for iv in curve.support.intervals],
            "support_components": len(curve.support),
            "mass": mass,
        }
        if abs(mass - 1.0) > tol["tol_int"]:
            cause = ("overshoots 1: too few samples" if mass > 1.0 else
                     "falls short of 1: too few samples, or support beyond "
                     "the sampled window")
            warnings.append(f"t={t:.17g}: curve mass {mass:.6g} {cause} "
                            f"(band {tol['tol_int']})")
        if "mass" in checks:
            summary["mass_pass"] = abs(mass - 1.0) <= tol["tol_int"]
        if "mean" in checks:
            base_mean = nu.mean()
            if math.isinf(base_mean):
                warnings.append(f"t={t:.17g}: mean check skipped "
                                "(starting measure has infinite mean)")
            else:
                expected = math.exp(t / 2.0) * base_mean
                summary["mean"] = mean = curve.mean()
                summary["mean_expected"] = expected
                summary["mean_pass"] = (abs(mean - expected)
                                        <= tol["tol_mean_rel"] * expected)
        if "symmetry" in checks:
            if is_mult_symmetric(nu, 1e-6):
                defect = _log_symmetry_defect(curve)
                summary["symmetry_defect"] = defect
                summary["symmetry_pass"] = defect <= tol["tol_symmetry"]
            else:
                summary["symmetry_pass"] = "skipped"
        if "logunimodal" in checks or "pick" in checks:
            mode_report = is_log_unimodal(curve, hysteresis=tol["hysteresis"])
        if "logunimodal" in checks:
            summary["logunimodal"] = mode_report.verdict
            summary["modes"] = list(mode_report.modes)
        if "pick" in checks:
            if mode_report.modes:
                gcurve = GridDensity(curve.x, curve.q, normalize=True)
                pick = pick_inequality_check(gcurve, mode_report.modes[0],
                                             tol_pick=tol["tol_pick"])
                summary["pick_holds"] = pick.holds
                warnings.extend(f"t={t:.17g}: {w}"
                                for w in _relaxation_warnings(pick))
            else:
                summary["pick_holds"] = "skipped"
        if "theta_sweep" in checks:
            sweep = sweep_level_counts(ctx)
            summary["theta_sweep_log_unimodal"] = sweep.log_unimodal
            summary["theta_sweep_max_count"] = max(sweep.effective_counts)
        per_t.append(summary)

    inputs = {"measure": nu.to_dict(), "times": [c.t for c in contexts],
              "grid": {"points": points},
              "checks": list(checks)}
    return EXIT_OK, inputs, {"per_t": per_t}, warnings, per_t


def check_inputs(cfg: dict) -> dict:
    nu = _measure_of(cfg)
    is_lambda = getattr(nu, "family", None) == "lambda"
    requested = _checks(cfg, ["logunimodal", "pick", "strong"] if is_lambda
                        else ["logunimodal", "pick"])
    for c in requested:
        if c not in ("logunimodal", "pick", "strong"):
            raise ParseError(f"unknown check {c!r}; known: logunimodal, pick, "
                             f"strong")
    if "strong" in requested and not is_lambda:
        raise ParseError("the strong check applies to the lambda family only")
    return {"nu": nu, "requested": requested}


def run_check(tol: dict, out_dir: str, nu, requested):
    results: dict = {}
    warnings: list[str] = []
    negative = False
    inconclusive = False

    if "logunimodal" in requested or "pick" in requested:
        mode_report = is_log_unimodal(nu, hysteresis=tol["hysteresis"])
        results["logunimodal"] = {
            "verdict": mode_report.verdict,
            "num_local_maxima": mode_report.num_local_maxima,
            "modes": list(mode_report.modes),
            "resolution": mode_report.resolution,
        }
        negative |= mode_report.verdict == "not_unimodal"
        inconclusive |= mode_report.verdict == "inconclusive"
        if "pick" in requested:
            if mode_report.modes:
                pick = pick_inequality_check(nu, mode_report.modes[0],
                                             tol_pick=tol["tol_pick"])
                results["pick"] = {"mode": mode_report.modes[0],
                                   "holds": pick.holds,
                                   "violations": len(pick.violations),
                                   "scale": pick.scale,
                                   "evidence": pick.evidence}
                warnings.extend(_relaxation_warnings(pick))
                if pick.violations:
                    config_io.write_violations_csv(
                        pick.violations,
                        os.path.join(out_dir, "pick_violations.csv"))
                negative |= not pick.holds
            else:
                warnings.append("pick check skipped: no mode detected")

    if "strong" in requested:
        strong = lambda_strong_check(nu.params["b"])
        results["strong"] = {
            "strongly_log_unimodal": strong.strongly_log_unimodal,
            "witness": strong.witness,
        }
        negative |= not strong.strongly_log_unimodal

    summary = {k: (v.get("verdict") if isinstance(v, dict) and "verdict" in v
                   else v) for k, v in results.items()}
    code = (EXIT_NEGATIVE if negative
            else EXIT_INCONCLUSIVE if inconclusive else EXIT_OK)
    inputs = {"measure": nu.to_dict(), "checks": list(requested),
              "hysteresis": tol["hysteresis"]}
    return code, inputs, results, warnings, [summary]


def sweep_inputs(cfg: dict) -> dict:
    contexts = _contexts_of(cfg.get("times"), _measure_of(cfg), "sweep")
    angles = _object(cfg, "angles", "sweep")
    n_angles = config_io.parse_number(angles.get("count", 64), "angles.count", int)
    grid = config_io.parse_number(cfg.get("grid", 4096), "grid", int)
    flow.check_points(grid)
    return {"contexts": contexts, "angles": default_angle_sweep(n_angles),
            "grid": grid}


def run_sweep(tol: dict, out_dir: str, contexts, angles, grid):
    nu = contexts[0].nu
    warnings: list[str] = []
    results: dict = {}
    lo, hi = nu.math_support()
    if 0.0 < lo and not math.isinf(hi) and lo < hi:
        try:
            results["time_threshold"] = time_threshold(lo, hi)
        except HypothesisViolated as exc:
            warnings.append(f"time threshold unavailable: {exc}")
    per_t = []
    for ctx in contexts:
        sweep = sweep_level_counts(ctx, angles=angles, grid=grid)
        csv_path = os.path.join(out_dir, f"sweep_t{ctx.t:.17g}.csv")
        config_io.write_sweep_csv(sweep, csv_path)
        per_t.append({"t": ctx.t, "csv": os.path.basename(csv_path),
                      "log_unimodal": sweep.log_unimodal,
                      "max_count": max(sweep.effective_counts)})
    results["per_t"] = per_t

    code = EXIT_OK if all(s["log_unimodal"] for s in per_t) else EXIT_NEGATIVE
    inputs = {"measure": nu.to_dict(), "times": [c.t for c in contexts],
              "angles": {"count": len(angles)}, "grid": grid}
    return code, inputs, results, warnings, per_t


def counterexample_inputs(cfg: dict) -> dict:
    n_atoms = config_io.parse_number(cfg.get("n_atoms", 30), "n_atoms", int)
    nu, spec = build_counterexample(n_atoms)
    contexts = _contexts_of(cfg.get("times") or [1.0], nu, "counterexample")
    return {"n_atoms": n_atoms, "contexts": contexts, "spec": spec}


def run_counterexample(tol: dict, out_dir: str, n_atoms, contexts, spec):
    results: dict = {
        "n_atoms": n_atoms,
        "partial_sum_w_over_a": spec.partial_sum_w_over_a,
        "ratios_decreasing": spec.ratios_decreasing,
        "truncated_mass": spec.truncated_mass,
    }
    per_t = []
    negative = False
    for ctx in contexts:
        cert = None
        for k in range(1, n_atoms):
            c = gap_certificate(ctx, k)
            if c.below:
                cert = c
                break
        components = len(blowup_region(ctx))
        entry = {"t": ctx.t, "support_components": components,
                 "certificate_found": cert is not None}
        if cert is not None:
            entry.update({"k": cert.k, "midpoint": cert.midpoint,
                          "f_value": cert.f_value})
        else:
            negative = True
        per_t.append(entry)
    results["per_t"] = per_t

    inputs = {"n_atoms": n_atoms, "times": [c.t for c in contexts]}
    return (EXIT_NEGATIVE if negative else EXIT_OK), inputs, results, [], per_t


def pick_inputs(cfg: dict) -> dict:
    """The measure and the candidate modes of a pick run: `mode`, or the
    `count` modes of `mode_sweep` spaced geometrically from `lo` to `hi`."""
    nu = _measure_of(cfg)
    mode, sw = cfg.get("mode"), cfg.get("mode_sweep")
    if mode is not None and sw is not None:
        raise ParseError("pick takes a 'mode' or a 'mode_sweep', not both")
    if mode is not None:
        lo = hi = config_io.parse_number(mode, "pick mode")
        count = 1
    elif isinstance(sw, dict) and "lo" in sw and "hi" in sw:
        lo = config_io.parse_number(sw["lo"], "mode_sweep lo")
        hi = config_io.parse_number(sw["hi"], "mode_sweep hi")
        count = config_io.parse_number(sw.get("count", 20), "mode_sweep count", int)
    else:
        raise ParseError(f"pick needs a 'mode' or a 'mode_sweep' with lo and "
                         f"hi, got mode_sweep={sw!r}")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and count >= 1):
        raise ParseError(f"pick needs finite modes > 0 and a count >= 1, got "
                         f"mode={mode!r}, mode_sweep={sw!r}")
    return {"nu": nu, "modes": [lo] if mode is not None
            else np.geomspace(lo, hi, count).tolist()}


def run_pick(tol: dict, out_dir: str, nu, modes):
    per_mode = []
    all_violations = []
    reports = pick_inequality_check(nu, modes, tol_pick=tol["tol_pick"])
    for c, rep in zip(modes, reports):
        per_mode.append({"mode": c, "holds": rep.holds,
                         "violations": len(rep.violations), "scale": rep.scale})
        all_violations.extend(rep.violations)
    if all_violations:
        config_io.write_violations_csv(
            all_violations, os.path.join(out_dir, "pick_violations.csv"))
    code = EXIT_OK if all(m["holds"] for m in per_mode) else EXIT_NEGATIVE
    # psi' is shared by the modes, and so are its relaxations
    return (code, {"measure": nu.to_dict(), "modes": modes},
            {"per_mode": per_mode}, _relaxation_warnings(reports[0]), per_mode)


_TOLERANCE_DEFAULTS = {
    "tol_int": 1e-4,
    "tol_pick": TOL_PICK,
    "hysteresis": DEFAULT_HYSTERESIS,
    "tol_mean_rel": 1e-3,
    "tol_symmetry": 1e-3,
}


# per command: the fields a run may set besides `command` and `expect`, with
# the keys of each object field; the tolerances it reads and reports, which a
# run sets in `tolerances` or in a field of the same name (a check run's
# `hysteresis`); the numeric summary fields that an `expect` key `<field>_min`
# may bound; its input reader; and its runner
_COMMANDS = {
    "density": ({"measure": (), "times": (), "grid": ("points",),
                 "checks": (), "tolerances": ()}, tuple(_TOLERANCE_DEFAULTS),
                {"t", "support_components", "mass", "mean", "mean_expected",
                 "symmetry_defect", "theta_sweep_max_count"},
                density_inputs, run_density),
    "check": ({"measure": (), "checks": (), "hysteresis": ()},
              ("tol_pick", "hysteresis"), set(), check_inputs, run_check),
    "sweep": ({"measure": (), "times": (), "angles": ("count",), "grid": ()},
              (), {"t", "max_count"}, sweep_inputs, run_sweep),
    "counterexample": ({"n_atoms": (), "times": ()}, (),
                       {"t", "support_components", "k", "midpoint", "f_value"},
                       counterexample_inputs, run_counterexample),
    "pick": ({"measure": (), "mode": (), "mode_sweep": ("lo", "hi", "count")},
             ("tol_pick",), {"mode", "violations", "scale"}, pick_inputs,
             run_pick),
}


def effective_tolerances(command: str, run: dict) -> dict:
    """The tolerances `command` reads, defaults overridden by `run`; a
    tolerance the command does not read, or one that is not a finite
    number > 0, is a ParseError."""
    tol = {k: _TOLERANCE_DEFAULTS[k] for k in _COMMANDS[command][1]}
    over = run.get("tolerances")
    over = {} if over is None else over
    if not isinstance(over, dict):
        raise ParseError(f"tolerances must be an object, got {over!r}")
    fields = {k: run[k] for k in tol if k in run}
    for k, v in {**fields, **over}.items():
        if k not in tol:
            raise ParseError(f"{command} reads no tolerance {k!r}; "
                             f"it reads: {sorted(tol)}")
        tol[k] = config_io.parse_number(v, f"tolerance {k!r}")
        if not 0.0 < tol[k] < math.inf:
            raise ParseError(f"tolerance {k!r} must be finite and > 0, "
                             f"got {v!r}")
    if "hysteresis" in tol:
        unimodality.check_hysteresis(tol["hysteresis"])
    return tol


def _check_expect(command: str, expect, where: str) -> None:
    """An `expect` is an object; a `<field>_min` key bounds a numeric
    summary field of the command by a finite number."""
    if expect is None:
        return
    if not isinstance(expect, dict):
        raise ParseError(f"{where}: expect must be an object, got {expect!r}")
    numeric = _COMMANDS[command][2]
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


def prepare(run: dict, where: str) -> tuple[dict, dict]:
    """Check the run record `run`, which `where` names in errors, and read
    its inputs, writing nothing; returns its effective tolerances and its
    inputs as its runner takes them."""
    command = run["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ParseError(f"{where}: unknown command {command!r}; known: "
                         f"{sorted(_COMMANDS)}")
    fields, _, _, read_inputs, _ = _COMMANDS[command]
    where = f"{where} ({command})"
    config_io.reject_unknown(run, set(fields) | {"command", "expect"}, where)
    for name, keys in fields.items():
        if keys and isinstance(run.get(name), dict):
            config_io.reject_unknown(run[name], set(keys), f"{where} {name}")
    tol = effective_tolerances(command, run)
    _check_expect(command, run.get("expect"), where)
    return tol, read_inputs(run)


def run(command: str, cfg: dict, out_dir: str, tol: dict, parsed: dict) -> int:
    """Run `command` on the run record `cfg` (a scenario run, or the flags
    of one subcommand) with the tolerances and inputs that `prepare` returned
    for it, and write `<command>_report.json` to `out_dir`; a mismatched
    `expect` is a negative verdict.  A numeric failure carries the
    tolerances of the run as `exc.tolerances`."""
    try:
        code, inputs, results, warnings, summaries = _COMMANDS[command][4](
            tol, out_dir, **parsed)
    except FreemultError as exc:
        exc.tolerances = tol
        raise
    failures = _check_expectations(cfg.get("expect"), summaries)
    config_io.write_report(
        {"command": command, "inputs": inputs, "tolerances": tol,
         "results": results, "warnings": warnings + failures},
        os.path.join(out_dir, f"{command}_report.json"))
    return EXIT_NEGATIVE if failures else code


def run_scenario(path: str, out_dir: str | None) -> int:
    scenario = config_io.load_scenario(path)
    base = out_dir or scenario.get("out_dir") or "."
    # every run is checked and read before the first run writes anything
    prepared = [prepare(cfg, f"runs[{i}]")
                for i, cfg in enumerate(scenario["runs"])]
    codes = []
    for i, cfg in enumerate(scenario["runs"]):
        command = cfg["command"]
        t0 = time.perf_counter()
        try:
            codes.append(run(command, cfg,
                             os.path.join(base, f"run{i:02d}_{command}"),
                             *prepared[i]))
        finally:
            print(f"[scenario] run {i} ({command}): "
                  f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return _aggregate(codes)


# ---------------------------------------------------------------------------
# argument parsing: each flag's dest is the run field it sets, dotted where
# the field nests; numbers stay text until the runner parses them
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory")


def _times(text: str) -> list[str]:
    """Comma-separated times, blank entries dropped."""
    return [v for v in text.split(",") if v.strip()]


def _mode_sweep(text: str):
    """'lo,hi,count' as a mode_sweep object; any other text stays a string,
    which the pick run rejects."""
    parts = text.split(",")
    return dict(zip(("lo", "hi", "count"), parts)) if len(parts) == 3 else text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemult",
        description="Densities of free positive multiplicative Brownian "
                    "motion and log-unimodality checkers")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("density", help="compute density curves")
    p.add_argument("--measure", required=True, help="measure file or inline JSON")
    p.add_argument("--t", dest="times", type=_times, required=True,
                   help="comma-separated times")
    p.add_argument("--points", dest="grid.points")
    p.add_argument("--check", dest="checks", action="append",
                   choices=list(_ALL_CHECKS))
    _add_common(p)

    p = sub.add_parser("check", help="log-unimodality checks for a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--hysteresis")
    _add_common(p)

    p = sub.add_parser("sweep", help="angle sweep of the solution count")
    p.add_argument("--measure", required=True)
    p.add_argument("--t", dest="times", type=_times, required=True)
    p.add_argument("--angles", dest="angles.count")
    p.add_argument("--grid")
    _add_common(p)

    p = sub.add_parser("counterexample",
                       help="truncated atomic cascade with gap certificates")
    p.add_argument("--n-atoms")
    p.add_argument("--t", dest="times", type=_times)
    _add_common(p)

    p = sub.add_parser("pick", help="half-plane inequality check")
    p.add_argument("--measure", required=True)
    p.add_argument("--mode")
    p.add_argument("--mode-sweep", type=_mode_sweep, help="'lo,hi,count'")
    _add_common(p)

    p = sub.add_parser("scenario", help="run a scenario bundle file")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    return parser


def _run_record(args: argparse.Namespace) -> dict:
    """The flags given, as the scenario run they describe: a dotted dest
    such as 'grid.points' nests, and unset flags are left out."""
    record: dict = {}
    for dest, value in vars(args).items():
        if value is None or dest == "out":
            continue
        *outer, leaf = dest.split(".")
        node = record
        for key in outer:
            node = node.setdefault(key, {})
        node[leaf] = value
    return record


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_CONFIG
    t0 = time.perf_counter()
    try:
        if args.command == "scenario":
            code = run_scenario(args.path, args.out)
        else:
            record = _run_record(args)
            code = run(args.command, record, args.out, *prepare(record, "flags"))
    except (ParseError, InvariantViolation, IoError, DomainError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomicHasNoDensity as exc:
        print(f"numeric failure in {args.command}: AtomicHasNoDensity: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except FreemultError as exc:
        print(f"numeric failure in {args.command}: {type(exc).__name__}: {exc} "
              f"(tolerances: {getattr(exc, 'tolerances', {})})", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"[{args.command}] {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
