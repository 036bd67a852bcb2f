"""Command-line front end.

Subcommands: density, check, sweep, counterexample, pick, scenario.
Exit codes: 0 pass, 1 negative verdict, 2 config error, 3 numeric failure,
4 inconclusive.  All runs are deterministic; --seedless is accepted for
interface stability and is a no-op.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import config_io
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
from .flow import TOL_INT, FlowContext, blowup_region, density_curve
from .measures import GridDensity, Measure, is_mult_symmetric
from .unimodality import (
    DEFAULT_HYSTERESIS,
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

_DEFAULT_CHECKS = ("mass", "support")
_ALL_CHECKS = ("mass", "mean", "symmetry", "logunimodal", "pick",
               "theta_sweep", "support")


_TOLERANCE_DEFAULTS = {
    "tol_root": 1e-10,
    "tol_quad": 1e-12,
    "tol_int": TOL_INT,
    "tol_pick": TOL_PICK,
    "hysteresis": DEFAULT_HYSTERESIS,
    "tol_mean_rel": 1e-3,
    "tol_symmetry": 1e-3,
}
# the tolerances each command reads, and so reports and accepts
_COMMAND_TOLERANCES = {
    "density": tuple(_TOLERANCE_DEFAULTS),
    "check": ("tol_pick", "hysteresis"),
    "sweep": (),
    "counterexample": ("tol_root", "tol_quad"),
    "pick": ("tol_pick",),
}


def effective_tolerances(command: str, overrides: dict | None = None) -> dict:
    """The tolerances `command` reads, defaults overridden by `overrides`;
    naming a tolerance the command does not read is a ParseError."""
    tol = {k: _TOLERANCE_DEFAULTS[k] for k in _COMMAND_TOLERANCES[command]}
    for k, v in (overrides or {}).items():
        if k not in tol:
            raise ParseError(f"{command} reads no tolerance {k!r}; "
                             f"it reads: {sorted(tol)}")
        tol[k] = float(v)
    return tol


def _measure_of(cfg_measure) -> Measure:
    if isinstance(cfg_measure, Measure):
        return cfg_measure
    if isinstance(cfg_measure, dict):
        return config_io.measure_from_dict(cfg_measure)
    return config_io.parse_measure_arg(str(cfg_measure))


def _log_symmetry_defect(curve) -> float:
    """sup |g(x) - g(1/x)| / max g over the curve, where g(x) = x q(x)."""
    g = curve.x * curve.q
    gmax = float(g.max())
    if gmax <= 0:
        return 0.0
    mirror = np.interp(1.0 / curve.x, curve.x, g, left=0.0, right=0.0)
    return float(np.max(np.abs(g - mirror))) / gmax


def _aggregate(codes) -> int:
    """Combine exit codes: config > numeric > negative > inconclusive > ok."""
    for code in (EXIT_CONFIG, EXIT_NUMERIC, EXIT_NEGATIVE, EXIT_INCONCLUSIVE):
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
# command cores (shared by the CLI and cmd_scenario)
# ---------------------------------------------------------------------------

def run_density(cfg: dict, out_dir: str) -> tuple[int, config_io.Report]:
    nu = _measure_of(cfg["measure"])
    times = [float(t) for t in cfg.get("times") or []]
    if not times:
        raise ParseError("density needs a non-empty 'times' list")
    grid = cfg.get("grid") or {}
    points = int(grid.get("points", 512))
    window = grid.get("window")
    checks = cfg.get("checks") or list(_DEFAULT_CHECKS)
    for c in checks:
        if c not in _ALL_CHECKS:
            raise ParseError(f"unknown check {c!r}; known: {list(_ALL_CHECKS)}")
    tol = effective_tolerances("density", cfg.get("tolerances"))

    warnings: list[str] = []
    per_t = []
    for t in times:
        ctx = FlowContext(nu, t, tol_root=tol["tol_root"], tol_quad=tol["tol_quad"])
        curve = density_curve(ctx, points=points, window=window)
        csv_path = os.path.join(out_dir, f"density_t{t:.17g}.csv")
        config_io.write_curve_csv(curve, csv_path)
        warnings.extend(f"t={t:.17g}: {w}" for w in curve.metadata["warnings"])

        summary: dict = {
            "t": t,
            "csv": os.path.basename(csv_path),
            "support": [list(iv) for iv in curve.support.intervals],
            "support_components": len(curve.support),
            "mass": curve.metadata["mass"],
        }
        if "mass" in checks:
            summary["mass_pass"] = abs(summary["mass"] - 1.0) <= tol["tol_int"]
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
            else:
                summary["pick_holds"] = "skipped"
        if "theta_sweep" in checks:
            sweep = sweep_level_counts(nu, t)
            summary["theta_sweep_log_unimodal"] = sweep.log_unimodal
            summary["theta_sweep_max_count"] = max(sweep.effective_counts)
        per_t.append(summary)

    failures = _check_expectations(cfg.get("expect"), per_t)
    warnings.extend(failures)
    report = config_io.Report(
        command="density",
        inputs={"measure": nu.to_dict(), "times": times,
                "grid": {"points": points,
                         "window": list(window) if window else None},
                "checks": list(checks)},
        tolerances=tol,
        results={"per_t": per_t},
        warnings=warnings,
    )
    config_io.write_report(report, os.path.join(out_dir, "density_report.json"))
    return (EXIT_NEGATIVE if failures else EXIT_OK), report


def run_check(cfg: dict, out_dir: str) -> tuple[int, config_io.Report]:
    nu = _measure_of(cfg["measure"])
    tol = effective_tolerances("check", cfg.get("tolerances"))
    hysteresis = tol["hysteresis"] = float(cfg.get("hysteresis", tol["hysteresis"]))
    requested = cfg.get("checks") or ["logunimodal", "pick"]
    results: dict = {}
    warnings: list[str] = []
    negative = False
    inconclusive = False

    if "logunimodal" in requested or "pick" in requested:
        mode_report = is_log_unimodal(nu, hysteresis=hysteresis)
        results["logunimodal"] = {
            "verdict": mode_report.verdict,
            "num_local_maxima": mode_report.num_local_maxima,
            "modes": list(mode_report.modes),
            "max_level_crossings": mode_report.max_level_crossings,
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
                if pick.violations:
                    config_io.write_violations_csv(
                        pick.violations,
                        os.path.join(out_dir, "pick_violations.csv"))
                negative |= not pick.holds
            else:
                warnings.append("pick check skipped: no mode detected")

    is_lambda = getattr(nu, "family", None) == "lambda"
    if "strong" in requested or (is_lambda and "strong" not in requested
                                 and cfg.get("checks") is None):
        if not is_lambda:
            raise ParseError("the strong check applies to the lambda family only")
        strong = lambda_strong_check(nu.params["b"])
        results["strong"] = {
            "strongly_log_unimodal": strong.strongly_log_unimodal,
            "witness": strong.witness,
        }
        negative |= not strong.strongly_log_unimodal

    failures = _check_expectations(cfg.get("expect"), [
        {k: (v.get("verdict") if isinstance(v, dict) and "verdict" in v else v)
         for k, v in results.items()}])
    warnings.extend(failures)
    negative |= bool(failures)

    report = config_io.Report(
        command="check",
        inputs={"measure": nu.to_dict(), "checks": list(requested),
                "hysteresis": hysteresis},
        tolerances=tol,
        results=results,
        warnings=warnings,
    )
    config_io.write_report(report, os.path.join(out_dir, "check_report.json"))
    code = (EXIT_NEGATIVE if negative
            else EXIT_INCONCLUSIVE if inconclusive else EXIT_OK)
    return code, report


def run_sweep(cfg: dict, out_dir: str) -> tuple[int, config_io.Report]:
    nu = _measure_of(cfg["measure"])
    times = [float(t) for t in cfg.get("times") or []]
    if not times:
        raise ParseError("sweep needs a non-empty 'times' list")
    tol = effective_tolerances("sweep", cfg.get("tolerances"))
    n_angles = int((cfg.get("angles") or {}).get("count", 64))
    grid = int(cfg.get("grid", 4096))
    window = cfg.get("window")

    warnings: list[str] = []
    results: dict = {}
    lo, hi = nu.math_support()
    if 0.0 < lo and not math.isinf(hi) and lo < hi:
        try:
            results["time_threshold"] = time_threshold(lo, hi)
        except HypothesisViolated as exc:
            warnings.append(f"time threshold unavailable: {exc}")
    per_t = []
    for t in times:
        sweep = sweep_level_counts(
            nu, t, angles=None if n_angles == 64 else default_angle_sweep(n_angles),
            window=window, grid=grid)
        csv_path = os.path.join(out_dir, f"sweep_t{t:.17g}.csv")
        config_io.write_sweep_csv(sweep, csv_path)
        per_t.append({"t": t, "csv": os.path.basename(csv_path),
                      "log_unimodal": sweep.log_unimodal,
                      "max_count": max(sweep.effective_counts)})
    results["per_t"] = per_t

    failures = _check_expectations(cfg.get("expect"), per_t)
    warnings.extend(failures)
    negative = bool(failures) or not all(s["log_unimodal"] for s in per_t)
    report = config_io.Report(
        command="sweep",
        inputs={"measure": nu.to_dict(), "times": times,
                "angles": {"count": n_angles}, "grid": grid,
                "window": list(window) if window else None},
        tolerances=tol,
        results=results,
        warnings=warnings,
    )
    config_io.write_report(report, os.path.join(out_dir, "sweep_report.json"))
    return (EXIT_NEGATIVE if negative else EXIT_OK), report


def run_counterexample(cfg: dict, out_dir: str) -> tuple[int, config_io.Report]:
    n_atoms = int(cfg.get("n_atoms", 30))
    rule = cfg.get("rule", "zeta6")
    times = [float(t) for t in cfg.get("times") or [1.0]]
    k_max = int(cfg.get("k_max", n_atoms - 1))
    tol = effective_tolerances("counterexample", cfg.get("tolerances"))

    nu, spec = build_counterexample(n_atoms, rule=rule)
    results: dict = {
        "n_atoms": n_atoms,
        "rule": rule,
        "partial_sum_w_over_a": spec.partial_sum_w_over_a,
        "ratios_decreasing": spec.ratios_decreasing,
        "truncated_mass": spec.truncated_mass,
    }
    per_t = []
    negative = False
    for t in times:
        cert = None
        for k in range(1, min(k_max, n_atoms - 1) + 1):
            c = gap_certificate(nu, t, k)
            if c.below:
                cert = c
                break
        ctx = FlowContext(nu, t, tol_root=tol["tol_root"], tol_quad=tol["tol_quad"])
        components = len(blowup_region(ctx))
        entry = {"t": t, "support_components": components,
                 "certificate_found": cert is not None}
        if cert is not None:
            entry.update({"k": cert.k, "midpoint": cert.midpoint,
                          "f_value": cert.f_value})
        else:
            negative = True
        per_t.append(entry)
    results["per_t"] = per_t

    failures = _check_expectations(cfg.get("expect"), per_t)
    negative |= bool(failures)
    report = config_io.Report(
        command="counterexample",
        inputs={"n_atoms": n_atoms, "rule": rule, "times": times,
                "k_max": k_max},
        tolerances=tol,
        results=results,
        warnings=list(failures),
    )
    config_io.write_report(report,
                           os.path.join(out_dir, "counterexample_report.json"))
    return (EXIT_NEGATIVE if negative else EXIT_OK), report


def _pick_modes(cfg: dict) -> list[float]:
    """The candidate modes of a pick run: `mode`, or the `count` modes of
    `mode_sweep` spaced geometrically from `lo` to `hi`."""
    mode, sw = cfg.get("mode"), cfg.get("mode_sweep")
    if mode is None and not sw:
        raise ParseError("pick needs 'mode' or 'mode_sweep'")
    try:
        if mode is not None:
            lo = hi = float(mode)
            count = 1
        else:
            lo, hi = float(sw["lo"]), float(sw["hi"])
            count = int(sw.get("count", 20))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"pick needs a number 'mode' or a 'mode_sweep' of "
                         f"numbers lo, hi and an integer count, got "
                         f"mode={mode!r}, mode_sweep={sw!r}") from exc
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and count >= 1):
        raise ParseError(f"pick needs finite modes > 0 and a count >= 1, got "
                         f"mode={mode!r}, mode_sweep={sw!r}")
    return [lo] if mode is not None else np.geomspace(lo, hi, count).tolist()


def run_pick(cfg: dict, out_dir: str) -> tuple[int, config_io.Report]:
    nu = _measure_of(cfg["measure"])
    tol = effective_tolerances("pick", cfg.get("tolerances"))
    modes = _pick_modes(cfg)
    per_mode = []
    all_violations = []
    for c, rep in zip(modes, pick_inequality_check(nu, modes,
                                                   tol_pick=tol["tol_pick"])):
        per_mode.append({"mode": c, "holds": rep.holds,
                         "violations": len(rep.violations), "scale": rep.scale})
        all_violations.extend(rep.violations)
    if all_violations:
        config_io.write_violations_csv(
            all_violations, os.path.join(out_dir, "pick_violations.csv"))
    failures = _check_expectations(cfg.get("expect"), per_mode)
    negative = bool(failures) or not all(m["holds"] for m in per_mode)
    report = config_io.Report(
        command="pick",
        inputs={"measure": nu.to_dict(), "modes": modes},
        tolerances=tol,
        results={"per_mode": per_mode},
        warnings=list(failures),
    )
    config_io.write_report(report, os.path.join(out_dir, "pick_report.json"))
    return (EXIT_NEGATIVE if negative else EXIT_OK), report


_RUNNERS = {
    "density": run_density,
    "check": run_check,
    "sweep": run_sweep,
    "counterexample": run_counterexample,
    "pick": run_pick,
}


def run_scenario(path: str, out_dir: str | None) -> int:
    scenario = config_io.load_scenario(path)
    base = out_dir or scenario.get("out_dir") or "."
    os.makedirs(base, exist_ok=True)
    codes = []
    for i, run in enumerate(scenario["runs"]):
        sub = os.path.join(base, f"run{i:02d}_{run['command']}")
        os.makedirs(sub, exist_ok=True)
        t0 = time.perf_counter()
        try:
            code, _report = _RUNNERS[run["command"]](run, sub)
        except FreemultError as exc:
            print(f"scenario run {i} ({run['command']}) failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(_error_code(exc))
            return _aggregate(codes)
        finally:
            print(f"[scenario] run {i} ({run['command']}): "
                  f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
        codes.append(code)
    return _aggregate(codes)


def _error_code(exc: Exception) -> int:
    if isinstance(exc, (ParseError, InvariantViolation, IoError, DomainError)):
        return EXIT_CONFIG
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seedless", action="store_true",
                   help="reserved; all runs are deterministic")


def _add_flow_tolerances(p: argparse.ArgumentParser) -> None:
    """Solver tolerances, for the subcommands that run the flow solver."""
    p.add_argument("--tol-root", type=float, default=None)
    p.add_argument("--tol-quad", type=float, default=None)


def _parse_times(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError(f"bad time list {text!r}") from exc


def _parse_window(text: str | None):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"window must be 'lo,hi', got {text!r}")
    return [float(parts[0]), float(parts[1])]


def _tol_overrides(args) -> dict | None:
    over = {}
    if args.tol_root is not None:
        over["tol_root"] = args.tol_root
    if args.tol_quad is not None:
        over["tol_quad"] = args.tol_quad
    return over or None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemult",
        description="Densities of free positive multiplicative Brownian "
                    "motion and log-unimodality checkers")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("density", help="compute density curves")
    p.add_argument("--measure", required=True, help="measure file or inline JSON")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--window", default=None, help="x window 'lo,hi'")
    p.add_argument("--check", action="append", default=None,
                   choices=list(_ALL_CHECKS))
    _add_common(p)
    _add_flow_tolerances(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("check", help="log-unimodality checks for a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--hysteresis", type=float, default=DEFAULT_HYSTERESIS)
    p.add_argument("--strong", action="store_true",
                   help="also run the lambda-family strong check")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="angle sweep of the solution count")
    p.add_argument("--measure", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--angles", type=int, default=64)
    p.add_argument("--window", default=None, help="radial window 'lo,hi'")
    p.add_argument("--grid", type=int, default=4096)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("counterexample",
                       help="truncated atomic cascade with gap certificates")
    p.add_argument("--n-atoms", type=int, default=30)
    p.add_argument("--rule", default="zeta6", choices=["zeta6"])
    p.add_argument("--t", default="1")
    p.add_argument("--k-max", type=int, default=None)
    _add_common(p)
    _add_flow_tolerances(p)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("pick", help="half-plane inequality check")
    p.add_argument("--measure", required=True)
    p.add_argument("--mode", type=float, default=None)
    p.add_argument("--mode-sweep", default=None, help="'lo,hi,count'")
    _add_common(p)
    p.set_defaults(func=_cmd_pick)

    p = sub.add_parser("scenario", help="run a scenario bundle file")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scenario)
    return parser


def _cmd_density(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    cfg = {"measure": config_io.parse_measure_arg(args.measure),
           "times": _parse_times(args.t),
           "grid": {"points": args.points, "window": _parse_window(args.window)},
           "checks": args.check,
           "tolerances": _tol_overrides(args)}
    code, _ = run_density(cfg, args.out)
    return code


def _cmd_check(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    checks = ["logunimodal", "pick"]
    if args.strong:
        checks.append("strong")
    cfg = {"measure": config_io.parse_measure_arg(args.measure),
           "checks": checks if args.strong else None,
           "hysteresis": args.hysteresis}
    code, _ = run_check(cfg, args.out)
    return code


def _cmd_sweep(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    cfg = {"measure": config_io.parse_measure_arg(args.measure),
           "times": _parse_times(args.t),
           "angles": {"count": args.angles},
           "window": _parse_window(args.window),
           "grid": args.grid}
    code, _ = run_sweep(cfg, args.out)
    return code


def _cmd_counterexample(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    cfg = {"n_atoms": args.n_atoms, "rule": args.rule,
           "times": _parse_times(args.t),
           "k_max": args.k_max if args.k_max is not None else args.n_atoms - 1,
           "tolerances": _tol_overrides(args)}
    code, _ = run_counterexample(cfg, args.out)
    return code


def _cmd_pick(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    cfg = {"measure": config_io.parse_measure_arg(args.measure)}
    if args.mode is not None:
        cfg["mode"] = args.mode
    elif args.mode_sweep:
        parts = args.mode_sweep.split(",")
        if len(parts) != 3:
            raise ParseError(f"--mode-sweep must be 'lo,hi,count', "
                             f"got {args.mode_sweep!r}")
        cfg["mode_sweep"] = dict(zip(("lo", "hi", "count"), parts))
    code, _ = run_pick(cfg, args.out)
    return code


def _cmd_scenario(args) -> int:
    return run_scenario(args.path, args.out)


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
        code = args.func(args)
    except (ParseError, InvariantViolation, IoError, DomainError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomicHasNoDensity as exc:
        print(f"numeric failure in {args.command}: AtomicHasNoDensity: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except FreemultError as exc:
        tol = (effective_tolerances(args.command)
               if args.command in _COMMAND_TOLERANCES else {})
        print(f"numeric failure in {args.command}: {type(exc).__name__}: {exc} "
              f"(tolerances: {tol})", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"[{args.command}] {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
