import argparse
import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import freemult as fm
from freemult import cli, criteria, measures, unimodality
from freemult.cli import main

DIRAC1 = '{"kind": "named", "family": "dirac", "params": {"c": 1}}'
GAMMA21 = '{"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1}}'
LAMBDA1 = '{"kind": "named", "family": "lambda", "params": {"b": 1}}'
TWO_ATOMS = '{"kind": "atomic", "atoms": [{"w": 0.5, "a": 1}, {"w": 0.5, "a": 4}]}'
ONE_SIXTEEN = ('{"kind": "atomic", "atoms": [{"w": 0.5, "a": 1}, '
               '{"w": 0.5, "a": 16}]}')


def test_density_writes_outputs(tmp_path):
    # the trapezoid mass check at 1e-4 needs about a thousand points
    out = str(tmp_path)
    code = main(["density", "--measure", DIRAC1, "--t", "1", "--points", "1024",
                 "--check", "mass", "--check", "mean", "--check", "logunimodal",
                 "--out", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "density_report.json")).read())
    entry = report["results"]["per_t"][0]
    assert entry["mass_pass"] is True
    assert entry["mean_pass"] is True
    assert entry["logunimodal"] == "unimodal"
    assert entry["support_components"] == 1
    csv = open(os.path.join(out, "density_t1.csv")).read()
    assert csv.startswith("x,q,xq\n")
    assert report["tolerances"] == {
        "tol_int": 1e-4, "tol_pick": 1e-10, "hysteresis": 1e-4,
        "tol_mean_rel": 1e-3, "tol_symmetry": 1e-3}


def test_density_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        os.makedirs(out)
        code = main(["density", "--measure", DIRAC1, "--t", "0.5,2",
                     "--points", "128", "--out", out])
        assert code == 0
        outs.append(out)
    for name in ("density_report.json", "density_t0.5.csv", "density_t2.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, f"{name} not byte-identical"


def test_check_exit_codes(tmp_path):
    assert main(["check", "--measure", GAMMA21, "--out", str(tmp_path)]) == 0
    assert main(["check", "--measure", LAMBDA1, "--out", str(tmp_path)]) == 1
    assert main(["check", "--measure", TWO_ATOMS, "--out", str(tmp_path)]) == 3


def test_check_report_contents(tmp_path):
    out = str(tmp_path)
    assert main(["check", "--measure", GAMMA21, "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "check_report.json")).read())
    assert report["results"]["logunimodal"]["verdict"] == "unimodal"
    assert abs(report["results"]["logunimodal"]["modes"][0] - 2.0) < 0.01
    assert report["results"]["pick"]["holds"] is True


def test_check_report_lists_the_checks_it_ran(tmp_path):
    # lambda runs the strong check by default, and says so; an explicit
    # list runs only what it names
    out = tmp_path / "default"
    assert main(["check", "--measure", LAMBDA1, "--out", str(out)]) == 1
    report = json.loads((out / "check_report.json").read_text())
    assert report["inputs"]["checks"] == ["logunimodal", "pick", "strong"]
    assert sorted(report["results"]) == ["logunimodal", "pick", "strong"]
    (tmp_path / "named").mkdir()
    assert _run_scenario(tmp_path / "named",
                         {"command": "check", "measure": json.loads(LAMBDA1),
                          "checks": ["logunimodal"]}) == 0
    report = json.loads((tmp_path / "named" / "run00_check"
                         / "check_report.json").read_text())
    assert report["inputs"]["checks"] == ["logunimodal"]
    assert list(report["results"]) == ["logunimodal"]
    # a check it does not know is a config error, not an empty report
    (tmp_path / "unknown").mkdir()
    assert _run_scenario(tmp_path / "unknown",
                         {"command": "check", "measure": json.loads(LAMBDA1),
                          "checks": ["logunimodal", "bogus"]}) == 2
    assert not (tmp_path / "unknown" / "run00_check"
                / "check_report.json").exists()


def test_config_error_exits():
    assert main(["density", "--measure", '{"kind": "named", "family": "lambda",'
                 ' "params": {"b": 4}}', "--t", "1"]) == 2
    assert main(["density", "--measure", DIRAC1, "--t", ""]) == 2
    assert main(["scenario", "/nonexistent/sc.json"]) == 2
    assert main(["counterexample", "--n-atoms", "2"]) == 2  # needs 3 atoms
    assert main(["density"]) == 2  # missing required flags
    assert main([]) == 2


def test_sweep_command(tmp_path):
    out = str(tmp_path)
    code = main(["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "8",
                 "--grid", "1024", "--out", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "sweep_report.json")).read())
    assert report["results"]["per_t"][0]["log_unimodal"] is True
    csv = open(os.path.join(out, "sweep_t1.csv")).read()
    assert csv.startswith("R,count,effective_count,boundary,roots\n")


def test_sweep_runs_an_odd_angle_count(tmp_path):
    out = str(tmp_path)
    assert main(["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "65",
                 "--grid", "1024", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "sweep_report.json")).read())
    assert report["inputs"]["angles"] == {"count": 65}
    rows = open(os.path.join(out, "sweep_t1.csv")).read().splitlines()
    assert len(rows) == 1 + 65


def test_sweep_rejects_degenerate_sizes(tmp_path):
    out = str(tmp_path)
    for flags in (["--grid", "1"], ["--grid", "0"], ["--grid", "63"],
                  ["--angles", "1"], ["--angles", "0"]):
        assert main(["sweep", "--measure", DIRAC1, "--t", "1", "--out", out]
                    + flags) == 2, flags


def _run_scenario(tmp_path, run):
    """Write `run` as a one-run scenario and run it; the exit code."""
    path = str(tmp_path / "scenario.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "runs": [run]}, fh)
    return main(["scenario", path, "--out", str(tmp_path)])


@pytest.mark.parametrize("tolerances, warned", [(None, True),
                                                ({"tol_int": 0.5}, False)])
def test_mass_band_is_the_runs_tol_int(tmp_path, tolerances, warned):
    # the 64-point gamma curve reads mass 0.99704
    run = {"command": "density", "measure": json.loads(GAMMA21),
           "times": [1], "grid": {"points": 64}, "checks": ["mass"]}
    if tolerances:
        run["tolerances"] = tolerances
    assert _run_scenario(tmp_path, run) == 0
    report = json.loads(open(
        str(tmp_path / "run00_density" / "density_report.json")).read())
    short = [w for w in report["warnings"] if "falls short" in w]
    assert report["results"]["per_t"][0]["mass_pass"] is not warned
    if warned:
        assert short == ["t=1: curve mass 0.99704 falls short of 1: too few "
                         "samples, or support beyond the sampled window "
                         "(band 0.0001)"]
    else:
        assert short == []


def test_missed_expectations_are_a_negative_verdict(tmp_path):
    # the 64-point dirac(1) curve at t = 1 has one component and mass 0.9979
    run = {"command": "density", "measure": json.loads(DIRAC1), "times": [1],
           "grid": {"points": 64},
           "expect": {"support_components": 2, "mass_min": 2}}
    assert _run_scenario(tmp_path, run) == cli.EXIT_NEGATIVE
    report = json.loads(open(
        str(tmp_path / "run00_density" / "density_report.json")).read())
    assert report["warnings"][-2:] == [
        "expected support_components = 2, got 1",
        "expected mass >= 2, got 0.9979008914634676"]


def test_density_theta_sweep_check_reports_its_verdict(tmp_path):
    out = str(tmp_path)
    assert main(["density", "--measure", DIRAC1, "--t", "1", "--points", "64",
                 "--check", "theta_sweep", "--out", out]) == cli.EXIT_OK
    report = json.loads(open(os.path.join(out, "density_report.json")).read())
    entry, = report["results"]["per_t"]
    assert entry["theta_sweep_log_unimodal"] is True
    assert entry["theta_sweep_max_count"] == 2


@pytest.mark.parametrize("measure, times", [(DIRAC1, "700,1000"),
                                            (ONE_SIXTEEN, "1000")],
                         ids=["dirac", "one_sixteen"])
def test_density_at_very_large_times_meets_the_mass_band(tmp_path, measure,
                                                         times):
    # the support spans 311 decades at t = 700 and 441 at t = 1000, so its
    # ends' ratio overflows
    out = str(tmp_path)
    assert main(["density", "--measure", measure, "--t", times,
                 "--out", out]) == cli.EXIT_OK
    report = json.loads(open(os.path.join(out, "density_report.json")).read())
    assert all(e["mass_pass"] is True for e in report["results"]["per_t"])
    assert report["warnings"] == []


@pytest.mark.parametrize("measure, t", [(DIRAC1, "1500"), (DIRAC1, "1e6"),
                                        (ONE_SIXTEEN, "1e4")],
                         ids=["dirac-1500", "dirac-1e6", "one_sixteen-1e4"])
def test_density_whose_support_leaves_the_float_range_exits_3(tmp_path,
                                                              capsys, measure,
                                                              t):
    # from about t = 1450 the radial map at a component's end overflows
    out = str(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--measure", measure, "--t", t,
                     "--out", out]) == cli.EXIT_NUMERIC
    assert f"FloatOverflow: t={float(t)}:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "density_report.json"))


def test_numeric_failure_prints_the_tolerances_run(tmp_path, capsys):
    assert main(["density", "--measure", DIRAC1, "--t", "1e16", "--points",
                 "64", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "BracketFailure" in err
    assert "'tol_int': 0.0001" in err
    run = {"command": "density", "measure": json.loads(DIRAC1),
           "times": [1e16], "tolerances": {"tol_int": 1e-3}}
    assert _run_scenario(tmp_path, run) == 3
    err = capsys.readouterr().err
    assert "BracketFailure" in err
    assert "'tol_int': 0.001" in err


def test_level_root_on_a_nan_bracket_exits_3(tmp_path, capsys, monkeypatch):
    # the sweep's root solve names the bracket it could not solve in
    monkeypatch.setattr(criteria, "level_function", lambda *args: math.nan)
    assert main(["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "4",
                 "--grid", "256", "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
    assert re.search(r"numeric failure in sweep: BracketFailure: f is NaN at "
                     r"x=\S+ in the bracket \[\S+, \S+\]",
                     capsys.readouterr().err)


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("where", ["tol_int", "tol_pick"])
def test_bad_tolerances_are_config_errors(tmp_path, capsys, where, value):
    out = str(tmp_path / "out")
    path = str(tmp_path / "scenario.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "runs": [
            {"command": "density", "measure": json.loads(DIRAC1),
             "times": [1], "tolerances": {where: float(value)}}]}, fh)
    assert main(["scenario", path, "--out", out]) == cli.EXIT_CONFIG
    assert "config error: ParseError: tolerance" in capsys.readouterr().err
    assert not os.path.exists(out)


# each case is the flags of one command and the scenario run they describe
_SAME_RUNS = {
    "density": (["density", "--measure", DIRAC1, "--t", "1", "--points", "64"],
                {"measure": json.loads(DIRAC1), "times": [1],
                 "grid": {"points": 64}}),
    "counterexample": (["counterexample", "--n-atoms", "8", "--t", "0.5,1"],
                       {"n_atoms": 8, "times": [0.5, 1]}),
    "sweep": (["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "8",
               "--grid", "512"],
              {"measure": json.loads(DIRAC1), "times": [1],
               "angles": {"count": 8}, "grid": 512}),
    "pick": (["pick", "--measure", TWO_ATOMS, "--mode-sweep", "0.5,5,3"],
             {"measure": json.loads(TWO_ATOMS),
              "mode_sweep": {"lo": 0.5, "hi": 5, "count": 3}}),
    "check_hysteresis": (["check", "--measure", GAMMA21, "--hysteresis", "2e-4"],
                         {"measure": json.loads(GAMMA21), "hysteresis": 2e-4}),
}


@pytest.mark.parametrize("case", list(_SAME_RUNS))
def test_flag_and_scenario_runs_agree(tmp_path, case):
    argv, run = _SAME_RUNS[case]
    flags = str(tmp_path / "flags")
    code = main(argv + ["--out", flags])
    (tmp_path / "scenario").mkdir()
    assert _run_scenario(tmp_path / "scenario", {"command": argv[0], **run}) == code
    scenario = str(tmp_path / "scenario" / f"run00_{argv[0]}")
    names = sorted(os.listdir(flags))
    assert names == sorted(os.listdir(scenario))
    for name in names:
        with open(os.path.join(flags, name), "rb") as a, \
                open(os.path.join(scenario, name), "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("run", [
    {"command": "density", "times": [1]},
    {"command": "check"},
    {"command": "sweep", "times": [1]},
    {"command": "pick", "mode": 1.0},
    {"command": "density", "measure": json.loads(DIRAC1), "times": [1],
     "tolerances": 5},
], ids=["density", "check", "sweep", "pick", "tolerances_scalar"])
def test_malformed_scenario_runs_are_config_errors(tmp_path, capsys, run):
    assert _run_scenario(tmp_path, run) == cli.EXIT_CONFIG
    assert "config error: ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{}, {"c": 1, "d": 2}, {"c": 0}, {"c": "x"}],
                         ids=["none", "extra", "zero", "text"])
def test_bad_dirac_params_are_config_errors(tmp_path, capsys, params):
    measure = json.dumps({"kind": "named", "family": "dirac", "params": params})
    assert main(["check", "--measure", measure,
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"false"', '"no"', "1"])
def test_grid_normalize_must_be_a_boolean(tmp_path, capsys, value):
    measure = ('{"kind": "grid", "grid": {"x": [1, 2], "f": [2, 2]}, '
               f'"normalize": {value}}}')
    assert main(["check", "--measure", measure,
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: ParseError" in err and "normalize" in err


def test_every_flag_sets_one_field_of_its_run():
    # a flag's dest is the run field it sets, dotted where the field nests;
    # a nested tolerance is one the command reads
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        if command == "scenario":
            continue
        fields, tolerances = cli._COMMANDS[command][:2]
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction) or action.dest == "out":
                continue
            field, *keys = action.dest.split(".")
            assert field in fields, (command, action.dest)
            known = tolerances if field == "tolerances" else fields[field]
            assert len(keys) <= 1 and set(keys) <= set(known), (
                command, action.dest)


def _defaulted_public_parameters() -> int:
    """Parameters with a default, over the public functions and methods
    (names without a leading underscore, of public classes) of src/freemult."""
    count = 0

    def walk(body):
        nonlocal count
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                walk(node.body)
            elif (isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)

    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        walk(ast.parse(path.read_text()).body)
    return count


def _subcommand_flags():
    """(subcommand, flag) for every option of every subcommand, help aside."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, flag) for name, parser in sub.choices.items()
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings]


def test_settable_value_census():
    # a knob added or removed changes this total on purpose: 21 defaulted
    # public parameters and 21 subcommand flags
    assert _defaulted_public_parameters() + len(_subcommand_flags()) == 42


def test_only_measures_seeds_and_retries_kernel_sums():
    # how a row of a kernel sum is seeded, integrated and retried is decided
    # in measures, over _quad; every other module makes one Measure call
    protocol = {"_seed_edges", "_seed_rows", "relaxed_retry", "batch_edges",
                "adaptive_quad", "adaptive_quad_batch"}
    users = set()
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.alias,
                                                        ast.FunctionDef))
                    else None)
            if name in protocol:
                users.add(path.name)
    assert users == {"_quad.py", "measures.py"}


def test_readme_flag_table_matches_the_parser():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| flag | subcommands | run field |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]  # past the rule row
    documented = set()
    for row in rows:
        flags, commands = row.split("|")[1:3]
        documented |= {(c.strip(), f) for f in re.findall(r"`(--[\w-]+)", flags)
                       for c in commands.split(",")}
    assert rows and documented == {(c, f) for c, f in _subcommand_flags()
                                   if f != "--out"}


def test_reports_list_the_tolerances_read(tmp_path):
    out = str(tmp_path)
    assert main(["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "4",
                 "--grid", "256", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "sweep_report.json")).read())
    assert report["tolerances"] == {}
    assert main(["pick", "--measure", GAMMA21, "--mode", "2", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "pick_report.json")).read())
    assert report["tolerances"] == {"tol_pick": 1e-10}
    assert main(["check", "--measure", GAMMA21, "--hysteresis", "2e-4",
                 "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "check_report.json")).read())
    assert report["tolerances"] == {"tol_pick": 1e-10, "hysteresis": 2e-4}


def test_unread_tolerance_rejected_per_command(tmp_path, capsys):
    # sweep, pick and check take no `tolerances` block at all; density
    # takes one and rejects a tolerance it does not read
    runs = [({"command": "sweep", "measure": json.loads(DIRAC1),
              "times": [1.0], "tolerances": {"tol_int": 1e-3}},
             "unknown field(s) ['tolerances'] in runs[0] (sweep)"),
            ({"command": "pick", "measure": json.loads(GAMMA21), "mode": 2.0,
              "tolerances": {"hysteresis": 1e-3}},
             "unknown field(s) ['tolerances'] in runs[0] (pick)"),
            ({"command": "check", "measure": json.loads(GAMMA21),
              "tolerances": {"tol_pick": 1e-9}},
             "unknown field(s) ['tolerances'] in runs[0] (check)"),
            ({"command": "density", "measure": json.loads(DIRAC1),
              "times": [1.0], "tolerances": {"tol_foo": 1}},
             "density reads no tolerance 'tol_foo'")]
    for i, (run, error) in enumerate(runs):
        path = str(tmp_path / f"scenario{i}.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "runs": [run]}, fh)
        assert main(["scenario", path, "--out", str(tmp_path)]) == 2, run
        assert error in capsys.readouterr().err


def test_density_counts_modes_once(tmp_path, monkeypatch):
    calls = []
    real = cli.is_log_unimodal
    monkeypatch.setattr(cli, "is_log_unimodal",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["density", "--measure", DIRAC1, "--t", "1", "--points", "128",
                 "--check", "logunimodal", "--check", "pick",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_density_mean_check_of_an_infinite_mean_start_is_skipped(tmp_path):
    out = str(tmp_path)
    assert main(["density", "--measure", LAMBDA1, "--t", "1", "--points",
                 "128", "--check", "mean", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "density_report.json")).read())
    assert ("t=1: mean check skipped (starting measure has infinite mean)"
            in report["warnings"])
    assert "mean_pass" not in report["results"]["per_t"][0]


def test_density_symmetry_check_of_an_asymmetric_start_is_skipped(tmp_path):
    out = str(tmp_path)
    assert main(["density", "--measure", GAMMA21, "--t", "1", "--points",
                 "128", "--check", "symmetry", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "density_report.json")).read())
    entry, = report["results"]["per_t"]
    assert entry["symmetry_pass"] == "skipped"
    assert "symmetry_defect" not in entry


def test_check_skips_pick_when_no_mode_is_detected(tmp_path):
    # f proportional to 1/x on [1, 10]: x f is flat and has no maximum
    x = np.geomspace(1.0, 10.0, 256)
    measure = json.dumps({"kind": "grid", "normalize": True,
                          "grid": {"x": x.tolist(), "f": (1.0 / x).tolist()}})
    out = str(tmp_path)
    assert main(["check", "--measure", measure, "--out", out]) == cli.EXIT_OK
    report = json.loads(open(os.path.join(out, "check_report.json")).read())
    assert report["results"]["logunimodal"]["modes"] == []
    assert "pick" not in report["results"]
    assert report["warnings"] == ["pick check skipped: no mode detected"]


def test_density_of_a_start_whose_scan_window_overflows(tmp_path, capsys):
    # the scan window of the support of dirac(1e-306) reaches 1e310
    out = tmp_path / "out"
    assert main(["density", "--measure", json.dumps(_named("dirac", c=1e-306)),
                 "--t", "1", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: DomainError" in err
    assert "effective support (1e-306, 1e-306) leaves the float range" in err
    assert not any(p.is_file() for p in tmp_path.rglob("*"))
    assert not out.exists()


def test_counterexample_command(tmp_path):
    out = str(tmp_path)
    code = main(["counterexample", "--n-atoms", "12", "--t", "0.5,1",
                 "--out", out])
    assert code == 0
    report = json.loads(
        open(os.path.join(out, "counterexample_report.json")).read())
    for entry in report["results"]["per_t"]:
        assert entry["certificate_found"] is True
        assert entry["support_components"] >= 2


def test_counterexample_without_a_certificate_exits_1(tmp_path):
    # at t = 1e4 the 12-atom cascade's support is one interval, so no gap
    # has a certificate
    out = str(tmp_path)
    assert main(["counterexample", "--n-atoms", "12", "--t", "1e4",
                 "--out", out]) == cli.EXIT_NEGATIVE
    report = json.loads(
        open(os.path.join(out, "counterexample_report.json")).read())
    entry, = report["results"]["per_t"]
    assert entry["support_components"] == 1
    assert entry["certificate_found"] is False
    assert "k" not in entry


def test_counterexample_searches_every_gap(tmp_path):
    # the first gap of the 30-atom cascade has no certificate at t = 8;
    # the second has
    out = str(tmp_path)
    assert main(["counterexample", "--n-atoms", "30", "--t", "8",
                 "--out", out]) == cli.EXIT_OK
    report = json.loads(
        open(os.path.join(out, "counterexample_report.json")).read())
    entry, = report["results"]["per_t"]
    assert entry["certificate_found"] is True
    assert entry["k"] == 2
    assert report["inputs"] == {"n_atoms": 30, "times": [8]}


def test_tolerance_flags_are_config_errors_on_every_command(tmp_path):
    # no command takes --tol-root or --tol-quad: the solver's tolerances
    # are constants
    out = str(tmp_path)
    assert main(["density", "--measure", GAMMA21, "--t", "1", "--tol-root",
                 "1e-3", "--out", out]) == 2
    assert main(["sweep", "--measure", DIRAC1, "--t", "1", "--tol-root", "1e-3",
                 "--out", out]) == 2
    assert main(["pick", "--measure", GAMMA21, "--mode", "2", "--tol-quad",
                 "1e-9", "--out", out]) == 2
    assert main(["check", "--measure", GAMMA21, "--tol-root", "1e-3",
                 "--out", out]) == 2
    # a counterexample's start is atomic: its atom sums read no tolerance
    assert main(["counterexample", "--n-atoms", "5", "--tol-quad", "1e-9",
                 "--out", out]) == 2


def test_unwired_tolerance_rejected(tmp_path):
    path = str(tmp_path / "scenario.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "runs": [
            {"command": "density", "measure": json.loads(DIRAC1),
             "times": [1.0], "tolerances": {"tol_tail": 1e-3}}]}, fh)
    assert main(["scenario", path, "--out", str(tmp_path)]) == 2


def test_pick_command(tmp_path):
    out = str(tmp_path)
    assert main(["pick", "--measure", GAMMA21, "--mode", "2", "--out", out]) == 0
    assert main(["pick", "--measure", TWO_ATOMS, "--mode-sweep", "0.5,5,5",
                 "--out", out]) == 1
    assert os.path.exists(os.path.join(out, "pick_violations.csv"))


def test_malformed_pick_modes_are_config_errors(tmp_path):
    out = str(tmp_path)
    for sweep in ("1,2", "a,b,c", "0,3,4", "1,3,0", "-1,2,3", "1,3,2.5"):
        assert main(["pick", "--measure", DIRAC1, f"--mode-sweep={sweep}",
                     "--out", out]) == 2, sweep
    for mode in ("nan", "inf", "0", "-2"):
        assert main(["pick", "--measure", DIRAC1, f"--mode={mode}",
                     "--out", out]) == 2, mode
    path = str(tmp_path / "scenario.json")
    for field in ({"mode_sweep": {"lo": 1}},
                  {"mode_sweep": {"lo": "a", "hi": "b", "count": "c"}},
                  {"mode_sweep": {"lo": 0, "hi": 3, "count": 4}},
                  {"mode_sweep": {"lo": 1, "hi": 3, "count": 0}},
                  {"mode_sweep": [1, 3, 4]}, {"mode": "abc"}, {"mode": "nan"}):
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "runs": [
                {"command": "pick", "measure": json.loads(DIRAC1), **field}]}, fh)
        assert main(["scenario", path, "--out", out]) == 2, field
    assert not os.path.exists(os.path.join(out, "pick_report.json"))


def _named(family, **params):
    return {"kind": "named", "family": family, "params": params}


# each case is an argv, or a scenario run written to a file and run
_MALFORMED_NUMBERS = {
    "times_text": ["density", "--measure", DIRAC1, "--t", "1,x"],
    "points_text": ["density", "--measure", DIRAC1, "--t", "1", "--points", "x"],
    "angles_text": ["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "x"],
    "grid_text": ["sweep", "--measure", DIRAC1, "--t", "1", "--grid", "x"],
    "n_atoms_text": ["counterexample", "--n-atoms", "x"],
    "mode_text": ["pick", "--measure", DIRAC1, "--mode", "x"],
    "hysteresis_text": ["check", "--measure", GAMMA21, "--hysteresis", "x"],
    "param_text": ["check", "--measure", json.dumps(_named("gamma", p="x", theta=1))],
    "param_null": ["check", "--measure", json.dumps(_named("gamma", p=None, theta=1))],
    "atom_weight": ["check", "--measure", json.dumps(
        {"kind": "atomic", "atoms": [{"w": "x", "a": 1}]})],
    "grid_abscissa": ["check", "--measure", json.dumps(
        {"kind": "grid", "grid": {"x": [1, "a"], "f": [1, 1]}})],
    "grid_not_list": ["check", "--measure", json.dumps(
        {"kind": "grid", "grid": {"x": 1, "f": [1, 1]}})],
    "run_times_text": {"command": "density", "measure": json.loads(DIRAC1),
                       "times": ["a"]},
    "run_times_scalar": {"command": "density", "measure": json.loads(DIRAC1),
                         "times": 1},
    "run_points": {"command": "density", "measure": json.loads(DIRAC1),
                   "times": [1], "grid": {"points": "x"}},
    "run_density_grid": {"command": "density", "measure": json.loads(DIRAC1),
                         "times": [1], "grid": "x"},
    "run_density_window": {"command": "density", "measure": json.loads(DIRAC1),
                           "times": [1], "grid": {"window": ["a", 2]}},
    "run_tolerance": {"command": "density", "measure": json.loads(DIRAC1),
                      "times": [1], "tolerances": {"tol_int": "x"}},
    "run_sweep_grid": {"command": "sweep", "measure": json.loads(DIRAC1),
                       "times": [1], "grid": "x"},
    "run_sweep_angles": {"command": "sweep", "measure": json.loads(DIRAC1),
                         "times": [1], "angles": {"count": "x"}},
    "run_sweep_angles_scalar": {"command": "sweep", "measure": json.loads(DIRAC1),
                                "times": [1], "angles": 8},
    "run_hysteresis": {"command": "check", "measure": json.loads(GAMMA21),
                       "hysteresis": "x"},
    "run_n_atoms": {"command": "counterexample", "n_atoms": "x"},
    "run_n_atoms_inf": {"command": "counterexample", "n_atoms": math.inf},
    "run_k_max": {"command": "counterexample", "n_atoms": 5, "k_max": [2]},
}


@pytest.mark.parametrize("case", list(_MALFORMED_NUMBERS))
def test_malformed_numbers_are_config_errors(tmp_path, capsys, case):
    argv = _MALFORMED_NUMBERS[case]
    if isinstance(argv, dict):
        path = str(tmp_path / "scenario.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "runs": [argv]}, fh)
        argv = ["scenario", path]
    assert main(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error: ParseError" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    # of scipy's public subpackages the command line loads special and fft
    # only: not optimize, stats, linalg or integrate
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, freemult.cli; print(sorted(m for m, mod in "
             "sys.modules.items() if m.count('.') == 1 "
             "and m.startswith('scipy.') and not m.startswith('scipy._') "
             "and hasattr(mod, '__path__')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['scipy.fft', 'scipy.special']"


def test_sweep_hypothesis_violation_is_warning(tmp_path):
    # interval [1, 2] fails the threshold hypothesis: 16 - 3 >= 4; the sweep
    # still runs and the report carries the warning
    out = str(tmp_path)
    uniform12 = '{"kind": "named", "family": "uniform", "params": {"lo": 1, "hi": 2}}'
    code = main(["sweep", "--measure", uniform12, "--t", "1", "--angles", "6",
                 "--grid", "1024", "--out", out])
    report = json.loads(open(os.path.join(out, "sweep_report.json")).read())
    assert any("threshold unavailable" in w for w in report["warnings"])
    assert "time_threshold" not in report["results"]
    assert report["results"]["per_t"]
    assert code in (0, 1)


@pytest.mark.parametrize("lo, hi", [(1e60, 1.1e60), (1e-60, 1.1e-60),
                                    (1e-100, 1.1e-100)])
def test_sweep_reports_the_time_threshold_at_any_scale(tmp_path, lo, hi):
    # the threshold depends on hi/lo alone: lo^6 hi^2 overflowing or
    # underflowing is no failure, and no hypothesis violation
    measure = json.dumps(_named("uniform", lo=lo, hi=hi))
    assert main(["sweep", "--measure", measure, "--t", "22",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["results"]["time_threshold"] == pytest.approx(
        fm.time_threshold(1.0, 1.1), rel=1e-14)
    assert report["warnings"] == []


def test_the_time_of_a_marginal_is_checked_in_one_place():
    # FlowContext checks 0 < t < inf: the criteria compare no time of their
    # own, and the command line builds every context in one input reader
    tree = ast.parse(pathlib.Path(criteria.__file__).read_text())
    time_checks = [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
        and any(isinstance(v, ast.Name) and v.id == "t"
                or isinstance(v, ast.Attribute) and v.attr == "t"
                for v in (node.left, *node.comparators))]
    assert time_checks == []
    assert pathlib.Path(cli.__file__).read_text().count("FlowContext(") == 1


def test_scenario_cascade(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "atomic_gap_cascade.json")
    assert main(["scenario", path, "--out", str(tmp_path)]) == 0
    assert os.path.isdir(str(tmp_path / "run00_counterexample"))
    assert os.path.isdir(str(tmp_path / "run01_density"))


def test_scenario_symmetric(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "symmetric_unimodal.json")
    assert main(["scenario", path, "--out", str(tmp_path)]) == 0
    report = json.loads(open(
        str(tmp_path / "run00_density" / "density_report.json")).read())
    assert all(e["logunimodal"] == "unimodal"
               for e in report["results"]["per_t"])


def test_density_of_an_empty_blow_up_region_exits_3(tmp_path, capsys):
    # no radius blows up at t = 1e-20: a numeric failure, with no report
    out = str(tmp_path)
    assert main(["density", "--measure", DIRAC1, "--t", "1e-20",
                 "--out", out]) == cli.EXIT_NUMERIC
    assert not os.path.exists(os.path.join(out, "density_report.json"))
    assert "EmptyVSet" in capsys.readouterr().err


def test_check_inconclusive_exit(tmp_path):
    # a secondary bump with prominence between half and full hysteresis
    import numpy as np

    x = np.geomspace(0.05, 500.0, 2001)
    f = (np.exp(-2 * (np.log(x) - 1) ** 2)
         + 7e-4 * np.exp(-40 * (np.log(x) - 4) ** 2)) / x
    mass = float(np.trapezoid(f, x))
    measure = json.dumps({"kind": "grid",
                          "grid": {"x": x.tolist(), "f": (f / mass).tolist()}})
    code = main(["check", "--measure", measure, "--hysteresis", "1e-3",
                 "--out", str(tmp_path)])
    assert code == 4


def test_check_of_a_two_bump_density_is_negative(tmp_path):
    # equal log-normal bumps at x = 1 and e^2: two modes, and the pick
    # check fails at the first
    x = np.geomspace(0.1, 100.0, 101)
    f = (np.exp(-2 * np.log(x) ** 2) + np.exp(-2 * (np.log(x) - 2) ** 2)) / x
    measure = json.dumps({"kind": "grid", "grid": {
        "x": x.tolist(), "f": (f / np.trapezoid(f, x)).tolist()}})
    out = str(tmp_path)
    assert main(["check", "--measure", measure,
                 "--out", out]) == cli.EXIT_NEGATIVE
    results = json.loads(open(os.path.join(out, "check_report.json")).read())[
        "results"]
    assert results["logunimodal"]["verdict"] == "not_unimodal"
    assert results["pick"]["holds"] is False
    assert results["pick"]["violations"] == 36
    with open(os.path.join(out, "pick_violations.csv")) as fh:
        assert len(fh.readlines()) == 1 + 36


@pytest.mark.parametrize("expect", [5, {"logunimodal_min": 1}],
                         ids=["scalar", "min_on_verdict"])
def test_malformed_expect_is_a_config_error_before_any_run(tmp_path, capsys,
                                                           expect):
    path = str(tmp_path / "scenario.json")
    runs = [{"command": "counterexample", "n_atoms": 5},
            {"command": "check", "measure": json.loads(GAMMA21),
             "expect": expect}]
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "runs": runs}, fh)
    out = tmp_path / "out"
    assert main(["scenario", path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error: ParseError" in capsys.readouterr().err
    assert not out.exists()


def test_strong_check_on_non_lambda_fails_before_the_checks(tmp_path, capsys,
                                                            monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "is_log_unimodal", never)
    monkeypatch.setattr(cli, "pick_inequality_check", never)
    assert _run_scenario(tmp_path, {
        "command": "check", "measure": json.loads(GAMMA21),
        "checks": ["logunimodal", "pick", "strong"]}) == cli.EXIT_CONFIG
    assert "lambda family only" in capsys.readouterr().err


def test_boolean_stable_edge_cases_exit_cleanly(tmp_path, capsys):
    # alpha 0.02: its 1e-12 quantile is beyond the float range; alpha 0.055:
    # r * xi overflows on the sweep window; alpha 0.07: hi / lo overflows,
    # and the sweep runs on differences of logs; alpha 0.1: the curve's
    # flow kernels meet r * xi up to about 7e204, where their denominators
    # overflow
    def argv(command, alpha, *extra):
        return [command, "--measure",
                json.dumps(_named("boolean_stable", alpha=alpha)), "--t", "1",
                *extra, "--out", str(tmp_path / f"{command}{alpha}")]

    assert main(argv("density", 0.02)) == cli.EXIT_CONFIG
    assert main(argv("sweep", 0.055)) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("config error: DomainError") == 2
    assert main(argv("sweep", 0.07)) == cli.EXIT_OK
    assert main(argv("density", 0.1, "--points", "128")) == cli.EXIT_OK
    report = json.loads((tmp_path / "density0.1" / "density_report.json")
                        .read_text())
    assert report["results"]["per_t"][0]["mass_pass"]


def test_uniform_support_narrower_than_the_clamp_is_a_config_error(tmp_path,
                                                                    capsys):
    def argv(hi):
        return ["density", "--measure",
                json.dumps(_named("uniform", lo=1.0, hi=hi)), "--t", "1",
                "--points", "64", "--out", str(tmp_path / repr(hi))]

    assert main(argv(1.0 + 1e-15)) == cli.EXIT_CONFIG
    assert "config error: DomainError" in capsys.readouterr().err
    assert main(argv(1.0 + 1e-14)) == cli.EXIT_OK


_D = json.loads(DIRAC1)


@pytest.mark.parametrize("later", [
    {"command": "density", "measure": json.loads(DIRAC1), "times": ["a"]},
    {"command": "density", "measure": json.loads(DIRAC1), "times": [1],
     "grid": 5},
    {"command": "density", "measure": {"kind": "named"}, "times": [1]},
    {"command": "pick", "measure": json.loads(GAMMA21), "mode_sweep": {"lo": 1}},
    {"command": "counterexample", "rule": "zeta7"},
    {"command": "density", "measure": json.loads(DIRAC1), "times": [1],
     "grid": {"points": 64, "bogus": 2}},
    {"command": "sweep", "measure": json.loads(DIRAC1), "times": [1],
     "angles": {"count": 8, "bogus": 1}},
    {"command": "pick", "measure": json.loads(GAMMA21),
     "mode_sweep": {"lo": 1, "hi": 3, "count": 2, "bogus": 1}},
    {"command": "density", "measure": json.loads(DIRAC1), "times": [1],
     "grid": 0},
    {"command": "sweep", "measure": json.loads(DIRAC1), "times": [1],
     "angles": []},
    {"command": "density", "measure": json.loads(DIRAC1), "times": [1],
     "checks": "mass"},
    {"command": "check", "measure": json.loads(GAMMA21), "checks": "pick"},
    {"command": "pick", "measure": json.loads(GAMMA21), "mode": 2,
     "mode_sweep": {"lo": 1, "hi": 3, "count": 2}},
    {"command": "counterexample", "n_atoms": 5, "k_max": 0},
    {"command": "counterexample", "n_atoms": 5, "bogus": 1},
    {"command": "counterexample", "n_atoms": 5,
     "tolerances": {"tol_root": -1}},
    {"command": ["density"], "measure": json.loads(DIRAC1), "times": [1]},
    {"command": {"name": "density"}, "measure": json.loads(DIRAC1),
     "times": [1]},
    # values out of range, found by the library's own checks
    {"command": "sweep", "measure": _D, "times": [1], "angles": {"count": 1}},
    {"command": "density", "measure": _D, "times": [1], "grid": {"points": 10}},
    {"command": "sweep", "measure": _D, "times": [1], "grid": 10},
    {"command": "density", "measure": _D, "times": [-1]},
    {"command": "sweep", "measure": _D, "times": [0]},
    {"command": "counterexample", "n_atoms": 5, "times": [-1]},
    {"command": "density", "measure": _D, "times": [1],
     "grid": {"window": [2, 1]}},
    {"command": "sweep", "measure": _D, "times": [1], "window": [0, 1]},
    {"command": "check", "measure": json.loads(GAMMA21), "hysteresis": 0.1},
    {"command": "density", "measure": _D, "times": [1],
     "tolerances": {"hysteresis": 0.5}},
    # counts that are not whole, and a boolean for a number
    {"command": "sweep", "measure": _D, "times": [1],
     "angles": {"count": 8.9}, "grid": 256},
    {"command": "density", "measure": _D, "times": [1],
     "grid": {"points": 256.7}},
    {"command": "counterexample", "n_atoms": 8.9},
    {"command": "counterexample", "n_atoms": 8, "k_max": 2.5},
    {"command": "pick", "measure": json.loads(GAMMA21),
     "mode_sweep": {"lo": 1, "hi": 3, "count": 2.5}},
    {"command": "density", "measure": _D, "times": [1, True]},
], ids=["times", "grid", "measure", "mode_sweep", "rule", "grid_key",
        "angles_key", "mode_sweep_key", "grid_falsy", "angles_falsy",
        "checks_text", "check_checks_text", "mode_and_mode_sweep", "k_max",
        "unknown_field", "tolerance", "command_list", "command_object",
        "angles_count_range", "grid_points_range", "sweep_grid_range",
        "density_time", "sweep_time", "counterexample_time", "density_window",
        "sweep_window", "check_hysteresis", "density_hysteresis",
        "angles_count_fraction", "grid_points_fraction", "n_atoms_fraction",
        "k_max_fraction", "mode_sweep_count_fraction", "times_true"])
def test_bad_later_run_fields_are_a_config_error_before_any_run(tmp_path, capsys,
                                                                later):
    # run 0 would write its report; run 1 is malformed in one field
    runs = [{"command": "counterexample", "n_atoms": 5}, later]
    path = str(tmp_path / "scenario.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "runs": runs}, fh)
    out = tmp_path / "out"
    assert main(["scenario", path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, run, field", [
    (["counterexample", "--rule", "zeta6"], None, "--rule"),
    (["counterexample", "--tol-root", "1e-9"], None, "--tol-root"),
    (None, {"command": "counterexample", "tolerances": {"tol_root": 1e-9}},
     "'tolerances'"),
    (None, {"command": "density", "measure": _D, "times": [1],
            "checks": ["support"]}, "'support'"),
    # a window let a verdict read one support component alone
    (["density", "--measure", DIRAC1, "--t", "1", "--window", "1,2"], None,
     "--window"),
    (["sweep", "--measure", TWO_ATOMS, "--t", "0.5", "--window", "0.5,1000"],
     None, "--window"),
    # a gap bound could only hide a certificate
    (["counterexample", "--n-atoms", "30", "--t", "8", "--k-max", "1"], None,
     "--k-max"),
    (None, {"command": "counterexample", "n_atoms": 30, "k_max": 1},
     "'k_max'"),
    # the solver's tolerances are constants: they move no curve
    (["density", "--measure", DIRAC1, "--t", "1", "--tol-root", "1e-9"], None,
     "--tol-root"),
    (["density", "--measure", DIRAC1, "--t", "1", "--tol-quad", "1e-9"], None,
     "--tol-quad"),
    (None, {"command": "density", "measure": _D, "times": [1],
            "tolerances": {"tol_root": 1e-9}}, "'tol_root'"),
    (None, {"command": "density", "measure": _D, "times": [1],
            "tolerances": {"tol_quad": 1e-9}}, "'tol_quad'"),
], ids=["rule_flag", "tol_root_flag", "counterexample_tolerances",
        "support_check", "density_window_flag", "sweep_window_flag",
        "k_max_flag", "k_max_field", "density_tol_root_flag",
        "density_tol_quad_flag", "density_tol_root_field",
        "density_tol_quad_field"])
def test_removed_knobs_are_config_errors_naming_the_field(tmp_path, capsys,
                                                          argv, run, field):
    out = tmp_path / "out"
    if argv is None:
        path = str(tmp_path / "scenario.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "runs": [run]}, fh)
        argv = ["scenario", path]
    assert main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["density", "--measure", DIRAC1], ["sweep", "--measure", DIRAC1],
    ["counterexample", "--n-atoms", "5"]], ids=["density", "sweep",
                                                "counterexample"])
def test_infinite_time_is_a_config_error(tmp_path, capsys, argv):
    # an infinite time is no time the flow takes: found before any run
    out = tmp_path / "out"
    assert main(argv + ["--t", "inf", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "time must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_out_dir_must_be_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("scenario.json", "w") as fh:
        json.dump({"schema_version": 1, "out_dir": 5, "runs": [
            {"command": "counterexample", "n_atoms": 5}]}, fh)
    assert main(["scenario", "scenario.json"]) == cli.EXIT_CONFIG
    assert ("config error: ParseError: scenario out_dir must be a string"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize("command", ["density", "check"])
def test_checks_must_be_a_list(tmp_path, capsys, command):
    run = {"command": command, "measure": json.loads(GAMMA21), "checks": "mass"}
    if command == "density":
        run["times"] = [1]
    assert _run_scenario(tmp_path, run) == cli.EXIT_CONFIG
    assert "checks must be a list, got 'mass'" in capsys.readouterr().err


def test_pick_flags_take_a_mode_or_a_mode_sweep(tmp_path, capsys):
    assert main(["pick", "--measure", GAMMA21, "--mode", "2", "--mode-sweep",
                 "1,3,2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "not both" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def _noisy(density, amplitude):
    """`density` times 1 + amplitude sin(1e9 x): a ripple no panel resolves,
    so psi' quadratures meet 1e-6 but stall short of 1e-8."""
    def noisy(self, x):
        x = np.asarray(x, float)
        return density(self, x) * (1.0 + amplitude * np.sin(1e9 * x))
    return noisy


@pytest.mark.parametrize("argv", [
    ["pick", "--measure", GAMMA21, "--mode-sweep", "1,2,2"],
    ["check", "--measure", GAMMA21],
    ["density", "--measure", DIRAC1, "--t", "1", "--points", "128",
     "--check", "pick"]], ids=["pick", "check", "density"])
def test_relaxed_psi_prime_is_one_report_warning(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(unimodality, "half_plane_grid", lambda: np.array(
        [-2.0 + 0.5j, 2.0 + 0.5j, -2.0 + 2.0j, 2.0 + 2.0j]))
    for cls in (measures.Named, measures.GridDensity):
        monkeypatch.setattr(cls, "density", _noisy(cls.density, 3e-7))
    command = argv[0]
    assert main(argv + ["--out", str(tmp_path)]) in (cli.EXIT_OK,
                                                      cli.EXIT_NEGATIVE)
    report = json.loads(open(tmp_path / f"{command}_report.json").read())
    warned = [w for w in report["warnings"] if "psi'" in w]
    assert len(warned) == 1
    assert "met only 1e-06 relative accuracy, not 1e-08" in warned[0]
