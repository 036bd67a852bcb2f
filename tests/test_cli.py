import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import freemult as fm
from freemult import cli, measures, unimodality
from freemult.cli import main

DIRAC1 = '{"kind": "named", "family": "dirac", "params": {"c": 1}}'
GAMMA21 = '{"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1}}'
LAMBDA1 = '{"kind": "named", "family": "lambda", "params": {"b": 1}}'
TWO_ATOMS = '{"kind": "atomic", "atoms": [{"w": 0.5, "a": 1}, {"w": 0.5, "a": 4}]}'


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
    assert report["tolerances"]["tol_root"] == 1e-10


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
    assert main(["check", "--measure", LAMBDA1, "--strong",
                 "--out", str(tmp_path)]) == 1
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


def test_sweep_pinned_window_is_not_widened(tmp_path):
    # at t = 2 pi the level function of dirac(1) still exceeds 1/t at the
    # ends of [0.5, 1.5]; its roots lie outside that window
    out = str(tmp_path)
    code = main(["sweep", "--measure", DIRAC1, "--t", "6.283185307179586",
                 "--window", "0.5,1.5", "--out", out])
    assert code == cli.EXIT_NUMERIC
    assert not os.path.exists(os.path.join(out, "sweep_report.json"))
    code = main(["sweep", "--measure", DIRAC1, "--t", "6.283185307179586",
                 "--window", "0.01,100", "--angles", "8", "--out", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "sweep_report.json")).read())
    assert report["inputs"]["window"] == [0.01, 100.0]


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


def test_numeric_failure_prints_the_tolerances_run(tmp_path, capsys):
    assert main(["density", "--measure", DIRAC1, "--t", "1e16", "--points",
                 "64", "--tol-root", "1e-3", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "BracketFailure" in err
    assert "'tol_root': 0.001" in err
    run = {"command": "density", "measure": json.loads(DIRAC1),
           "times": [1e16], "tolerances": {"tol_root": 1e-3}}
    assert _run_scenario(tmp_path, run) == 3
    err = capsys.readouterr().err
    assert "BracketFailure" in err
    assert "'tol_root': 0.001" in err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("where", ["--tol-root", "--tol-quad", "tol_int",
                                   "tol_pick"])
def test_bad_tolerances_are_config_errors(tmp_path, capsys, where, value):
    out = str(tmp_path / "out")
    if where.startswith("--"):
        argv = ["density", "--measure", DIRAC1, "--t", "1", f"{where}={value}"]
    else:
        path = str(tmp_path / "scenario.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "runs": [
                {"command": "density", "measure": json.loads(DIRAC1),
                 "times": [1], "tolerances": {where: float(value)}}]}, fh)
        argv = ["scenario", path]
    assert main(argv + ["--out", out]) == cli.EXIT_CONFIG
    assert "config error: ParseError: tolerance" in capsys.readouterr().err
    assert not os.path.exists(out)


# each case is the flags of one command and the scenario run they describe
_SAME_RUNS = {
    "density": (["density", "--measure", DIRAC1, "--t", "1", "--points", "64",
                 "--window", "0.2,5", "--tol-root", "1e-9"],
                {"measure": json.loads(DIRAC1), "times": [1],
                 "grid": {"points": 64, "window": [0.2, 5]},
                 "tolerances": {"tol_root": 1e-9}}),
    "counterexample": (["counterexample", "--n-atoms", "8", "--tol-quad", "1e-9"],
                       {"n_atoms": 8, "tolerances": {"tol_quad": 1e-9}}),
    "sweep": (["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "8",
               "--grid", "512", "--window", "0.01,100"],
              {"measure": json.loads(DIRAC1), "times": [1],
               "angles": {"count": 8}, "grid": 512, "window": [0.01, 100]}),
    "pick": (["pick", "--measure", TWO_ATOMS, "--mode-sweep", "0.5,5,3"],
             {"measure": json.loads(TWO_ATOMS),
              "mode_sweep": {"lo": 0.5, "hi": 5, "count": 3}}),
    "check_hysteresis": (["check", "--measure", GAMMA21, "--hysteresis", "2e-4"],
                         {"measure": json.loads(GAMMA21), "hysteresis": 2e-4}),
    "check_strong": (["check", "--measure", LAMBDA1, "--strong"],
                     {"measure": json.loads(LAMBDA1),
                      "checks": ["logunimodal", "pick", "strong"]}),
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


def test_unread_tolerance_rejected_per_command(tmp_path):
    runs = [{"command": "sweep", "measure": json.loads(DIRAC1),
             "times": [1.0], "tolerances": {"tol_root": 1e-3}},
            {"command": "pick", "measure": json.loads(GAMMA21), "mode": 2.0,
             "tolerances": {"hysteresis": 1e-3}},
            {"command": "check", "measure": json.loads(GAMMA21),
             "tolerances": {"tol_quad": 1e-9}}]
    for i, run in enumerate(runs):
        path = str(tmp_path / f"scenario{i}.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "runs": [run]}, fh)
        assert main(["scenario", path, "--out", str(tmp_path)]) == 2, run


def test_density_counts_modes_once(tmp_path, monkeypatch):
    calls = []
    real = cli.is_log_unimodal
    monkeypatch.setattr(cli, "is_log_unimodal",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["density", "--measure", DIRAC1, "--t", "1", "--points", "128",
                 "--check", "logunimodal", "--check", "pick",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


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


def test_tolerance_flags_only_on_flow_commands(tmp_path):
    out = str(tmp_path)
    assert main(["sweep", "--measure", DIRAC1, "--t", "1", "--tol-root", "1e-3",
                 "--out", out]) == 2
    assert main(["pick", "--measure", GAMMA21, "--mode", "2", "--tol-quad",
                 "1e-9", "--out", out]) == 2
    assert main(["check", "--measure", GAMMA21, "--tol-root", "1e-3",
                 "--out", out]) == 2
    assert main(["counterexample", "--n-atoms", "5", "--tol-quad", "1e-9",
                 "--out", out]) == 0
    report = json.loads(
        open(os.path.join(out, "counterexample_report.json")).read())
    assert report["tolerances"]["tol_quad"] == 1e-9


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
    "density_window": ["density", "--measure", DIRAC1, "--t", "1",
                       "--window", "a,b"],
    "sweep_window": ["sweep", "--measure", DIRAC1, "--t", "1",
                     "--window", "a,b"],
    "window_arity": ["density", "--measure", DIRAC1, "--t", "1",
                     "--window", "1,2,3"],
    "times_text": ["density", "--measure", DIRAC1, "--t", "1,x"],
    "points_text": ["density", "--measure", DIRAC1, "--t", "1", "--points", "x"],
    "angles_text": ["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "x"],
    "grid_text": ["sweep", "--measure", DIRAC1, "--t", "1", "--grid", "x"],
    "n_atoms_text": ["counterexample", "--n-atoms", "x"],
    "k_max_text": ["counterexample", "--n-atoms", "5", "--k-max", "x"],
    "mode_text": ["pick", "--measure", DIRAC1, "--mode", "x"],
    "hysteresis_text": ["check", "--measure", GAMMA21, "--hysteresis", "x"],
    "tol_root_text": ["density", "--measure", DIRAC1, "--t", "1",
                      "--tol-root", "x"],
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
                      "times": [1], "tolerances": {"tol_root": "x"}},
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


@pytest.mark.parametrize("command", ["density", "sweep"])
@pytest.mark.parametrize("window", ["nan,1", "0,1", "-1,2", "0.5,inf", "2,1"])
def test_bad_windows_are_config_errors(tmp_path, capsys, command, window):
    out = str(tmp_path)
    assert main([command, "--measure", DIRAC1, "--t", "1",
                 f"--window={window}", "--out", out]) == cli.EXIT_CONFIG
    assert "config error: DomainError: bad window" in capsys.readouterr().err
    assert not os.listdir(out)


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, freemult.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


def test_seedless_flag_accepted(tmp_path):
    assert main(["density", "--measure", DIRAC1, "--t", "1", "--points", "128",
                 "--seedless", "--out", str(tmp_path)]) == 0


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
    assert main(["check", "--measure", GAMMA21, "--strong",
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
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
], ids=["times", "grid", "measure", "mode_sweep", "rule", "grid_key",
        "angles_key", "mode_sweep_key", "grid_falsy", "angles_falsy",
        "checks_text", "check_checks_text", "mode_and_mode_sweep", "k_max",
        "unknown_field", "tolerance"])
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


def test_scenario_out_dir_must_be_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("scenario.json", "w") as fh:
        json.dump({"schema_version": 1, "out_dir": 5, "runs": [
            {"command": "counterexample", "n_atoms": 5}]}, fh)
    assert main(["scenario", "scenario.json"]) == cli.EXIT_CONFIG
    assert ("config error: ParseError: scenario out_dir must be a string"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_k_max_below_one_is_a_config_error(tmp_path, capsys, k_max):
    # the scenario form is the `k_max` input of the test above
    out = tmp_path / "out"
    assert main(["counterexample", "--n-atoms", "5", "--k-max", k_max,
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error: ParseError: k_max" in capsys.readouterr().err
    assert not out.exists()
    # a k_max beyond the last gap is clipped to it
    assert main(["counterexample", "--n-atoms", "5", "--k-max", "99",
                 "--out", str(out)]) == cli.EXIT_OK


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
    monkeypatch.setattr(unimodality, "HalfPlaneGrid", lambda: fm.HalfPlaneGrid(
        re_min=-2.0, re_max=2.0, re_count=2, im_min=0.5, im_max=2.0,
        im_count=2))
    for cls in (measures.Named, measures.GridDensity):
        monkeypatch.setattr(cls, "density", _noisy(cls.density, 3e-7))
    command = argv[0]
    assert main(argv + ["--out", str(tmp_path)]) in (cli.EXIT_OK,
                                                      cli.EXIT_NEGATIVE)
    report = json.loads(open(tmp_path / f"{command}_report.json").read())
    warned = [w for w in report["warnings"] if "psi'" in w]
    assert len(warned) == 1
    assert "met only 1e-06 relative accuracy, not 1e-08" in warned[0]
