import json
import math
import os

import numpy as np
import pytest

import freemult as fm
from freemult import cli, config_io
from freemult.errors import InvariantViolation, IoError, ParseError


# ---------------------------------------------------------------------------
# measure parsing
# ---------------------------------------------------------------------------

def test_parse_named_gamma():
    nu = config_io.parse_measure(
        '{"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1}}')
    assert nu.family == "gamma"
    assert nu.params == {"p": 2.0, "theta": 1.0}


def test_parse_atomic_mass_violation():
    with pytest.raises(InvariantViolation) as e:
        config_io.parse_measure(
            '{"kind": "atomic", "atoms": [{"w": 0.4, "a": 1}, {"w": 0.5, "a": 2}]}')
    assert "mass" in e.value.invariant


def test_parse_lambda_domain_violation():
    with pytest.raises(InvariantViolation) as e:
        config_io.parse_measure(
            '{"kind": "named", "family": "lambda", "params": {"b": 4}}')
    assert "lambda.b" == e.value.invariant


def test_parse_rejects_unknown_fields():
    with pytest.raises(ParseError):
        config_io.parse_measure(
            '{"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1},'
            ' "comment": "hi"}')
    with pytest.raises(ParseError):
        config_io.parse_measure(
            '{"kind": "atomic", "atoms": [{"w": 1.0, "a": 1, "x": 2}]}')


def test_parse_reports_location():
    with pytest.raises(ParseError) as e:
        config_io.parse_measure('{"kind": "named",\n  broken}')
    assert "line 2" in str(e.value)


def test_parse_unknown_kind():
    with pytest.raises(ParseError):
        config_io.parse_measure('{"kind": "fancy"}')


def test_named_dirac_parses_to_one_atom():
    nu = config_io.parse_measure(
        '{"kind": "named", "family": "dirac", "params": {"c": 2.5}}')
    assert isinstance(nu, fm.Atomic)
    assert [v.tolist() for v in nu.atoms()] == [[1.0], [2.5]]
    assert fm.dirac(2.0).to_dict() == fm.atomic([(1.0, 2.0)]).to_dict()


def test_atomic_sorted_on_parse():
    nu = config_io.parse_measure(
        '{"kind": "atomic", "atoms": [{"w": 0.5, "a": 4}, {"w": 0.5, "a": 1}]}')
    assert nu.atoms()[1].tolist() == [1.0, 4.0]


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_measure_round_trip_exact():
    for nu in (fm.atomic([(0.3, 0.7), (0.7, math.pi)]),
               fm.gamma_measure(2.5, 0.3),
               fm.lambda_measure(1.234567890123456789)):
        text = config_io.dumps(nu.to_dict())
        back = config_io.parse_measure(text)
        assert back.to_dict() == nu.to_dict()


def test_grid_round_trip_bit_exact():
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=128)
    grid = fm.GridDensity(curve.x, curve.q, normalize=False)
    text = config_io.dumps(grid.to_dict())
    back = config_io.parse_measure(text)
    assert np.array_equal(back.x, grid.x)
    assert np.array_equal(back.f, grid.f)


def test_format_float_round_trip():
    for v in (0.1, 1 / 3, math.pi, 1e-300, 6.02e23, 0.25):
        assert float(config_io.format_float(v)) == v
    assert config_io.format_float(math.inf) == '"inf"'
    assert config_io.format_float(float("nan")) == '"nan"'


def test_dumps_deterministic():
    payload = {"b": [1.0, 2.5], "a": {"x": 1 / 3}, "c": "text", "d": None,
               "e": True, "z": complex(1.5, -0.5)}
    assert config_io.dumps(payload) == config_io.dumps(payload)
    assert '"re"' in config_io.dumps(payload)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_write_report_and_curve(tmp_path):
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=128)
    csv_path = str(tmp_path / "curve.csv")
    config_io.write_curve_csv(curve, csv_path)
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "x,q,xq"
    assert len(lines) == curve.x.size + 1
    x0, q0, xq0 = (float(v) for v in lines[1].split(","))
    assert x0 == curve.x[0] and q0 == curve.q[0] and xq0 == x0 * q0

    rep = {"command": "density", "inputs": {"t": 1.0},
           "tolerances": {"tol_root": 1e-10}, "results": {"ok": True},
           "warnings": []}
    rep_path = str(tmp_path / "report.json")
    config_io.write_report(rep, rep_path)
    loaded = json.loads(open(rep_path).read())
    assert loaded["schema_version"] == 1
    config_io.write_report(rep, rep_path)
    assert json.loads(open(rep_path).read()) == loaded
    # atomic writes leave no temp files behind
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_zero_support_curve_header_only(tmp_path):
    ctx = fm.FlowContext(fm.dirac(1.0), 1.0)
    curve = fm.density_curve(ctx, points=128, r_window=(100.0, 200.0))
    path = str(tmp_path / "zero.csv")
    config_io.write_curve_csv(curve, path)
    assert open(path).read() == "x,q,xq\n"


def test_load_measure_missing_file():
    with pytest.raises(IoError):
        config_io.load_measure("/nonexistent/measure.json")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _prepare(text):
    """Parse a scenario and check and read each run, as `cli.run_scenario`
    does before its first run."""
    sc = config_io.parse_scenario(text)
    for i, run in enumerate(sc["runs"]):
        cli.prepare(run, f"runs[{i}]")
    return sc


def test_parse_scenario_validates():
    good = json.dumps({"schema_version": 1, "runs": [
        {"command": "check", "measure": {"kind": "named", "family": "gamma",
                                         "params": {"p": 2, "theta": 1}}}]})
    sc = _prepare(good)
    assert sc["runs"][0]["command"] == "check"

    with pytest.raises(ParseError):
        _prepare(json.dumps({"runs": []}))
    with pytest.raises(ParseError):
        _prepare(json.dumps(
            {"schema_version": 1, "runs": [{"command": "dance"}]}))
    with pytest.raises(ParseError):
        _prepare(json.dumps(
            {"schema_version": 1, "runs": [{"command": "check", "bogus": 1}]}))


_RUNS = {
    "density": {"measure": {"kind": "named", "family": "dirac",
                            "params": {"c": 1}}, "times": [1.0]},
    "check": {"measure": {"kind": "named", "family": "dirac", "params": {"c": 1}}},
    "sweep": {"measure": {"kind": "named", "family": "dirac", "params": {"c": 1}},
              "times": [1.0]},
    "counterexample": {"n_atoms": 5},
    "pick": {"measure": {"kind": "named", "family": "dirac", "params": {"c": 1}},
             "mode": 1.0},
}


def _scenario(command, **fields):
    return json.dumps({"schema_version": 1, "runs": [
        {"command": command, **_RUNS[command], **fields}]})


@pytest.mark.parametrize("command", list(_RUNS))
def test_scenario_runs_reject_outputs(command):
    _prepare(_scenario(command))
    with pytest.raises(ParseError, match="outputs"):
        _prepare(_scenario(command, outputs={"csv": True}))


@pytest.mark.parametrize("command", list(_RUNS))
def test_only_density_runs_take_tolerances(command):
    # counterexample runs take the flow tolerances, as its flags do
    tolerances = ({"tol_root": 1e-9} if command == "counterexample"
                  else {"tol_pick": 1e-9})
    text = _scenario(command, tolerances=tolerances)
    if command in ("density", "counterexample"):
        _prepare(text)
    else:
        with pytest.raises(ParseError, match="tolerances"):
            _prepare(text)


def test_shipped_scenarios_parse():
    for name in ("symmetric_unimodal.json", "atomic_gap_cascade.json"):
        path = os.path.join(os.path.dirname(__file__), "..", "scenarios", name)
        sc = config_io.load_scenario(path)
        assert sc["runs"]
