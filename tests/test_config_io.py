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

def test_parse_number_keeps_integers_whole_and_takes_no_booleans():
    assert config_io.parse_number(8.0, "n", int) == 8
    assert config_io.parse_number("8", "n", int) == 8
    assert config_io.parse_number(0.5, "x") == 0.5
    with pytest.raises(ParseError, match="n must be an integer, got 8.9"):
        config_io.parse_number(8.9, "n", int)
    for kind in (int, float):
        with pytest.raises(ParseError, match="n must be a number, got True"):
            config_io.parse_number(True, "n", kind)
    with pytest.raises(ParseError, match="params.c must be a number"):
        config_io.parse_measure('{"kind": "named", "family": "dirac", '
                                '"params": {"c": true}}')


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


_MALFORMED_MEASURES = [
    ('[{"w": 1, "a": 1}]', "must be an object"),
    ('{"family": "gamma", "params": {"p": 2, "theta": 1}}', "'kind'"),
    ('{"kind": "atomic", "atoms": []}', "non-empty 'atoms'"),
    ('{"kind": "atomic", "atoms": {"w": 1, "a": 1}}', "non-empty 'atoms'"),
    ('{"kind": "atomic", "atoms": [[1, 1]]}', r"atoms\[0\] must be an object"),
    ('{"kind": "atomic", "atoms": [{"w": 1}]}', "needs both 'w' and 'a'"),
    ('{"kind": "atomic", "atoms": [{"a": 1}]}', "needs both 'w' and 'a'"),
    ('{"kind": "grid", "grid": [[1, 2], [1, 1]]}', "a 'grid' object"),
    ('{"kind": "grid", "grid": {"x": [1, 2]}}', "'x' and 'f' arrays"),
    ('{"kind": "grid", "grid": {"f": [1, 1]}}', "'x' and 'f' arrays"),
    ('{"kind": "named", "family": "gamma", "params": [2, 1]}',
     "'params' must be an object"),
    ('{"kind": "named", "params": {"p": 2, "theta": 1}}', "'family' string"),
]


def test_parse_rejects_unknown_fields(tmp_path, capsys):
    with pytest.raises(ParseError):
        config_io.parse_measure(
            '{"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1},'
            ' "comment": "hi"}')
    with pytest.raises(ParseError):
        config_io.parse_measure(
            '{"kind": "atomic", "atoms": [{"w": 1.0, "a": 1, "x": 2}]}')
    # malformed measures: a ParseError, and from a measure file exit 2
    path = tmp_path / "measure.json"
    for text, match in _MALFORMED_MEASURES:
        with pytest.raises(ParseError, match=match):
            config_io.parse_measure(text)
        path.write_text(text)
        assert cli.main(["check", "--measure", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "config error: ParseError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GRID2 = '{"kind": "grid", "grid": {"x": [1, 2], "f": [2, 2]}'


@pytest.mark.parametrize("value", ['"false"', '"no"', "1"])
def test_grid_normalize_must_be_a_boolean(value):
    with pytest.raises(ParseError, match="normalize"):
        config_io.parse_measure(GRID2 + f', "normalize": {value}}}')


def test_grid_normalize_absent_or_null_is_false():
    nu = config_io.parse_measure(GRID2 + ', "normalize": true}')
    assert nu.to_dict()["grid"]["f"] == [1.0, 1.0]
    # f of mass 2 is not normalized, so it breaks the mass invariant
    for text in (GRID2 + "}", GRID2 + ', "normalize": null}',
                 GRID2 + ', "normalize": false}'):
        with pytest.raises(InvariantViolation, match="grid.mass"):
            config_io.parse_measure(text)


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
           "tolerances": {"tol_int": 1e-4}, "results": {"ok": True},
           "warnings": []}
    rep_path = str(tmp_path / "report.json")
    config_io.write_report(rep, rep_path)
    loaded = json.loads(open(rep_path).read())
    assert loaded["schema_version"] == 1
    config_io.write_report(rep, rep_path)
    assert json.loads(open(rep_path).read()) == loaded
    # atomic writes leave no temp files behind
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_load_measure_missing_file():
    with pytest.raises(IoError):
        config_io.load_measure("/nonexistent/measure.json")


def test_write_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(IoError, match="cannot write"):
        config_io.write_report({"command": "check"},
                               str(blocker / "out" / "report.json"))
    assert cli.main(["counterexample", "--n-atoms", "5",
                     "--out", str(blocker / "out")]) == cli.EXIT_CONFIG
    assert "config error: IoError" in capsys.readouterr().err


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


def test_parse_scenario_validates(tmp_path, capsys):
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
    # a malformed envelope: a ParseError, and from a scenario file exit 2
    path = tmp_path / "scenario.json"
    for scenario, match in (
            ([{"command": "check"}], "must be a JSON object"),
            ({"schema_version": 1, "runs": []}, "non-empty 'runs'"),
            ({"schema_version": 1, "runs": {"command": "check"}},
             "non-empty 'runs'"),
            ({"schema_version": 1, "runs": [{"measure": {}}]},
             r"runs\[0\] needs a 'command'"),
            ({"schema_version": 1, "runs": ["check"]},
             r"runs\[0\] needs a 'command'")):
        with pytest.raises(ParseError, match=match):
            _prepare(json.dumps(scenario))
        path.write_text(json.dumps(scenario))
        assert cli.main(["scenario", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "config error: ParseError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    text = _scenario(command, tolerances={"tol_pick": 1e-9})
    if command == "density":
        _prepare(text)
    else:
        with pytest.raises(ParseError, match="tolerances"):
            _prepare(text)


def test_shipped_scenarios_parse():
    for name in ("symmetric_unimodal.json", "atomic_gap_cascade.json"):
        path = os.path.join(os.path.dirname(__file__), "..", "scenarios", name)
        sc = config_io.load_scenario(path)
        assert sc["runs"]
