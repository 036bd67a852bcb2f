"""Self-tests of the benchmark: the oracle, the output checks and the tracer.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import oracle
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cli(argv) -> int:
    return subprocess.run([sys.executable, "-m", "freemult.cli", *argv], cwd=ROOT,
                          env=run.worker_env(SRC), capture_output=True).returncode


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    with open(out / "dirac.json", "w") as fh:
        json.dump(workloads.DIRAC, fh)
    with open(out / "cascade.json", "w") as fh:
        json.dump(workloads.cascade_spec(30), fh)
    assert _cli(["density", "--measure", str(out / "dirac.json"), "--t", "1",
                 "--check", "logunimodal", "--out", str(out / "dirac")]) == 0
    assert _cli(["scenario", workloads.SCENARIO, "--out", str(out / "scenario")]) == 0
    assert _cli(["sweep", "--measure", str(out / "cascade.json"), "--t", "1",
                 "--out", str(out / "sweep")]) == 1
    return out


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_oracle_reproduces_dirac_closed_form(t):
    nu = oracle.from_spec(workloads.DIRAC)
    th_max = oracle.dirac_theta_max(t)
    for frac in (0.05, 0.3, 0.7, 0.95):
        theta = frac * th_max
        for upper in (True, False):
            r, x = oracle.dirac_branch(t, theta, upper)
            q, r_solved = oracle.density_at(nu, t, x)
            assert q == pytest.approx(theta / (math.pi * t * x), rel=1e-10)
            assert r_solved == pytest.approx(r, rel=1e-10)
            assert oracle.dirac_density(t, x) == pytest.approx(q, rel=1e-10)


def test_curve_check_rejects_scaled_sample(outputs):
    x, q = checks.read_curve(str(outputs / "dirac" / "density_t1.csv"))
    idx = checks.pick_samples(np.random.default_rng(0), x, q, 8)
    q_ref = lambda v: oracle.dirac_density(1.0, v)
    assert checks.oracle_agreement("dirac", x, q, idx, q_ref) == []
    bad = q.copy()
    bad[idx[3]] *= 1.0 + 1e-6
    assert len(checks.oracle_agreement("dirac", x, bad, idx, q_ref)) == 1


def test_density_check_rejects_dropped_component(outputs):
    sub = outputs / "scenario" / "run01_density"
    x, q = checks.read_curve(str(sub / "density_t1.csv"))
    entry = checks.read_json(str(sub / "density_report.json"))["results"]["per_t"][0]
    assert checks.density_report("cascade", entry, x, q, "not_unimodal", 2) == []
    a, b = checks.components(q)[4]
    keep = np.r_[0:a, b + 1:x.size]  # the component and the gap marker after it
    assert checks.density_report("cascade", entry, x[keep], q[keep],
                                 "not_unimodal", 2) != []
    short = copy.deepcopy(entry)
    del short["support"][4]
    short["support_components"] -= 1
    assert checks.density_report("cascade", short, x, q, "not_unimodal", 2) != []


def test_checks_reject_flipped_verdicts(outputs):
    x, q = checks.read_curve(str(outputs / "dirac" / "density_t1.csv"))
    entry = checks.read_json(str(outputs / "dirac" / "density_report.json"))[
        "results"]["per_t"][0]
    assert checks.density_report("dirac", entry, x, q, "unimodal") == []
    assert checks.density_report("dirac", dict(entry, logunimodal="not_unimodal"),
                                 x, q, "unimodal") != []

    rows = checks.read_sweep(str(outputs / "sweep" / "sweep_t1.csv"))
    report = checks.read_json(str(outputs / "sweep" / "sweep_report.json"))
    spec = workloads.cascade_spec(30)
    assert checks.sweep("cascade", rows, report, spec, 1.0, unimodal=False) == []
    flipped = copy.deepcopy(report)
    flipped["results"]["per_t"][0]["log_unimodal"] = True
    assert checks.sweep("cascade", rows, flipped, spec, 1.0, unimodal=False) != []
    capped = [(R, min(c, 2), min(e, 2), b, roots[:2]) for R, c, e, b, roots in rows]
    assert checks.sweep("cascade", capped, report, spec, 1.0, unimodal=False) != []


def test_traced_quadratures_match_integrate_calls(tmp_path):
    with open(tmp_path / "gamma.json", "w") as fh:
        json.dump(workloads.GAMMA, fh)
    spec = {"ops": [["density", "--measure", str(tmp_path / "gamma.json"), "--t", "1",
                     "--points", "64", "--out", str(tmp_path / "out")]],
            "result": str(tmp_path / "result.json"),
            "trace": str(tmp_path / "trace.json")}
    with open(tmp_path / "spec.json", "w") as fh:
        json.dump(spec, fh)
    worker = os.path.join(ROOT, "bench", "worker.py")
    subprocess.run([sys.executable, worker, str(tmp_path / "spec.json")], cwd=ROOT,
                   env=run.worker_env(SRC), check=True, capture_output=True)
    with open(tmp_path / "result.json") as fh:
        result = json.load(fh)
    layers = result["layers"]
    assert result["ops"][0]["code"] == 0
    quads = run.layer_value("quad.adaptive_quad.calls", layers)
    assert quads > 1000
    assert quads == run.layer_value("measures.integrate.calls", layers)
    with open(tmp_path / "trace.json") as fh:
        spans = json.load(fh)["spans"]
    assert sum(s["name"] == "quad.adaptive_quad" for s in spans) == quads


def test_benchmark_json_lists_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
