"""The benchmark's workloads: the CLI operations of one pass, their expected
exit codes, the input files they read, and the checks of their outputs.

The program's inputs are the paper's cases and do not depend on the seed;
the seed picks which samples and half-plane points the oracle checks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import oracle

GAMMA = {"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1}}
LAMBDA = {"kind": "named", "family": "lambda", "params": {"b": math.pi / 2}}
DIRAC = {"kind": "named", "family": "dirac", "params": {"c": 1}}
UNIFORM = {"kind": "named", "family": "uniform", "params": {"lo": 1, "hi": 1.1}}
LOG_NORMAL = {"kind": "named", "family": "log_normal", "params": {"m": 0, "s": 0.5}}
CASCADE_ATOMS = 30
SCENARIO = os.path.join("scenarios", "atomic_gap_cascade.json")

# samples per curve checked against the oracle: a density-measure sample
# costs about 0.2 s of quad calls, an atomic one about 2 ms
DENSITY_SAMPLES = 4
ATOMIC_SAMPLES = 32
# gamma(2, 1) carries e^-60 of its mass beyond this point
GAMMA_UPPER = 60.0


def cascade_spec(n_atoms: int) -> dict:
    w, a = oracle.cascade(n_atoms)
    return {"kind": "atomic",
            "atoms": [{"w": float(wi), "a": float(ai)} for wi, ai in zip(w, a)]}


@dataclass(frozen=True)
class Workload:
    inputs: dict[str, dict]
    # argv with "{in}" (input directory) and "{out}" (pass directory), and
    # the exit code the operation must return (1 is a negative verdict)
    ops: list[tuple[list[str], int]]
    check: Callable[[str, np.random.Generator], list[str]]
    # passes a run makes at least, even when --seconds has gone
    min_passes: int = 3

    def write_inputs(self, in_dir: str) -> None:
        os.makedirs(in_dir, exist_ok=True)
        for fname, spec in self.inputs.items():
            with open(os.path.join(in_dir, fname), "w") as fh:
                json.dump(spec, fh)

    def argvs(self, in_dir: str, out_dir: str) -> list[list[str]]:
        return [[a.replace("{in}", in_dir).replace("{out}", out_dir) for a in argv]
                for argv, _code in self.ops]


def _curve(out: str, sub: str, t: float):
    path = os.path.join(out, sub, f"density_t{t:.17g}.csv")
    return checks.read_curve(path)


def _check_curves_density(out: str, rng: np.random.Generator) -> list[str]:
    fails = []
    for label, spec, verdict in (("gamma", GAMMA, None),
                                 ("lambda", LAMBDA, "unimodal")):
        x, q = _curve(out, label, 1.0)
        report = checks.read_json(os.path.join(out, label, "density_report.json"))
        nu = oracle.from_spec(spec)
        idx = checks.pick_samples(rng, x, q, DENSITY_SAMPLES)
        fails += checks.oracle_agreement(
            label, x, q, idx, lambda v: oracle.density_at(nu, 1.0, v)[0])
        fails += checks.mass_and_mean(label, x, q, 1.0, nu.mean)
        fails += checks.density_report(label, report["results"]["per_t"][0], x, q,
                                       verdict, components_exact=1)
        if label == "lambda":
            fails += checks.symmetry(label, x, q)
            fails += checks.unimodal_samples(label, x, q)
    return fails


def _check_curves_atomic(out: str, rng: np.random.Generator) -> list[str]:
    fails = []
    scenario = checks.read_json(SCENARIO)
    cert_run, dens_run = scenario["runs"]
    sc = os.path.join(out, "scenario")

    fails += checks.certificates(
        "scenario counterexample",
        checks.read_json(os.path.join(sc, "run00_counterexample",
                                      "counterexample_report.json")),
        cert_run["times"], cert_run["n_atoms"])

    nu = oracle.from_spec(dens_run["measure"])
    report = checks.read_json(os.path.join(sc, "run01_density", "density_report.json"))
    for entry, t in zip(report["results"]["per_t"], dens_run["times"]):
        label = f"scenario cascade t={t}"
        x, q = _curve(sc, "run01_density", t)
        idx = checks.pick_samples(rng, x, q, ATOMIC_SAMPLES)
        fails += checks.oracle_agreement(
            label, x, q, idx, lambda v: oracle.density_at(nu, t, v)[0])
        fails += checks.mass_and_mean(label, x, q, t, nu.mean)
        fails += checks.density_report(label, entry, x, q, "not_unimodal",
                                       components_min=2)

    report = checks.read_json(os.path.join(out, "dirac", "density_report.json"))
    for entry, t in zip(report["results"]["per_t"], (0.25, 1.0, 4.0)):
        label = f"dirac t={t}"
        x, q = _curve(out, "dirac", t)
        idx = checks.pick_samples(rng, x, q, ATOMIC_SAMPLES)
        fails += checks.oracle_agreement(
            label, x, q, idx, lambda v: oracle.dirac_density(t, v))
        fails += checks.mass_and_mean(label, x, q, t, 1.0)
        fails += checks.symmetry(label, x, q)
        fails += checks.unimodal_samples(label, x, q)
        fails += checks.density_report(label, entry, x, q, "unimodal",
                                       components_exact=1)

    fails += checks.certificates(
        "counterexample",
        checks.read_json(os.path.join(out, "counterexample",
                                      "counterexample_report.json")),
        [1.0], CASCADE_ATOMS)
    return fails


def checker_grid_points(rng: np.random.Generator, k: int) -> list[complex]:
    """k points of the checker's default 64 x 64 half-plane grid."""
    re = np.linspace(-10.0, 10.0, 64)
    im = np.geomspace(1e-3, 10.0, 64)
    return [complex(re[i], im[j]) for i, j in rng.integers(0, 64, size=(k, 2))]


def _check_verdicts(out: str, rng: np.random.Generator) -> list[str]:
    fails = []
    for label, spec, t, unimodal in (("uniform", UNIFORM, 22.0, True),
                                     ("log_normal", LOG_NORMAL, 1.0, True),
                                     ("cascade", cascade_spec(CASCADE_ATOMS), 1.0, False)):
        rows = checks.read_sweep(os.path.join(out, label, f"sweep_t{t:.17g}.csv"))
        report = checks.read_json(os.path.join(out, label, "sweep_report.json"))
        fails += checks.sweep(label, rows, report, spec, t, unimodal)
        if label == "uniform":
            thr = checks.time_threshold(1.0, 1.1)
            got = report["results"].get("time_threshold")
            if got is None or abs(got - thr) > 1e-12 * thr or not t > thr:
                fails.append(f"uniform: time threshold {got}, paper {thr}")

    for mode, holds in ((2.0, True), (1.0, False)):
        sub = os.path.join(out, f"pick{mode:g}")
        report = checks.read_json(os.path.join(sub, "pick_report.json"))
        vpath = os.path.join(sub, "pick_violations.csv")
        rows = checks.read_rows(vpath) if os.path.exists(vpath) else []
        fails += checks.pick(f"pick mode {mode:g}", report, rows, GAMMA, mode,
                             holds, checker_grid_points(rng, 8), GAMMA_UPPER)
    return fails


WORKLOADS = {
    "curves-density": Workload(
        inputs={"gamma.json": GAMMA, "lambda.json": LAMBDA},
        ops=[(["density", "--measure", "{in}/gamma.json", "--t", "1",
               "--points", "128", "--out", "{out}/gamma"], 0),
             (["density", "--measure", "{in}/lambda.json", "--t", "1",
               "--points", "128", "--check", "logunimodal",
               "--out", "{out}/lambda"], 0)],
        check=_check_curves_density,
        # its run_s spreads most between runs; six passes (about 40 s) keep
        # the quartile spread of ten runs inside the 0.25 bound
        min_passes=6),
    "curves-atomic": Workload(
        inputs={"dirac.json": DIRAC},
        ops=[(["scenario", SCENARIO, "--out", "{out}/scenario"], 0),
             (["density", "--measure", "{in}/dirac.json", "--t", "0.25,1,4",
               "--check", "logunimodal", "--out", "{out}/dirac"], 0),
             (["counterexample", "--n-atoms", str(CASCADE_ATOMS),
               "--out", "{out}/counterexample"], 0)],
        check=_check_curves_atomic),
    "verdicts": Workload(
        inputs={"uniform.json": UNIFORM, "log_normal.json": LOG_NORMAL,
                "cascade.json": cascade_spec(CASCADE_ATOMS), "gamma.json": GAMMA},
        ops=[(["sweep", "--measure", "{in}/uniform.json", "--t", "22",
               "--out", "{out}/uniform"], 0),
             (["sweep", "--measure", "{in}/log_normal.json", "--t", "1",
               "--out", "{out}/log_normal"], 0),
             (["sweep", "--measure", "{in}/cascade.json", "--t", "1",
               "--out", "{out}/cascade"], 1),
             (["pick", "--measure", "{in}/gamma.json", "--mode", "2",
               "--out", "{out}/pick2"], 0),
             (["pick", "--measure", "{in}/gamma.json", "--mode", "1",
               "--out", "{out}/pick1"], 1)],
        check=_check_verdicts),
}
