"""Reports of cheap deterministic CLI runs, compared byte for byte with the
files under tests/golden/<case>/.  After a change meant to alter a report,
rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import shutil
import sys
import tempfile

import pytest

from freemult.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CASCADE = os.path.join(HERE, os.pardir, "scenarios", "atomic_gap_cascade.json")
DIRAC1 = '{"kind": "named", "family": "dirac", "params": {"c": 1}}'
GAMMA21 = '{"kind": "named", "family": "gamma", "params": {"p": 2, "theta": 1}}'
LAMBDA1 = '{"kind": "named", "family": "lambda", "params": {"b": 1}}'
TWO_ATOMS = '{"kind": "atomic", "atoms": [{"w": 0.5, "a": 1}, {"w": 0.5, "a": 4}]}'
# at t = 0.1 the support of the flow of 1/2 delta_1 + 1/2 delta_2 has two
# components, about 0.03 apart
SPLIT = '{"kind": "atomic", "atoms": [{"w": 0.5, "a": 1}, {"w": 0.5, "a": 2}]}'

# case -> argv without --out; every run exits 0 except those in NEGATIVE
CASES = {
    "density_dirac": ["density", "--measure", DIRAC1, "--t", "1",
                      "--points", "128"],
    "density_split": ["density", "--measure", SPLIT, "--t", "0.1",
                      "--points", "128", "--check", "logunimodal"],
    "counterexample": ["counterexample", "--n-atoms", "12"],
    "sweep_dirac": ["sweep", "--measure", DIRAC1, "--t", "1", "--angles", "8",
                    "--grid", "256"],
    "pick_gamma": ["pick", "--measure", GAMMA21, "--mode", "2"],
    "check_gamma": ["check", "--measure", GAMMA21],
    "cascade": ["scenario", CASCADE],
    "pick_two_atoms": ["pick", "--measure", TWO_ATOMS, "--mode-sweep", "0.5,5,3"],
    "check_lambda": ["check", "--measure", LAMBDA1],
}
# cases whose verdict is negative (exit 1)
NEGATIVE = {"pick_two_atoms", "check_lambda"}


def _exit_code(case: str) -> int:
    return 1 if case in NEGATIVE else 0


def _reports(root: str) -> list[str]:
    """The report files under `root`, as sorted relative paths."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root)
                  for f in files if f.endswith("_report.json"))


@pytest.mark.parametrize("case", list(CASES))
def test_reports_match_golden(tmp_path, case):
    out = str(tmp_path)
    assert main(CASES[case] + ["--out", out]) == _exit_code(case)
    want = os.path.join(GOLDEN, case)
    assert _reports(out) == _reports(want)
    for rel in _reports(want):
        with open(os.path.join(out, rel), "rb") as got, \
                open(os.path.join(want, rel), "rb") as gold:
            assert got.read() == gold.read(), rel


if __name__ == "__main__":
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as out:
            if main(argv + ["--out", out]) != _exit_code(case):
                sys.exit(f"{case}: unexpected exit code")
            shutil.rmtree(os.path.join(GOLDEN, case), ignore_errors=True)
            for rel in _reports(out):
                dest = os.path.join(GOLDEN, case, rel)
                os.makedirs(os.path.dirname(dest), exist_ok=True)
                shutil.copyfile(os.path.join(out, rel), dest)
