"""freemult benchmark: one workload, timed end to end through the CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is one fresh interpreter (``bench/worker.py``) that imports
freemult from ``src/`` and runs the workload's CLI operations in process
through ``freemult.cli.main``.  Passes repeat until S seconds have gone and
the workload's ``min_passes`` have run; each metric is the median over the
passes.  BLAS is pinned to one thread in every pass.

With ``--trace 1`` untraced and traced passes alternate.  The traced ones
wrap freemult's layers (``bench/spans.py``) and the per-layer metrics come
from them; the tracing overhead is the traced minus the untraced run_s.

The first pass's outputs are checked against the independent oracle
(``bench/checks.py``); every later pass must write byte-identical files.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

OUT_DIR = ".bench_out"
TRACE_DIR = ".bench_trace"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# the metrics are listed, with their units, in BENCHMARK.json; a per-layer
# name ending in .calls or .self_s reads that field of the span, cli.*.s
# reads the span's total time, and any other name is a counter
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def worker_env(src: str) -> dict:
    """The environment of a pass: freemult from `src`, BLAS on one thread."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def layer_value(name: str, layers: dict) -> float:
    if name.endswith(".calls"):
        return layers.get(name[:-6], {}).get("calls", 0)
    if name.endswith(".self_s"):
        return layers.get(name[:-7], {}).get("self_s", 0.0)
    if name.startswith("cli."):
        return layers.get(name[:-2], {}).get("total_s", 0.0)
    return layers["counters"].get(name, 0)


def run_pass(root: str, out_root: str, wl, i: int, traced: bool,
             env: dict) -> dict:
    pass_dir = os.path.join(out_root, f"pass{i:03d}")
    logs = os.path.join(out_root, "logs")
    os.makedirs(pass_dir)
    spec = {"ops": wl.argvs(os.path.join(out_root, "inputs"), pass_dir),
            "result": os.path.join(logs, f"pass{i:03d}.json"),
            "trace": (os.path.join(root, TRACE_DIR, f"{os.path.basename(out_root)}.json")
                      if traced else None)}
    spec_path = os.path.join(logs, f"pass{i:03d}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    with open(os.path.join(logs, f"pass{i:03d}.log"), "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.run([sys.executable, worker, spec_path], cwd=root,
                              env=env, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise RuntimeError(f"pass {i} worker exited with {proc.returncode}; "
                           f"see {log.name}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_first_op"] - t_spawn
    result["dir"] = pass_dir
    result["traced"] = traced
    return result


def same_files(a: str, b: str) -> list[str]:
    """Relative paths under a and b whose presence or bytes differ."""
    def listing(d):
        return sorted(os.path.relpath(os.path.join(p, f), d)
                      for p, _, fs in os.walk(d) for f in fs)
    la, lb = listing(a), listing(b)
    diff = sorted(set(la) ^ set(lb))
    diff += [f for f in la if f in lb and
             not filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)]
    return diff


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "freemult", "cli.py")):
        print(f"no freemult sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out_root = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(os.path.join(out_root, "logs"))
    os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
    wl.write_inputs(os.path.join(out_root, "inputs"))

    env = worker_env(src)
    # byte-code is compiled once before timing, as for an installed package
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(src, "freemult")], check=True, env=env,
                   stdout=subprocess.DEVNULL)

    passes = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(root, out_root, wl, len(passes), traced, env))
        enough = len(passes) >= (2 if args.trace else wl.min_passes)
        if (enough and time.monotonic() - start >= args.seconds
                and not (args.trace and len(passes) % 2)):
            break

    expected = [code for _argv, code in wl.ops]
    attempted = len(expected) * len(passes)
    failed = sum(rec["code"] != want for p in passes
                 for rec, want in zip(p["ops"], expected))

    problems = []
    try:
        problems += wl.check(passes[0]["dir"], np.random.default_rng(args.seed))
    except (OSError, KeyError, ValueError, IndexError, TypeError, ArithmeticError) as exc:
        problems.append(f"outputs of pass 0 unreadable: {type(exc).__name__}: {exc}")
    for p in passes[1:]:
        for f in same_files(passes[0]["dir"], p["dir"]):
            problems.append(f"{os.path.basename(p['dir'])}/{f} differs from pass 0")

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        counts = [{n: layer_value(n, p["layers"]) for n, u in PER_LAYER if u != "s"}
                  for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced counts differ between passes")
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = (statistics.median(p["run_s"] for p in traced)
                         - statistics.median(p["run_s"] for p in plain))
            elif unit != "s":
                value = counts[0][name]
            else:
                value = statistics.median(layer_value(name, p["layers"]) for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in plain),
                          "unit": unit} for name, unit in END_TO_END}

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed, checks {'passed' if not problems else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
