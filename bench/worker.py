"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py PASS.json

PASS.json holds {"ops": [[argv...], ...], "result": path, "trace": path or
null}.  The worker imports freemult, runs every operation through
``freemult.cli.main`` in this process, and writes timings to ``result``:

* t_first_op: ``time.monotonic()`` just before the first operation (the
  parent subtracts its own clock reading taken before the spawn);
* run_s, cpu_s: wall and process CPU time of the operations;
* peak_rss_mib: the process's peak resident set size;
* ops: exit code and seconds of each operation (code null on an exception);
* layers: per-span calls, self time and counters when traced.
"""

import json
import resource
import sys
import time
import traceback

import freemult.cli as cli


def main(pass_path: str) -> int:
    with open(pass_path) as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    records = []
    t_first = time.monotonic()
    c0 = time.process_time()
    for argv in ops:
        t0 = time.perf_counter()
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        try:
            code = cli.main(argv)
        except Exception:  # an operation that crashes is counted as failed
            traceback.print_exc()
            code = None
        finally:
            if tracer:
                tracer.close(span)
        records.append({"argv": argv, "code": code,
                        "s": time.perf_counter() - t0})
    run_s = time.monotonic() - t_first
    cpu_s = time.process_time() - c0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"t_first_op": t_first, "run_s": run_s, "cpu_s": cpu_s,
              "peak_rss_mib": rss_kib / 1024.0, "ops": records}
    if tracer:
        result["layers"] = tracer.summary()
        tracer.dump(spec["trace"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
