"""Span tracer for the traced benchmark pass.

The tracer wraps the public functions of freemult's modules from outside:
every attribute of every loaded ``freemult`` module that is the original
function object is replaced by the wrapper, so a name imported into several
modules (``adaptive_quad`` into ``measures`` and ``analytic``,
``poisson_kernel_integral`` into ``criteria``) is counted at every call
site.  Methods are wrapped on the classes that define them.  Nothing under
``src/`` is changed on disk.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out as JSON when the pass ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); a method is (module, "Class.method", name)
SPANS = [
    ("flow", "solve_angle", "flow.solve_angle"),
    ("flow", "poisson_kernel_integral", "flow.poisson_kernel_integral"),
    ("flow", "radial_map", "flow.radial_map"),
    ("flow", "radial_map_inverse", "flow.radial_map_inverse"),
    ("flow", "capped_blowup", "flow.capped_blowup"),
    ("flow", "blowup_region", "flow.blowup_region"),
    ("flow", "density_curve", "flow.density_curve"),
    ("criteria", "count_level_solutions", "criteria.count_level_solutions"),
    ("criteria", "level_function", "criteria.level_function"),
    ("criteria", "gap_certificate", "criteria.gap_certificate"),
    ("analytic", "psi_prime", "analytic.psi_prime"),
    ("unimodality", "is_log_unimodal", "unimodality.is_log_unimodal"),
    ("unimodality", "pick_inequality_check", "unimodality.pick_inequality_check"),
    ("config_io", "write_curve_csv", "config_io.write_curve_csv"),
    ("measures", "Atomic.effective_support", "measures.effective_support"),
    ("measures", "GridDensity.effective_support", "measures.effective_support"),
    ("measures", "Named.effective_support", "measures.effective_support"),
    ("measures", "Measure.atoms", "measures.atoms"),
    ("measures", "Atomic.atoms", "measures.atoms"),
    ("measures", "Named.atoms", "measures.atoms"),
    ("measures", "GridDensity.integrate", "measures.integrate"),
    ("measures", "Named.integrate", "measures.integrate"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s, plus the counters."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        result = {k: dict(v) for k, v in out.items()}
        result["counters"] = dict(self.counts)
        return result

    def dump(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        spans = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                 for n, s, e, p in zip(self.names, self.starts, self.ends,
                                       self.parents)]
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)


def _replace_everywhere(orig, wrapped) -> None:
    for name, mod in list(sys.modules.items()):
        if name != "freemult" and not name.startswith("freemult."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap freemult's public layers and scipy's brentq; call after
    ``import freemult.cli`` so every module is loaded."""
    from scipy import optimize

    from freemult import _quad, config_io
    from freemult.errors import NonIntegrable

    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("freemult.")}
    for modname, qual, span in SPANS:
        mod = mods[modname]
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
        else:
            orig = getattr(mod, qual)
            _replace_everywhere(orig, tracer.wrap(span, orig))

    counts = tracer.counts

    def density_points(fn):
        def counted(self, x):
            counts["measures.density.points"] += int(np.size(x))
            return fn(self, x)
        return counted

    measures = mods["measures"]
    for cls in (measures.Named, measures.GridDensity):
        setattr(cls, "density",
                tracer.wrap("measures.density", density_points(cls.__dict__["density"])))

    orig_quad = _quad.adaptive_quad

    def adaptive_quad(f, edges, *args, **kwargs):
        def integrand(u):
            counts["quad.adaptive_quad.passes"] += 1
            counts["quad.adaptive_quad.nodes"] += int(np.size(u))
            return f(u)
        try:
            return orig_quad(integrand, edges, *args, **kwargs)
        except NonIntegrable:
            counts["quad.adaptive_quad.raised"] += 1
            raise

    _replace_everywhere(orig_quad, tracer.wrap("quad.adaptive_quad", adaptive_quad))

    orig_brentq = optimize.brentq

    def brentq(f, *args, **kwargs):
        def g(x, *fargs):
            counts["roots.brentq.evals"] += 1
            return f(x, *fargs)
        return orig_brentq(g, *args, **kwargs)

    optimize.brentq = tracer.wrap("roots.brentq", brentq)

    orig_write = config_io._atomic_write

    def atomic_write(path, text):
        counts["config_io.bytes_written"] += len(text.encode())
        return orig_write(path, text)

    _replace_everywhere(orig_write, atomic_write)
