"""Output checks.  Each returns a list of failure messages (empty = pass).

Every check compares the CLI's files with an independent computation
(``oracle``) or with a property the paper proves; none compares with a
stored copy of earlier output.  The bounds below are stated once and used
by every workload.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import oracle

# oracle agreement of q at a sample, relative
Q_RTOL = 1e-8
# samples checked against the oracle have x q(x) at least this share of the
# maximum of their support component; closer to the edges the angle is
# tiny and the oracle's own solve loses digits
INTERIOR = 1e-2
# log-x trapezoid mass and mean; the trapezoid error at 128 samples per
# curve is about 1.2e-3 (mass) and 1.9e-3 (mean)
MASS_TOL = 3e-3
MEAN_RTOL = 5e-3
# |g(x) - g(1/x)| / max g with g = x q(x), on samples with g >= INTERIOR max g
SYM_TOL = 1e-6
# level-equation residual |t Theta_R(root) - 1| of every reported root
LEVEL_RTOL = 1e-8
# pick-check violation values against the oracle, relative
PICK_RTOL = 1e-6
# gap certificates: midpoint and blow-up value against the oracle, relative
CERT_RTOL = 1e-9


def read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["x"]) for r in rows]),
            np.array([float(r["q"]) for r in rows]))


def read_sweep(path: str) -> list[tuple[float, int, int, bool, list[float]]]:
    with open(path) as fh:
        return [(float(r["R"]), int(r["count"]), int(r["effective_count"]),
                 r["boundary"] == "1",
                 [float(v) for v in r["roots"].split(";") if v])
                for r in csv.DictReader(fh)]


def read_rows(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# density curves
# ---------------------------------------------------------------------------

def components(q: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of the maximal runs of q > 0."""
    pos = np.concatenate([[False], q > 0.0, [False]])
    edges = np.flatnonzero(pos[1:] != pos[:-1])
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def interior(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    g = x * q
    keep = np.zeros(x.size, dtype=bool)
    for a, b in components(q):
        keep[a:b] = g[a:b] >= INTERIOR * g[a:b].max()
    return np.flatnonzero(keep)


def pick_samples(rng: np.random.Generator, x, q, k: int) -> list[int]:
    idx = interior(x, q)
    return sorted(rng.choice(idx, size=min(k, idx.size), replace=False).tolist())


def oracle_agreement(label: str, x, q, idx, q_ref) -> list[str]:
    out = []
    for i in idx:
        ref = q_ref(float(x[i]))
        if not abs(q[i] - ref) <= Q_RTOL * abs(ref):
            out.append(f"{label}: q({x[i]:.17g}) = {q[i]:.17g}, oracle "
                       f"{ref:.17g} (rel {abs(q[i] - ref) / abs(ref):.2e} > {Q_RTOL})")
    return out


def _trapezoid_log_x(x, y) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(np.log(x))))


def mass_and_mean(label: str, x, q, t: float, start_mean: float) -> list[str]:
    """Mass 1 and, for a finite starting mean m, mean e^{t/2} m."""
    out = []
    g = x * q
    mass = _trapezoid_log_x(x, g)
    if not abs(mass - 1.0) <= MASS_TOL:
        out.append(f"{label}: log-x mass {mass:.8f} not within {MASS_TOL} of 1")
    if math.isfinite(start_mean):
        mean = _trapezoid_log_x(x, x * g)
        want = math.exp(0.5 * t) * start_mean
        if not abs(mean - want) <= MEAN_RTOL * want:
            out.append(f"{label}: mean {mean:.8g}, expected e^(t/2) * "
                       f"{start_mean:.8g} = {want:.8g}")
    return out


def symmetry(label: str, x, q) -> list[str]:
    """x q(x) = (1/x) q(1/x), by log-x interpolation of the curve at 1/x."""
    g = x * q
    u = np.log(x)
    sel = g >= INTERIOR * g.max()
    mirror = np.interp(-u[sel], u, g, left=0.0, right=0.0)
    defect = float(np.max(np.abs(g[sel] - mirror))) / float(g.max())
    if not defect <= SYM_TOL:
        return [f"{label}: symmetry defect {defect:.3e} > {SYM_TOL}"]
    return []


def unimodal_samples(label: str, x, q) -> list[str]:
    """x q(x) rises then falls over the samples (log-unimodality)."""
    g = x * q
    d = np.diff(g)
    sign = np.sign(d[np.abs(d) > 1e-12 * g.max()])
    changes = int(np.sum(sign[1:] != sign[:-1]))
    if changes > 1 or (changes == 1 and sign[0] < 0):
        return [f"{label}: x q(x) changes direction {changes} times"]
    return []


def density_report(label: str, entry: dict, x, q, verdict: str | None,
                   components_min: int = 1, components_exact: int | None = None):
    """Support bookkeeping and the mode-count verdict of one curve's entry
    in the density report."""
    out = []
    n_csv = len(components(q))
    n_rep = entry["support_components"]
    if not (n_rep == len(entry["support"]) == n_csv):
        out.append(f"{label}: support components: report {n_rep}, "
                   f"{len(entry['support'])} intervals, CSV {n_csv}")
    if n_csv < components_min or (components_exact is not None
                                  and n_csv != components_exact):
        out.append(f"{label}: {n_csv} support components")
    if verdict is not None and entry.get("logunimodal") != verdict:
        out.append(f"{label}: verdict {entry.get('logunimodal')!r}, "
                   f"expected {verdict!r}")
    return out


# ---------------------------------------------------------------------------
# level-equation sweeps
# ---------------------------------------------------------------------------

def sweep(label: str, rows, report: dict, spec: dict, t: float,
          unimodal: bool) -> list[str]:
    """Counts and roots of a sweep against the oracle and the paper:
    `unimodal` starts have every effective count at most 2, the others
    have a count above 2 at some angle."""
    out = []
    nu = oracle.from_spec(spec)
    for R, count, eff, _boundary, roots in rows:
        if count != len(roots) or eff < count:
            out.append(f"{label}: R={R}: count {count}, effective {eff}, "
                       f"{len(roots)} roots")
        if any(b <= a for a, b in zip(roots, roots[1:])):
            out.append(f"{label}: R={R}: roots not strictly increasing")
        for rt in roots:
            res = abs(t * oracle.level_value(nu, R, rt) - 1.0)
            if not res <= LEVEL_RTOL:
                out.append(f"{label}: R={R}: root {rt:.17g} has level "
                           f"residual {res:.2e} > {LEVEL_RTOL}")
    max_eff = max(r[2] for r in rows)
    entry = report["results"]["per_t"][0]
    if entry["max_count"] != max_eff or entry["log_unimodal"] != (max_eff <= 2):
        out.append(f"{label}: report max_count {entry['max_count']} / "
                   f"log_unimodal {entry['log_unimodal']} disagree with the CSV")
    if unimodal and max_eff > 2:
        out.append(f"{label}: effective count {max_eff} > 2 on a start the "
                   f"paper proves log-unimodal")
    if not unimodal and max_eff <= 2:
        out.append(f"{label}: every count is at most 2 on the cascade")
    return out


def time_threshold(lo: float, hi: float) -> float:
    """The paper's threshold for a start supported on [lo, hi]."""
    disc = 4.0 * lo ** 6 * hi ** 2 - (3.0 * lo ** 4 - hi ** 4) ** 2
    return 2.0 * math.pi * hi ** 2 * (lo + hi) ** 2 / math.sqrt(disc)


# ---------------------------------------------------------------------------
# half-plane (pick) checks and gap certificates
# ---------------------------------------------------------------------------

def pick(label: str, report: dict, violations: list[dict], spec: dict,
         mode: float, holds: bool, zs, upper: float) -> list[str]:
    """Verdict as the paper predicts; every violation value against the
    oracle; for a holding check, the inequality at the points `zs`."""
    out = []
    entry = report["results"]["per_mode"][0]
    if entry["holds"] is not holds:
        out.append(f"{label}: holds={entry['holds']}, expected {holds}")
    if entry["violations"] != len(violations) or bool(violations) == holds:
        out.append(f"{label}: {entry['violations']} violations reported, "
                   f"{len(violations)} listed")
    for row in violations:
        z = complex(float(row["re"]), float(row["im"]))
        ref = (z * (1.0 - mode * z) * oracle.psi_prime_value(spec, z, upper)).imag
        val = float(row["value"])
        if not (ref < 0.0 and abs(val - ref) <= PICK_RTOL * abs(ref)):
            out.append(f"{label}: violation at {z}: {val:.17g}, oracle {ref:.17g}")
    if holds:
        scale = entry["scale"]
        for z in zs:
            ref = (z * (1.0 - mode * z) * oracle.psi_prime_value(spec, z, upper)).imag
            if ref < -1e-10 * scale:
                out.append(f"{label}: oracle finds Im = {ref:.3e} < 0 at {z}")
    return out


def certificates(label: str, report: dict, times, n_atoms: int) -> list[str]:
    """Each time has a gap certificate that the oracle confirms, and the
    blow-up region has at least two components."""
    out = []
    w, a = oracle.cascade(n_atoms)
    nu = oracle.StartMeasure(w=w, a=a)
    locs = a[::-1]  # decreasing, a_k = k^-4
    per_t = report["results"]["per_t"]
    if [e["t"] for e in per_t] != list(times):
        out.append(f"{label}: times {[e['t'] for e in per_t]}, expected {times}")
    for e in per_t:
        if not e["certificate_found"] or e["support_components"] < 2:
            out.append(f"{label}: t={e['t']}: certificate "
                       f"{e['certificate_found']}, {e['support_components']} components")
            continue
        k = e["k"]
        mid = 0.5 * (1.0 / locs[k] + 1.0 / locs[k - 1])
        f = oracle.blowup(nu, mid)
        if not (abs(e["midpoint"] - mid) <= CERT_RTOL * mid
                and abs(e["f_value"] - f) <= CERT_RTOL * f and f < 1.0 / e["t"]):
            out.append(f"{label}: t={e['t']}: certificate k={k} at "
                       f"{e['midpoint']} f={e['f_value']}, oracle {mid} f={f}")
    return out
