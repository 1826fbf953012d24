"""Check each command's output against references independent of hyperbessel.

check(entry, rc, stderr, data) returns a Verdict: operations attempted, operations
failed, how many of the failures belong to a known defect class, and the
units of work the output holds (steps, points, atoms, checks).

An operation is a path (qbes-sim, bes-sim), a point (char-eval, bes-density,
hankel), a law (qbes-kernel) or a check (verify). A command that exits
non-zero fails all of its operations.

Known defect classes (failures counted, not hidden; see README.md):
  * j_nu on its large-argument branch (z >= 25) and log i_nu on its
    large-argument branch (y > 600) use expansions that need z >> nu^2;
  * a decimal time grid that contains the crossing s + t = 0 misses it by
    rounding, and the kernel then gives up with "support too large";
  * hankel of the Gaussian with 1 < alpha < 2: the weight x^(alpha-1) is
    not smooth at 0 and adaptive bisection gives up ("exhausted");
  * a law with thousands of atoms whose rounded atom probabilities sum to
    just below the truncation target: the kernel gives up with "support
    too large" although the mass it reports is 1.000000.
Any other failure makes the run incorrect.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy import special, stats

J_SWITCH = 25.0        # bessel_j_norm's series / asymptotic switch
LOG_I_SWITCH = 600.0   # log_bessel_i_norm's series / asymptotic switch
P_MIN = 1e-6           # a sampling test fails below this p-value
TRUNC_EPS = 1e-12      # the CLI's default --trunc-eps


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    known: int = 0       # failures inside a known defect class
    units: int = 0       # steps, points, atoms or checks written
    note: str = ""


def options(argv) -> dict:
    """'--x-grid 0:2:5' and '--w-grid=-1:1:5' both become {'x_grid': ...}."""
    out, key = {}, None
    for token in argv[1:]:
        if key is not None:
            out[key], key = token, None
        elif token.startswith("--"):
            name, eq, value = token[2:].partition("=")
            name = name.replace("-", "_")
            if eq:
                out[name] = value
            else:
                key = name
    return out


def grid(text: str) -> np.ndarray:
    """The CLI's grid syntax: comma list or start:stop:count."""
    if ":" in text:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.array([float(v) for v in text.split(",") if v])


def state(text: str):
    fields = dict(part.split("=") for part in text.split(","))
    if "y1" in fields:
        return None, None, float(fields["y1"])
    return float(fields["tau"]), int(fields["k"]), None


def j_norm(nu, z):
    """Gamma(nu+1) (z/2)^-nu J_nu(z) from scipy's jv, prefactor in log space."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    pos = z > 0.0
    zp = z[pos]
    jv = special.jv(nu, zp)
    with np.errstate(divide="ignore"):
        log_pref = special.gammaln(nu + 1.0) - nu * np.log(0.5 * zp)
        out[pos] = np.sign(jv) * np.exp(log_pref + np.log(np.abs(jv)))
    return out


def _close(value, ref, rel, abs_):
    return np.abs(np.asarray(value) - ref) <= rel * np.abs(ref) + abs_


def _table(data: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[1:]


def _points(bad, known_mask, units) -> Verdict:
    bad = np.asarray(bad, dtype=bool)
    return Verdict(attempted=len(bad), failed=int(bad.sum()),
                   known=int((bad & np.asarray(known_mask, dtype=bool)).sum()), units=units)


def check_char_eval(opts, rows) -> Verdict:
    alpha = float(opts["alpha"])
    if opts["family"] == "bk":
        u, x, v = (np.array([float(r[i]) for r in rows]) for i in range(3))
        z = u * x
        bad = ~_close(v, j_norm(alpha / 2.0 - 1.0, z), 1e-10, 1e-12)
        return _points(bad, z >= J_SWITCH, len(rows))
    x, w, re, im = (np.array([float(r[i]) for r in rows]) for i in range(4))
    tau, k, y1 = state(opts["state"])
    if y1 is not None:
        z = 2.0 * x * math.sqrt(y1)
        ref = j_norm(alpha, z).astype(complex)
        known = z >= J_SWITCH
    else:
        arg = abs(tau) * x * x
        pref = math.exp(special.gammaln(k + 1.0) + special.gammaln(alpha + 1.0)
                        - special.gammaln(k + alpha + 1.0))
        ref = pref * np.exp(1j * tau * w - 0.5 * arg) * special.eval_genlaguerre(k, alpha, arg)
        known = np.zeros(len(rows), dtype=bool)
    bad = ~_close(re + 1j * im, ref, 1e-10, 1e-12)
    return _points(bad, known, len(rows))


def check_bes_density(opts, rows) -> Verdict:
    delta, t, x = float(opts["delta"]), float(opts["t"]), float(opts["x"])
    y, dens = (np.array([float(r[i]) for r in rows]) for i in range(2))
    ref = np.empty_like(y)
    pos = y > 0.0
    # Y^2 / t is noncentral chi-square(delta, x^2 / t); logpdf keeps the far tails
    ref[pos] = np.exp(stats.ncx2.logpdf(y[pos] ** 2 / t, delta, x * x / t)
                      + np.log(2.0 * y[pos] / t))
    if delta > 1.0:
        ref[~pos] = 0.0
    elif delta == 1.0:
        ref[~pos] = 2.0 * math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    else:
        ref[~pos] = math.inf
    with np.errstate(invalid="ignore"):
        bad = ~(_close(dens, ref, 1e-8, 1e-300) | (dens == ref))
    return _points(bad, x * y / t > LOG_I_SWITCH, len(rows))


def check_hankel(opts, rows) -> Verdict:
    alpha = float(opts["alpha"])
    u, v = (np.array([float(r[i]) for r in rows]) for i in range(2))
    if opts["function"] == "gaussian":
        ref = 2.0 ** (alpha / 2.0 - 1.0) * special.gamma(alpha / 2.0) * np.exp(-0.5 * u * u)
    else:  # int_0^1 j_{alpha/2-1}(u x) x^(alpha-1) dx = j_{alpha/2}(u) / alpha
        ref = j_norm(alpha / 2.0, u) / alpha
    bad = ~_close(v, ref, 1e-9, 1e-9)
    return _points(bad, np.zeros(len(rows), dtype=bool), len(rows))


def law_reference(s, k, y1, t, delta):
    """(case, ray coordinate, first level, scipy distribution) of one QBES step."""
    if y1 is not None:
        return 4, t, 0, stats.poisson(y1 / t)
    u = s + t
    if s > 0.0:
        return 5, u, 0, stats.binom(k, s / u)
    if u == 0.0:
        return 2, 0.0, 0, stats.gamma(delta + k, scale=t)
    if u < 0.0:
        return 1, u, k, stats.nbinom(delta + k, u / s)
    return 3, u, 0, stats.nbinom(delta + k, u / t)


def check_qbes_kernel(opts, data: bytes) -> Verdict:
    s, k, y1 = state(opts["state"])
    t, delta = float(opts["t"]), float(opts["delta"])
    case, tau, base, dist = law_reference(s, k, y1, t, delta)
    law = json.loads(data)
    atoms = law["atoms"]
    ok = law["case"] == case
    if case == 2:
        ok = ok and not atoms and law["gamma"] == {"shape": delta + k, "scale": t}
    else:
        levels = np.array([a["k"] for a in atoms])
        probs = np.array([a["prob"] for a in atoms])
        ok = (ok and len(atoms) > 0
              and all(a["tau"] == tau for a in atoms)
              and np.array_equal(levels, base + np.arange(len(atoms)))
              and bool(np.all(_close(probs, dist.pmf(levels - base), 1e-8, 1e-300)))
              and 0.0 <= law["tail_mass"] <= TRUNC_EPS
              and abs(math.fsum(probs) + law["tail_mass"] - 1.0) <= 1e-12)
    return Verdict(attempted=1, failed=0 if ok else 1, units=len(atoms))


def _first_steps(rows, n_paths):
    """First row of every path, in path order, or None if the layout is wrong."""
    by_path = {}
    for r in rows:
        by_path.setdefault(int(r[0]), r)
    if sorted(by_path) != list(range(n_paths)):
        return None
    return [by_path[i] for i in range(n_paths)]


def _chisquare_p(levels, dist) -> float:
    """Pearson test of integer draws against a pmf; bins below 5 expected are pooled."""
    n = len(levels)
    if levels.min() < 0:
        return 0.0
    hi = int(max(levels.max(), dist.ppf(1.0 - 1e-12)))
    support = np.arange(0, hi + 1)
    expected = n * dist.pmf(support)
    observed = np.bincount(levels, minlength=hi + 1)[: hi + 1]
    keep = expected >= 5.0
    exp_bins = list(expected[keep]) + [n - expected[keep].sum()]
    obs_bins = list(observed[keep]) + [n - observed[keep].sum()]
    if exp_bins[-1] < 1e-9:
        exp_bins, obs_bins = exp_bins[:-1], obs_bins[:-1]
    if len(exp_bins) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in zip(obs_bins, exp_bins))
    return float(stats.chi2.sf(stat, len(exp_bins) - 1))


def check_qbes_sim(opts, rows) -> tuple[Verdict, str]:
    """First step of every path against the exact one-step law."""
    s, k, y1 = state(opts["start"])
    delta, paths = float(opts["delta"]), int(opts["paths"])
    times = grid(opts["t_grid"])
    verdict = Verdict(attempted=paths, units=len(rows))
    first = _first_steps(rows, paths)
    if first is None or len(rows) != paths * len(times):
        verdict.failed = paths
        return verdict, "wrong row layout"
    case, tau, base, dist = law_reference(s, k, y1, times[0], delta)
    if case == 2:
        if any(r[4] != "continuous" for r in first):
            verdict.failed = paths
            return verdict, "first step left the continuous ray"
        p = stats.kstest([float(r[3]) for r in first], dist.cdf).pvalue
    else:
        if any(r[4] != "discrete" or float(r[2]) != tau for r in first):
            verdict.failed = paths
            return verdict, "first step off its ray"
        p = _chisquare_p(np.array([int(r[5]) for r in first]) - base, dist)
    if p < P_MIN:
        verdict.failed = paths
    return verdict, f"case {case} first step p={p:.3g}"


def check_bes_sim(opts, rows) -> tuple[Verdict, str]:
    """First step of every path: Y^2 / t is noncentral chi-square(delta, x0^2 / t)."""
    delta, x0, paths = float(opts["delta"]), float(opts["x0"]), int(opts["paths"])
    times = grid(opts["t_grid"])
    verdict = Verdict(attempted=paths, units=len(rows))
    first = _first_steps(rows, paths)
    if first is None or len(rows) != paths * len(times):
        verdict.failed = paths
        return verdict, "wrong row layout"
    t = times[0]
    y_sq = np.array([float(r[2]) for r in first]) ** 2 / t
    p = stats.kstest(y_sq, stats.ncx2(delta, x0 * x0 / t).cdf).pvalue
    if p < P_MIN:
        verdict.failed = paths
    return verdict, f"first step p={p:.3g}"


def check_verify(data: bytes) -> Verdict:
    reports = json.loads(data)
    failed = sum(1 for r in reports if not r["pass"])
    return Verdict(attempted=len(reports), failed=failed, units=len(reports))


def _grid_holds_crossing(opts) -> bool:
    """True when the grid, read as exact decimals, contains -tau of the start."""
    tau, _, y1 = state(opts["start"])
    if y1 is not None or tau >= 0.0:
        return False
    text = opts["t_grid"]
    if ":" in text:
        start, stop, count = text.split(":")
        a, b, n = Decimal(start), Decimal(stop), int(count)
        values = {a + (b - a) * i / max(n - 1, 1) for i in range(n)}
    else:
        values = {Decimal(v) for v in text.split(",") if v}
    return Decimal(repr(-tau)) in values


def known_error(kind, opts, rc, stderr) -> bool:
    """A CLI error that belongs to a known defect class."""
    if rc != 1:
        return False
    if kind == "qbes-sim" and "support too large" in stderr:
        return _grid_holds_crossing(opts)
    if kind == "qbes-kernel" and "support too large" in stderr:
        return "(mass 1.000000 after" in stderr
    if kind == "hankel" and "adaptive quadrature exhausted" in stderr:
        return opts["function"] == "gaussian" and 1.0 < float(opts["alpha"]) < 2.0
    return False


def _attempted(entry) -> int:
    opts = options(entry["argv"])
    kind = entry["kind"]
    if kind in ("qbes-sim", "bes-sim"):
        return int(opts["paths"])
    if kind == "char-eval":
        if opts["family"] == "bk":
            return len(grid(opts["u_grid"])) * len(grid(opts["x_grid"]))
        return len(grid(opts["x_grid"])) * len(grid(opts["w_grid"]))
    if kind == "bes-density":
        return len(grid(opts["y_grid"]))
    if kind == "hankel":
        return len(grid(opts["u_grid"]))
    return 1


def check(entry, rc, stderr: str, data: bytes) -> Verdict:
    """Verdict for one command's output; rc and stderr come from the CLI call."""
    kind, opts = entry["kind"], options(entry["argv"])
    if kind == "verify":
        if rc not in (0, 2) or not data:
            return Verdict(attempted=1, failed=1, note=f"exit {rc}: {stderr.strip()}")
        return check_verify(data)
    if rc != 0:
        n = _attempted(entry)
        known = n if known_error(kind, opts, rc, stderr) else 0
        return Verdict(attempted=n, failed=n, known=known, note=f"exit {rc}: {stderr.strip()}")
    if kind == "qbes-kernel":
        return check_qbes_kernel(opts, data)
    rows = _table(data)
    if kind == "qbes-sim":
        verdict, note = check_qbes_sim(opts, rows)
    elif kind == "bes-sim":
        verdict, note = check_bes_sim(opts, rows)
    else:
        verdict = {"char-eval": check_char_eval, "bes-density": check_bes_density,
                   "hankel": check_hankel}[kind](opts, rows)
        note = ""
    verdict.note = note
    return verdict
