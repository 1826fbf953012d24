"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime budgets are fixed here, not configurable.
"""
import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from hyperbessel import cli
from hyperbessel import kernels as kn
from hyperbessel import sampling as sp
from hyperbessel import verify as vf
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint, HeisPoint
from hyperbessel.quadrature import QuadratureSpec, integrate_rows
from hyperbessel.specfun import laguerre_L_all

# the spec each check called on its own used to default to
Q12 = QuadratureSpec(abs_tol=1e-12)


def report(number: int, description: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {description} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_kernel_normalization_sweep():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_mass = 0.0
    worst_tail = 0.0
    for i in range(200):
        start, t, delta = vf._random_scenario(rng, i % 5 + 1)
        law = kn.qbes_transition(start, t, delta, 1e-12)
        worst_mass = max(worst_mass, abs(law.total_mass() - 1.0))
        worst_tail = max(worst_tail, law.tail_mass)
    elapsed = time.time() - t0
    ok = worst_mass <= 1e-12 and worst_tail <= 1e-12 and elapsed < 5.0
    report(1, "kernel normalization sweep over all five cases", ok,
           f"mass_dev={worst_mass:.2e} tail={worst_tail:.2e} runtime={elapsed:.1f}s")


def test_criterion_2_chapman_kolmogorov_matrix():
    t0 = time.time()
    quad = QuadratureSpec(abs_tol=1e-12)
    errs = {}
    errs["within-case-1"] = kn.chapman_kolmogorov_qbes(DiscretePoint(-2.0, 0), 0.5, 0.5, 1.7)
    errs["case-1-to-3"] = kn.chapman_kolmogorov_qbes(DiscretePoint(-1.0, 1), 0.4, 1.0, 2.3)
    errs["binomial-case-5"] = kn.chapman_kolmogorov_qbes(DiscretePoint(1.0, 3), 0.4, 0.6, 0.9)

    # case-1 -> case-2 -> case-4 composite against the direct case-3 law
    start = DiscretePoint(-1.5, 1)
    t_a, t_b, t_c = 0.5, 1.0, 0.7
    law_a = kn.qbes_transition(start, t_a, 2.1, 1e-12)
    assert law_a.case == 1
    direct = kn.qbes_transition(start, t_a + t_b + t_c, 2.1, 1e-12)
    assert direct.case == 3
    levels = [atom.k for atom, _ in direct.atoms]
    composed = np.zeros(len(levels))
    for atom, p_mid in law_a.atoms:
        law_b = kn.qbes_transition(atom, t_b, 2.1, 1e-12)
        assert law_b.case == 2
        composed += p_mid * kn._poisson_mixture_pmf(law_b.gamma_ray, t_c, levels, quad)
    direct_pmf = np.array([p for _, p in direct.atoms])
    errs["composite-1-2-4-vs-3"] = float(np.max(np.abs(composed - direct_pmf)))

    elapsed = time.time() - t0
    ok = (errs["within-case-1"] <= 1e-8 and errs["case-1-to-3"] <= 1e-8
          and errs["composite-1-2-4-vs-3"] <= 1e-8
          and errs["binomial-case-5"] <= 1e-12 and elapsed < 30.0)
    detail = " ".join(f"{k}={v:.2e}" for k, v in errs.items())
    report(2, "Chapman-Kolmogorov scenario matrix", ok, f"{detail} runtime={elapsed:.1f}s")


def test_criterion_3_qbes_spectral_identity():
    t0 = time.time()
    worst = 0.0
    starts = [
        (DiscretePoint(-1.0, 2), 0.4),   # case 1
        (DiscretePoint(-1.0, 2), 1.0),   # case 2
        (DiscretePoint(-1.0, 2), 1.6),   # case 3
        (ContinuousPoint(0.7), 0.9),     # case 4
        (DiscretePoint(1.0, 3), 0.7),    # case 5
    ]
    for delta in (1.0, 1.5, 2.0, 3.7):
        for a in (HeisPoint(0.8, 0.3), HeisPoint(2.0, -1.1)):
            for start, t in starts:
                r = vf._glowne3_rows([(start, t, delta)], [a], Q12)[0]
                worst = max(worst, r.max_abs_err)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 20.0
    report(3, "QBES spectral identity across all five kernel cases", ok,
           f"worst={worst:.2e} runtime={elapsed:.1f}s")


def test_criterion_4_bes_spectral_and_integral_identity():
    t0 = time.time()
    worst_spec = 0.0
    for delta in (1.0, 2.0, 2.5, 4.0):
        for (u, x, t) in ((1.0, 1.3, 0.7), (0.0, 0.9, 1.2), (2.0, 0.5, 0.4)):
            worst_spec = max(worst_spec,
                             vf._bk_spectral_rows([(u, x, t, delta)], Q12)[0].max_abs_err)
    worst_ws = 0.0
    grid = [(nu, al, be, ga)
            for nu in (-0.5, 0.5, 1.5)
            for (al, be, ga) in ((0.5, 0.0, 1.0), (1.0, 1.0, 1.0),
                                 (0.7, 0.5, 1.5), (2.0, 1.2, 0.3))]
    assert len(grid) == 12
    for nu, al, be, ga in grid:
        worst_ws = max(worst_ws, vf._weber_rows([(nu, al, be, ga)], Q12)[0].max_abs_err)
    elapsed = time.time() - t0
    ok = worst_spec <= 1e-8 and worst_ws <= 1e-9 and elapsed < 10.0
    report(4, "BES spectral identity and its integral identity", ok,
           f"spectral={worst_spec:.2e} integral={worst_ws:.2e} runtime={elapsed:.1f}s")


def test_criterion_5_bes_density_sanity():
    t0 = time.time()
    # dimension-1 closed form
    d1 = kn.BesDensity(1.0, 0.7, 1.3)
    worst_cf = 0.0
    for y in np.linspace(0.0, 5.0, 41):
        want = ((math.exp(-(1.3 - y) ** 2 / 1.4) + math.exp(-(1.3 + y) ** 2 / 1.4))
                / math.sqrt(2.0 * math.pi * 0.7))
        worst_cf = max(worst_cf, abs(kn.bes_density(d1, y) - want))
    # normalization over 10 tuples (y = w^2 handles delta < 1 endpoints)
    spec = QuadratureSpec(abs_tol=1e-11)
    tuples = [(2.5, 0.7, 1.3), (1.0, 1.0, 0.5), (4.0, 0.3, 2.0), (0.7, 1.1, 0.4),
              (1.5, 0.5, 0.0), (2.0, 2.0, 3.0), (3.2, 0.2, 1.0), (1.2, 1.5, 2.5),
              (5.0, 0.4, 0.8), (2.8, 1.0, 0.1)]
    worst_mass = 0.0
    for delta, t, x in tuples:
        d = kn.BesDensity(delta, t, x)
        hi = math.sqrt(x + 12.0 * math.sqrt(t) + 6.0)
        [mass] = integrate_rows(lambda ws, rows: 2.0 * ws * kn.bes_density(d, ws * ws),
                                [(0.0, hi)], spec)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    # exact-sampler second moment at N = 1e5
    x0, t, delta = 1.3, 0.7, 2.5
    [draws] = sp.sample_bes_lanes(x0, [t], delta, sp.RngState.for_path(5005, range(100000)))
    draws = draws ** 2
    want = x0 * x0 + delta * t
    sigma = draws.std() / math.sqrt(draws.size)
    moment_dev = abs(draws.mean() - want)
    elapsed = time.time() - t0
    ok = (worst_cf <= 1e-12 and worst_mass <= 1e-9
          and moment_dev <= 3.0 * sigma and elapsed < 20.0)
    report(5, "BES density closed form, normalization, sampler moment", ok,
           f"closed_form={worst_cf:.2e} mass_dev={worst_mass:.2e} "
           f"moment={moment_dev / sigma:.2f}sigma runtime={elapsed:.1f}s")


def test_criterion_6_product_formulas():
    t0 = time.time()
    worst_geg = max(r.max_abs_err for r in vf._gegenbauer_rows(
        [(nu, x, y) for nu in (-0.5, 0.75, 2.0) for (x, y) in ((1.3, 0.7), (3.0, 0.1), (0.4, 2.2))],
        QuadratureSpec()))
    worst_wat = max(vf.watson_check(nu, x, y, k).max_abs_err
                    for nu in (0.5, 1.4) for k in (0, 2, 5)
                    for (x, y) in ((1.0, 1.0), (0.0, 1.3), (1.7, 0.6)))
    rng = np.random.default_rng(606)
    worst_bk = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(1.0, 4.5))
        u, x, xp = (float(v) for v in rng.uniform(0.1, 2.5, size=3))
        worst_bk = max(worst_bk, vf._bk_multiplicativity_rows([(u, x, xp, alpha)],
                                                              QuadratureSpec())[0].max_abs_err)
    worst_lag = 0.0
    for i in range(50):
        alpha = float(rng.uniform(0.0, 3.0))
        a = HeisPoint(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        b = HeisPoint(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        if i % 3 == 2:
            c = ContinuousPoint(float(rng.uniform(0.0, 3.0)))
        else:
            c = DiscretePoint(float(rng.uniform(0.2, 2.0)) * (-1.0 if i % 2 else 1.0),
                              int(rng.integers(0, 6)))
        worst_lag = max(worst_lag, vf.lag_multiplicativity_check(c, a, b, alpha).max_abs_err)
    elapsed = time.time() - t0
    ok = (worst_geg <= 1e-8 and worst_wat <= 1e-8
          and worst_bk <= 1e-6 and worst_lag <= 1e-6 and elapsed < 60.0)
    report(6, "Gegenbauer/Watson formulas and character multiplicativity", ok,
           f"gegenbauer={worst_geg:.2e} watson={worst_wat:.2e} bk={worst_bk:.2e} "
           f"laguerre={worst_lag:.2e} runtime={elapsed:.1f}s")


def test_criterion_7_laguerre_identity_suite():
    t0 = time.time()
    worst = {}
    for alpha in (-0.3, 0.0, 0.5, 2.1):
        for r in vf._laguerre_rows([alpha], 10, Q12, None):
            key = r.check_name.rsplit("_", 1)[-1]
            worst[key] = max(worst.get(key, 0.0), r.max_abs_err / r.tol)
    # the dilation identity collapses exactly at c = 1
    trivial = max(vf._identity_v(alpha, 6, 1.0, lag, lag)  # L_n(c v) = L_n(v) at c = 1
                  for alpha in (-0.3, 0.0, 0.5, 2.1) for lag in [laguerre_L_all(6, alpha, 2.1)])
    elapsed = time.time() - t0
    ok = all(v <= 1.0 for v in worst.values()) and trivial <= 1e-13 and elapsed < 10.0
    detail = " ".join(f"{k}={v:.1e}x" for k, v in sorted(worst.items()))
    report(7, "Laguerre identities (i)-(v) at per-identity tolerances", ok,
           f"err/tol: {detail} c1_exact={trivial:.1e} runtime={elapsed:.1f}s")


def test_criterion_8_positive_definiteness():
    t0 = time.time()
    worst = 0.0
    details = []
    for n_pts, pts in ((8, np.linspace(0.3, 2.7, 8)), (12, np.linspace(0.2, 3.0, 12))):
        for t in (0.1, 1.0, 5.0):
            for delta in (1.0, 2.5):
                r = vf.psd_gram_check(pts, t, delta)
                worst = max(worst, r.max_abs_err)
                details.append(r.notes)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(8, "Gram matrices of exp(t psi) are positive semidefinite", ok,
           f"worst_neg_eig={worst:.2e} runtime={elapsed:.1f}s")


def test_criterion_9_monte_carlo_law_agreement():
    t0 = time.time()
    steps = {
        1: (DiscretePoint(-2.0, 1), 1.0, 1.7),
        3: (DiscretePoint(-0.5, 1), 2.0, 2.2),
        4: (ContinuousPoint(3.0), 0.8, 1.0),
        5: (DiscretePoint(1.2, 4), 0.8, 3.0),
    }
    n = 100000
    stats_out = []
    ok = True
    for case, (start, t, delta) in steps.items():
        law = kn.qbes_transition(start, t, delta)
        [(_, levels)] = sp.sample_qbes_lanes(start, [t], delta,
                                             sp.RngState.for_path(9000 + case, range(n)))
        counts = Counter(levels.tolist())
        ranked = sorted(law.atoms, key=lambda ap: -ap[1])[:20]
        chi2 = 0.0
        covered = 0.0
        for atom, prob in ranked:
            exp = n * prob
            chi2 += (counts.get(atom.k, 0) - exp) ** 2 / exp
            covered += prob
        cells = len(ranked)
        if 1.0 - covered > 1e-12:
            exp = n * (1.0 - covered)
            obs = n - sum(counts.get(a.k, 0) for a, _ in ranked)
            chi2 += (obs - exp) ** 2 / exp
            cells += 1
        crit = stats.chi2.ppf(0.999, cells - 1)
        ok = ok and chi2 < crit
        stats_out.append(f"case{case}={chi2:.1f}<{crit:.1f}")
        # gamma-ray law: Kolmogorov distance of the empirical CDF, same seed policy
    law2 = kn.qbes_transition(DiscretePoint(-1.0, 1), 1.0, 1.7)
    [(_, ys)] = sp.sample_qbes_lanes(DiscretePoint(-1.0, 1), [1.0], 1.7,
                                     sp.RngState.for_path(9002, range(n)))
    ys = np.sort(ys)
    gamma_cdf = stats.gamma.cdf(ys, a=law2.gamma_ray.shape, scale=law2.gamma_ray.scale)
    ks = float(np.max(np.abs(gamma_cdf - np.arange(1, n + 1) / n)))
    ks_crit = 1.95 / math.sqrt(n)  # 0.999 Kolmogorov quantile
    ok = ok and ks < ks_crit
    stats_out.append(f"case2_ks={ks:.4f}<{ks_crit:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(9, "empirical law frequencies match exact pmfs (chi-square 0.999)", ok,
           f"{' '.join(stats_out)} runtime={elapsed:.1f}s")


def test_criterion_10_simulation_reproducibility(tmp_path, capsys):
    t0 = time.time()
    outputs = {}
    for paths in (32, 64):
        out = tmp_path / f"sim_{paths}.csv"
        code = cli.main(["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=1",
                         "--t-grid", "0.25,0.75,1.0,1.5", "--paths", str(paths),
                         "--seed", "20240807", "--out", str(out)])
        assert code == 0
        outputs[paths] = out.read_bytes()
    capsys.readouterr()
    elapsed = time.time() - t0
    # header plus 4 rows for each of paths 0-31
    head = b"".join(outputs[64].splitlines(keepends=True)[:1 + 32 * 4])
    identical = head == outputs[32]
    ok = identical and len(outputs[32]) > 0 and elapsed < 10.0
    report(10, "qbes-sim rows of paths 0-31 byte-identical at --paths 32 and 64", ok,
           f"bytes={len(outputs[32])} identical={identical} runtime={elapsed:.1f}s")
