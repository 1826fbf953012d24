"""Tests for the identity verification suite."""
import json
import math
import os
import signal
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hyperbessel import cli
from hyperbessel import kernels as kn
from hyperbessel import specfun as sf
from hyperbessel import verify as vf
from hyperbessel.hypergroup import (BesselKingmanParams, ContinuousPoint, DiscretePoint,
                                    HeisPoint, LaguerreParams, _first_kind_char,
                                    _second_kind_char, bk_character, bk_translate,
                                    lag_character, lag_translate, psi_heis)
from hyperbessel.quadrature import (QuadratureError, QuadratureSpec, gauss_jacobi,
                                    integrate_rows)
from hyperbessel.specfun import (bessel_j_norm, laguerre_L, laguerre_L_all, log_bessel_i_norm,
                                 log_gamma)


# the spec each check called on its own used to default to
Q12 = QuadratureSpec(abs_tol=1e-12)


def pochhammer(a, k):
    """specfun.pochhammer, the direct product (a)_k, verbatim."""
    if k != int(k) or k < 0:
        raise ValueError("pochhammer requires a nonnegative integer k")
    arr = sf._as_array(a, "a")
    out = np.ones_like(arr)
    for i in range(int(k)):
        out = out * (arr + i)
    return sf._shaped_like(out, a)


class TestWeberSchafheitlin:
    def test_quadrature_grid(self):
        assert vf._weber_rows([(0.5, 0.5, 0.0, 1.0)], Q12)[0].max_abs_err <= 1e-9
        assert vf._weber_rows([(-0.5, 1.0, 1.0, 1.0)], Q12)[0].max_abs_err <= 1e-9

    def test_degenerate_moments(self):
        # beta = gamma = 0 reduces to a Gaussian moment equal to (2 alpha)^-(nu+1)
        r = vf._weber_rows([(0.7, 1.0, 0.0, 0.0)], Q12)[0]
        assert r.max_abs_err <= 1e-12


def _parent_weber_lhs(nu, alpha, beta, gamma_, q):
    """The integral of the per-check Weber check that the batched
    rows replaced, verbatim except that ln i_nu comes from log_bessel_i_norm
    instead of the log of its exponential."""
    log_pref = -nu * math.log(2.0) - log_gamma(nu + 1.0)

    def integrand(vs):
        with np.errstate(divide="ignore"):
            log_env = -alpha * vs * vs + (2.0 * nu + 1.0) * np.log(vs) + log_pref
        i_part = np.exp(log_env + (log_bessel_i_norm(nu, beta * vs)
                                   if beta > 0.0 else 0.0))
        return i_part * bessel_j_norm(nu, gamma_ * vs)

    # cutoff: grow until the exponential envelope is 1e-16 of its peak
    peak_v = max((beta + math.sqrt(beta * beta + 4.0 * alpha * (2.0 * nu + 1.0 + 1.0)))
                 / (2.0 * alpha), 1.0)
    cut = peak_v + math.sqrt(50.0 / alpha) + beta / alpha
    while (-alpha * cut * cut + beta * cut + abs(2.0 * nu + 1.0) * math.log(1.0 + cut)
           ) > (-alpha * peak_v * peak_v + beta * peak_v - 37.0 * math.log(10.0)):
        cut *= 1.25

    return integrate_rows(lambda vs, rows: integrand(vs), [(0.0, cut)], q)[0]


WEBER_ROWS = ((0.5, 0.0, 1.0), (1.0, 1.0, 1.0), (0.7, 0.5, 1.5), (2.0, 1.2, 0.3),
              (1.0, 0.0, 0.0), (0.3, 2.0, 0.0))


@pytest.mark.parametrize("nu", [-0.5, 0.5, 1.5, 0.7])
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_weber_rows_match_per_check_loop(nu, q):
    batched = vf._weber_rows([(nu, *row) for row in WEBER_ROWS], q, 1e-9)
    for report, (al, be, ga) in zip(batched, WEBER_ROWS):
        assert report == vf._weber_rows([(nu, al, be, ga)], q)[0]
        rhs = ((2.0 * al) ** -(nu + 1.0) * math.exp((be * be - ga * ga) / (4.0 * al))
               * bessel_j_norm(nu, be * ga / (2.0 * al)))
        assert report.max_abs_err == float(abs(_parent_weber_lhs(nu, al, be, ga, q) - rhs))


def test_weber_suite_takes_ln_i_as_computed():
    # with exp(ln i) rounded and its log taken again, this report read 0x1.4p-55
    report, = [r for r in vf.run_suite("weber-schafheitlin")
               if dict(r.params) == {"nu": 1.5, "alpha": 2.0, "beta": 1.2, "gamma": 0.3}]
    assert report.max_abs_err.hex() == "0x1.0000000000000p-55"


def _glowne3(start, a, t, delta, q=Q12):
    """The generator identity's family called with one law at one point."""
    return vf._glowne3_rows([(start, t, delta)], [a], q)[0]


class TestGlowne3:
    def test_case5_k0_algebraic(self):
        r = _glowne3(DiscretePoint(1.0, 0), HeisPoint(0.8, 0.3), 0.5, 1.5)
        assert r.max_abs_err <= 1e-12

    def test_all_cases(self):
        a = HeisPoint(0.8, 0.3)
        for start, t in [
            (DiscretePoint(-1.0, 2), 0.4),
            (DiscretePoint(-1.0, 2), 1.0),
            (DiscretePoint(-1.0, 2), 1.6),
            (ContinuousPoint(0.7), 0.9),
            (DiscretePoint(1.0, 3), 0.7),
        ]:
            for delta in (1.0, 1.5, 3.7):
                r = _glowne3(start, a, t, delta)
                assert r.passed, (start, t, delta, r.max_abs_err)

    def test_poisson_series_case(self):
        r = _glowne3(ContinuousPoint(0.7), HeisPoint(1.1, -0.4), 0.9, 2.0)
        assert r.max_abs_err <= 1e-10

    def test_informative_below_one(self):
        # the kernel extends to delta in (0, 1); the identity still holds there
        r = _glowne3(DiscretePoint(-1.0, 1), HeisPoint(0.8, 0.3), 0.4, 0.6)
        assert r.passed


class TestBkSpectral:
    def test_trivial_x_zero(self):
        r = vf._bk_spectral_rows([(1.0, 0.0, 0.7, 2.0)], Q12)[0]
        assert r.max_abs_err <= 1e-10

    def test_reference_point(self):
        r = vf._bk_spectral_rows([(1.0, 1.3, 0.7, 2.5)], Q12)[0]
        assert r.max_abs_err <= 1e-8

    def test_gaussian_dimension_one(self):
        r = vf._bk_spectral_rows([(0.7, 1.1, 0.9, 1.0)], Q12)[0]
        assert r.max_abs_err <= 1e-10


GLOWNE3_LAWS = ((DiscretePoint(-1.0, 2), 0.4), (DiscretePoint(-1.0, 2), 1.0),
                 (DiscretePoint(-1.0, 2), 1.6), (ContinuousPoint(0.7), 0.9),
                 (DiscretePoint(1.0, 3), 0.7))
GLOWNE3_POINTS = (HeisPoint(0.8, 0.3), HeisPoint(2.0, -1.1))


def _inline_atom_chars(law, al, levels, x, w_inv):
    """The atom characters as glowne3 once wrote them inline, verbatim."""
    arg = abs(law.tau) * x * x
    lag_vals = laguerre_L_all(law.levels[-1], al, arg)[levels]
    log_pref = log_gamma(levels + 1.0) + log_gamma(al + 1.0) - log_gamma(levels + al + 1.0)
    return np.exp(log_pref) * np.exp(1j * law.tau * w_inv - 0.5 * arg) * lag_vals


def _parent_glowne3(start, a, t, delta, q, atom_chars=None):
    """The error of the per-check generator identity that the per-delta family
    replaced, verbatim, except that the atom characters come from
    _first_kind_char unless atom_chars gives another form."""
    al = delta - 1.0
    x, w_inv = a.x, -a.w

    if isinstance(start, DiscretePoint):
        chi_start = _first_kind_char(al, start.tau, start.k, x, w_inv)
    else:
        chi_start = _second_kind_char(al, start.y1, x)
    lhs = np.exp(t * psi_heis(a)) * chi_start

    law = kn.qbes_transition(start, t, delta, 1e-12)
    rhs = 0.0 + 0.0j
    if law.levels:
        levels = np.arange(law.levels.start, law.levels.stop)
        probs = np.array(law.probs)
        if atom_chars is None:
            chis = _first_kind_char(al, law.tau, levels, x, w_inv)
        else:
            chis = atom_chars(law, al, levels, x, w_inv)
        rhs += np.sum(probs * chis)
    if law.gamma_ray is not None:
        g = law.gamma_ray
        cut = g.scale * (g.shape + 45.0 + 12.0 * math.sqrt(g.shape + 1.0))

        def integrand(ys):
            return g.pdf(ys) * _second_kind_char(al, 1.0, x * np.sqrt(ys))

        rhs += integrate_rows(lambda ys, rows: integrand(ys), [(0.0, cut)], q)[0]
    return abs(lhs - rhs)


@pytest.mark.parametrize("delta", [1.0, 1.5, 2.0, 3.7, 0.6])
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_glowne3_rows_match_per_check_code(delta, q):
    # all five kernel cases at both suite points, each law built once
    reports = vf._glowne3_rows([(start, t, delta) for start, t in GLOWNE3_LAWS], GLOWNE3_POINTS, q)
    pairs = [(start, t, a) for start, t in GLOWNE3_LAWS for a in GLOWNE3_POINTS]
    assert len(reports) == len(pairs)
    for report, (start, t, a) in zip(reports, pairs):
        assert report.max_abs_err == float(_parent_glowne3(start, a, t, delta, q))
        assert report == _glowne3(start, a, t, delta, q)


def test_glowne3_rows_with_two_gamma_rays():
    # two case-2 laws of one delta share one integrate_rows call
    laws = ((DiscretePoint(-1.0, 2), 1.0), (DiscretePoint(-2.0, 0), 2.0))
    q = QuadratureSpec()
    reports = vf._glowne3_rows([(start, t, 1.5) for start, t in laws], GLOWNE3_POINTS, q)
    pairs = [(start, t, a) for start, t in laws for a in GLOWNE3_POINTS]
    assert [r.max_abs_err for r in reports] == [
        float(_parent_glowne3(start, a, t, 1.5, q)) for start, t, a in pairs]


# (delta, start, t, x) of the reports whose bits moved when the atom characters
# came to be read from _first_kind_char: at x = 0.8 the argument is now
# |tau| (x^2) where glowne3 wrote (|tau| x) x, and at x = 2.0 (x^2 exact) the
# prefactor is math.exp per degree where glowne3 took np.exp of the array
GLOWNE3_MOVED = {
    (1.0, "tau=-1,k=2", 0.4, 0.8), (1.0, "y1=0.7", 0.9, 0.8),
    (1.5, "tau=-1,k=2", 0.4, 0.8), (1.5, "y1=0.7", 0.9, 0.8),
    (2.0, "tau=-1,k=2", 0.4, 0.8), (2.0, "tau=-1,k=2", 0.4, 2.0), (2.0, "tau=-1,k=2", 1.6, 2.0),
    (0.6, "tau=-1,k=2", 0.4, 0.8), (0.6, "tau=-1,k=2", 1.6, 2.0), (0.6, "y1=0.7", 0.9, 0.8),
}


@pytest.mark.dispatch_pinned
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_glowne3_inline_atom_characters_differ_only_where_declared(q):
    moved = set()
    for delta in (1.0, 1.5, 2.0, 3.7, 0.6):
        reports = vf._glowne3_rows([(start, t, delta) for start, t in GLOWNE3_LAWS],
                                   GLOWNE3_POINTS, q)
        pairs = [(start, t, a) for start, t in GLOWNE3_LAWS for a in GLOWNE3_POINTS]
        for report, (start, t, a) in zip(reports, pairs):
            old = float(_parent_glowne3(start, a, t, delta, q, _inline_atom_chars))
            if report.max_abs_err != old:
                moved.add((delta, vf._fan_label(start), t, a.x))
                # a few units in the last place of sums of characters of size <= 1
                assert abs(report.max_abs_err - old) <= 4 * np.finfo(float).eps
    assert moved == GLOWNE3_MOVED


def test_glowne3_overflowing_atom_character_raises():
    # the case-5 law's atom L_k(1875) overflows from degree 247 while exp(-937.5)
    # underflows; the report was nan, with three numpy warnings before the error.
    # The message named lag_character, the reflected w=-0.3 and tau=3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^glowne3: L_k overflows at x=25\.0, "
                                                r"w=0\.3 \(tau=3\.0, k=247\); degree too large$"):
            _glowne3(DiscretePoint(2, 300), HeisPoint(25, 0.3), 1, 2)


def test_glowne3_overflowing_start_character_raises():
    # the start's own character overflows first, named the same way
    with pytest.raises(OverflowError, match=r"^glowne3: L_k overflows at x=60\.0, "
                                            r"w=-0\.5 \(tau=1\.0, k=2000\); degree too large$"):
        _glowne3(DiscretePoint(1, 2000), HeisPoint(60, -0.5), 1, 2)


BK_SPECTRAL_ROWS = ((1.0, 1.3, 0.7), (0.0, 0.9, 1.2), (2.0, 0.5, 0.4))


def _parent_bk_spectral(u, x, t, delta, q):
    """The error of the per-check BES spectral identity that the per-delta family
    replaced, verbatim."""
    p = BesselKingmanParams(delta)
    lhs = math.exp(-0.5 * t * x * x) * bk_character(u, x, p)
    density = kn.BesDensity(delta, t, u)
    cut = u + 12.0 * math.sqrt(t) + 1.0

    def integrand(vs):
        return bk_character(vs, x, p) * kn.bes_density(density, vs)

    [rhs] = integrate_rows(lambda xs, rows: integrand(xs), [(0.0, cut)], q)
    return abs(lhs - rhs)


@pytest.mark.parametrize("delta", [1.0, 2.0, 2.5, 4.0])
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_bk_spectral_rows_match_per_check_code(delta, q):
    reports = vf._bk_spectral_rows([(*row, delta) for row in BK_SPECTRAL_ROWS], q)
    for report, (u, x, t) in zip(reports, BK_SPECTRAL_ROWS):
        assert report.max_abs_err == float(_parent_bk_spectral(u, x, t, delta, q))
        assert report == vf._bk_spectral_rows([(u, x, t, delta)], q)[0]


class TestLaguerreIdentities:
    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5, 2.1])
    def test_suite_passes(self, alpha):
        for r in vf._laguerre_rows([alpha], 10, Q12, None):
            assert r.passed, (alpha, r.check_name, r.max_abs_err)

    def test_dilation_trivial_at_c_one(self):
        lag = laguerre_L_all(6, 0.7, 2.1)
        assert vf._identity_v(0.7, 6, 1.0, lag, lag) <= 1e-13

    def test_order_guard(self):
        with pytest.raises(ValueError):
            vf._laguerre_rows([-1.0], 10, Q12, None)

    @pytest.mark.parametrize("k_max", [-1, -5, 2.5, math.nan, math.inf])
    def test_count_guard(self, k_max):
        # k_max = -1 escaped the short-table fallback as a bare IndexError
        with pytest.raises(ValueError, match="integer k_max >= 0"):
            vf._laguerre_rows([0.5], k_max, Q12, None)

    def test_documented_k_max_edge(self):
        # the docstring's edge: at alpha 0.5 under QuadratureSpec(), k_max 15
        # passes all five and 20 fails the dilation sum (v)
        assert all(r.passed for r in vf._laguerre_rows([0.5], 15, QuadratureSpec(), None))
        failed = [r for r in vf._laguerre_rows([0.5], 20, QuadratureSpec(), None)
                  if not r.passed]
        assert [r.check_name for r in failed] == ["laguerre_identity_v"]
        assert failed[0].max_abs_err == pytest.approx(4.51e-12, rel=1e-2)

    def test_dilation_matches_pochhammer_code(self):
        # the running (alpha+1)_l keeps the bits of the per-term pochhammer calls, verbatim
        def parent(alpha, k, c, lag, lag_c):
            total = 0.0
            for l in range(k + 1):
                total += (c ** l * (1.0 - c) ** (k - l)
                          / (math.factorial(k - l) * pochhammer(alpha + 1.0, l)) * lag[l])
            return abs(lag_c[k] - pochhammer(alpha + 1.0, k) * total)

        rng = np.random.default_rng(14)
        for _ in range(500):
            alpha, c = float(rng.uniform(-0.9, 20.0)), float(rng.uniform(0.1, 2.0))
            k = int(rng.integers(0, 40))
            lag, lag_c = rng.normal(size=(2, k + 1)).tolist()
            assert vf._identity_v(alpha, k, c, lag, lag_c) == parent(alpha, k, c, lag, lag_c)

    def test_one_tol_for_all_five(self):
        reports = vf._laguerre_rows([0.5], 10, Q12, 3e-7)
        assert len(reports) == 5
        assert all(r.tol == 3e-7 for r in reports)


def _parent_identity_ii(alpha, k, u, q):
    """The per-integral identity (ii) that the batched rows replaced, verbatim."""
    lhs = laguerre_L(k, alpha, u)
    log_norm = u - log_gamma(k + 1.0) - log_gamma(alpha + 1.0)
    cut = (k + alpha + 50.0 + 12.0 * math.sqrt(k + alpha + 1.0)) ** 0.25

    def integrand(ws):
        vs = ws ** 4
        with np.errstate(divide="ignore"):
            log_f = -vs + (k + alpha) * np.log(vs) + np.log(4.0 * ws ** 3)
        return np.exp(log_f + log_norm) * bessel_j_norm(alpha, 2.0 * np.sqrt(u * vs))

    [rhs] = integrate_rows(lambda xs, rows: integrand(xs), [(0.0, cut)], q)
    return abs(lhs - rhs)


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5, 2.1])
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_identity_ii_rows_match_per_integral_loop(alpha, q):
    rows = [(k, u) for k in (0, 1, 3, 7, 10) for u in (0.5, 2.0)]
    lag = {u: laguerre_L_all(10, alpha, u) for u in (0.5, 2.0)}
    got = vf._identity_ii([(alpha, k, u) for k, u in rows], {alpha: lag}, q)
    assert got == [_parent_identity_ii(alpha, k, u, q) for k, u in rows]


@pytest.mark.parametrize("alpha,k_max,q,want", [
    (-0.3, 10, QuadratureSpec(), [1.9539925233402755e-14, 1.0198508704206688e-12,
                                  2.4868995751603507e-14, 1.1102230246251565e-14,
                                  9.992007221626409e-15]),
    (2.1, 10, QuadratureSpec(), [2.8421709430404007e-13, 4.3165471197426086e-13,
                                 3.419486915845482e-14, 1.7763568394002505e-15,
                                 3.108624468950438e-14]),
    pytest.param(0.5, 4, Q12, [3.9968028886505635e-15, 1.4432899320127035e-15,
                               6.661338147750939e-16, 2.220446049250313e-15,
                               1.6653345369377348e-16], marks=pytest.mark.dispatch_pinned),
])
def test_laguerre_suite_errors_unchanged(alpha, k_max, q, want):
    # (i) to (v) as the per-identity loops over per-point tables computed them
    assert [r.max_abs_err for r in vf._laguerre_rows([alpha], k_max, q, None)] == want


@pytest.fixture
def one_cpu(monkeypatch):
    """run_suite as on a machine with one CPU: every suite in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def two_cpus(monkeypatch):
    """run_suite as on a machine with two CPUs: a whole run forks one child."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def table_degrees(monkeypatch, one_cpu):
    """The degree of every laguerre_L_all table the verify module builds (a
    forked child's calls would not be seen, so run_suite keeps to one CPU)."""
    degrees = []

    def spy(k, a, x):
        degrees.append(k)
        return laguerre_L_all(k, a, x)

    monkeypatch.setattr(vf, "laguerre_L_all", spy)
    return degrees


@pytest.mark.parametrize("alpha,k_max,want", [
    (2.1, 30, [1.979060471057892e-08, 2.744471316873387e-13, 1.0550138540565968e-10,
               1.7763568394002505e-15, 1.574607111365367e-08]),
    pytest.param(0.0, 60, [5.675360069935924e-05, 7.93809462606987e-15, 0.0001373291015625,
                           3.6914915568786455e-15, 0.001258119953449266],
                 marks=pytest.mark.dispatch_pinned),
])
def test_laguerre_long_series_read_their_own_runs(alpha, k_max, want, table_degrees):
    # these series run more than 128 terms past k_max; each reads its own run that far
    assert [r.max_abs_err for r in vf._laguerre_rows([alpha], k_max, Q12, None)] == want
    assert table_degrees == [max(k_max, 1)]


def test_laguerre_suite_builds_one_table_per_alpha(table_degrees):
    # every alpha of the suite builds one table of degree max(k_max, 1)
    vf.run_suite("laguerre-identities")
    assert table_degrees == [10] * 4


@pytest.mark.parametrize("k_max", [0, 1])
def test_laguerre_table_degree_one_at_least(k_max, table_degrees):
    # ks always holds 1, so (ii) reads L_1 even at k_max = 0
    assert all(r.passed for r in vf._laguerre_rows([0.5], k_max, Q12, None))
    assert table_degrees == [1]


def test_laguerre_table_columns_match_scalar_calls():
    # the suite reads L_n at every point from one table; entry n matches a scalar call
    points = [0.5, 2.1, 0.5 / 0.7, 2.1 / 1.4, 2.0, 3.0, 1.4 * 1.7]
    table = laguerre_L_all(440, 0.5, points)
    for c, x in enumerate(points):
        for n in (0, 1, 7, 10, 429, 440):
            assert table[n, c] == laguerre_L(n, 0.5, x)


class TestProductFormulas:
    def test_gegenbauer_degenerate(self):
        r = vf.gegenbauer_check(-0.5, 1.3, 0.7)
        assert r.max_abs_err <= 1e-14

    def test_gegenbauer_grid(self):
        for nu, x, y in [(0.75, 1.3, 0.7), (2.0, 3.0, 0.1)]:
            assert vf.gegenbauer_check(nu, x, y).max_abs_err <= 1e-9

    def test_gegenbauer_rejects_below_range(self):
        with pytest.raises(ValueError):
            vf.gegenbauer_check(-0.6, 1.0, 1.0)

    def test_watson_grid(self):
        for nu in (0.5, 1.4):
            for k in (0, 2, 5):
                assert vf.watson_check(nu, 1.0, 1.0, k).max_abs_err <= 1e-8

    def test_watson_x_zero(self):
        assert vf.watson_check(0.5, 0.0, 1.3, 3).max_abs_err <= 1e-9

    def test_watson_rejects_at_boundary(self):
        with pytest.raises(ValueError):
            vf.watson_check(-0.5, 1.0, 1.0, 1)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_watson_rejects_a_non_finite_degree(self, k):
        # inf raised OverflowError and nan "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="^watson_check requires integer k >= 0$"):
            vf.watson_check(0.5, 1.0, 1.0, k)

    def test_watson_integral_float_degree(self):
        assert vf.watson_check(0.5, 1.0, 1.0, 2.0) == vf.watson_check(0.5, 1.0, 1.0, 2)

    def test_multiplicativity_checks(self):
        assert vf._bk_multiplicativity_rows([(1.0, 0.7, 1.1, 2.0)], QuadratureSpec())[0].passed
        c = DiscretePoint(-0.7, 2)
        r = vf.lag_multiplicativity_check(c, HeisPoint(1.0, 0.3), HeisPoint(0.8, -0.5), 0.5)
        assert r.passed


def _parent_gegenbauer(nu, x, y, q):
    """The error of gegenbauer_check before its left-hand side became one
    bessel_j_norm call, verbatim (nu > -1/2)."""
    lhs = bessel_j_norm(nu, x) * bessel_j_norm(nu, y)
    us, ws = gauss_jacobi(q.nodes, nu - 0.5, nu - 0.5)
    radii = np.sqrt(np.maximum(x * x + y * y - 2.0 * x * y * us, 0.0))
    pref = math.exp(log_gamma(nu + 1.0) - log_gamma(nu + 0.5)) / math.sqrt(math.pi)
    rhs = pref * float(np.sum(ws * bessel_j_norm(nu, radii)))
    return abs(lhs - rhs)


@pytest.mark.parametrize("nu", [0.75, 2.0, -0.2])
def test_gegenbauer_matches_per_check_code(nu):
    # the left-hand side's two values now come from one bessel_j_norm call
    for q in (QuadratureSpec(), QuadratureSpec(nodes=32)):
        for x, y in ((1.3, 0.7), (3.0, 0.1), (0.4, 2.2)):
            assert vf.gegenbauer_check(nu, x, y, q).max_abs_err == _parent_gegenbauer(nu, x, y, q)


def _multiplicativity_rows():
    """The standard suite's random rows, drawn as the suite draws them."""
    rng = np.random.default_rng(777)
    bk, lag = [], []
    for _ in range(25):
        alpha = float(rng.uniform(1.0, 4.0))
        bk.append((*(float(v) for v in rng.uniform(0.1, 2.5, size=3)), alpha))
    for i in range(25):
        alpha = float(rng.uniform(0.0, 3.0))
        a = HeisPoint(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        b = HeisPoint(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        if i % 3 == 2:
            c = ContinuousPoint(float(rng.uniform(0.0, 3.0)))
        else:
            c = DiscretePoint(float(rng.uniform(0.2, 2.0)) * (-1.0 if i % 2 else 1.0),
                              int(rng.integers(0, 5)))
        lag.append((c, a, b, alpha))
    return bk, lag


def test_multiplicativity_checks_match_per_check_code():
    # the per-check code computed each right-hand side from two scalar calls, verbatim
    bk_rows, lag_rows = _multiplicativity_rows()
    q = QuadratureSpec()
    for u, x, xp, alpha in bk_rows:
        p = BesselKingmanParams(alpha)
        lhs = bk_translate(lambda r: bk_character(u, r, p), x, xp, p, q)
        rhs = bk_character(u, x, p) * bk_character(u, xp, p)
        assert (vf._bk_multiplicativity_rows([(u, x, xp, alpha)], q)[0].max_abs_err
                == abs(lhs - rhs))
    for c, a, b, alpha in lag_rows:
        p = LaguerreParams(alpha)
        if isinstance(c, DiscretePoint):
            fn = lambda xs, ws: _first_kind_char(alpha, c.tau, c.k, xs, ws)
        else:
            fn = lambda xs, ws: _second_kind_char(alpha, c.y1, xs) + 0.0j * ws
        lhs = lag_translate(fn, a, b, p, q)
        rhs = lag_character(c, a, p) * lag_character(c, b, p)
        assert vf.lag_multiplicativity_check(c, a, b, alpha, q).max_abs_err == abs(lhs - rhs)


PSD_POINTS = np.linspace(0.3, 2.7, 10)  # the psd-gram suite's points; its params hold only n


def _fan_point(label):
    """The fan point of a report label, which reads back exactly."""
    if label.startswith("y1="):
        return ContinuousPoint(float(label[3:]))
    tau, k = (part.split("=")[1] for part in label.split(","))
    return DiscretePoint(float(tau), int(k))


# each report's family called with its one row, or its scalar check
ONE_ROW_CHECKS = {
    "weber_schafheitlin": lambda p, q: vf._weber_rows(
        [(p["nu"], p["alpha"], p["beta"], p["gamma"])], q)[0],
    "glowne3": lambda p, q: _glowne3(
        _fan_point(p["start"]), HeisPoint(p["x"], p["w"]), p["t"], p["delta"], q),
    "bk_spectral": lambda p, q: vf._bk_spectral_rows([(p["u"], p["x"], p["t"], p["delta"])], q)[0],
    **{f"laguerre_identity_{i}": (lambda p, q, n=n: vf._laguerre_rows(
        [p["alpha"]], 10, q, None)[n]) for n, i in enumerate(("i", "ii", "iii", "iv", "v"))},
    "gegenbauer": lambda p, q: vf.gegenbauer_check(p["nu"], p["x"], p["y"], q),
    "watson": lambda p, q: vf.watson_check(p["nu"], p["x"], p["y"], p["k"], q),
    "bk_multiplicativity": lambda p, q: vf._bk_multiplicativity_rows(
        [(p["u"], p["x"], p["xp"], p["alpha"])], q)[0],
    "lag_multiplicativity": lambda p, q: vf.lag_multiplicativity_check(
        _fan_point(p["chi"]), HeisPoint(p["ax"], p["aw"]), HeisPoint(p["bx"], p["bw"]),
        p["alpha"], q),
    "psd_gram": lambda p, q: vf.psd_gram_check(PSD_POINTS[:p["n"]], p["t"], p["delta"], q),
    "chapman_kolmogorov": lambda p, q: vf.chapman_kolmogorov_check(
        _fan_point(p["start"]), p["t1"], p["t2"], p["delta"], q),
    "normalization": lambda p, q: vf.normalization_check(p["n"]),
}


@pytest.mark.parametrize("point, label", [
    (DiscretePoint(-1.0, 2), "tau=-1,k=2"),
    (ContinuousPoint(0.7), "y1=0.7"),
    (DiscretePoint(1e-20, 0), "tau=1e-20,k=0"),
    # :g printed tau=1.63964 and y1=0.834816, which did not read back
    (DiscretePoint(1.6396387176220262, 0), "tau=1.6396387176220262,k=0"),
    (ContinuousPoint(0.8348158685302378), "y1=0.8348158685302378"),
])
def test_fan_label_reads_back_exactly(point, label):
    assert vf._fan_label(point) == label
    assert _fan_point(label) == point


def test_suite_reports_equal_their_one_row_checks():
    # each suite certifies as one family over its orders; every report keeps
    # the bits of its family (or its scalar check) called with that one row
    # and the same spec
    q = QuadratureSpec()
    reports = vf.run_suite(q=q)
    assert len(reports) == 174
    for report in reports:
        lone = ONE_ROW_CHECKS[report.check_name](dict(report.params), q)
        assert (lone.check_name, lone.params) == (report.check_name, report.params)
        assert lone.max_abs_err.hex() == report.max_abs_err.hex(), report


def test_every_exported_check_is_called_by_a_suite(one_cpu, monkeypatch):
    # a check is public only while a suite calls it: the one-row wrappers of
    # the five families were called by tests alone
    names = [n for n in vf.__all__ if n.endswith(("_check", "_suite")) and n != "run_suite"]
    assert names
    calls = dict.fromkeys(names, 0)

    def counting(name, check):
        def counted(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(vf, name, counting(name, getattr(vf, name)))
    assert len(vf.run_suite()) == 174
    assert [name for name, n in calls.items() if n == 0] == []


class TestGramAndKernels:
    def test_psd_gram(self):
        pts = np.linspace(0.3, 2.7, 8)
        for t in (0.1, 1.0, 5.0):
            for delta in (1.0, 2.5):
                r = vf.psd_gram_check(pts, t, delta)
                assert r.passed, (t, delta, r.notes)

    def test_psd_gram_guards(self):
        # the guards of the removed hypergroup.bk_gaussian_gram, now named for the check
        for points in ([[0.3, 1.0]], []):
            with pytest.raises(ValueError, match="^psd_gram_check requires a 1-d point list$"):
                vf.psd_gram_check(points, 1.0, 2.0)
        # a NaN t used to fail only through its NaN Gram matrix, and an infinite
        # t passed with an all-zero one
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^psd_gram_check requires finite t > 0$"):
                vf.psd_gram_check([0.3, 1.0], t, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_psd_gram_rejects_a_point_that_is_not_finite_and_nonnegative(self, bad):
        # [0.3, nan] passed with max_abs_err 0.0, since max(0.0, -nan) is 0.0
        with pytest.raises(ValueError, match="^psd_gram_check requires finite points >= 0$"):
            vf.psd_gram_check([0.3, bad], 1.0, 2.5)

    def test_psd_gram_nan_eigenvalue_fails(self, monkeypatch):
        # a NaN Gram matrix passed with min_eig=nan, since max(0.0, -nan) is 0.0
        monkeypatch.setattr(vf, "bk_translate", lambda f, x, xp, p, q: np.full((2, 2), math.nan))
        with pytest.raises(ValueError, match="^max_abs_err must be finite and >= 0$"):
            vf.psd_gram_check([0.3, 1.0], 1.0, 2.5)

    def test_chapman_kolmogorov_wrapper(self):
        r = vf.chapman_kolmogorov_check(DiscretePoint(1.0, 3), 0.4, 0.6, 0.9, tol=1e-12)
        assert r.passed

    def test_normalization(self):
        r = vf.normalization_check(50)
        assert r.passed
        assert "max_tail" in r.notes
        assert r.params == (("n", 50), ("seed", 20241))

    @pytest.mark.parametrize("n", [0, -3])
    def test_normalization_rejects_no_laws(self, n):
        # a sweep over zero laws reported PASS
        with pytest.raises(ValueError, match="n >= 1"):
            vf.normalization_check(n)

    @pytest.mark.parametrize("n", [200.0, np.float64(50.0), np.int64(7)])
    def test_normalization_integral_float_count(self, n):
        # 200.0 raised TypeError from range()
        r = vf.normalization_check(n)
        assert r == vf.normalization_check(int(n))
        assert r.params == (("n", int(n)), ("seed", 20241))
        assert type(dict(r.params)["n"]) is int

    @pytest.mark.parametrize("n", [True, False, 2.5, math.nan, math.inf, -math.inf, "3", None])
    def test_normalization_rejects_a_non_integer_count(self, n):
        # True passed with params n=True
        with pytest.raises(ValueError, match="^normalization_check requires integer n >= 1$"):
            vf.normalization_check(n)


class TestReports:
    @pytest.mark.parametrize("err, tol, passed", [(0.5, 1.0, True), (1.0, 1.0, True),
                                                  (1.0, 0.5, False)])
    def test_passed_is_err_within_tol(self, err, tol, passed):
        r = vf.VerificationReport("x", (), err, tol)
        assert r.passed is passed
        assert vf.report_to_dict(r)["pass"] is passed

    def test_suite_determinism(self):
        a = vf.run_suite("gegenbauer")
        b = vf.run_suite("gegenbauer")
        assert a == b

    def test_canonical_order(self):
        reports = vf.run_suite("watson")
        keys = [(r.check_name, repr(r.params)) for r in reports]
        assert keys == sorted(keys)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            vf.run_suite("nope")

    @pytest.mark.parametrize("suite", ["weber-schafheitlin", "glowne3", "bk-spectral",
                                       "laguerre-identities", "chapman-kolmogorov"])
    def test_cli_and_run_suite_agree(self, suite, tmp_path, capsys):
        # the integrating suites: both entry points certify under one quadrature spec
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", suite, "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text()) == [vf.report_to_dict(r) for r in vf.run_suite(suite)]

    @pytest.mark.parametrize("suite", ["weber-schafheitlin", "chapman-kolmogorov"])
    def test_user_tol_overrides_each_default(self, suite):
        # one idiom for the user's tolerance: it replaces every check's default,
        # and without it each check keeps its own (1e-9, or 1e-8 to 1e-12 per scenario)
        given = vf.run_suite(suite, tol=1e-6)
        default = vf.run_suite(suite)
        assert all(r.tol == 1e-6 for r in given)
        assert [r.max_abs_err for r in given] == [r.max_abs_err for r in default]
        want = {1e-9} if suite == "weber-schafheitlin" else {1e-8, 1e-10, 1e-12}
        assert {r.tol for r in default} == want

    def test_standard_suite_passes(self):
        # the whole standard suite, as the verify command runs it: the
        # multiplicativity, psd-gram and normalization suites run nowhere else here
        reports = vf.run_suite()
        assert len(reports) == 174
        assert [r for r in reports if not r.passed] == []
        counts = {}
        for r in reports:
            counts[r.check_name] = counts.get(r.check_name, 0) + 1
        identities = {f"laguerre_identity_{i}": 4 for i in ("i", "ii", "iii", "iv", "v")}
        assert counts == {"weber_schafheitlin": 12, "glowne3": 40, "bk_spectral": 12,
                          **identities, "gegenbauer": 9, "watson": 18,
                          "bk_multiplicativity": 25, "lag_multiplicativity": 25,
                          "psd_gram": 6, "chapman_kolmogorov": 6, "normalization": 1}

    def test_coverage_contract(self):
        # every family of checks is reachable through the standard suite map
        assert set(vf.SUITE_NAMES) == set(vf._SUITES)


def _hand_built(name, params, err, tol):
    """A report as reports_json reads one, which may hold what VerificationReport
    rejects (a NaN or infinite error)."""
    return SimpleNamespace(check_name=name, params=tuple(params), max_abs_err=err, tol=tol,
                           passed=err <= tol)


class TestReportsJson:
    """verify --out writes the bytes of json.dumps(reports, indent=2) + newline."""

    def test_full_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--out", str(out)]) == 0
        capsys.readouterr()
        want = json.dumps([vf.report_to_dict(r) for r in vf.run_suite()], indent=2) + "\n"
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("reports", [
        [],
        [vf.VerificationReport("normalization", (), 0.0, 1e-12)],  # empty params
        # a quote, a backslash, non-ASCII, a % and control characters
        [_hand_built("quoted", [("label", 'say "hi" \\ to \u00fc\u221e, 100%\n\tend')],
                     1e-3, 1e-2)],
        [_hand_built("nan error", [("nu", 0.5)], math.nan, 1e-8),
         _hand_built("inf error", [("nu", math.inf), ("x", -math.inf), ("y", math.nan)],
                     math.inf, 1e-8)],
        [vf.VerificationReport("failing", (("k", 3), ("nu", -0.5), ("on", True)), 2e-6, 1e-8)],
        [vf.VerificationReport("a", (("x", 1.0),), 5e-324, 1e-300),
         vf.VerificationReport("b", (), 0.25, 1.0),
         _hand_built("c", [("s", ""), ("t", "%s"), ("u", 1e300)], 1e-17, 0.1)],
    ], ids=["none", "empty-params", "string", "nan-inf", "failing", "mixed"])
    def test_hand_built(self, reports):
        want = json.dumps([vf.report_to_dict(r) for r in reports], indent=2)
        assert vf.reports_json(reports) == want


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _reports_bits(reports):
    return [(r.check_name, r.params, r.max_abs_err.hex(), r.tol, r.notes) for r in reports]


class TestTwoProcesses:
    def test_child_suites_are_a_proper_subset(self):
        assert set() < set(vf._CHILD_SUITES) < set(vf.SUITE_NAMES)

    def test_whole_run_equals_the_one_cpu_run(self, two_cpus, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        two = vf.run_suite()
        assert forks == [os.getpid()]
        _no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = vf.run_suite()
        assert forks == [os.getpid()]
        assert len(two) == 174
        assert _reports_bits(two) == _reports_bits(one)
        vf.run_suite("psd-gram")  # one suite never forks
        assert forks == [os.getpid()]

    def test_no_fork_beside_another_thread(self, two_cpus, monkeypatch):
        monkeypatch.setattr(vf.threading, "active_count", lambda: 2)
        assert not vf._two_processes()
        monkeypatch.setattr(vf.threading, "active_count", lambda: 1)
        assert vf._two_processes()

    @staticmethod
    def _plant(monkeypatch, names):
        def raising(name):
            def suite(q, tol):
                raise QuadratureError(f"planted in {name}")
            return suite

        for name in names:
            monkeypatch.setitem(vf._SUITES, name, raising(name))

    @pytest.mark.parametrize("planted", [
        ("glowne3",),                                # in the child
        ("chapman-kolmogorov",),                     # in this process
        ("glowne3", "laguerre-identities"),          # both; the child's is earlier
        ("laguerre-identities", "multiplicativity"),  # both; this process's is earlier
    ])
    def test_first_failing_suite_raises_as_in_one_process(self, planted, two_cpus,
                                                          monkeypatch):
        self._plant(monkeypatch, planted)
        first = min(planted, key=vf.SUITE_NAMES.index)
        with pytest.raises(QuadratureError, match=f"^planted in {first}$"):
            vf.run_suite()
        _no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(QuadratureError, match=f"^planted in {first}$"):
            vf.run_suite()

    @pytest.mark.parametrize("end, status", [(lambda: os._exit(3), 3), (lambda: os._exit(0), 0),
                                             (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                              -signal.SIGKILL)])
    def test_child_without_a_result_raises_its_status(self, end, status, two_cpus,
                                                      monkeypatch, capsys):
        monkeypatch.setitem(vf._SUITES, "psd-gram", lambda q, tol: end())
        with pytest.raises(RuntimeError, match=f"exited with status {status} without a result$"):
            vf.run_suite()
        _no_child_left()
        assert cli.main(["verify"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("hyperbessel: error: verify: the process running ")
        _no_child_left()

    def test_interrupt_here_kills_and_reaps_the_child(self, two_cpus, monkeypatch):
        # the child would sleep a minute; this process does not wait for it
        monkeypatch.setitem(vf._SUITES, "glowne3", lambda q, tol: time.sleep(60))

        def interrupt(q, tol):
            raise KeyboardInterrupt

        monkeypatch.setitem(vf._SUITES, "gegenbauer", interrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            vf.run_suite()
        assert time.monotonic() - start < 30.0
        _no_child_left()

    def test_warnings_are_reissued_in_suite_order(self, two_cpus, monkeypatch):
        def warning(name):
            def suite(q, tol):
                warnings.warn(name, UserWarning)
                return []
            return suite

        for name in vf.SUITE_NAMES:
            monkeypatch.setitem(vf._SUITES, name, warning(name))
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert vf.run_suite() == []
            assert [(w.category, str(w.message)) for w in caught] == [
                (UserWarning, name) for name in vf.SUITE_NAMES]
        _no_child_left()
