"""Tests for the identity verification suite."""
import json
import math

import numpy as np
import pytest

from hyperbessel import cli
from hyperbessel import verify as vf
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint, HeisPoint
from hyperbessel.quadrature import QuadratureSpec, integrate
from hyperbessel.specfun import (bessel_i_norm, bessel_j_norm, laguerre_L, laguerre_L_all,
                                 log_gamma)


class TestWeberSchafheitlin:
    def test_quadrature_grid(self):
        assert vf.weber_schafheitlin_check(0.5, 0.5, 0.0, 1.0).max_abs_err <= 1e-9
        assert vf.weber_schafheitlin_check(-0.5, 1.0, 1.0, 1.0).max_abs_err <= 1e-9

    def test_degenerate_moments(self):
        # beta = gamma = 0 reduces to a Gaussian moment equal to (2 alpha)^-(nu+1)
        r = vf.weber_schafheitlin_check(0.7, 1.0, 0.0, 0.0)
        assert r.max_abs_err <= 1e-12

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            vf.weber_schafheitlin_check(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            vf.weber_schafheitlin_check(0.5, 0.0, 0.0, 1.0)


def _parent_weber_lhs(nu, alpha, beta, gamma_, q):
    """The integral of the per-check weber_schafheitlin_check that the batched
    rows replaced, verbatim."""
    log_pref = -nu * math.log(2.0) - log_gamma(nu + 1.0)

    def integrand(vs):
        with np.errstate(divide="ignore"):
            log_env = -alpha * vs * vs + (2.0 * nu + 1.0) * np.log(vs) + log_pref
        i_part = np.exp(log_env + (np.log(bessel_i_norm(nu, beta * vs))
                                   if beta > 0.0 else 0.0))
        return i_part * bessel_j_norm(nu, gamma_ * vs)

    # cutoff: grow until the exponential envelope is 1e-16 of its peak
    peak_v = max((beta + math.sqrt(beta * beta + 4.0 * alpha * (2.0 * nu + 1.0 + 1.0)))
                 / (2.0 * alpha), 1.0)
    cut = peak_v + math.sqrt(50.0 / alpha) + beta / alpha
    while (-alpha * cut * cut + beta * cut + abs(2.0 * nu + 1.0) * math.log(1.0 + cut)
           ) > (-alpha * peak_v * peak_v + beta * peak_v - 37.0 * math.log(10.0)):
        cut *= 1.25

    return integrate(integrand, 0.0, cut, q)


WEBER_ROWS = ((0.5, 0.0, 1.0), (1.0, 1.0, 1.0), (0.7, 0.5, 1.5), (2.0, 1.2, 0.3),
              (1.0, 0.0, 0.0), (0.3, 2.0, 0.0))


@pytest.mark.parametrize("nu", [-0.5, 0.5, 1.5, 0.7])
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_weber_rows_match_per_check_loop(nu, q):
    batched = vf._weber_rows(nu, WEBER_ROWS, q, 1e-9)
    for report, (al, be, ga) in zip(batched, WEBER_ROWS):
        assert report == vf.weber_schafheitlin_check(nu, al, be, ga, q)
        rhs = ((2.0 * al) ** -(nu + 1.0) * math.exp((be * be - ga * ga) / (4.0 * al))
               * bessel_j_norm(nu, be * ga / (2.0 * al)))
        assert report.max_abs_err == float(abs(_parent_weber_lhs(nu, al, be, ga, q) - rhs))


class TestGlowne3:
    def test_case5_k0_algebraic(self):
        r = vf.glowne3_check(DiscretePoint(1.0, 0), HeisPoint(0.8, 0.3), 0.5, 1.5)
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
                r = vf.glowne3_check(start, a, t, delta)
                assert r.passed, (start, t, delta, r.max_abs_err)

    def test_poisson_series_case(self):
        r = vf.glowne3_check(ContinuousPoint(0.7), HeisPoint(1.1, -0.4), 0.9, 2.0)
        assert r.max_abs_err <= 1e-10

    def test_informative_below_one(self):
        # the kernel extends to delta in (0, 1); the identity still holds there
        r = vf.glowne3_check(DiscretePoint(-1.0, 1), HeisPoint(0.8, 0.3), 0.4, 0.6)
        assert r.passed


class TestBkSpectral:
    def test_trivial_x_zero(self):
        r = vf.bk_spectral_check(1.0, 0.0, 0.7, 2.0)
        assert r.max_abs_err <= 1e-10

    def test_reference_point(self):
        r = vf.bk_spectral_check(1.0, 1.3, 0.7, 2.5)
        assert r.max_abs_err <= 1e-8

    def test_gaussian_dimension_one(self):
        r = vf.bk_spectral_check(0.7, 1.1, 0.9, 1.0)
        assert r.max_abs_err <= 1e-10


class TestLaguerreIdentities:
    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5, 2.1])
    def test_suite_passes(self, alpha):
        for r in vf.laguerre_identity_suite(alpha):
            assert r.passed, (alpha, r.check_name, r.max_abs_err)

    def test_dilation_trivial_at_c_one(self):
        lag = laguerre_L_all(6, 0.7, 2.1)
        assert vf._identity_v(0.7, 6, 1.0, lag, lag) <= 1e-13

    def test_order_guard(self):
        with pytest.raises(ValueError):
            vf.laguerre_identity_suite(-1.0)

    def test_one_tol_for_all_five(self):
        reports = vf.laguerre_identity_suite(0.5, tol=3e-7)
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

    rhs = integrate(integrand, 0.0, cut, q)
    return abs(lhs - rhs)


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5, 2.1])
@pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_identity_ii_rows_match_per_integral_loop(alpha, q):
    rows = [(k, u) for k in (0, 1, 3, 7, 10) for u in (0.5, 2.0)]
    lag = {u: laguerre_L_all(10, alpha, u) for u in (0.5, 2.0)}
    got = vf._identity_ii(alpha, rows, lag, q)
    assert got == [_parent_identity_ii(alpha, k, u, q) for k, u in rows]


@pytest.mark.parametrize("alpha,k_max,q,want", [
    (-0.3, 10, QuadratureSpec(), [1.9539925233402755e-14, 1.0198508704206688e-12,
                                  2.4868995751603507e-14, 1.1102230246251565e-14,
                                  9.992007221626409e-15]),
    (2.1, 10, QuadratureSpec(), [2.8421709430404007e-13, 4.3165471197426086e-13,
                                 3.419486915845482e-14, 1.7763568394002505e-15,
                                 3.108624468950438e-14]),
    (0.5, 4, None, [3.9968028886505635e-15, 1.4432899320127035e-15, 6.661338147750939e-16,
                    2.220446049250313e-15, 1.6653345369377348e-16]),
])
def test_laguerre_suite_errors_unchanged(alpha, k_max, q, want):
    # (i) to (v) as the per-identity loops over per-point tables computed them
    assert [r.max_abs_err for r in vf.laguerre_identity_suite(alpha, k_max, q)] == want


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

    def test_multiplicativity_checks(self):
        assert vf.bk_multiplicativity_check(1.0, 0.7, 1.1, 2.0).passed
        c = DiscretePoint(-0.7, 2)
        r = vf.lag_multiplicativity_check(c, HeisPoint(1.0, 0.3), HeisPoint(0.8, -0.5), 0.5)
        assert r.passed


class TestGramAndKernels:
    def test_psd_gram(self):
        pts = np.linspace(0.3, 2.7, 8)
        for t in (0.1, 1.0, 5.0):
            for delta in (1.0, 2.5):
                r = vf.psd_gram_check(pts, t, delta)
                assert r.passed, (t, delta, r.notes)

    def test_chapman_kolmogorov_wrapper(self):
        r = vf.chapman_kolmogorov_check(DiscretePoint(1.0, 3), 0.4, 0.6, 0.9, tol=1e-12)
        assert r.passed

    def test_normalization(self):
        r = vf.normalization_check(50)
        assert r.passed
        assert "max_tail" in r.notes


class TestReports:
    def test_pass_flag_consistency(self):
        with pytest.raises(ValueError):
            vf.VerificationReport("x", (), 1.0, 0.5, True)

    def test_round_trip(self):
        r = vf.gegenbauer_check(0.75, 1.3, 0.7)
        assert vf.report_from_dict(vf.report_to_dict(r)) == r

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

    def test_coverage_contract(self):
        # every family of checks is reachable through the standard suite map
        assert set(vf.SUITE_NAMES) == set(vf._SUITES)
