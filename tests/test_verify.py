"""Tests for the identity verification suite."""
import json
import math

import numpy as np
import pytest

from hyperbessel import cli
from hyperbessel import verify as vf
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint, HeisPoint
from hyperbessel.quadrature import QuadratureSpec
from hyperbessel.specfun import laguerre_L_all


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
        assert vf._identity_v(0.7, 6, 1.0, 2.1, laguerre_L_all(6, 0.7, 2.1)) <= 1e-13

    def test_order_guard(self):
        with pytest.raises(ValueError):
            vf.laguerre_identity_suite(-1.0)

    def test_one_tol_for_all_five(self):
        reports = vf.laguerre_identity_suite(0.5, tol=3e-7)
        assert len(reports) == 5
        assert all(r.tol == 3e-7 for r in reports)


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
