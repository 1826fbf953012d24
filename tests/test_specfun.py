"""Unit tests for the special function layer.

Oracles are kept independent of the implementation paths: log-gamma is checked
against a Stirling series with Bernoulli coefficients plus the recursion
Gamma(x+1) = x Gamma(x), Bessel values against trigonometric closed forms and
scipy, Laguerre against the exact-rational 1F1 route. Large-order Bessel values
are checked against 50-digit mpmath literals.
"""
import math

import numpy as np
import pytest
from scipy import special as ss

from hyperbessel import specfun as sf

RNG = np.random.default_rng(161803)


def stirling_log_gamma(x, shift=12):
    """Independent ln Gamma oracle: Stirling series after an upward shift."""
    # B_2 .. B_16 over 2n(2n-1)
    bern = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
            7.0 / 6, -3617.0 / 510]
    n_shift = 0
    while x < shift:
        x += 1.0
        n_shift += 1
    s = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi)
    xp = x
    for n, b in enumerate(bern, start=1):
        s += b / ((2 * n) * (2 * n - 1) * xp)
        xp *= x * x
    # undo the shift: ln Gamma(x0) = ln Gamma(x0 + n) - sum ln(x0 + i)
    x0 = x - n_shift
    for i in range(n_shift):
        s -= math.log(x0 + i)
    return s


class TestLogGamma:
    def test_trivial_values(self):
        assert sf.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert sf.log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert sf.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_against_stirling_oracle(self):
        for x in [1e-3, 0.02, 0.3, 0.7, 1.5, 7.3, 55.0, 1234.5, 1e6]:
            ref = stirling_log_gamma(x)
            assert sf.log_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_value_7p3_via_recursion(self):
        # Gamma(7.3) = 6.3 * 5.3 * ... * 1.3 * 0.3 * Gamma(0.3)
        prod = 1.0
        for i in range(7):
            prod *= 0.3 + i
        ref = math.log(prod) + sf.log_gamma(0.3)
        assert sf.log_gamma(7.3) == pytest.approx(ref, rel=1e-13)

    def test_recursion_property_grid(self):
        for x in RNG.uniform(0.05, 100.0, size=40):
            lhs = sf.log_gamma(x + 1.0)
            rhs = sf.log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-12)

    def test_domain_errors(self):
        for bad in [0.0, -1.0, float("nan"), float("inf")]:
            with pytest.raises(ValueError):
                sf.log_gamma(bad)

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 7.3])
        out = sf.log_gamma(xs)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.0, abs=1e-14)


class TestPochhammer:
    def test_empty_product(self):
        assert sf.pochhammer(2.5, 0) == 1.0

    def test_factorial(self):
        assert sf.pochhammer(1.0, 4) == 24.0

    def test_direct_product_oracle(self):
        assert sf.pochhammer(0.5, 3) == pytest.approx(0.5 * 1.5 * 2.5, rel=1e-15)
        for a in RNG.uniform(-3.0, 5.0, size=10):
            for k in [1, 2, 7]:
                prod = 1.0
                for i in range(k):
                    prod *= a + i
                assert sf.pochhammer(a, k) == pytest.approx(prod, rel=1e-13, abs=1e-13)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sf.pochhammer(1.0, -1)
        with pytest.raises(ValueError):
            sf.pochhammer(1.0, 1.5)


class TestLaguerre:
    def test_degree_zero_and_one(self):
        for a in [-0.5, 0.0, 2.2]:
            for x in [0.0, 1.3, 9.0]:
                assert sf.laguerre_L(0, a, x) == 1.0
                assert sf.laguerre_L(1, a, x) == pytest.approx(a + 1.0 - x, rel=1e-15)

    def test_l2_closed_form(self):
        # L_2(x) = (x^2 - 4x + 2)/2
        assert sf.laguerre_L(2, 0.0, 2.0) == pytest.approx(-1.0, rel=1e-14)

    def test_matches_1f1_route(self):
        # recurrence must agree with (a+1)_k / k! * 1F1(-k; a+1; x)
        for k in [0, 1, 5, 20, 40, 60]:
            for a in [-0.5, 0.0, 0.7, 3.2]:
                for x in [0.0, 0.5, 1.0, 2.5, 10.0, 30.0, 50.0]:
                    lhs = sf.laguerre_L(k, a, x)
                    rhs = (sf.pochhammer(a + 1.0, k) / math.factorial(k)
                           * sf.hyp1f1(-k, a + 1.0, x))
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_recurrence_residual(self):
        for a in [-0.5, 0.0, 0.7, 3.2]:
            for x in np.linspace(0.0, 40.0, 9):
                vals = sf.laguerre_L_all(30, a, x)
                for k in range(1, 30):
                    resid = ((k + 1) * vals[k + 1]
                             - (2 * k + a + 1 - x) * vals[k]
                             + (k + a) * vals[k - 1])
                    assert abs(resid) <= 1e-10 * max(1.0, abs(vals[k]))

    def test_against_scipy(self):
        for k in [3, 11, 27]:
            for a in [-0.4, 0.0, 1.7]:
                for x in [0.2, 4.0, 17.0]:
                    ref = ss.eval_genlaguerre(k, a, x)
                    assert sf.laguerre_L(k, a, x) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sf.laguerre_L(2, -1.0, 1.0)


class TestBesselJNorm:
    def test_normalization_at_zero(self):
        for nu in [-0.9, -0.5, 0.0, 1.3, 8.0]:
            assert sf.bessel_j_norm(nu, 0.0) == 1.0

    def test_cosine_closed_form(self):
        # j_{-1/2}(z) = cos z, across series and asymptotic branches
        for z in np.linspace(0.01, 30.0, 301):
            assert abs(sf.bessel_j_norm(-0.5, z) - math.cos(z)) <= 1e-12

    def test_sinc_closed_form(self):
        for z in np.linspace(0.01, 30.0, 301):
            assert abs(sf.bessel_j_norm(0.5, z) - math.sin(z) / z) <= 1e-12
        assert sf.bessel_j_norm(0.5, 1.3) == pytest.approx(math.sin(1.3) / 1.3, rel=1e-12)
        assert sf.bessel_j_norm(-0.5, 2.0) == pytest.approx(math.cos(2.0), rel=1e-12)

    def test_against_scipy(self):
        for nu in [-0.9, 0.0, 0.7, 2.5, 6.0]:
            for z in [0.1, 1.0, 8.0, 24.9, 25.1, 60.0]:
                ref = ss.gamma(nu + 1.0) * (z / 2.0) ** (-nu) * ss.jv(nu, z)
                assert sf.bessel_j_norm(nu, z) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_j_norm(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_j_norm(0.5, -0.1)
        with pytest.raises(ValueError):
            sf.bessel_j_norm(0.5, float("nan"))


class TestBesselINorm:
    def test_at_zero(self):
        for nu in [-0.5, 0.0, 3.2]:
            assert sf.bessel_i_norm(nu, 0.0) == 1.0

    def test_cosh_and_sinh_forms(self):
        assert sf.bessel_i_norm(-0.5, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-13)
        assert sf.bessel_i_norm(0.5, 2.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-13)
        for y in np.linspace(0.1, 25.0, 40):
            assert sf.bessel_i_norm(-0.5, y) == pytest.approx(math.cosh(y), rel=1e-13)

    def test_monotone_and_bounded_below(self):
        for nu in [-0.7, 0.0, 2.0]:
            ys = np.linspace(0.0, 12.0, 40)
            vals = sf.bessel_i_norm(nu, ys)
            assert np.all(vals >= 1.0)
            assert np.all(np.diff(vals) > 0.0)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            sf.bessel_i_norm(0.0, 5000.0)

    def test_log_version_consistency(self):
        for nu in [-0.5, 0.4, 2.0]:
            for y in [0.5, 10.0, 300.0]:
                ref = math.log(sf.bessel_i_norm(nu, y))
                assert sf.log_bessel_i_norm(nu, y) == pytest.approx(ref, rel=1e-12)

    def test_log_version_large_argument(self):
        # ln i_{-1/2}(y) = y + ln((1 + e^{-2y})/2)
        for y in [650.0, 1000.0, 5000.0]:
            assert sf.log_bessel_i_norm(-0.5, y) == pytest.approx(y - math.log(2.0), rel=1e-12)


class TestHyp1F1:
    def test_at_zero(self):
        assert sf.hyp1f1(0.7, 1.1, 0.0) == 1.0

    def test_exponential_series(self):
        # 1F1(1; 2; z) = (e^z - 1)/z
        assert sf.hyp1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_terminating(self):
        assert sf.hyp1f1(-2, 1, 2) == -1.0

    def test_kummer_invariance(self):
        for a in [-3.0, -0.5, 0.3, 1.7]:
            for b in [0.4, 1.0, 3.2]:
                for z in np.linspace(-10.0, 10.0, 21):
                    lhs = sf.hyp1f1(a, b, z)
                    rhs = math.exp(z) * sf.hyp1f1(b - a, b, -z)
                    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_against_scipy(self):
        for a in [0.3, 2.5]:
            for b in [0.9, 4.0]:
                for z in [-4.0, 0.7, 6.0]:
                    assert sf.hyp1f1(a, b, z) == pytest.approx(ss.hyp1f1(a, b, z), rel=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            sf.hyp1f1(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sf.hyp1f1(1.0, -2.0, 1.0)


# 50-digit references, generated once with mpmath (mp.dps = 50) as
#   j:     gamma(nu + 1) * (z/2)**(-nu) * besselj(nu, z)
#   ln i:  log(gamma(nu + 1) * (y/2)**(-nu) * besseli(nu, y))
# with nu, z, y converted exactly from the doubles below; printed to 25 digits.
J_LARGE_ORDER = {
    10: {24.5: -0.000006426571646441263883566578, 25.5: -4.579071604443252274948059e-8},
    20: {24.5: 0.00004661758686954308467238602, 25.5: -0.000001950400274815876557632859},
    40: {24.5: 0.0214692796670220749468294, 25.5: 0.01529833004857060695422886},
}
LOG_I_LARGE_ORDER = {
    10: {1e-3: 2.272727270575068970161488e-8, 599.5: 553.3746762161913507587693,
         600.5: 554.3573149757256616813035},
    20: {1e-3: 1.190476190154091989592044e-8, 599.5: 523.3260037418190575136865,
         600.5: 524.2923930485565631019924},
    40: {1e-3: 6.097560975167134329467599e-9, 599.5: 476.2508466520969702864147,
         600.5: 477.1855697460542963191802},
}


class TestLargeOrder:
    """Orders beyond the nu <= 6 that test_against_scipy samples.

    A fixed switch to the Hankel expansion at z = 25 (j) or y = 600 (ln i)
    is wrong at large order, since that expansion needs z >> nu^2; ln(1 + s)
    for a tiny s loses relative digits near y = 0.
    """

    @pytest.mark.parametrize("nu", sorted(J_LARGE_ORDER))
    def test_j_both_sides_of_z25(self, nu):
        for z, ref in J_LARGE_ORDER[nu].items():
            assert abs(sf.bessel_j_norm(nu, z) - ref) <= 1e-12

    @pytest.mark.parametrize("nu", sorted(LOG_I_LARGE_ORDER))
    def test_log_i_both_sides_of_y600_and_near_zero(self, nu):
        for y, ref in LOG_I_LARGE_ORDER[nu].items():
            assert sf.log_bessel_i_norm(nu, y) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_j_raises_where_jv_underflows(self):
        # J_700(175) ~ 1e-320 underflows while j_700(175) ~ 1e-5 does not
        with pytest.raises(OverflowError):
            sf.bessel_j_norm(700.0, 175.0)
        with pytest.raises(OverflowError):
            sf.bessel_j_norm(700.0, np.array([100.0, 175.0]))
        assert 0.0 < sf.bessel_j_norm(700.0, 150.0) < 1.0
