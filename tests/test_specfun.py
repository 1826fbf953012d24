"""Unit tests for the special function layer.

Oracles are kept independent of the implementation paths: log-gamma is checked
against a Stirling series with Bernoulli coefficients plus the recursion
Gamma(x+1) = x Gamma(x), Bessel values against trigonometric closed forms and
scipy, Laguerre against the exact-rational 1F1 route. Large-order Bessel values
are checked against 50-digit mpmath literals.
"""
import math
import warnings
from itertools import islice

import numpy as np
import pytest
from scipy import special as ss

from hyperbessel import kernels as kn
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


def pochhammer(a, k):
    """specfun.pochhammer, the direct product (a)_k, verbatim."""
    if k != int(k) or k < 0:
        raise ValueError("pochhammer requires a nonnegative integer k")
    arr = sf._as_array(a, "a")
    out = np.ones_like(arr)
    for i in range(int(k)):
        out = out * (arr + i)
    return sf._shaped_like(out, a)


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
                    rhs = (pochhammer(a + 1.0, k) / math.factorial(k)
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


def _i_norm(nu, y):
    """i_nu(y) as exp(ln i_nu(y)), the only way the package forms it."""
    return np.exp(sf.log_bessel_i_norm(nu, y))


class TestBesselINorm:
    def test_at_zero(self):
        for nu in [-0.5, 0.0, 3.2]:
            assert _i_norm(nu, 0.0) == 1.0

    def test_cosh_and_sinh_forms(self):
        assert _i_norm(-0.5, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-13)
        assert _i_norm(0.5, 2.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-13)
        for y in np.linspace(0.1, 25.0, 40):
            assert _i_norm(-0.5, y) == pytest.approx(math.cosh(y), rel=1e-13)

    def test_monotone_and_bounded_below(self):
        for nu in [-0.7, 0.0, 2.0]:
            ys = np.linspace(0.0, 12.0, 40)
            vals = _i_norm(nu, ys)
            assert np.all(vals >= 1.0)
            assert np.all(np.diff(vals) > 0.0)

    def test_log_version_large_argument(self):
        # ln i_{-1/2}(y) = y + ln((1 + e^{-2y})/2)
        for y in [650.0, 1000.0, 5000.0]:
            assert sf.log_bessel_i_norm(-0.5, y) == pytest.approx(y - math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 10.0, 300.0])
    def test_raises_past_two_to_the_thirty(self, nu):
        # scipy's ive is NaN past y = 2^30 - 1/2 at every order; the NaN went out unflagged
        edge = 2.0 ** 30 - 0.5
        assert math.isfinite(sf.log_bessel_i_norm(nu, edge))
        message = rf"^log_bessel_i_norm: y beyond 2\^30 at nu={nu!r}; argument too large$"
        for y in (math.nextafter(edge, math.inf), 2.0 ** 30, 1e10, [1.0, 1e10]):
            with pytest.raises(OverflowError, match=message):
                sf.log_bessel_i_norm(nu, y)


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


# ln i_2000(y) in the band where ive(2000, y) underflows and the plain series
# sum overflows; same 50-digit mpmath formula as LOG_I_LARGE_ORDER above.
LOG_I_OVERFLOW_BAND = {2560.0: 705.0423520850126083148826,
                       2660.0: 754.3838013479454793062299,
                       2760.0: 804.8534738402063063859193}


class TestLogINormOverflowBand:
    def test_against_mpmath(self):
        for y, ref in LOG_I_OVERFLOW_BAND.items():
            assert sf.log_bessel_i_norm(2000.0, y) == pytest.approx(ref, rel=1e-12, abs=0.0)


def _bits_equal(batch, scalars):
    batch = np.asarray(batch, dtype=float)
    scalars = np.asarray(scalars, dtype=float)
    return np.array_equal(batch.view(np.int64), scalars.view(np.int64))


class TestBatchInvariance:
    """An array call returns, bit for bit, what per-element scalar calls do."""

    NUS = [-0.9, -0.5, 0.0, 0.5, 2.5, 10.0, 40.0, 150.0, 500.0]

    def test_bessel_j_norm(self):
        for nu in self.NUS:
            edge = math.sqrt(36.0 * (nu + 1.0))  # series / jv boundary
            zs = np.concatenate([np.linspace(0.0, 3 * nu + 8 * math.sqrt(nu + 1) + 30, 150),
                                 edge * np.array([1 - 1e-9, 1.0, 1 + 1e-9])])
            assert _bits_equal(sf.bessel_j_norm(nu, zs),
                               [sf.bessel_j_norm(nu, float(z)) for z in zs]), nu

    def test_log_bessel_i_norm(self):
        for nu in self.NUS + [1000.0]:
            edge = math.sqrt(4.0 * (nu + 1.0))  # series / ive boundary
            ys = np.concatenate([np.linspace(0.0, 4 * nu + 60, 120),
                                 np.geomspace(1e-6, 4000.0, 30),
                                 edge * np.array([1 - 1e-9, 1.0, 1 + 1e-9])])
            assert _bits_equal(sf.log_bessel_i_norm(nu, ys),
                               [sf.log_bessel_i_norm(nu, float(y)) for y in ys]), nu

    def test_log_bessel_i_norm_converged_lanes_stay_put(self):
        # y = 1511.1 needs the most series terms; summing further terms onto
        # these lanes after they converged moved their last bit
        ys = np.array([1511.1, 1157.8343413917923, 1173.8315856698814, 1493.46097357386])
        assert _bits_equal(sf.log_bessel_i_norm(1500.0, ys),
                           [sf.log_bessel_i_norm(1500.0, float(y)) for y in ys])
        band = np.array(sorted(LOG_I_OVERFLOW_BAND))
        assert _bits_equal(sf.log_bessel_i_norm(2000.0, band),
                           [sf.log_bessel_i_norm(2000.0, float(y)) for y in band])

    def test_laguerre_L(self):
        xs = np.linspace(0.0, 60.0, 100)
        for k in (0, 1, 5, 40):
            for a in (0.0, 0.5, 7.0):
                assert _bits_equal(sf.laguerre_L(k, a, xs),
                                   [sf.laguerre_L(k, a, float(x)) for x in xs]), (k, a)

    def test_laguerre_L_all_prefix(self):
        # row n of a degree-K table over several points holds the bits of a
        # scalar table of any degree k >= n: the Laguerre identity checks
        # slice one table per identity family instead of one per point
        xs = np.array([0.5, 0.8, 1.2, 1.7, 2.1, 3.0])
        for a in (-0.3, 0.0, 0.5, 2.1):
            table = sf.laguerre_L_all(430, a, xs)
            for c, x in enumerate(xs):
                for k in (0, 1, 10, 420):
                    assert _bits_equal(table[:k + 1, c], sf.laguerre_L_all(k, a, float(x))), \
                        (a, x, k)

    def test_laguerre_run_yields_the_table_rows(self):
        # the Laguerre series identities read runs where every other caller
        # reads tables: entry n of a run, at a float x or at an array of
        # points, holds the bits of row n of laguerre_L_all
        xs = np.array([0.0, 0.5, 1.7, 0.35 * 1.7, 2.1 / 1.4, 7.5, 30.0])
        for a in (-0.9, -0.3, 0.0, 0.5, 10.0):
            table = sf.laguerre_L_all(440, a, xs)
            run = islice(sf._laguerre_run(a, xs), 441)
            assert all(_bits_equal(np.broadcast_to(row, xs.shape), table[n])
                       for n, row in enumerate(run)), a
            for c, x in enumerate(xs.tolist()):
                run = list(islice(sf._laguerre_run(a, x), 441))
                assert all(type(value) is float for value in run), (a, x)
                assert _bits_equal(run, table[:, c]), (a, x)

    def test_bes_density(self):
        # x y / t runs past y^2 = 4 (nu + 1) and to ~2400
        for delta, t, x in ((0.7, 0.5, 1.2), (1.0, 0.7, 0.0), (3.0, 1.0, 30.0),
                            (60.0, 1.0, 30.0)):
            d = kn.BesDensity(delta, t, x)
            ys = np.linspace(0.0, 40.0, 200)
            assert _bits_equal(kn.bes_density(d, ys),
                               [kn.bes_density(d, float(y)) for y in ys]), delta


NAN, INF = math.nan, math.inf
_J_MSG = "bessel_j_norm requires finite z >= 0"
_I_MSG = "log_bessel_i_norm requires finite y >= 0"
_LG_MSG = "log_gamma requires finite x > 0"


class TestArrayOrders:
    """An array of orders gives, bit for bit, per-element scalar-order calls."""

    NUS = [-0.9, -0.5, 0.0, 0.5, 2.5, 10.0, 40.0, 150.0, 500.0, 1000.0, 1900.0]

    @staticmethod
    def _mixed(pairs):
        """The (nu, arg) pairs shuffled, so neighbouring elements differ in order."""
        order = np.random.default_rng(7).permutation(len(pairs))
        nus, args = np.array(pairs, dtype=float)[order].T
        return nus, args

    def test_bessel_j_norm(self):
        pairs = []
        for nu in self.NUS:
            edge = math.sqrt(36.0 * (nu + 1.0))  # series / jv boundary
            # zero, the series branch, both sides of the switch, and jv past the turning
            # point; at the switch J_nu underflows from nu ~ 600 (tested below)
            switch = edge * np.array([1 - 1e-9, 1.0, 1 + 1e-9] if nu <= 500.0 else [1 - 1e-9])
            pairs += [(nu, z) for z in (0.0, 0.4 * edge, *switch,
                                        nu + 10.0 * (nu + 1.0) ** (1 / 3) + 30.0)]
        nus, zs = self._mixed(pairs)
        assert _bits_equal(sf.bessel_j_norm(nus, zs),
                           [sf.bessel_j_norm(float(nu), float(z)) for nu, z in zip(nus, zs)])

    def test_log_bessel_i_norm(self):
        pairs = []
        for nu in self.NUS:
            edge = math.sqrt(4.0 * (nu + 1.0))  # series / ive boundary
            pairs += [(nu, y) for y in (0.0, 1e-6, 0.5 * edge, edge * (1 - 1e-9), edge,
                                        edge * (1 + 1e-9), 4.0 * nu + 60.0, 4000.0)]
        # ive underflows and the plain series overflows: the scaled series
        pairs += [(2000.0, y) for y in LOG_I_OVERFLOW_BAND]
        nus, ys = self._mixed(pairs)
        got = sf.log_bessel_i_norm(nus, ys)
        assert _bits_equal(got, [sf.log_bessel_i_norm(float(nu), float(y))
                                 for nu, y in zip(nus, ys)])
        assert np.all(got[nus == 2000.0] > 700.0)  # past ln of the double range

    @pytest.mark.parametrize("fn", [sf.bessel_j_norm, sf.log_bessel_i_norm])
    def test_orders_broadcast_with_the_argument(self, fn):
        nus, args = np.array([[-0.5], [2.5], [40.0]]), np.array([0.0, 1.3, 30.0, 80.0])
        got = fn(nus, args)
        assert got.shape == (3, 4)
        assert _bits_equal(got, [[fn(float(nu), float(a)) for a in args] for nu in nus[:, 0]])
        one = fn(nus[:, 0], 1.3)  # a scalar argument at an array of orders is an array
        assert isinstance(one, np.ndarray) and _bits_equal(one, got[:, 1])
        assert isinstance(fn(2.5, 1.3), float)

    @pytest.mark.parametrize("fn,arg", [(sf.bessel_j_norm, "z"), (sf.log_bessel_i_norm, "y")])
    @pytest.mark.parametrize("nus,args,message", [
        ([0.5, -1.0], 1.0, "{name} requires nu > -1"),
        ([0.5, NAN], [1.0, 2.0], "{name} requires nu > -1"),
        ([[0.5], [INF]], [1.0, 2.0], "{name} requires nu > -1"),
        # the first failing element names the error, as a scalar call on it would
        ([0.5, -2.0], [NAN, 1.0], "{arg} must not be NaN"),
        ([-2.0, 0.5], [NAN, 1.0], "{name} requires nu > -1"),
        ([0.5, -2.0], [-1.0, 1.0], "{name} requires finite {arg} >= 0"),
    ])
    def test_bad_elements(self, fn, arg, nus, args, message):
        with pytest.raises(ValueError, match=f"^{message.format(name=fn.__name__, arg=arg)}$"):
            fn(np.array(nus), args)

    def test_j_underflow_names_the_first_failing_order(self):
        with pytest.raises(OverflowError) as lone:
            sf.bessel_j_norm(800.0, 175.0)
        nus = np.array([1.0, 700.0, 800.0, 700.0])
        zs = np.array([175.0, 150.0, 175.0, 175.0])
        with pytest.raises(OverflowError, match=f"^{lone.value}$"):
            sf.bessel_j_norm(nus, zs)

    def test_log_i_past_two_to_the_thirty_names_the_first_failing_order(self):
        message = r"^log_bessel_i_norm: y beyond 2\^30 at nu=3\.0; argument too large$"
        with pytest.raises(OverflowError, match=message):
            sf.log_bessel_i_norm(np.array([0.5, 3.0, 10.0]), np.array([1.0, 2e9, 2e9]))


@pytest.mark.parametrize("fn,x,message", [
    # log_gamma: a NaN anywhere names the error, before any other bad value
    (lambda x: sf.log_gamma(x), NAN, "x must not be NaN"),
    (lambda x: sf.log_gamma(x), [NAN, -1.0], "x must not be NaN"),
    (lambda x: sf.log_gamma(x), [-1.0, NAN], "x must not be NaN"),
    (lambda x: sf.log_gamma(x), [[1.0, -1.0], [NAN, 2.0]], "x must not be NaN"),
    (lambda x: sf.log_gamma(x), -INF, _LG_MSG),
    (lambda x: sf.log_gamma(x), [2.0, INF], _LG_MSG),
    (lambda x: sf.log_gamma(x), [1.0, 0.0], _LG_MSG),
    (lambda x: sf.log_gamma(x), -0.0, _LG_MSG),
    # the Bessel functions: the first bad element (row-major) names the error
    (lambda z: sf.bessel_j_norm(0.5, z), NAN, "z must not be NaN"),
    (lambda z: sf.bessel_j_norm(0.5, z), [NAN, -1.0], "z must not be NaN"),
    (lambda z: sf.bessel_j_norm(0.5, z), [-1.0, NAN], _J_MSG),
    (lambda z: sf.bessel_j_norm(0.5, z), [[1.0, -1.0], [NAN, 2.0]], _J_MSG),
    (lambda z: sf.bessel_j_norm(0.5, z), [[1.0, NAN], [-1.0, 2.0]], "z must not be NaN"),
    (lambda z: sf.bessel_j_norm(0.5, z), -INF, _J_MSG),
    (lambda z: sf.bessel_j_norm(0.5, z), [1.0, INF], _J_MSG),
    (lambda y: sf.log_bessel_i_norm(0.5, y), NAN, "y must not be NaN"),
    (lambda y: sf.log_bessel_i_norm(0.5, y), [NAN, -1.0], "y must not be NaN"),
    (lambda y: sf.log_bessel_i_norm(0.5, y), [-1.0, NAN], _I_MSG),
    (lambda y: sf.log_bessel_i_norm(0.5, y), -INF, _I_MSG),
    (lambda y: sf.log_bessel_i_norm(0.5, y), [1.0, INF], _I_MSG),
    # laguerre_L_all: a NaN anywhere names the error, before an infinite x
    (lambda x: sf.laguerre_L_all(3, 0.5, x), NAN, "x must not be NaN"),
    (lambda x: sf.laguerre_L_all(3, 0.5, x), [NAN, -1.0], "x must not be NaN"),
    (lambda x: sf.laguerre_L_all(3, 0.5, x), [-1.0, -INF, NAN], "x must not be NaN"),
])
def test_input_error_messages(fn, x, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(x)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(np.array(x))


@pytest.mark.parametrize("k_max", [math.inf, -math.inf, math.nan])
def test_laguerre_degree_not_finite(k_max):
    # inf raised OverflowError and nan "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="^laguerre degree must be a nonnegative integer$"):
        sf.laguerre_L_all(k_max, 0.5, 1.0)


@pytest.mark.parametrize("fn,extra", [
    (lambda x: sf.log_gamma(x), ()),
    (lambda z: sf.bessel_j_norm(0.5, z), ()),
    (lambda y: sf.log_bessel_i_norm(0.5, y), ()),
    (lambda x: sf.laguerre_L_all(3, 0.5, x), (4,)),
])
@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_arrays_pass_the_checks(fn, extra, shape):
    for x in (np.empty(shape), np.empty(shape).tolist()):
        out = fn(x)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert out.shape == extra + np.shape(x)


@pytest.mark.parametrize("fn", [lambda x: sf.laguerre_L_all(3, 0.5, x),
                                lambda x: sf.laguerre_L(3, 0.5, x)])
@pytest.mark.parametrize("x", [INF, -INF, [2.0, INF], [[1.0, -INF]]])
def test_laguerre_rejects_infinite_x(fn, x):
    # the recurrence returned [1, -inf, inf, nan] at inf, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^laguerre argument x must be finite$"):
            fn(x)
