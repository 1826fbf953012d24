"""Tests for the hypergroup module: translations, characters, transforms.

Product-formula oracles are evaluated by independent high-order quadrature;
the Gram matrix's eigenvalues come from numpy's LAPACK wrapper.
"""
import math
import re
import warnings

import numpy as np
import pytest

from hyperbessel import hypergroup as hg
from hyperbessel.quadrature import QuadratureError, QuadratureSpec, gauss_jacobi
from hyperbessel.specfun import laguerre_L, log_gamma

Q = QuadratureSpec()
Q_BIG = QuadratureSpec(nodes=96)
RNG = np.random.default_rng(24601)


class TestParams:
    def test_bk_domain(self):
        hg.BesselKingmanParams(1.0)
        with pytest.raises(ValueError):
            hg.BesselKingmanParams(0.9)

    def test_laguerre_domain(self):
        hg.LaguerreParams(0.0)
        with pytest.raises(ValueError):
            hg.LaguerreParams(-0.1)

    def test_fan_points(self):
        with pytest.raises(ValueError):
            hg.DiscretePoint(0.0, 1)
        with pytest.raises(ValueError):
            hg.DiscretePoint(1.0, -2)
        with pytest.raises(ValueError):
            hg.ContinuousPoint(-0.5)
        assert hg.fan_coords(hg.DiscretePoint(-2.0, 3)) == (-2.0, 6.0)
        assert hg.fan_coords(hg.ContinuousPoint(1.7)) == (0.0, 1.7)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_level(self, k):
        # inf raised OverflowError and nan "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="^DiscretePoint requires integer k >= 0$"):
            hg.DiscretePoint(1.0, k)

    def test_integral_levels(self):
        assert hg.DiscretePoint(1.0, 3.0).k == 3
        assert hg.DiscretePoint(1.0, 2 ** 64 + 1).k == 2 ** 64 + 1
        assert hg.DiscretePoint(1.0, 2.0 ** 70).k == 2 ** 70

    def test_heis_point(self):
        with pytest.raises(ValueError):
            hg.HeisPoint(-1.0, 0.0)


class TestBkTranslate:
    def test_neutral_element(self):
        p = hg.BesselKingmanParams(2.0)
        got = hg.bk_translate(lambda r: np.cos(r), 0.0, 1.3, p, Q)
        assert got == pytest.approx(math.cos(1.3), abs=1e-14)

    def test_alpha_one_closed_form(self):
        p = hg.BesselKingmanParams(1.0)
        assert hg.bk_translate(lambda r: r, 3.0, 1.0, p, Q) == 3.0

    def test_probability_measure(self):
        one = lambda r: np.ones_like(r)
        for alpha in [1.0, 1.2, 2.0, 4.5]:
            p = hg.BesselKingmanParams(alpha)
            for _ in range(5):
                x, xp = RNG.uniform(0.0, 3.0, size=2)
                assert hg.bk_translate(one, x, xp, p, Q) == pytest.approx(1.0, abs=1e-12)

    def test_character_multiplicativity(self):
        # Gegenbauer's product formula in hypergroup form
        for alpha in [1.0, 1.3, 2.0, 3.7]:
            p = hg.BesselKingmanParams(alpha)
            for _ in range(6):
                u, x, xp = RNG.uniform(0.1, 2.5, size=3)
                lhs = hg.bk_translate(lambda r: hg.bk_character(u, r, p), x, xp, p, Q)
                rhs = hg.bk_character(u, x, p) * hg.bk_character(u, xp, p)
                assert abs(lhs - rhs) < 1e-6

    def test_commutativity(self):
        p = hg.BesselKingmanParams(2.6)
        f = lambda r: np.exp(-r)
        assert hg.bk_translate(f, 1.0, 2.0, p, Q) == pytest.approx(
            hg.bk_translate(f, 2.0, 1.0, p, Q), abs=1e-14)


def _parent_bk_translate(f, x, xp, p, q=None):
    """bk_translate of one pair of points, before it took arrays, verbatim."""
    q = q or QuadratureSpec()
    if x < 0.0 or xp < 0.0:
        raise ValueError("bk_translate requires x, xp >= 0")
    a = p.alpha
    if a == 1.0:
        vals = f(np.array([x + xp, abs(x - xp)]))
        return 0.5 * float(vals[0] + vals[1])
    u, w = gauss_jacobi(q.nodes, (a - 3.0) / 2.0, (a - 3.0) / 2.0)
    radii = np.sqrt(np.maximum(x * x + xp * xp - 2.0 * x * xp * u, 0.0))
    return float(np.sum(w * f(radii)) / np.sum(w))


def _parent_gaussian_gram(points, t, p, q):
    """The removed bk_gaussian_gram's double loop of scalar translations, verbatim."""
    pts = np.asarray(points, dtype=float)

    def f(r):
        return np.exp(-0.5 * t * r * r)

    n = pts.size
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = _parent_bk_translate(f, pts[i], pts[j], p, q)
    return gram


class TestBkTranslateArrays:
    @pytest.mark.parametrize("alpha", [1.0, 1.4, 2.5, 3.0, 6.2])
    def test_pairs_keep_the_bits_of_scalar_calls(self, alpha):
        p = hg.BesselKingmanParams(alpha)
        f = lambda r: np.cos(1.3 * r) * np.exp(-0.2 * r)
        xs, xps = RNG.uniform(0.0, 3.0, size=(2, 7))
        got = hg.bk_translate(f, xs[:, None], xps, p, Q)
        assert got.shape == (7, 7)
        for i, x in enumerate(xs):
            for j, xp in enumerate(xps):
                assert got[i, j] == _parent_bk_translate(f, x, xp, p, Q)
        one = hg.bk_translate(f, xs[0], xps[0], p, Q)
        assert type(one) is float and one == got[0, 0]

    def test_rows_at_mixed_orders_keep_the_bits_of_one_order_calls(self):
        # each element at its own order, the two-point mean of alpha = 1 among them
        xs, xps = RNG.uniform(0.0, 3.0, size=(2, 9))
        alphas = np.array([1.0, 2.5, 1.0, 3.7, 2.5, 6.2, 1.0, 1.4, 3.7])
        radii, spread, mean = hg._bk_translate_rows(xs, xps, alphas, Q)
        got = mean(np.cos(spread(alphas) * radii))
        for g, x, xp, a in zip(got, xs, xps, alphas):
            want = hg.bk_translate(lambda r: np.cos(a * r), x, xp, hg.BesselKingmanParams(a), Q)
            assert g == want == _parent_bk_translate(lambda r: np.cos(a * r), x, xp,
                                                     hg.BesselKingmanParams(a), Q)

    def test_negative_point_in_an_array(self):
        p = hg.BesselKingmanParams(2.0)
        with pytest.raises(ValueError, match="^bk_translate requires x, xp >= 0$"):
            hg.bk_translate(np.cos, np.array([0.5, -1.0]), 1.0, p, Q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_point_that_is_not_finite_is_rejected(self, bad):
        # NaN and inf passed the sign guard and returned nan after RuntimeWarnings
        p = hg.BesselKingmanParams(2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, xp in ((bad, 1.0), (1.0, bad), (np.array([0.5, bad]), 1.0)):
                with pytest.raises(ValueError, match="^bk_translate requires finite x, xp$"):
                    hg.bk_translate(np.cos, x, xp, p, Q)
            with pytest.raises(ValueError, match="^bk_translate requires x, xp >= 0$"):
                hg.bk_translate(np.cos, -math.inf, 1.0, p, Q)


def _parent_lag_translate(f, a, b, p, q):
    """lag_translate with its (theta, r) grid from np.meshgrid, verbatim."""
    al = p.alpha
    n = q.nodes
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xx = a.x * b.x
    if al == 0.0:
        radii = np.sqrt(np.maximum(a.x ** 2 + b.x ** 2 + 2.0 * xx * cos_t, 0.0))
        ws = a.w + b.w + xx * sin_t
        return complex(np.mean(f(radii, ws)))
    uv, wv = gauss_jacobi(n, al - 1.0, 0.0)
    r = np.sqrt(0.5 * (uv + 1.0))
    rr, ct = np.meshgrid(r, cos_t)
    _, st = np.meshgrid(r, sin_t)
    radii = np.sqrt(np.maximum(a.x ** 2 + b.x ** 2 + 2.0 * xx * rr * ct, 0.0))
    ws = a.w + b.w + xx * rr * st
    vals = f(radii, ws)
    return complex(np.mean(vals @ wv) / np.sum(wv))


class TestLagTranslate:
    def test_one_path_matches_the_two_path_parent(self):
        # alpha = 0 is the one-node radial table r = weight = 1, so every
        # operation is exact and the bits stay; alpha > 0 sums the weights by
        # np.sum instead of the BLAS product vals @ wv, which moves last bits
        for alpha in [0.0, 0.4, 1.0, 2.9]:
            p = hg.LaguerreParams(alpha)
            for c in [hg.DiscretePoint(-1.3, 3), hg.ContinuousPoint(1.9)]:
                f = lambda x, w: hg._lag_char(c, alpha, x, w)
                for q in [Q, QuadratureSpec(nodes=17)]:
                    for _ in range(3):
                        a = hg.HeisPoint(*RNG.uniform(0.0, 2.0, size=2))
                        b = hg.HeisPoint(*RNG.uniform(0.0, 2.0, size=2))
                        got = hg.lag_translate(f, a, b, p, q)
                        want = _parent_lag_translate(f, a, b, p, q)
                        if alpha == 0.0:
                            assert got == want
                        else:
                            assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("alpha", [1e-6, 1e-9])
    @pytest.mark.parametrize("c", [hg.DiscretePoint(-1.3, 3), hg.ContinuousPoint(1.9)])
    def test_continuous_at_alpha_zero(self, alpha, c):
        # the radial measure r (1-r^2)^(alpha-1) dr collapses onto r = 1 as
        # alpha -> 0: the translation at small alpha approaches the circle average
        a, b = hg.HeisPoint(0.9, 0.3), hg.HeisPoint(1.2, -0.7)
        f = lambda x, w: hg._lag_char(c, 0.5, x, w)
        near = hg.lag_translate(f, a, b, hg.LaguerreParams(alpha), Q)
        at_zero = hg.lag_translate(f, a, b, hg.LaguerreParams(0.0), Q)
        assert 0.0 < abs(near - at_zero) <= alpha

    def test_fractional_node_count_is_rejected(self):
        # 16.5 nodes were accepted at alpha 0: 17 midpoints spaced 2 pi / 16.5
        # gave 0.03766+0.00337j, where 16 and 17 nodes both give 0.05113+0.00513j
        f = lambda x, w: hg._first_kind_char(0.0, 1.0, 2, x, w)
        a, b, p = hg.HeisPoint(0.7, 0.2), hg.HeisPoint(0.5, -0.1), hg.LaguerreParams(0.0)
        with pytest.raises(ValueError, match="^QuadratureSpec.nodes must be an integer$"):
            hg.lag_translate(f, a, b, p, QuadratureSpec(nodes=16.5))
        for n in (16, 17):
            got = hg.lag_translate(f, a, b, p, QuadratureSpec(nodes=float(n)))
            assert got == hg.lag_translate(f, a, b, p, QuadratureSpec(nodes=n))
            assert got == pytest.approx(0.05113 + 0.00513j, abs=1e-5)

    def test_neutral_element(self):
        p = hg.LaguerreParams(0.7)
        b = hg.HeisPoint(1.4, -0.6)
        f = lambda x, w: np.exp(1j * w) * np.cos(x)
        got = hg.lag_translate(f, hg.HeisPoint(0.0, 0.0), b, p, Q)
        assert got == pytest.approx(cmath_exp(b), abs=1e-13)

    def test_probability_measure(self):
        one = lambda x, w: np.ones_like(x) + 0j
        for alpha in [0.0, 0.5, 1.0, 3.2]:
            p = hg.LaguerreParams(alpha)
            for _ in range(4):
                ax, bx = RNG.uniform(0.0, 2.0, size=2)
                aw, bw = RNG.uniform(-2.0, 2.0, size=2)
                got = hg.lag_translate(one, hg.HeisPoint(ax, aw), hg.HeisPoint(bx, bw), p, Q)
                assert got == pytest.approx(1.0, abs=1e-12)

    def test_character_product_spec_example(self):
        # chi at (tau=1, k=0), a = b = (1, 0), alpha = 0.5 -> e^{-1}
        p = hg.LaguerreParams(0.5)
        c = hg.DiscretePoint(1.0, 0)
        a = hg.HeisPoint(1.0, 0.0)
        fn = lambda x, w: hg._first_kind_char(0.5, 1.0, 0, x, w)
        got = hg.lag_translate(fn, a, a, p, Q_BIG)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert got == pytest.approx(hg.lag_character(c, a, p) ** 2, abs=1e-9)

    def test_character_multiplicativity_both_kinds(self):
        for alpha in [0.0, 0.5, 2.7]:
            p = hg.LaguerreParams(alpha)
            a = hg.HeisPoint(1.1, 0.4)
            b = hg.HeisPoint(0.7, -0.9)
            cases = [hg.DiscretePoint(0.8, 0), hg.DiscretePoint(-1.3, 3),
                     hg.ContinuousPoint(1.9)]
            for c in cases:
                if isinstance(c, hg.DiscretePoint):
                    fn = lambda x, w: hg._first_kind_char(alpha, c.tau, c.k, x, w)
                else:
                    fn = lambda x, w: hg._second_kind_char(alpha, c.y1, x) + 0j * w
                lhs = hg.lag_translate(fn, a, b, p, Q)
                rhs = hg.lag_character(c, a, p) * hg.lag_character(c, b, p)
                assert abs(lhs - rhs) < 1e-6


def _parent_first_kind_char(alpha, tau, k, x, w):
    """_first_kind_char of one degree, before it read a table, verbatim."""
    pref = math.exp(log_gamma(k + 1.0) + log_gamma(alpha + 1.0)
                    - log_gamma(k + alpha + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        arg = abs(tau) * np.square(x)
        out = pref * np.exp(1j * tau * w - 0.5 * arg) * laguerre_L(k, alpha, arg)
    bad = ~np.isfinite(out)
    if np.any(bad):
        i = np.argmax(bad)
        xi, wi = (float(np.ravel(v)[i]) for v in np.broadcast_arrays(x, w))
        raise OverflowError(f"lag_character: L_k overflows at x={xi!r}, w={wi!r} "
                            f"(tau={tau!r}, k={k}); degree too large")
    return out


def _bits(z):
    return np.shape(z), np.asarray(z, dtype=complex).tobytes()


class TestFirstKindTable:
    ALPHAS = (-0.6, 0.0, 0.5, 2.7, 9.0)
    TAUS = (-2.3, -0.4, 0.7, 3.1)

    def test_scalar_degree_keeps_the_bits(self):
        rng = np.random.default_rng(1602)
        xs, ws = rng.uniform(0.0, 6.0, size=(4, 5)), rng.uniform(-3.0, 3.0, size=(4, 5))
        for alpha in self.ALPHAS:
            for tau in self.TAUS:
                for k in (0, 1, 2, 7, 30):
                    assert _bits(hg._first_kind_char(alpha, tau, k, xs, ws)) == _bits(
                        _parent_first_kind_char(alpha, tau, k, xs, ws))
                    one = hg._first_kind_char(alpha, tau, k, xs[1, 2], ws[1, 2])
                    assert _bits(one) == _bits(
                        _parent_first_kind_char(alpha, tau, k, xs[1, 2], ws[1, 2]))

    def test_degree_axis_keeps_the_bits(self):
        # degrees first, then the broadcast of x (a row) and w (a column)
        rng = np.random.default_rng(1603)
        xs, ws = rng.uniform(0.0, 6.0, size=5), rng.uniform(-3.0, 3.0, size=(4, 1))
        for alpha in self.ALPHAS:
            for tau in self.TAUS:
                for ks in (np.arange(31), np.array([12, 0, 3])):
                    table = hg._first_kind_char(alpha, tau, ks, xs, ws)
                    assert table.shape == (ks.size, 4, 5)
                    for row, k in zip(table, ks):
                        assert _bits(row) == _bits(_parent_first_kind_char(alpha, tau, int(k), xs, ws))

    def test_overflow_names_the_first_bad_degree(self):
        # a table raises what a scalar call at its lowest overflowing degree raises
        xs, ws = np.array([1.0, 40.0, 60.0]), np.array([0.5, -0.5, 0.0])
        first_bad = None
        for k in range(0, 2001, 50):
            try:
                _parent_first_kind_char(0.5, 1.0, k, xs, ws)
            except OverflowError as exc:
                first_bad = exc
                break
        assert first_bad is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as got:
                hg._first_kind_char(0.5, 1.0, np.arange(0, 2001, 50), xs, ws)
            assert str(got.value) == str(first_bad)
            with pytest.raises(OverflowError) as got:
                hg._first_kind_char(0.5, 1.0, 2000, 60.0, 0.0)
        assert str(got.value) == ("lag_character: L_k overflows at x=60.0, w=0.0 "
                                  "(tau=1.0, k=2000); degree too large")


class TestCharacters:
    def test_bk_alpha_one_is_cosine(self):
        p = hg.BesselKingmanParams(1.0)
        for u, x in [(0.3, 1.0), (2.0, 0.7), (1.0, math.pi)]:
            assert hg.bk_character(u, x, p) == pytest.approx(math.cos(u * x), abs=1e-13)

    def test_bk_alpha_three_is_sinc(self):
        p = hg.BesselKingmanParams(3.0)
        assert hg.bk_character(1.0, math.pi, p) == pytest.approx(0.0, abs=1e-13)

    def test_bk_at_zero(self):
        p = hg.BesselKingmanParams(2.4)
        assert hg.bk_character(1.7, 0.0, p) == 1.0

    def test_bk_self_duality(self):
        p = hg.BesselKingmanParams(2.0)
        for u, x in RNG.uniform(0.1, 3.0, size=(8, 2)):
            assert hg.bk_character(u, x, p) == hg.bk_character(x, u, p)

    @pytest.mark.parametrize("u,x,message", [
        (1e308, 10.0, "bk_character: u*x overflows at u=1e+308, x=10.0"),
        ([1.0, -1e308, 1e308], 10.0, "bk_character: u*x overflows at u=-1e+308, x=10.0"),
        ([[1e308], [math.nan]], [0.5, 2.0], "bk_character: u*x overflows at u=1e+308, x=2.0"),
        ([[math.nan], [1e308]], [0.5, 2.0], "z must not be NaN"),
        ([-1.0, 1e308], 10.0, "bessel_j_norm requires finite z >= 0"),
        ([1.0, math.inf], 10.0, "bessel_j_norm requires finite z >= 0"),
    ])
    def test_bk_overflowing_argument_is_one_error(self, u, x, message):
        # the first rejected point names the error, with no numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                hg.bk_character(np.array(u), np.array(x), hg.BesselKingmanParams(2.0))

    def test_lag_character_neutral(self):
        p = hg.LaguerreParams(1.3)
        e = hg.HeisPoint(0.0, 0.0)
        for c in [hg.DiscretePoint(2.0, 4), hg.ContinuousPoint(0.0), hg.ContinuousPoint(3.0)]:
            assert hg.lag_character(c, e, p) == pytest.approx(1.0, abs=1e-14)

    def test_lag_character_k0_closed_form(self):
        p = hg.LaguerreParams(0.9)
        a = hg.HeisPoint(1.2, 0.7)
        tau = -1.4
        want = np.exp(1j * tau * a.w - 0.5 * abs(tau) * a.x ** 2)
        got = hg.lag_character(hg.DiscretePoint(tau, 0), a, p)
        assert got == pytest.approx(want, abs=1e-14)

    def test_involution_conjugates(self):
        p = hg.LaguerreParams(0.6)
        a = hg.HeisPoint(0.9, 1.3)
        a_bar = hg.HeisPoint(0.9, -1.3)
        for c in [hg.DiscretePoint(1.1, 2), hg.ContinuousPoint(0.8)]:
            lhs = hg.lag_character(c, a_bar, p)
            rhs = np.conj(hg.lag_character(c, a, p))
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_lag_character_overflow_raises(self):
        # L_2000(3600) overflows while exp(-1800) underflows; the product was nan
        p = hg.LaguerreParams(0.5)
        c = hg.DiscretePoint(1.0, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"x=60\.0, w=0\.0 "):
                hg.lag_character(c, hg.HeisPoint(60.0, 0.0), p)
            # on a grid, the first non-finite point in row-major order is named
            xs, ws = np.meshgrid([1.0, 40.0, 60.0], [-0.5, 0.5], indexing="ij")
            with pytest.raises(OverflowError, match=r"x=40\.0, w=-0\.5 "):
                hg.lag_character(c, hg.HeisPoint(xs, ws), p)
            assert math.isfinite(abs(hg.lag_character(c, hg.HeisPoint(1.0, 0.5), p)))

    def test_argument_past_the_double_range(self):
        # |tau| x^2 overflows to inf: exp(-inf) = 0 times the finite L_k(0)
        # placeholder is 0 at every degree, as the character is there
        p = hg.LaguerreParams(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 1, 2, 3):
                for w in (-1.0, 0.0, 1.0):
                    got = hg.lag_character(hg.DiscretePoint(1.0, k), hg.HeisPoint(1e200, w), p)
                    assert got == 0.0
            xs = np.array([0.5, 1e200])
            got = hg._first_kind_char(0.5, 1.0, np.arange(3), xs, 0.0)
            assert np.all(got[:, 1] == 0.0)
            for k in range(3):
                assert got[k, 0] == hg._first_kind_char(0.5, 1.0, k, 0.5, 0.0)
            # a finite but huge argument still overflows L_k
            with pytest.raises(OverflowError, match=r"x=1e\+153, w=0\.0 \(tau=1\.0, k=3\)"):
                hg.lag_character(hg.DiscretePoint(1.0, 3), hg.HeisPoint(1e153, 0.0), p)

    def test_psi(self):
        assert hg.psi_heis(hg.HeisPoint(0.0, 0.0)) == 0.0
        assert hg.psi_heis(hg.HeisPoint(1.0, 0.0)) == -0.5
        assert hg.psi_heis(hg.HeisPoint(2.0, 3.0)) == complex(-2.0, -3.0)


class TestBkFourier:
    def test_zero_function(self):
        p = hg.BesselKingmanParams(2.0)
        z = lambda xs: np.zeros_like(xs)
        assert hg.bk_fourier(z, 1.0, p, Q, cutoff=5.0) == 0.0

    def test_gaussian_cosine_transform(self):
        # alpha = 1: int_0^inf e^{-x^2/2} cos(ux) dx = sqrt(pi/2) e^{-u^2/2}
        p = hg.BesselKingmanParams(1.0)
        g = lambda xs: np.exp(-0.5 * xs * xs)
        for u in [0.0, 0.7, 2.0]:
            got = hg.bk_fourier(g, u, p, Q, cutoff=12.0)
            want = math.sqrt(math.pi / 2.0) * math.exp(-0.5 * u * u)
            assert got == pytest.approx(want, abs=1e-10)

    def test_gaussian_moment_alpha_three(self):
        p = hg.BesselKingmanParams(3.0)
        g = lambda xs: np.exp(-0.5 * xs * xs)
        got = hg.bk_fourier(g, 0.0, p, Q, cutoff=12.0)
        assert got == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)

    def test_tail_warning(self):
        p = hg.BesselKingmanParams(2.0)
        g = lambda xs: np.exp(-0.5 * xs * xs)
        with pytest.warns(RuntimeWarning):
            hg.bk_fourier(g, 0.5, p, Q, cutoff=1.0)


    @pytest.mark.parametrize("alpha,fn,cutoff,tol", [
        (1.0, "gaussian", 12.0, 1e-10),
        (2.5, "gaussian", 12.0, 1e-12),
        (3.7, "gaussian", 8.0, 1e-10),
        (2.0, "indicator", 1.0, 1e-10),
    ])
    def test_u_array_matches_scalar_calls(self, alpha, fn, cutoff, tol):
        p = hg.BesselKingmanParams(alpha)
        q = QuadratureSpec(abs_tol=tol)
        f = {"gaussian": lambda xs: np.exp(-0.5 * xs * xs),
             "indicator": lambda xs: np.where(xs <= 1.0, 1.0, 0.0)}[fn]
        us = np.linspace(0.0, 12.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = hg.bk_fourier(f, us, p, q, cutoff=cutoff)
            want = [hg.bk_fourier(f, u, p, q, cutoff=cutoff) for u in us.tolist()]
        assert got.shape == us.shape and got.dtype == float
        assert got.tolist() == want
        assert all(type(v) is float for v in want)

    def test_u_array_warns_once(self):
        p = hg.BesselKingmanParams(2.0)
        g = lambda xs: np.exp(-0.5 * xs * xs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hg.bk_fourier(g, np.linspace(0.0, 2.0, 5), p, Q, cutoff=1.0)
        assert len(caught) == 1 and "tail bound" in str(caught[0].message)

    def test_empty_u_array(self):
        p = hg.BesselKingmanParams(2.0)
        got = hg.bk_fourier(lambda xs: np.exp(-xs), np.array([]), p, Q)
        assert got.shape == (0,)

    @pytest.mark.parametrize("us,error,message", [
        ([1.0, -1.0, 2.0], ValueError, "bk_fourier requires u >= 0"),
        ([-1.0], ValueError, "bk_fourier requires u >= 0"),
        ([1.0, math.nan, 2.0], ValueError, "z must not be NaN"),
        ([math.nan, -1.0], ValueError, "z must not be NaN"),
        ([1.0, math.inf], ValueError, "bessel_j_norm requires finite z >= 0"),
    ])
    def test_u_array_errors_as_a_loop_over_u(self, us, error, message):
        p = hg.BesselKingmanParams(2.0)
        g = lambda xs: np.exp(-0.5 * xs * xs)
        with pytest.raises(error, match=f"^{message}$"):
            hg.bk_fourier(g, np.array(us), p, Q, cutoff=12.0)
        first_bad = next(u for u in us if not (math.isfinite(u) and u >= 0.0))
        with pytest.raises(error, match=f"^{message}$"):
            hg.bk_fourier(g, first_bad, p, Q, cutoff=12.0)

    def test_exhausted_u_before_a_negative_u(self):
        # a loop over u exhausts at u = 0 (one bisection allowed) before it reaches u = -1
        p = hg.BesselKingmanParams(1.1)
        g = lambda xs: np.exp(-0.5 * xs * xs)
        with pytest.raises(QuadratureError, match=r"exhausted on \[0, 15\]"):
            hg.bk_fourier(g, np.array([0.0, -1.0]), p, QuadratureSpec(max_depth=1))


class TestEigen:
    @pytest.mark.parametrize("nodes", [16, 64, 200])
    def test_gram_psd(self, nodes):
        # the Gram matrix from one bk_translate call on the grid of pairs has
        # the bits of the removed scalar double loop and is exactly symmetric
        pts = np.linspace(0.3, 2.7, 9)
        q = QuadratureSpec(nodes=nodes)
        for delta in [1.0, 1.5, 2.5, 4.2]:
            p = hg.BesselKingmanParams(delta)
            for t in [0.1, 1.0, 5.0]:
                g = hg.bk_translate(lambda r: np.exp(-0.5 * t * r * r),
                                    pts[:, None], pts[None, :], p, q)
                assert g.tobytes() == _parent_gaussian_gram(pts, t, p, q).tobytes()
                assert np.array_equal(g, g.T)
                assert np.linalg.eigvalsh(g)[0] >= -1e-10


def cmath_exp(b):
    return complex(np.exp(1j * b.w) * np.cos(b.x))
