"""Tests for the Gauss-Legendre / Gauss-Jacobi / adaptive quadrature layer."""
import math

import numpy as np
import pytest

from hyperbessel.quadrature import (
    QuadratureError,
    QuadratureSpec,
    gauss_jacobi,
    gauss_legendre,
    integrate,
    integrate_fixed,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=8)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)


def test_gauss_legendre_polynomial_exactness():
    # order-n rule integrates degree 2n-1 exactly
    x, w = gauss_legendre(16)
    for deg in [0, 5, 17, 31]:
        got = np.sum(w * x ** deg)
        want = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert got == pytest.approx(want, abs=1e-14)


def test_gauss_jacobi_weight_mass():
    # sum of weights equals the beta-function mass of (1-x)^a (1+x)^b
    for a, b in [(0.25, 0.25), (-0.5, -0.5), (1.7, 0.0)]:
        _, w = gauss_jacobi(32, a, b)
        want = (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
                / math.gamma(a + b + 2.0))
        assert np.sum(w) == pytest.approx(want, rel=1e-13)


def test_fixed_vs_closed_form():
    got = integrate_fixed(lambda x: np.exp(-x * x), 0.0, 6.0, 64)
    assert got == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-13)


def test_adaptive_matches_closed_form():
    spec = QuadratureSpec(abs_tol=1e-12)
    got = integrate(lambda x: np.cos(x) * np.exp(-0.1 * x), 0.0, 20.0, spec)
    # int cos(x) e^{-cx} = [e^{-cx}(sin x - c cos x)/(1+c^2)]
    c = 0.1

    def anti(x):
        return math.exp(-c * x) * (math.sin(x) - c * math.cos(x)) / (1 + c * c)

    assert got == pytest.approx(anti(20.0) - anti(0.0), abs=1e-11)


def test_adaptive_handles_mild_endpoint_singularity():
    spec = QuadratureSpec(abs_tol=1e-10)
    got = integrate(lambda x: np.sqrt(x), 0.0, 1.0, spec)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_adaptive_complex_integrand():
    spec = QuadratureSpec(abs_tol=1e-12)
    got = integrate(lambda x: np.exp(1j * x), 0.0, math.pi, spec)
    assert got == pytest.approx(2j, abs=1e-11)


def test_adaptive_depth_exhaustion_raises():
    # an interior |x - c|^(-0.9) singularity cannot be bisected to 1e-14 in 8 levels
    c = 1.0 / math.sqrt(2.0)
    spec = QuadratureSpec(abs_tol=1e-14, max_depth=8)
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.abs(x - c) ** -0.9, 0.0, 1.0, spec)


def test_degenerate_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, 1.0)
