"""Bessel-Kingman and Laguerre hypergroups.

Translation operators (the convolution of two point masses applied to a test
function), characters of both families, the dual-fan parametrization, the
Haar-weighted Hankel-type Fourier transform on the half-line, and the small
dense eigenvalue machinery used for positive-definiteness certificates.

Convolution integrals carry endpoint-singular weights (sin^(alpha-2) theta on
the half-line family, r (1-r^2)^(alpha-1) on the plane family), so they are
evaluated with weight-matched Gauss-Jacobi nodes; the periodic theta axis of
the Laguerre convolution uses equispaced midpoints, which are spectrally
accurate there. Node counts come from QuadratureSpec.nodes, and every rule is
normalized by its own weight sum so each translation is a probability average
to machine precision.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSpec, gauss_jacobi, integrate
from .specfun import bessel_j_norm, laguerre_L, log_gamma

__all__ = [
    "BesselKingmanParams",
    "LaguerreParams",
    "HeisPoint",
    "DiscretePoint",
    "ContinuousPoint",
    "FanPoint",
    "fan_coords",
    "bk_translate",
    "lag_translate",
    "bk_character",
    "lag_character",
    "psi_heis",
    "bk_fourier",
    "bk_gaussian_gram",
    "jacobi_eigenvalues",
    "min_eig_hermitian",
]


@dataclass(frozen=True)
class BesselKingmanParams:
    """Order of a Bessel-Kingman hypergroup; equals the process dimension."""

    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError("Bessel-Kingman order requires alpha >= 1")


@dataclass(frozen=True)
class LaguerreParams:
    """Order of a Laguerre hypergroup; the process dimension is alpha + 1."""

    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("Laguerre order requires alpha >= 0")


@dataclass(frozen=True)
class HeisPoint:
    """Point (x, w) of the radial Heisenberg-type state space R_+ x R."""

    x: float
    w: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.w)):
            raise ValueError("HeisPoint coordinates must be finite")
        if self.x < 0.0:
            raise ValueError("HeisPoint requires x >= 0")


@dataclass(frozen=True)
class DiscretePoint:
    """Fan point on a discrete ray: embeds as (tau, k |tau|), tau != 0."""

    tau: float
    k: int

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau == 0.0:
            raise ValueError("DiscretePoint requires nonzero finite tau")
        if self.k != int(self.k) or self.k < 0:
            raise ValueError("DiscretePoint requires integer k >= 0")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class ContinuousPoint:
    """Fan point on the continuous ray: embeds as (0, y1), y1 >= 0."""

    y1: float

    def __post_init__(self):
        if not (np.isfinite(self.y1) and self.y1 >= 0.0):
            raise ValueError("ContinuousPoint requires y1 >= 0")


FanPoint = DiscretePoint | ContinuousPoint


def fan_coords(point: FanPoint) -> tuple[float, float]:
    """Plane embedding of a fan point."""
    if isinstance(point, DiscretePoint):
        return point.tau, point.k * abs(point.tau)
    if isinstance(point, ContinuousPoint):
        return 0.0, point.y1
    raise TypeError(f"not a fan point: {point!r}")


def bk_translate(f, x: float, xp: float, p: BesselKingmanParams,
                 q: QuadratureSpec | None = None) -> float:
    """f evaluated at the convolution x * xp of the half-line hypergroup.

    alpha = 1 uses the exact two-point formula (f(x+xp) + f(|x-xp|))/2;
    alpha > 1 averages f(sqrt(x^2 + xp^2 - 2 x xp cos theta)) against the
    normalized sin^(alpha-2) theta weight. f must accept an array of radii.
    """
    q = q or QuadratureSpec()
    if x < 0.0 or xp < 0.0:
        raise ValueError("bk_translate requires x, xp >= 0")
    a = p.alpha
    if a == 1.0:
        vals = f(np.array([x + xp, abs(x - xp)]))
        return 0.5 * float(vals[0] + vals[1])
    # u = cos theta turns the weight into the Jacobi weight (1-u^2)^((a-3)/2)
    u, w = gauss_jacobi(q.nodes, (a - 3.0) / 2.0, (a - 3.0) / 2.0)
    radii = np.sqrt(np.maximum(x * x + xp * xp - 2.0 * x * xp * u, 0.0))
    return float(np.sum(w * f(radii)) / np.sum(w))


def lag_translate(f, a: HeisPoint, b: HeisPoint, p: LaguerreParams,
                  q: QuadratureSpec | None = None) -> complex:
    """f evaluated at the convolution a * b of the plane hypergroup.

    alpha = 0 averages over the circle; alpha > 0 adds the radial average
    against r (1-r^2)^(alpha-1) dr. f must accept arrays (x, w) and may be
    complex-valued.
    """
    q = q or QuadratureSpec()
    al = p.alpha
    n = q.nodes
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xx = a.x * b.x
    if al == 0.0:
        radii = np.sqrt(np.maximum(a.x ** 2 + b.x ** 2 + 2.0 * xx * cos_t, 0.0))
        ws = a.w + b.w + xx * sin_t
        return complex(np.mean(f(radii, ws)))
    # v = r^2 turns r (1-r^2)^(alpha-1) dr into the Jacobi weight (1-v)^(alpha-1)/2
    uv, wv = gauss_jacobi(n, al - 1.0, 0.0)
    r = np.sqrt(0.5 * (uv + 1.0))
    rr, ct = np.meshgrid(r, cos_t)
    _, st = np.meshgrid(r, sin_t)
    radii = np.sqrt(np.maximum(a.x ** 2 + b.x ** 2 + 2.0 * xx * rr * ct, 0.0))
    ws = a.w + b.w + xx * rr * st
    vals = f(radii, ws)
    return complex(np.mean(vals @ wv) / np.sum(wv))


def bk_character(u, x, p: BesselKingmanParams):
    """Character eta_u(x) = j_{alpha/2 - 1}(u x); symmetric in (u, x)."""
    return bessel_j_norm(p.alpha / 2.0 - 1.0, np.multiply(u, x))


def _first_kind_char(alpha: float, tau: float, k: int, x, w):
    """First-kind character at order alpha, vectorized over (x, w)."""
    pref = math.exp(log_gamma(k + 1.0) + log_gamma(alpha + 1.0)
                    - log_gamma(k + alpha + 1.0))
    arg = abs(tau) * np.square(x)
    return pref * np.exp(1j * tau * w - 0.5 * arg) * laguerre_L(k, alpha, arg)


def _second_kind_char(alpha: float, y1: float, x):
    """Second-kind character at order alpha (real, independent of w)."""
    return bessel_j_norm(alpha, 2.0 * np.asarray(x, dtype=float) * math.sqrt(y1))


def lag_character(c: FanPoint, a: HeisPoint, p: LaguerreParams) -> complex:
    """Laguerre-hypergroup character chi_c evaluated at the point a.

    Discrete c = (tau, k): [k! Gamma(alpha+1)/Gamma(k+alpha+1)]
    exp(i tau w - |tau| x^2 / 2) L_k^(alpha)(|tau| x^2).
    Continuous c = (0, y1): j_alpha(2 x sqrt(y1)), real.
    """
    if isinstance(c, DiscretePoint):
        return complex(_first_kind_char(p.alpha, c.tau, c.k, a.x, a.w))
    if isinstance(c, ContinuousPoint):
        return complex(_second_kind_char(p.alpha, c.y1, a.x))
    raise TypeError(f"not a fan point: {c!r}")


def psi_heis(a: HeisPoint) -> complex:
    """Generating exponent psi(x, w) = -i w - x^2 / 2."""
    return complex(-0.5 * a.x * a.x, -a.w)


def bk_fourier(f, u: float, p: BesselKingmanParams,
               q: QuadratureSpec | None = None, cutoff: float = 30.0) -> float:
    """Haar-weighted Hankel-type transform: int_0^cutoff f(x) eta_u(x) x^(alpha-1) dx.

    Warns when the integrand envelope at the cutoff exceeds abs_tol, i.e. when
    the neglected tail is not obviously below the quadrature tolerance.
    """
    q = q or QuadratureSpec()
    if u < 0.0:
        raise ValueError("bk_fourier requires u >= 0")
    if cutoff <= 0.0:
        raise ValueError("bk_fourier requires a positive cutoff")
    a = p.alpha
    tail = abs(float(f(np.array([cutoff]))[0])) * cutoff ** (a - 1.0)
    if tail > q.abs_tol:
        warnings.warn(
            f"bk_fourier tail bound {tail:.3e} exceeds abs_tol {q.abs_tol:.3e}; "
            "increase the cutoff", RuntimeWarning)

    def integrand(xs):
        weight = np.power(xs, a - 1.0) if a != 1.0 else np.ones_like(xs)
        return f(xs) * bk_character(u, xs, p) * weight

    return float(integrate(integrand, 0.0, cutoff, q))


def bk_gaussian_gram(points, t: float, p: BesselKingmanParams,
                     q: QuadratureSpec | None = None) -> np.ndarray:
    """Gram matrix G_mn = E[exp(t psi)] under delta_{x_m} * delta_{x_n}.

    psi(x) = -x^2/2 on the half-line, so each entry is the translation of
    x -> exp(-t x^2 / 2); positive definiteness of exp(t psi) makes G PSD.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("bk_gaussian_gram requires a 1-d point list")
    if t <= 0.0:
        raise ValueError("bk_gaussian_gram requires t > 0")

    def f(r):
        return np.exp(-0.5 * t * r * r)

    n = pts.size
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = bk_translate(f, pts[i], pts[j], p, q)
    return gram


def _require_hermitian(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.conj().T, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("matrix must be symmetric")


def jacobi_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a small real symmetric matrix."""
    m = np.asarray(a, dtype=float)
    _require_hermitian(m)
    return np.linalg.eigvalsh(m)


def min_eig_hermitian(h) -> float:
    """Minimum eigenvalue of a Hermitian (real symmetric or complex) matrix."""
    m = np.asarray(h)
    _require_hermitian(m)
    return float(np.linalg.eigvalsh(m)[0])
