"""Bessel-Kingman and Laguerre hypergroups.

Translation operators (the convolution of two point masses applied to a test
function), characters of both families, the dual-fan parametrization and the
Haar-weighted Hankel-type Fourier transform on the half-line. Each Laguerre
character is written once, in _first_kind_char (a whole table of degrees from
one laguerre_L_all call) and _second_kind_char, and _lag_char is the one place
that picks the kind of a fan point. _bk_translate_rows takes an f(radii, rows)
as integrate_rows does, at points that carry their order; bk_translate is its
one-order call on arrays of points, with an f of the radii alone.

Convolution integrals carry endpoint-singular weights (sin^(alpha-2) theta on
the half-line family, r (1-r^2)^(alpha-1) on the plane family), so they are
evaluated with weight-matched Gauss-Jacobi nodes (on the plane at alpha = 0,
the one node r = 1); the periodic theta axis of the Laguerre convolution uses
equispaced midpoints, which are spectrally accurate there. Node counts come
from QuadratureSpec.nodes, and every rule is normalized by its own weight sum,
summed with no BLAS product, so each translation is a probability average to
machine precision.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSpec, gauss_jacobi, integrate_rows
from .specfun import bessel_j_norm, laguerre_L_all, log_gamma

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
    """Point (x, w) of the radial Heisenberg-type state space R_+ x R.

    x and w may also be arrays that broadcast together: a grid of points,
    each checked as a single point would be, in row-major order.
    """

    x: float | np.ndarray
    w: float | np.ndarray

    def __post_init__(self):
        finite = np.isfinite(self.x) & np.isfinite(self.w)
        bad = ~finite | (np.asarray(self.x) < 0.0)
        if np.any(bad):
            if not np.ravel(finite)[np.argmax(bad)]:
                raise ValueError("HeisPoint coordinates must be finite")
            raise ValueError("HeisPoint requires x >= 0")


@dataclass(frozen=True)
class DiscretePoint:
    """Fan point on a discrete ray: embeds as (tau, k |tau|), tau != 0."""

    tau: float
    k: int

    def __post_init__(self):
        if not math.isfinite(self.tau) or self.tau == 0.0:
            raise ValueError("DiscretePoint requires nonzero finite tau")
        if not (0 <= self.k < math.inf and self.k % 1 == 0):
            raise ValueError("DiscretePoint requires integer k >= 0")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class ContinuousPoint:
    """Fan point on the continuous ray: embeds as (0, y1), y1 >= 0."""

    y1: float

    def __post_init__(self):
        if not (math.isfinite(self.y1) and self.y1 >= 0.0):
            raise ValueError("ContinuousPoint requires y1 >= 0")


FanPoint = DiscretePoint | ContinuousPoint


def fan_coords(point: FanPoint) -> tuple[float, float]:
    """Plane embedding of a fan point."""
    if isinstance(point, DiscretePoint):
        return point.tau, point.k * abs(point.tau)
    if isinstance(point, ContinuousPoint):
        return 0.0, point.y1
    raise TypeError(f"not a fan point: {point!r}")


def bk_translate(f, x, xp, p: BesselKingmanParams, q: QuadratureSpec | None = None):
    """f evaluated at the convolution x * xp of the half-line hypergroup.

    alpha = 1 uses the exact two-point formula (f(x+xp) + f(|x-xp|))/2;
    alpha > 1 averages f(sqrt(x^2 + xp^2 - 2 x xp cos theta)) against the
    normalized sin^(alpha-2) theta weight. x and xp may be arrays that
    broadcast together: one value per pair, each with the bits of a scalar
    call, from one call of f on the nodes of every pair (a 1-d array). A
    float for scalar x, xp. This is _bk_translate_rows at one order, with an
    f that ignores the rows.
    """
    out = _bk_translate_rows(lambda radii, _: f(radii), x, xp, p.alpha, q or QuadratureSpec())
    return float(out) if np.ndim(out) == 0 else out


def _bk_translate_rows(f, x, xp, alpha, q: QuadratureSpec):
    """The translation x * xp of f at each element of the broadcast of x, xp
    and alpha (orders >= 1), each at its own order, shaped like the
    broadcast. As in integrate_rows, f is called once as f(radii, rows): the
    nodes of every element in one 1-d array, and the flat index of each
    node's element. Elements of one order share one rule."""
    x, xp, alpha = (np.asarray(v, dtype=float) for v in (x, xp, alpha))
    if np.any(x < 0.0) or np.any(xp < 0.0):
        raise ValueError("bk_translate requires x, xp >= 0")
    if not (np.all(x < math.inf) and np.all(xp < math.inf)):  # NaN included
        raise ValueError("bk_translate requires finite x, xp")
    shape = np.broadcast(x, xp, alpha).shape
    x, xp, alpha = (np.broadcast_to(v, shape).ravel() for v in (x, xp, alpha))
    groups = []  # (elements, radii on a trailing node axis, weights) per order
    for a in np.unique(alpha):
        at = np.flatnonzero(alpha == a)
        xa, xpa = x[at][:, None], xp[at][:, None]
        if a == 1.0:  # weights 1 and 1 over their sum 2: the two-point mean, bit for bit
            radii, w = np.concatenate((xa + xpa, abs(xa - xpa)), axis=-1), np.ones(2)
        else:
            # u = cos theta turns the weight into the Jacobi weight (1-u^2)^((a-3)/2)
            u, w = gauss_jacobi(q.nodes, (a - 3.0) / 2.0, (a - 3.0) / 2.0)
            radii = np.sqrt(np.maximum(xa * xa + xpa * xpa - 2.0 * xa * xpa * u, 0.0))
        groups.append((at, radii, w))
    nodes = np.concatenate([np.empty(0)] + [radii.ravel() for _, radii, _ in groups])
    rows = np.concatenate([np.empty(0, int)] + [np.repeat(at, radii.shape[1])
                                                for at, radii, _ in groups])
    values = f(nodes, rows)
    out, start = np.empty(x.size, dtype=values.dtype), 0
    for at, radii, w in groups:
        out[at] = np.sum(w * values[start:start + radii.size].reshape(radii.shape),
                         axis=-1) / np.sum(w)
        start += radii.size
    return out.reshape(shape)


def lag_translate(f, a: HeisPoint, b: HeisPoint, p: LaguerreParams,
                  q: QuadratureSpec | None = None) -> complex:
    """f evaluated at the convolution a * b of the plane hypergroup.

    The circle average of the radial average against r (1-r^2)^(alpha-1) dr,
    which is the point mass at r = 1 when alpha = 0: one f call on the (theta,
    r) grid for every order, weights summed with no BLAS product. f must
    accept arrays (x, w) and may be complex-valued.
    """
    q = q or QuadratureSpec()
    n = q.nodes
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    if p.alpha == 0.0:
        r = wv = np.ones(1)
    else:
        # v = r^2 turns r (1-r^2)^(alpha-1) dr into the Jacobi weight (1-v)^(alpha-1)/2
        uv, wv = gauss_jacobi(n, p.alpha - 1.0, 0.0)
        r = np.sqrt(0.5 * (uv + 1.0))
    # rows are theta, columns r
    xx = a.x * b.x
    radii = np.sqrt(np.maximum(a.x ** 2 + b.x ** 2 + 2.0 * xx * r * np.cos(theta)[:, None], 0.0))
    ws = a.w + b.w + xx * r * np.sin(theta)[:, None]
    return complex(np.mean(np.sum(wv * f(radii, ws), axis=-1)) / np.sum(wv))


def bk_character(u, x, p: BesselKingmanParams):
    """Character eta_u(x) = j_{alpha/2 - 1}(u x); symmetric in (u, x).

    Where the first point (row-major) that bessel_j_norm rejects is a finite
    u and x whose product overflows, the ValueError names u and x instead.
    """
    with np.errstate(over="ignore"):
        z = np.multiply(u, x)
    try:
        return bessel_j_norm(p.alpha / 2.0 - 1.0, z)
    except ValueError:
        u, x = np.broadcast_arrays(u, x)
        i = np.argmax(~np.isfinite(z) | (z < 0.0))
        if np.isinf(z.flat[i]) and np.isfinite(u.flat[i]) and np.isfinite(x.flat[i]):
            raise ValueError(f"bk_character: u*x overflows at u={float(u.flat[i])!r}, "
                             f"x={float(x.flat[i])!r}") from None
        raise


def _first_kind_char(alpha: float, tau: float, k, x, w, name: str = "lag_character"):
    """First-kind character at order alpha, vectorized over (x, w) and the
    degrees k (a degree axis first when k is an array), every degree from one
    laguerre_L_all table and its prefactor from math.exp, so each value has
    the bits of a scalar-degree call.

    Raises OverflowError, prefixed by name, at the first degree and point
    (row-major) where the product is not finite: for large k and |tau| x^2,
    L_k overflows the double range while exp(-|tau| x^2 / 2) underflows.
    """
    ks = np.asarray(k)
    x, w = np.broadcast_arrays(x, w)
    log_pref = np.ravel(log_gamma(ks + 1.0) + log_gamma(alpha + 1.0)
                        - log_gamma(ks + alpha + 1.0))
    pref = np.array([math.exp(v) for v in log_pref]).reshape(ks.shape + (1,) * x.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        arg = abs(tau) * np.square(x)
        # past the double range exp(-inf) = 0 times a finite placeholder L_k(0)
        table = laguerre_L_all(ks.max(), alpha, np.where(np.isinf(arg), 0.0, arg))
        out = pref * np.exp(1j * tau * w - 0.5 * arg) * table[ks]
    bad = ~np.isfinite(out)
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise OverflowError(f"{name}: L_k overflows at x={float(x[i[ks.ndim:]])!r}, "
                            f"w={float(w[i[ks.ndim:]])!r} (tau={float(tau)!r}, "
                            f"k={int(ks[i[:ks.ndim]])}); degree too large")
    return out


def _second_kind_char(alpha: float, y1: float, x):
    """Second-kind character at order alpha (real, independent of w); alpha may
    be an array of orders that broadcasts with x."""
    return bessel_j_norm(alpha, 2.0 * np.asarray(x, dtype=float) * math.sqrt(y1))


def _lag_char(c: FanPoint, alpha: float, x, w, name: str = "lag_character"):
    """chi_c(x, w) at order alpha > -1, complex, shaped like the broadcast of
    x and w: the one place that picks the character kind of a fan point."""
    if isinstance(c, DiscretePoint):
        return _first_kind_char(alpha, c.tau, c.k, x, w, name)
    if isinstance(c, ContinuousPoint):
        return _second_kind_char(alpha, c.y1, x) + 0.0j * w
    raise TypeError(f"not a fan point: {c!r}")


def lag_character(c: FanPoint, a: HeisPoint, p: LaguerreParams):
    """Laguerre-hypergroup character chi_c evaluated at the point a.

    Discrete c = (tau, k): [k! Gamma(alpha+1)/Gamma(k+alpha+1)]
    exp(i tau w - |tau| x^2 / 2) L_k^(alpha)(|tau| x^2).
    Continuous c = (0, y1): j_alpha(2 x sqrt(y1)), real.
    A complex for a single point; a complex array shaped like the grid when
    a holds coordinate arrays.
    """
    out = _lag_char(c, p.alpha, a.x, a.w)
    return complex(out) if np.ndim(out) == 0 else out


def psi_heis(a: HeisPoint) -> complex:
    """Generating exponent psi(x, w) = -i w - x^2 / 2."""
    return complex(-0.5 * a.x * a.x, -a.w)


def bk_fourier(f, u, p: BesselKingmanParams,
               q: QuadratureSpec | None = None, cutoff: float = 30.0):
    """Haar-weighted Hankel-type transform: int_0^cutoff f(x) eta_u(x) x^(alpha-1) dx.

    The Haar weight is the endpoint power beta = alpha - 1 of integrate_rows:
    the panel at 0 integrates f eta_u against it with Gauss-Jacobi nodes, so
    a non-integer alpha costs no bisections toward 0. u may be a 1-d array:
    one integral per u from one integrate_rows call, each with the bits and
    the error of a loop of scalar calls. Warns when the integrand envelope at
    the cutoff exceeds abs_tol, i.e. when the neglected tail is not obviously
    below the quadrature tolerance.
    """
    q = q or QuadratureSpec()
    us = np.asarray(u, dtype=float).ravel()
    if not us.size:
        return np.empty(0)
    n_ok = int(np.argmin(np.append(np.isfinite(us) & (us >= 0.0), False)))  # first bad u
    if us[0] < 0.0:
        raise ValueError("bk_fourier requires u >= 0")
    if not 0.0 < cutoff < math.inf:
        raise ValueError("bk_fourier requires a finite positive cutoff")
    a = p.alpha
    tail = abs(float(f(np.array([cutoff]))[0])) * cutoff ** (a - 1.0)
    if tail > q.abs_tol:
        warnings.warn(
            f"bk_fourier tail bound {tail:.3e} exceeds abs_tol {q.abs_tol:.3e}; "
            "increase the cutoff", RuntimeWarning)

    def integrand(xs, rows):
        return f(xs) * bk_character(us[rows], xs, p)

    values = integrate_rows(integrand, [(0.0, cutoff)] * n_ok, q, [a - 1.0] * n_ok)
    if n_ok < us.size:
        if us[n_ok] < 0.0:
            raise ValueError("bk_fourier requires u >= 0")
        bk_character(us[n_ok], cutoff, p)  # raises for a NaN or infinite u, as its integrand would
    return float(values[0]) if np.ndim(u) == 0 else np.array(values, dtype=float)
