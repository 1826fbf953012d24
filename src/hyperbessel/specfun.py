"""Double-precision special functions behind every character, kernel and check.

- ``log_gamma``: ``scipy.special.gammaln`` for finite x > 0.
- ``pochhammer``: the direct product (a)_k.
- ``laguerre_L`` / ``laguerre_L_all``: upward three-term recurrence in the
  degree.
- ``bessel_j_norm``: the normalized spherical Bessel function

      j_nu(z) = Gamma(nu + 1) (z/2)^(-nu) J_nu(z),

  summed as a float64 power series where z^2 <= 4 K (nu + 1) (K = 9: every
  partial sum stays within i_nu(z) <= e^K, so the absolute error is about
  e^K 2^-53), and elsewhere ``scipy.special.jv`` (Amos 1986) times the
  prefactor taken in log space. Where J_nu underflows the double range
  there (orders nu >~ 600) it raises OverflowError instead of returning 0.
- ``log_bessel_i_norm``: ln of the modified companion i_nu(y) = j_nu(iy)
  (real and >= 1). The all-positive series where y^2 <= 4 (nu + 1) or where
  ``scipy.special.ive`` underflows, elsewhere ln ive + y + the log prefactor.
  ``bessel_i_norm`` is its exponential and raises OverflowError beyond the
  double range.
- ``hyp1f1``: Kummer 1F1(a; b; z), summed in exact rationals when it
  terminates (the Laguerre oracle), else ``scipy.special.hyp1f1``.

All functions are pure, reject NaN and out-of-domain inputs, and accept
scalars or numpy arrays (scalar in, Python float out).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import special

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "pochhammer",
    "laguerre_L",
    "laguerre_L_all",
    "bessel_j_norm",
    "bessel_i_norm",
    "log_bessel_i_norm",
    "hyp1f1",
]

#: j_nu is summed as a series where z^2 <= 4 K (nu + 1); its terms stay below e^K
_J_SERIES_K = 9.0
_MAX_TERMS = 100_000
_TINY = np.finfo(float).tiny


class ConvergenceError(RuntimeError):
    """A series failed to converge within its term budget."""


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} must not be NaN")
    return arr


def _maybe_scalar(out, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return complex(out) if np.iscomplexobj(out) else float(out)
    return out


def log_gamma(x):
    """Natural log of the Gamma function for finite x > 0."""
    arr = _as_array(x, "x")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("log_gamma requires finite x > 0")
    return _maybe_scalar(special.gammaln(arr), x)


def pochhammer(a, k):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k != int(k) or k < 0:
        raise ValueError("pochhammer requires a nonnegative integer k")
    arr = _as_array(a, "a")
    out = np.ones_like(arr)
    for i in range(int(k)):
        out = out * (arr + i)
    return _maybe_scalar(out, a)


def laguerre_L(k, a, x):
    """Generalized Laguerre polynomial L_k^{(a)}(x), a > -1.

    Upward three-term recurrence in the degree, stable for x >= 0 (the only
    regime used here); the 1F1 series route is kept purely as a test oracle.
    """
    return _maybe_scalar(laguerre_L_all(k, a, x)[-1], x)


def laguerre_L_all(k_max, a, x):
    """All of L_0^{(a)}(x), ..., L_{k_max}^{(a)}(x) stacked on axis 0."""
    if k_max != int(k_max) or k_max < 0:
        raise ValueError("laguerre degree must be a nonnegative integer")
    if not np.isfinite(a) or a <= -1.0:
        raise ValueError("laguerre order must satisfy a > -1")
    arr = _as_array(x, "x")
    k_max = int(k_max)
    out = np.empty((k_max + 1,) + arr.shape)
    prev = np.ones_like(arr)
    out[0] = prev
    if k_max == 0:
        return out
    cur = a + 1.0 - arr
    out[1] = cur
    for n in range(1, k_max):
        prev, cur = cur, ((2.0 * n + a + 1.0 - arr) * cur - (n + a) * prev) / (n + 1.0)
        out[n + 1] = cur
    return out


def _bessel_args(name, nu, z, arg):
    if not np.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"{name} requires nu > -1")
    arr = _as_array(z, arg)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError(f"{name} requires finite {arg} >= 0")
    return arr


def _series_tail(nu, q):
    """sum_{m>=1} q^m / (m! (nu+1)_m) in float64: q = -z^2/4 for j, y^2/4 for i."""
    term = np.ones_like(q)
    tail = np.zeros_like(q)
    with np.errstate(over="ignore"):
        for m in range(1, _MAX_TERMS):
            term = term * q / (m * (nu + m))
            tail = tail + term
            if np.all(np.abs(term) <= 2.0 ** -53 * np.abs(tail)):
                return tail
    raise ConvergenceError("Bessel series did not converge")


def _log_prefactor(nu, z):
    """ln of Gamma(nu + 1) (z/2)^(-nu)."""
    return special.gammaln(nu + 1.0) - nu * np.log(0.5 * z)


def bessel_j_norm(nu, z):
    """Normalized spherical Bessel function j_nu(z), nu > -1, z >= 0.

    j_nu(0) = 1. Closed forms: j_{-1/2}(z) = cos z and j_{1/2}(z) = sin(z)/z.
    Absolute error below 1e-12 for nu <= 500; raises OverflowError where
    J_nu(z) underflows the double range (only for nu >~ 600, z < nu/2).
    """
    arr = _bessel_args("bessel_j_norm", nu, z, "z")
    out = np.empty_like(arr)
    small = arr * arr <= 4.0 * _J_SERIES_K * (nu + 1.0)
    out[small] = 1.0 + _series_tail(nu, -0.25 * np.square(arr[small]))
    big = arr[~small]
    jv = special.jv(nu, big)
    if np.any(np.abs(jv) < _TINY):
        raise OverflowError(f"bessel_j_norm: J_nu underflows at nu={nu!r}; order too large")
    out[~small] = np.sign(jv) * np.exp(_log_prefactor(nu, big) + np.log(np.abs(jv)))
    return _maybe_scalar(out, z)


def bessel_i_norm(nu, y):
    """j_nu at the imaginary argument iy: sum_m (y^2/4)^m / (m! (nu+1)_m).

    Real, >= 1, and strictly increasing in y. Raises OverflowError when the
    value exceeds the double range; callers that need exp(-c) * i_nu products
    must combine exponents via log_bessel_i_norm instead.
    """
    with np.errstate(over="ignore"):
        out = np.exp(log_bessel_i_norm(nu, y))
    if np.any(~np.isfinite(out)):
        raise OverflowError("bessel_i_norm overflow; use log_bessel_i_norm")
    return _maybe_scalar(out, y)


def log_bessel_i_norm(nu, y):
    """ln of bessel_i_norm, safe for arguments far beyond the double range.

    Relative error below 1e-12 for nu <= 1000, y <= 4000; raises
    OverflowError where neither ive nor the series is representable (only
    for nu >~ 1900).
    """
    arr = _bessel_args("log_bessel_i_norm", nu, y, "y")
    out = np.empty_like(arr)
    ive = special.ive(nu, arr)
    series = (arr * arr <= 4.0 * (nu + 1.0)) | (ive < _TINY)
    out[series] = np.log1p(_series_tail(nu, 0.25 * np.square(arr[series])))
    if np.any(~np.isfinite(out[series])):
        raise OverflowError(f"log_bessel_i_norm: series overflows at nu={nu!r}; "
                            "order too large")
    big = arr[~series]
    out[~series] = np.log(ive[~series]) + big + _log_prefactor(nu, big)
    return _maybe_scalar(out, y)


def hyp1f1(a, b, z):
    """Kummer confluent hypergeometric series 1F1(a; b; z).

    Terminates exactly when a is a nonpositive integer; b must not be a
    nonpositive integer. The terminating case is summed in exact rational
    arithmetic (its cancellation can exceed any fixed precision: at a = -60,
    z = 50 the largest term is ~1e28 times the sum); the generic case is
    scipy.special.hyp1f1.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("hyp1f1 requires finite a, b")
    if b <= 0.0 and b == round(b):
        raise ValueError("hyp1f1 pole: b must not be a nonpositive integer")
    arr = _as_array(z, "z")
    if a <= 0.0 and a == round(a):
        flat = np.array([_hyp1f1_exact(int(round(-a)), b, v) for v in arr.ravel()])
        return _maybe_scalar(flat.reshape(arr.shape), z)
    return _maybe_scalar(special.hyp1f1(a, b, arr), z)


def _hyp1f1_exact(k, b, z):
    """Terminating 1F1(-k; b; z) summed exactly over rationals."""
    term = Fraction(1)
    total = Fraction(1)
    bf = Fraction(b)
    zf = Fraction(z)
    for m in range(k):
        term = term * (Fraction(-k + m) * zf) / ((bf + m) * (m + 1))
        total += term
    return float(total)
