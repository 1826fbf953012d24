"""Double-precision special functions behind every character, kernel and check.

- ``log_gamma``: ``scipy.special.gammaln`` for finite x > 0.
- ``laguerre_L`` / ``laguerre_L_all``: upward three-term recurrence in the
  degree, written once as ``_laguerre_run``, which a series reads as far as it sums.
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
  A series sum past the double range is summed again, scaled by exact
  powers of two, so its log is finite wherever ln i is. Past y = 2^30, where
  ive returns NaN, it raises OverflowError. Callers combine it with other
  exponents in log space, so i_nu itself is never formed.
- ``hyp1f1``: Kummer 1F1(a; b; z), summed in exact rationals when it
  terminates (the Laguerre oracle), else ``scipy.special.hyp1f1``.

All functions are pure, reject NaN and out-of-domain inputs, and accept
scalars or numpy arrays (scalar in, Python float out). The two Bessel
functions also take an array of orders nu that broadcasts with the argument:
each element has the bits of a scalar-order call (the series recurrence,
jv/ive and the log prefactor are elementwise in nu), an error names the
order of the first failing element, and a scalar order takes the scalar
path at the cost it had. ``scipy.special`` is imported inside the functions
that call it, so importing this module does not load scipy, and
bessel_j_norm imports it only when some point is past the series; likewise
``fractions`` loads only for a terminating hyp1f1.
"""
from __future__ import annotations

from itertools import count

import numpy as np

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "laguerre_L",
    "laguerre_L_all",
    "bessel_j_norm",
    "log_bessel_i_norm",
    "hyp1f1",
]

#: j_nu is summed as a series where z^2 <= 4 K (nu + 1); its terms stay below e^K
_J_SERIES_K = 9.0
_MAX_TERMS = 100_000
_TINY = np.finfo(float).tiny
_LN2 = float(np.log(2.0))


class ConvergenceError(RuntimeError):
    """A series failed to converge within its term budget."""


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and np.isnan(arr.min()):  # min propagates NaN
        raise ValueError(f"{name} must not be NaN")
    return arr


def _shaped_like(out, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return complex(out) if np.iscomplexobj(out) else float(out)
    return out


def log_gamma(x):
    """Natural log of the Gamma function for finite x > 0."""
    from scipy import special
    arr = np.asarray(x, dtype=float)
    if arr.size and not 0.0 < arr.min() <= arr.max() < np.inf:
        _as_array(arr, "x")  # a NaN anywhere names the error
        raise ValueError("log_gamma requires finite x > 0")
    return _shaped_like(special.gammaln(arr), x)


def laguerre_L(k, a, x):
    """Generalized Laguerre polynomial L_k^{(a)}(x), a > -1.

    Upward three-term recurrence in the degree, stable for x >= 0 (the only
    regime used here); the 1F1 series route is kept purely as a test oracle.
    """
    return _shaped_like(laguerre_L_all(k, a, x)[-1], x)


def laguerre_L_all(k_max, a, x):
    """All of L_0^{(a)}(x), ..., L_{k_max}^{(a)}(x) stacked on axis 0, finite x."""
    if not (0 <= k_max < np.inf and k_max % 1 == 0):
        raise ValueError("laguerre degree must be a nonnegative integer")
    if not np.isfinite(a) or a <= -1.0:
        raise ValueError("laguerre order must satisfy a > -1")
    arr = _as_array(x, "x")
    if np.any(np.isinf(arr)):  # inf - inf in the recurrence would give NaN
        raise ValueError("laguerre argument x must be finite")
    out = np.empty((int(k_max) + 1,) + arr.shape)
    for n, value in zip(range(len(out)), _laguerre_run(a, arr)):
        out[n] = value
    return out


def _laguerre_run(a, x):
    """L_0^{(a)}(x), L_1^{(a)}(x), ... without end, unchecked. L_0 is the float 1.0,
    so a float x stays in Python floats, with the bits of an array holding x."""
    yield 1.0
    prev, cur = 1.0, a + 1.0 - x
    for n in count(1):
        yield cur
        prev, cur = cur, ((2.0 * n + a + 1.0 - x) * cur - (n + a) * prev) / (n + 1.0)


def _bessel_args(name, nu, z, arg):
    """(nu, z) as checked arrays. A scalar order comes back a scalar, so a
    scalar-order call pays no broadcasting; an array nu is broadcast with z."""
    scalar = isinstance(nu, float) or np.ndim(nu) == 0
    if scalar:
        if not np.isfinite(nu) or nu <= -1.0:
            raise ValueError(f"{name} requires nu > -1")
        nu = nu[()] if isinstance(nu, np.ndarray) else nu
        arr = np.asarray(z, dtype=float)
    else:
        nu, arr = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(z, dtype=float))
    if not scalar or (arr.size and not 0.0 <= arr.min() <= arr.max() < np.inf):
        # the first bad element names the error, as a scalar call on it would
        bad = ~(np.isfinite(arr) & (arr >= 0.0))
        bad_nu = np.zeros_like(bad) if scalar else ~(np.isfinite(nu) & (nu > -1.0))
        i = np.argmax(bad | bad_nu)
        if np.ravel(bad_nu)[i]:
            raise ValueError(f"{name} requires nu > -1")
        if np.ravel(bad)[i]:
            if np.isnan(np.ravel(arr)[i]):
                raise ValueError(f"{arg} must not be NaN")
            raise ValueError(f"{name} requires finite {arg} >= 0")
    return nu, arr


def _at(nu, mask):
    """The orders of the elements of mask: a scalar order is every element's."""
    return nu[mask] if isinstance(nu, np.ndarray) else nu


def _first(nu, bad):
    """The order of the first element where bad holds, as an error names it."""
    return float(nu[bad][0] if isinstance(nu, np.ndarray) else nu)


def _series_tail(nu, q, scaled=False):
    """sum_{m>=1} q^m / (m! (nu+1)_m) in float64: q = -z^2/4 for j, y^2/4 for i;
    nu is a scalar or an array of orders aligned with q.

    Returns (tail, e), the sum being tail * 2^e. Each element stops at its own
    last term (later terms are zeroed), so an array call gives the bits of
    element-by-element scalar calls. e is 0 unless scaled (for q > 0): then a
    partial sum past 2^960 is scaled by 2^-600, so a sum past the double
    range stays finite.
    """
    term = np.ones_like(q)
    tail = np.zeros_like(q)
    e = np.zeros(np.shape(q), dtype=int)
    with np.errstate(over="ignore"):
        for m in range(1, _MAX_TERMS):
            term *= q
            term /= m * (nu + m)
            tail += term
            if scaled:
                big = tail > 2.0 ** 960
                if np.any(big):
                    term[big] = np.ldexp(term[big], -600)
                    tail[big] = np.ldexp(tail[big], -600)
                    e[big] += 600
            done = np.abs(term) <= 2.0 ** -53 * np.abs(tail)
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                return tail, e
            if n_done:
                term[done] = 0.0
    raise ConvergenceError("Bessel series did not converge")


def _log_prefactor(nu, z):
    """ln of Gamma(nu + 1) (z/2)^(-nu)."""
    from scipy import special
    return special.gammaln(nu + 1.0) - nu * np.log(0.5 * z)


def bessel_j_norm(nu, z):
    """Normalized spherical Bessel function j_nu(z), nu > -1, z >= 0.

    j_nu(0) = 1. Closed forms: j_{-1/2}(z) = cos z and j_{1/2}(z) = sin(z)/z.
    Absolute error below 1e-12 for nu <= 500; raises OverflowError where
    J_nu(z) underflows the double range (only for nu >~ 600, z < nu/2).
    nu may be an array that broadcasts with z: each element has the bits
    of a scalar-order call, and an error names the first failing order.
    """
    nu, arr = _bessel_args("bessel_j_norm", nu, z, "z")
    out = np.empty_like(arr)
    small = arr * arr <= 4.0 * _J_SERIES_K * (nu + 1.0)
    tail, _ = _series_tail(_at(nu, small), -0.25 * np.square(arr[small]))
    out[small] = 1.0 + tail
    big = ~small
    if not np.any(big):  # scipy loads only for a point past the series
        return _shaped_like(out, arr)
    from scipy import special
    nu, z = _at(nu, big), arr[big]
    jv = special.jv(nu, z)
    under = np.abs(jv) < _TINY
    if np.any(under):
        raise OverflowError(f"bessel_j_norm: J_nu underflows at nu={_first(nu, under)!r}; "
                            "order too large")
    out[big] = np.sign(jv) * np.exp(_log_prefactor(nu, z) + np.log(np.abs(jv)))
    return _shaped_like(out, arr)


def log_bessel_i_norm(nu, y):
    """ln i_nu(y), i_nu(y) = j_nu(iy) = sum_m (y^2/4)^m / (m! (nu+1)_m) >= 1, increasing in y.

    Relative error below 1e-12 for nu <= 1000, y <= 4000. Where the series
    sum exceeds the double range (nu >~ 1900, where ive underflows too) it
    is summed again in scaled form and its log taken from that. Raises
    OverflowError past y = 2^30 - 1/2, where ive returns NaN. nu may be an
    array, as in bessel_j_norm.
    """
    from scipy import special
    nu, arr = _bessel_args("log_bessel_i_norm", nu, y, "y")
    out = np.empty_like(arr)
    ive = special.ive(nu, arr)
    series = (arr * arr <= 4.0 * (nu + 1.0)) | (ive < _TINY)
    nu_s, q = _at(nu, series), 0.25 * np.square(arr[series])
    tail, _ = _series_tail(nu_s, q)
    log_i = np.log1p(tail)
    over = np.isinf(tail)
    if np.any(over):
        # sum past the double range again in scaled form; 1 + sum is the sum there
        tail, e = _series_tail(_at(nu_s, over), q[over], scaled=True)
        log_i[over] = np.log(tail) + e * _LN2
    out[series] = log_i
    bad = ~np.isfinite(log_i)
    if np.any(bad):
        raise OverflowError(f"log_bessel_i_norm: series overflows at nu={_first(nu_s, bad)!r}; "
                            "order too large")
    big = ~series
    nu, y, ive = _at(nu, big), arr[big], ive[big]
    bad = np.isnan(ive)
    if np.any(bad):
        raise OverflowError(f"log_bessel_i_norm: y beyond 2^30 at nu={_first(nu, bad)!r}; "
                            "argument too large")
    out[big] = np.log(ive) + y + _log_prefactor(nu, y)
    return _shaped_like(out, arr)


def hyp1f1(a, b, z):
    """Kummer confluent hypergeometric series 1F1(a; b; z).

    Terminates exactly when a is a nonpositive integer; b must not be a
    nonpositive integer. The terminating case is summed in exact rational
    arithmetic (its cancellation can exceed any fixed precision: at a = -60,
    z = 50 the largest term is ~1e28 times the sum); the generic case is
    scipy.special.hyp1f1.
    """
    from scipy import special
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("hyp1f1 requires finite a, b")
    if b <= 0.0 and b == round(b):
        raise ValueError("hyp1f1 pole: b must not be a nonpositive integer")
    arr = _as_array(z, "z")
    if a <= 0.0 and a == round(a):
        flat = np.array([_hyp1f1_exact(int(round(-a)), b, v) for v in arr.ravel()])
        return _shaped_like(flat.reshape(arr.shape), z)
    return _shaped_like(special.hyp1f1(a, b, arr), z)


def _hyp1f1_exact(k, b, z):
    """Terminating 1F1(-k; b; z) summed exactly over rationals."""
    from fractions import Fraction
    term = Fraction(1)
    total = Fraction(1)
    bf = Fraction(b)
    zf = Fraction(z)
    for m in range(k):
        term = term * (Fraction(-k + m) * zf) / ((bf + m) * (m + 1))
        total += term
    return float(total)
