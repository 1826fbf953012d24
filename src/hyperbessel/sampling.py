"""Exact samplers for the kernel building blocks and path simulation.

Randomness comes from a counter-based 64-bit generator (splitmix-style
avalanche over a Weyl sequence). Per-path streams are derived from
(master_seed, path_id) through the same mixing function, so a batch of paths
is bit-reproducible whatever the batch size or the order of the paths.

The samplers run on lanes: an `RngState` holds one uint64 counter per
stream, and the lane kernels (_gamma, _poisson, _binomial, _bes) draw one
variate per lane; the entry points, sample_qbes_lanes and sample_bes_lanes,
draw every lane's path at once. The rejection loops
(Marsaglia-Tsang gamma, PTRS Poisson) are masked numpy loops that advance
only the lanes still rejecting, and the inversion walks (Poisson below rate
10, binomial) are tables, so each lane consumes its stream exactly as a lone
draw would and a path's values do not depend on the other lanes. An
`RngState` built from one seed or one path id has one lane.

The inversion walks draw no word per loop pass. A Poisson walk below rate
10 draws _BLOCK words per lane at a time, folds the running product over
them with np.multiply.accumulate (the same left fold as one multiplication
per word), stops each lane at its first product <= exp(-rate) and gives the
words it did not use back to the counter. A binomial walk (n <= 64) is two
(max n + 1) x lanes tables, the pmf folded by np.multiply.accumulate and the
uniform less the pmf by np.subtract.accumulate, and one argmin reads the
counts; the tables take up to _TABLE_LANES lanes at a time, so their memory
stays bounded at any path count.

numpy's log differs from the C library's by an ulp on a fraction of inputs
(0.35 % with numpy 2.4.6's AVX512 kernels, none without them), which would
flip accept/reject decisions and so change the paths. Values that reach the
output therefore go through `math` element by element: Box-Muller's log and
cos, and the boost pow of a gamma below shape 1. So do the first pmf term
of a binomial walk, whose rounding every later term inherits, the Poisson
limit exp, one call per lane, and lgamma: numpy has none, and the sim
commands do not import scipy. The decisions that only accept or reject
are taken from ufunc values and filtered (Shewchuk 1997): the gamma
squeeze with x^4 as (x^2)^2, the two logs of the gamma log test and the two
per-draw logs of the PTRS test. If each transcendental term is off by k
ulps and each of the few roundings after it by one, the two sides of a
test move by at most (k + 4) 2^-52 S, where S is the sum of the magnitudes
of the terms a side is built from (a side computed the same way on both
paths is left out). A lane with |lhs - rhs| <= _BAND S, _BAND = 2^-44, is
re-decided through `math`: that covers k up to 252, where the measured k
is 1 for np.log and 2 for (x^2)^2. Outside the band the ufunc decision is
libm's, on any CPU dispatch; uniform inputs fall inside it about once in
10^13 decisions. sqrt is exactly rounded either way.

Levels are exact Python ints in object arrays: a step one ulp short of the
crossing reaches levels above 2^63.
"""
from __future__ import annotations

import math

import numpy as np

from .hypergroup import DiscretePoint, FanPoint

__all__ = ["RngState", "sample_qbes_lanes", "sample_bes_lanes"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _libm(fn):
    """fn of the C library applied per element of float arrays."""
    return lambda *arrays: np.fromiter(map(fn, *(a.tolist() for a in arrays)), float,
                                       len(arrays[0]))


_log, _exp, _cos, _pow, _lgamma = map(_libm, (math.log, math.exp, math.cos, math.pow,
                                              math.lgamma))
_BAND = 2.0 ** -44  # relative width of the band re-decided through math (above)
# overflow to inf is silent in Python float arithmetic; the range checks report it
_float_semantics = np.errstate(over="ignore", invalid="ignore")


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _integer(value, name: str) -> int:
    """value as an exact int: a Python or numpy integer, or a float with an
    integral finite value; anything else raises, so no two seeds or ids that
    differ share a stream."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _seed_word(seed) -> np.ndarray:
    return _mix64(np.array([_integer(seed, "seed") & _MASK64], dtype=np.uint64))


class RngState:
    """Seed-derived counter states, one per lane; identical seeds produce
    identical streams. A state built from one seed has one lane. Seeds and
    path ids are integers (a float with an integral value counts as its int);
    any other value raises ValueError."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _seed_word(seed)

    @classmethod
    def for_path(cls, master_seed: int, path_id) -> "RngState":
        """Streams for paths of a batch (an int, or a sequence of ints for one
        lane each); independent of scheduling order."""
        ids = np.asarray(path_id)
        if ids.dtype.kind not in "biu":
            ids = np.array([_integer(i, "path_id") for i in ids.ravel().tolist()], dtype=object)
        if ids.size and ids.min() < 0:
            raise ValueError("path_id must be >= 0")
        rng = cls.__new__(cls)
        rng._state = _seed_word(master_seed) ^ _mix64(
            (ids.reshape(-1).astype(np.uint64) + 1) * _GOLDEN)
        return rng

    def _lanes(self) -> np.ndarray:
        return np.arange(self._state.size)


# Lane kernels: `s` is the state array of an RngState and `idx` the lanes to
# draw for; parameter arrays are aligned with idx. A state is a counter, so a
# kernel may draw words ahead and give back the ones a lane did not use.

_BLOCK = 8  # words a Poisson inversion walk draws per lane and round
_TABLE_LANES = 4096  # lanes per binomial inversion table: 65 rows of them take 2 MB
_WEYL = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def _words(s, idx, m=1):
    """The next m words of each lane, shape (m, lanes); the lanes move past them."""
    z = s[idx] + _WEYL[:m, None]
    s[idx] = z[-1]
    return _mix64(z)


def _uniforms(s, idx, m=1):
    """Uniforms on (0, 1] from _words: each of the top 2^11 words gives exactly 1.0."""
    return ((_words(s, idx, m) >> 11) + 0.5) * 2.0 ** -53


def _uniform(s, idx):
    return _uniforms(s, idx)[0]


def _gauss(u1, u2):
    return np.sqrt(-2.0 * _log(u1)) * _cos(2.0 * math.pi * u2)


def _exact(counts: np.ndarray) -> np.ndarray:
    """Integer-valued floats as an object array of exact Python ints."""
    return np.fromiter(map(int, counts.tolist()), object, len(counts))


def _decide(lhs, rhs, scale, exact):
    """lhs < rhs from ufunc values; the lanes where |lhs - rhs| <= _BAND * scale
    are re-decided by exact(lanes), which takes both sides through math."""
    ok = lhs < rhs
    near = np.flatnonzero(np.abs(lhs - rhs) <= _BAND * scale)
    if near.size:
        ok[near] = exact(near)
    return ok


def _squeeze(u, x):
    """Marsaglia-Tsang's squeeze u < 1 - 0.0331 x^4."""
    x4 = np.square(np.square(x))
    return _decide(u, 1.0 - 0.0331 * x4, 1.0 + 0.0331 * x4,
                   lambda i: u[i] < 1.0 - 0.0331 * _pow(x[i], np.full(i.size, 4.0)))


def _log_test(u, x, v, d):
    """Marsaglia-Tsang's log test log u < x^2 / 2 + d (1 - v + log v)."""
    lu, lv = np.log(u), np.log(v)
    return _decide(lu, 0.5 * x * x + d * (1.0 - v + lv),
                   np.abs(lu) + 0.5 * x * x + d * (np.abs(1.0 - v) + np.abs(lv)),
                   lambda i: _log(u[i]) < 0.5 * x[i] * x[i] + d[i] * (1.0 - v[i] + _log(v[i])))


def _ptrs_test(v, w, log_alpha, rhs):
    """PTRS acceptance log v + log alpha - log w <= rhs, where w = a / us^2 + b."""
    lv, lw = np.log(v), np.log(w)
    return _decide(lv + log_alpha - lw, rhs, np.abs(lv) + np.abs(log_alpha) + np.abs(lw),
                   lambda i: _log(v[i]) + log_alpha[i] - _log(w[i]) <= rhs[i])


@_float_semantics
def _gamma(s, idx, shape, scale):
    """Gamma variates: Marsaglia-Tsang squeeze for shape >= 1; a shape below 1
    draws its boost uniform first and runs at shape + 1."""
    shape = np.broadcast_to(np.asarray(shape, dtype=float), idx.shape)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), idx.shape)
    if not np.all((0.0 < shape) & (shape < math.inf) & (0.0 < scale) & (scale < math.inf)):
        raise ValueError("a gamma variate requires finite positive shape and scale")
    small = np.flatnonzero(shape < 1.0)
    boost = _uniform(s, idx[small])
    d = np.where(shape < 1.0, shape + 1.0, shape) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(idx.size)
    todo = np.arange(idx.size)
    while todo.size:
        u1, u2, u = _uniforms(s, idx[todo], 3)
        x = _gauss(u1, u2)
        v = 1.0 + c[todo] * x
        live = v > 0.0  # v <= 0 gives back u and draws a fresh normal
        retry = todo[~live]
        if retry.size:
            s[idx[retry]] -= _GOLDEN
        todo, x, v, u = todo[live], x[live], v[live], u[live]
        v = v * v * v
        ok = _squeeze(u, x)
        sq = np.flatnonzero(~ok)
        ok[sq] = _log_test(u[sq], x[sq], v[sq], d[todo[sq]])
        done = todo[ok]
        out[done] = scale[done] * d[done] * v[ok]
        todo = np.concatenate((retry, todo[~ok]))
    out[small] *= _pow(boost, 1.0 / shape[small])
    return out


@_float_semantics
def _poisson(s, idx, rate):
    """Poisson counts as integer-valued floats: product inversion below rate 10,
    PTRS (Hoermann 1993) above, about two uniforms per draw at any rate; its
    log-pmf acceptance test has a rounding error that grows like rate * 2^-53."""
    rate = np.broadcast_to(np.asarray(rate, dtype=float), idx.shape)
    if not np.all((0.0 <= rate) & (rate < math.inf)):
        raise ValueError("a Poisson variate requires a finite rate >= 0")
    out = np.zeros(idx.size)
    j = np.flatnonzero((0.0 < rate) & (rate < 10.0))
    limit = _exp(-rate[j])
    prod = np.ones(j.size)
    walked = 0.0
    while j.size:
        # the next _BLOCK factors of each lane's product, folded left to right
        table = _uniforms(s, idx[j], _BLOCK)
        table[0] *= prod
        np.multiply.accumulate(table, out=table)
        # products only fall, so a lane stops after its count of products above limit
        above = np.count_nonzero(table > limit, axis=0)
        stop = above < _BLOCK
        done = j[stop]
        out[done] = walked + above[stop]
        s[idx[done]] -= (_BLOCK - 1 - above[stop]).astype(np.uint64) * np.uint64(_GOLDEN)
        j, limit, prod = j[~stop], limit[~stop], table[-1, ~stop]
        walked += _BLOCK
    j = np.flatnonzero(rate >= 10.0)
    if j.size:
        out[j] = _ptrs(s, idx[j], rate[j])
    return out


def _ptrs(s, idx, rate):
    log_rate = _log(rate)
    b = 0.931 + 2.53 * np.sqrt(rate)
    a = -0.059 + 0.02483 * b
    log_alpha = _log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(idx.size)
    todo = np.arange(idx.size)
    while todo.size:
        u, v = _uniforms(s, idx[todo], 2)
        u = u - 0.5
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore"):  # u = 1 gives us = 0, k = inf: rejected below
            k = np.floor((2.0 * a[todo] / us + b[todo]) * u + rate[todo] + 0.43)
        ok = (us >= 0.07) & (v <= v_r[todo])
        t = np.flatnonzero(~ok & (k >= 0.0) & ((us >= 0.013) | (v <= us)))
        lane, kt, ust = todo[t], k[t], us[t]
        ok[t] = _ptrs_test(v[t], a[lane] / (ust * ust) + b[lane], log_alpha[lane],
                           -rate[lane] + kt * log_rate[lane] - _lgamma(kt + 1.0))
        out[todo[ok]] = k[ok]
        todo = todo[~ok]
    return out


@_float_semantics
def _binomial(s, idx, n, p):
    """Binomial(n, p) as exact ints: median splitting down to n <= 64, then
    inversion. The median X of n uniforms is Beta(i, n + 1 - i); the count
    below p is Binomial(i - 1, p / X) if p < X, else i + Binomial(n - i,
    (p - X) / (1 - X)) (Knuth, TAOCP 2, 3.4.1). O(log n) gamma draws keep huge
    levels cheap."""
    n = np.array(np.broadcast_to(n, idx.shape), dtype=object)
    p = np.array(np.broadcast_to(p, idx.shape), dtype=float)
    if np.any(n < 0) or not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("a binomial variate requires n >= 0 and 0 <= p <= 1")
    below = np.zeros(idx.size, dtype=object)
    while (j := np.flatnonzero(n > 64)).size:
        m = n[j]
        i = (m + 1) // 2
        g = _gamma(s, idx[j], i.astype(float), 1.0)
        x = g / (g + _gamma(s, idx[j], (m + 1 - i).astype(float), 1.0))
        q = p[j]
        lo = q < x
        n[j] = np.where(lo, i - 1, m - i)
        below[j] += np.where(lo, 0, i)
        p[j] = np.where(lo, q / x, (q - x) / (1.0 - x))
    # p > 1/2 counts failures at 1 - p; q >= 1/2 and n <= 64, so q^n does not underflow
    flip = p > 0.5
    p[flip] = 1.0 - p[flip]
    nf = n.astype(float)
    u = _uniform(s, idx)
    tables = [_inversion(u[c:c + _TABLE_LANES], p[c:c + _TABLE_LANES], nf[c:c + _TABLE_LANES])
              for c in range(0, idx.size, _TABLE_LANES)]
    hits = _exact(np.concatenate([np.zeros(0, int), *tables]))  # no lanes, no tables
    return below + np.where(flip, n - hits, hits)


def _inversion(u, p, nf):
    """Binomial(n, p) counts by inversion from uniforms u, for p <= 1/2 and
    n <= 64. The walk is two tables over h = 0 .. max n: prob_h = P(X = h)
    and u_h, the uniform less prob_0 .. prob_(h-1), each folded left to
    right as the walk would; the count is the first h with u_h <= prob_h
    or h = n."""
    ratio = p / (1.0 - p)
    h = np.arange(int(nf.max(initial=0.0)) + 1.0)[:, None]
    prob = np.empty((h.size, u.size))
    prob[0] = _pow(1.0 - p, nf)
    prob[1:] = ratio * (nf - h[:-1]) / (h[:-1] + 1.0)
    np.multiply.accumulate(prob, out=prob)
    left = np.empty_like(prob)
    left[0] = u
    left[1:] = prob[:-1]
    np.subtract.accumulate(left, out=left)
    return np.argmin((left > prob) & (h < nf), axis=0)


def _grid(time_grid) -> list[float]:
    """A path time grid: finite, strictly increasing and starting after 0."""
    times = [float(t) for t in time_grid]
    if (not times or not all(map(math.isfinite, times)) or times[0] <= 0.0
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise ValueError("time grid must be finite, strictly increasing and start after 0")
    return times


def _finite(value, name: str, t):
    """A quantity of a path step, checked finite before the step draws; name
    says what it is and t is the grid time the step goes to."""
    if not np.all(value < math.inf):
        raise ValueError(f"{name} overflows on the step to grid time {t!r}; it must be finite")
    return value


_MIXED_RATE = "the negative-binomial rate Gamma(delta + k) (1-p)/p"


@_float_semantics
def sample_qbes_lanes(start: FanPoint, time_grid, delta: float, rng: RngState) -> list:
    """QBES(delta) paths from start, one per lane, each step drawn directly
    from its kernel case (grid from time 0).

    Returns one (u, column) pair per grid time. On a discrete step u is the
    ray coordinate and the column an object array of exact int levels; on the
    crossing u is 0.0 and the column holds the continuous coordinates y1.
    The ray coordinate at grid time t is start.tau + t (t from a continuous
    start), one rounding from the caller's numbers, so a grid holding the
    number -start.tau visits the continuous branch exactly there. All lanes
    share u, so every lane is in the same kernel case at each step.
    Negative binomials are Poisson(Gamma(r, 1) (1-p)/p) mixtures (Devroye
    1986), so a step that rounds to zero length has rate 0.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("qbes_transition requires delta > 0")
    times = _grid(time_grid)
    s, idx = rng._state, rng._lanes()
    if isinstance(start, DiscretePoint):
        anchor, col = start.tau, np.full(idx.size, start.k, dtype=object)
    else:
        anchor, col = 0.0, np.full(idx.size, start.y1)
    tau = anchor
    steps = []
    for t in times:
        u = _finite(anchor + t, "the ray coordinate tau + t", t)
        if tau == 0.0:  # case 4
            col = _exact(_poisson(s, idx, _finite(col / u, "y1/t", t)))
        elif tau > 0.0:  # case 5
            col = _binomial(s, idx, col, tau / u)
        else:
            r = (delta + col).astype(float)
            if u == 0.0:  # case 2
                col = _finite(_gamma(s, idx, r, -tau), "the continuous coordinate y1", t)
            elif u < 0.0:  # case 1: p = u/s, (1-p)/p = (s-u)/u
                rate = _gamma(s, idx, r, 1.0) * (tau - u) / u
                col = col + _exact(_poisson(s, idx, _finite(rate, _MIXED_RATE, t)))
            else:  # case 3: p = u/t, (1-p)/p = -s/u
                rate = _gamma(s, idx, r, 1.0) * -tau / u
                col = _exact(_poisson(s, idx, _finite(rate, _MIXED_RATE, t)))
        tau = u
        steps.append((u, col))
    return steps


@_float_semantics
def _bes(s, idx, x0, t, delta, grid_time):
    """Exact BES(delta) transition draw per lane from x0 over a step of length t
    to grid_time. Y^2 ~ t * noncentral chi-square(delta, x0^2/t), realized
    through the Poisson mixture: N ~ Poisson(x0^2 / 2t), Y^2 ~ Gamma(delta/2 +
    N, 2t). The scale 2t and the rate x0^2/(2t) must be finite: x0 = 1e200, or
    t = 1e-320 at x0 = 1, overflows the rate and raises ValueError."""
    if not np.all((0.0 <= x0) & (x0 < math.inf)):
        raise ValueError("sample_bes_lanes requires finite x0 >= 0")
    if not (0.0 < t < math.inf and 0.0 < delta < math.inf):
        raise ValueError("sample_bes_lanes requires finite t > 0 and delta > 0")
    scale = _finite(2.0 * t, "the gamma scale 2t", grid_time)
    n = _poisson(s, idx, _finite(x0 * x0 / scale, "x0^2/(2t)", grid_time))
    return np.sqrt(_gamma(s, idx, 0.5 * delta + n, scale))


def sample_bes_lanes(x0: float, time_grid, delta: float, rng: RngState) -> list:
    """BES paths from x0, one per lane: Markov iteration of exact transitions
    over the grid increments. Returns one array of positions per grid time."""
    times = _grid(time_grid)
    s, idx = rng._state, rng._lanes()
    x = np.full(idx.size, float(x0))
    t_prev = 0.0
    steps = []
    for t_next in times:
        x = _bes(s, idx, x, t_next - t_prev, delta, t_next)
        steps.append(x)
        t_prev = t_next
    return steps

