"""Exact samplers for the kernel building blocks and path simulation.

Randomness comes from a counter-based 64-bit generator (splitmix-style
avalanche over a Weyl sequence). Per-path streams are derived from
(master_seed, path_id) through the same mixing function, so a batch of paths
is bit-reproducible whatever the batch size or the order of the paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .hypergroup import ContinuousPoint, DiscretePoint, FanPoint
from .kernels import TransitionLaw

__all__ = [
    "RngState",
    "PathSample",
    "sample_law",
    "sample_gamma",
    "sample_poisson",
    "sample_binomial",
    "sample_qbes_path",
    "sample_bes",
    "sample_bes_path",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngState:
    """Seed-derived counter state; identical seeds produce identical streams."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _mix64(int(seed))

    @classmethod
    def for_path(cls, master_seed: int, path_id: int) -> "RngState":
        """Stream for one path of a batch; independent of scheduling order."""
        if path_id < 0:
            raise ValueError("path_id must be >= 0")
        rng = cls.__new__(cls)
        rng._state = _mix64(int(master_seed)) ^ _mix64((path_id + 1) * _GOLDEN)
        return rng

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform on the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def normal(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def sample_gamma(rng: RngState, shape: float, scale: float) -> float:
    """Gamma variate: Marsaglia-Tsang squeeze for shape >= 1, boost below."""
    if not (0.0 < shape < math.inf and 0.0 < scale < math.inf):
        raise ValueError("sample_gamma requires finite positive shape and scale")
    if shape < 1.0:
        u = rng.uniform()
        return sample_gamma(rng, shape + 1.0, scale) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x ** 4:
            return scale * d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return scale * d * v


def sample_poisson(rng: RngState, rate: float) -> int:
    """Poisson variate: product inversion below rate 10, PTRS (Hoermann 1993)
    above, about two uniforms per draw at any rate; its log-pmf acceptance
    test has a rounding error that grows like rate * 2^-53."""
    if not 0.0 <= rate < math.inf:
        raise ValueError("sample_poisson requires a finite rate >= 0")
    if rate == 0.0:
        return 0
    if rate < 10.0:
        limit = math.exp(-rate)
        k = 0
        prod = rng.uniform()
        while prod > limit:
            k += 1
            prod *= rng.uniform()
        return k
    log_rate = math.log(rate)
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    log_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.uniform() - 0.5
        v = rng.uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + rate + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k >= 0 and (us >= 0.013 or v <= us) and (
                math.log(v) + log_alpha - math.log(a / (us * us) + b)
                <= -rate + k * log_rate - math.lgamma(k + 1.0)):
            return k


def sample_binomial(rng: RngState, n: int, p: float) -> int:
    """Binomial(n, p) variate: median splitting down to n <= 64, then inversion.
    The median X of n uniforms is Beta(i, n + 1 - i); the count below p is
    Binomial(i - 1, p / X) if p < X, else i + Binomial(n - i, (p - X) / (1 - X))
    (Knuth, TAOCP 2, 3.4.1). O(log n) gamma draws keep huge levels cheap."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("sample_binomial requires n >= 0 and 0 <= p <= 1")
    below = 0
    while n > 64:
        i = (n + 1) // 2
        g = sample_gamma(rng, i, 1.0)
        x = g / (g + sample_gamma(rng, n + 1 - i, 1.0))
        if p < x:
            n, p = i - 1, p / x
        else:
            below += i
            n, p = n - i, (p - x) / (1.0 - x)
    if p > 0.5:
        return below + n - sample_binomial(rng, n, 1.0 - p)
    # inversion; q >= 1/2 and n <= 64, so q^n does not underflow
    ratio = p / (1.0 - p)
    prob = (1.0 - p) ** n
    u = rng.uniform()
    j = 0
    while u > prob and j < n:
        u -= prob
        prob *= ratio * (n - j) / (j + 1.0)
        j += 1
    return below + j


def sample_law(law: TransitionLaw, rng: RngState) -> FanPoint:
    """Draw a fan point from a one-step law by inverse CDF over its atoms,
    conditioned on them (u is scaled by 1 - tail_mass): exact for the truncated
    law, within tail_mass <= trunc_eps of the true law in total variation. A
    gamma-ray law draws Gamma(shape, scale) onto the continuous branch."""
    u = rng.uniform() * (1.0 - law.tail_mass)
    cum = 0.0
    for level, prob in zip(law.levels, law.probs):
        cum += prob
        if u <= cum:
            return DiscretePoint(law.tau, level)
    if law.gamma_ray is not None:
        return ContinuousPoint(sample_gamma(rng, law.gamma_ray.shape, law.gamma_ray.scale))
    # u fell past a sum of atoms that rounded below 1 - tail_mass
    return DiscretePoint(law.tau, law.levels[-1])


@dataclass(frozen=True)
class PathSample:
    """A simulated trajectory on a strictly increasing time grid."""

    times: tuple
    states: tuple
    path_id: int = 0

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if self.path_id < 0:
            raise ValueError("path_id must be >= 0")


def _qbes_step(state: FanPoint, u: float, delta: float, rng: RngState) -> FanPoint:
    """One exact QBES(delta) step to ray coordinate u, drawn from its kernel case.
    Negative binomials are Poisson(Gamma(r, 1) (1-p)/p) mixtures (Devroye 1986),
    so a step that rounds to zero length has rate 0."""
    if isinstance(state, ContinuousPoint):  # case 4
        return DiscretePoint(u, sample_poisson(rng, state.y1 / u))
    s, k = state.tau, state.k
    if s > 0.0:  # case 5
        return DiscretePoint(u, sample_binomial(rng, k, s / u))
    r = delta + k
    if u == 0.0:  # case 2
        return ContinuousPoint(sample_gamma(rng, r, -s))
    if u < 0.0:  # case 1: p = u/s, (1-p)/p = (s-u)/u
        return DiscretePoint(u, k + sample_poisson(rng, sample_gamma(rng, r, 1.0) * (s - u) / u))
    # case 3: p = u/t, (1-p)/p = -s/u
    return DiscretePoint(u, sample_poisson(rng, sample_gamma(rng, r, 1.0) * -s / u))


def sample_qbes_path(start: FanPoint, time_grid, delta: float, rng: RngState,
                     path_id: int = 0) -> PathSample:
    """Draw each QBES step directly from its kernel case (grid from time 0).

    At grid time t the first coordinate is start.tau + t (t from a continuous
    start), one rounding from the caller's numbers, so a grid holding the
    number -start.tau visits the continuous branch exactly there.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("qbes_transition requires delta > 0")
    times = tuple(float(t) for t in time_grid)
    if not times or times[0] <= 0.0:
        raise ValueError("time grid must start after 0")
    anchor = start.tau if isinstance(start, DiscretePoint) else 0.0
    state = start
    states = []
    for t in times:
        state = _qbes_step(state, anchor + t, delta, rng)
        states.append(state)
    return PathSample(times=times, states=tuple(states), path_id=path_id)


def sample_bes(x0: float, t: float, delta: float, rng: RngState) -> float:
    """Exact BES(delta) transition draw from x0 over time t.

    Y^2 ~ t * noncentral chi-square(delta, x0^2/t), realized through the
    Poisson mixture: N ~ Poisson(x0^2 / 2t), Y^2 ~ Gamma(delta/2 + N, 2t).
    """
    if not 0.0 <= x0 < math.inf:
        raise ValueError("sample_bes requires finite x0 >= 0")
    if not (t > 0.0 and 0.0 < delta < math.inf):
        raise ValueError("sample_bes requires t > 0 and delta > 0")
    n = sample_poisson(rng, x0 * x0 / (2.0 * t))
    y_sq = sample_gamma(rng, 0.5 * delta + n, 2.0 * t)
    return math.sqrt(y_sq)


def sample_bes_path(x0: float, time_grid, delta: float, rng: RngState,
                    path_id: int = 0) -> PathSample:
    """Markov iteration of exact BES transitions over the grid increments."""
    times = tuple(float(t) for t in time_grid)
    if not times or times[0] <= 0.0:
        raise ValueError("time grid must start after 0")
    state = float(x0)
    t_prev = 0.0
    states = []
    for t_next in times:
        state = sample_bes(state, t_next - t_prev, delta, rng)
        states.append(state)
        t_prev = t_next
    return PathSample(times=times, states=tuple(states), path_id=path_id)
