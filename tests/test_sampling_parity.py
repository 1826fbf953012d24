"""The lane samplers against the scalar samplers they replaced.

The reference below is the scalar sampling code as it stood before the lanes,
verbatim except for the HITS counters, which record that every branch was
taken. Each lane must draw the bits its own scalar stream draws, and leave
its stream at the same position.
"""
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from hyperbessel import cli
from hyperbessel import sampling as sp
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint, FanPoint, fan_coords

HITS = Counter()

# ---- reference: scalar samplers ------------------------------------------

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
        HITS["gamma shape < 1"] += 1
        u = rng.uniform()
        return sample_gamma(rng, shape + 1.0, scale) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            HITS["gamma v <= 0"] += 1
            continue
        v = v * v * v
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x ** 4:
            return scale * d * v
        HITS["gamma log squeeze"] += 1
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return scale * d * v


def sample_poisson(rng: RngState, rate: float) -> int:
    """Poisson variate: product inversion below rate 10, PTRS (Hoermann 1993)
    above, about two uniforms per draw at any rate; its log-pmf acceptance
    test has a rounding error that grows like rate * 2^-53."""
    if not 0.0 <= rate < math.inf:
        raise ValueError("sample_poisson requires a finite rate >= 0")
    if rate == 0.0:
        HITS["poisson rate 0"] += 1
        return 0
    if rate < 10.0:
        HITS["poisson rate < 10"] += 1
        limit = math.exp(-rate)
        k = 0
        prod = rng.uniform()
        while prod > limit:
            k += 1
            prod *= rng.uniform()
        return k
    HITS["poisson PTRS"] += 1
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
        if k >= 0 and (us >= 0.013 or v <= us):
            HITS["poisson PTRS lgamma test"] += 1
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
        HITS["binomial n > 64"] += 1
        i = (n + 1) // 2
        g = sample_gamma(rng, i, 1.0)
        x = g / (g + sample_gamma(rng, n + 1 - i, 1.0))
        if p < x:
            n, p = i - 1, p / x
        else:
            below += i
            n, p = n - i, (p - x) / (1.0 - x)
    if p > 0.5:
        HITS["binomial p > 0.5"] += 1
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


@dataclass(frozen=True)
class PathSample:
    """A simulated trajectory on a strictly increasing time grid."""

    times: tuple
    states: tuple
    path_id: int = 0


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


# ---- reference: sim command rows, as the CLI built them path by path ------

def _reference_sim_output(argv, fmt):
    args = cli.build_parser().parse_args(argv)
    grid = cli.parse_time_grid(args.t_grid)
    rows = []
    for pid in range(args.paths):
        rng = RngState.for_path(args.seed, pid)
        if args.command == "bes-sim":
            path = sample_bes_path(args.x0, grid, args.delta, rng, path_id=pid)
            rows.extend((pid, t, y, 0.0, "continuous", -1)
                        for t, y in zip(path.times, path.states))
            continue
        path = sample_qbes_path(cli.parse_state(args.start), grid, args.delta, rng, path_id=pid)
        for t, state in zip(path.times, path.states):
            coord0, coord1 = fan_coords(state)
            if isinstance(state, DiscretePoint):
                rows.append((pid, t, coord0, coord1, "discrete", state.k))
            else:
                rows.append((pid, t, coord0, coord1, "continuous", -1))
    header = ["path_id", "time", "coord0", "coord1", "branch", "k"]
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"
    return "\n".join([",".join(header)] + ["%d,%.17g,%.17g,%.17g,%s,%d" % r for r in rows]) + "\n"


# ---- parity ---------------------------------------------------------------

N_LANES = 1200
SEEDS = (0, 20240807)


def _lanes(seed):
    return sp.RngState.for_path(seed, range(N_LANES))


def _refs(seed):
    return [RngState.for_path(seed, pid) for pid in range(N_LANES)]


def _cycle(values):
    return [values[i % len(values)] for i in range(N_LANES)]


def draw(kernel, rng, *params):
    """The next variate of every lane of rng from a lane kernel of sampling."""
    return kernel(rng._state, rng._lanes(), *params)


def next_words(rng):
    return draw(sp._words, rng)[0]


def normals(rng):
    return sp._gauss(draw(sp._uniform, rng), draw(sp._uniform, rng))


def poisson(rng, rate):
    """Poisson counts as exact ints, as the sim commands take them."""
    return sp._exact(draw(sp._poisson, rng, rate))


def _same_position(lanes, refs):
    assert next_words(lanes).tolist() == [r.next_u64() for r in refs]


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("seed", SEEDS + (-5, 2 ** 64 + 3))
def test_words_uniforms_normals(seed):
    lanes, refs = _lanes(seed), _refs(seed)
    assert next_words(lanes).tolist() == [r.next_u64() for r in refs]
    assert _bits(draw(sp._uniform, lanes).tolist()) == _bits([r.uniform() for r in refs])
    assert _bits(normals(lanes).tolist()) == _bits([r.normal() for r in refs])
    _same_position(lanes, refs)
    one, ref = sp.RngState(seed), RngState(seed)
    assert [next_words(one).tolist(), draw(sp._uniform, one).tolist(),
            normals(one).tolist()] == [[ref.next_u64()], [ref.uniform()], [ref.normal()]]


@pytest.mark.parametrize("seed", SEEDS)
def test_gamma(seed):
    HITS.clear()
    shapes = _cycle([0.05, 0.3, 0.999, 1.0, 1.3, 2.5, 7.0, 40.0, 1e6])
    scales = _cycle([1.0, 0.37, 2.0, 5.5])
    lanes, refs = _lanes(seed), _refs(seed)
    got = draw(sp._gamma, lanes, shapes, scales)
    want = [sample_gamma(r, a, b) for r, a, b in zip(refs, shapes, scales)]
    assert _bits(got.tolist()) == _bits(want)
    _same_position(lanes, refs)
    assert {"gamma shape < 1", "gamma v <= 0", "gamma log squeeze"} <= set(HITS)
    one, ref = sp.RngState(seed), RngState(seed)
    assert [draw(sp._gamma, one, a, 1.5).tolist() for a in (0.4, 2.5)] == \
        [[sample_gamma(ref, a, 1.5)] for a in (0.4, 2.5)]


@pytest.mark.parametrize("seed", SEEDS)
def test_poisson(seed):
    HITS.clear()
    rates = _cycle([0.0, 1e-9, 0.3, 3.7, 9.99, 10.0, 25.5, 900.0, 1e6, 1e12, 4.4e19])
    lanes, refs = _lanes(seed), _refs(seed)
    got = poisson(lanes, rates).tolist()
    want = [sample_poisson(r, rate) for r, rate in zip(refs, rates)]
    assert got == want and all(type(k) is int for k in got)
    _same_position(lanes, refs)
    assert {"poisson rate 0", "poisson rate < 10", "poisson PTRS",
            "poisson PTRS lgamma test"} <= set(HITS)
    one, ref = sp.RngState(seed), RngState(seed)
    got = [k for rate in (0.0, 2.5, 40.0, 4.4e19) for k in poisson(one, rate).tolist()]
    assert got == [sample_poisson(ref, rate) for rate in (0.0, 2.5, 40.0, 4.4e19)]
    assert all(type(k) is int for k in got)


@pytest.mark.parametrize("seed", SEEDS)
def test_binomial(seed):
    HITS.clear()
    ns = _cycle([0, 1, 5, 64, 65, 300, 1000, 10 ** 6, 10 ** 15, 10 ** 20, 43967979657398109856])
    ps = _cycle([0.0, 0.2, 0.5, 0.7, 0.999, 1.0, 0.3])
    lanes, refs = _lanes(seed), _refs(seed)
    got = draw(sp._binomial, lanes, np.array(ns, dtype=object), ps).tolist()
    want = [sample_binomial(r, n, p) for r, n, p in zip(refs, ns, ps)]
    assert got == want and all(type(k) is int for k in got)
    _same_position(lanes, refs)
    assert {"binomial n > 64", "binomial p > 0.5"} <= set(HITS)


@pytest.mark.parametrize("seed", SEEDS)
def test_bes(seed):
    x0s = _cycle([0.0, 0.3, 1.0, 4.0, 34.0, 1e3])
    ts = (0.7, 1e-3)
    lanes, refs = _lanes(seed), _refs(seed)
    for t in ts:
        got = draw(sp._bes, lanes, np.array(x0s), t, 1.7, t)
        want = [sample_bes(x0, t, 1.7, r) for x0, r in zip(x0s, refs)]
        assert _bits(got.tolist()) == _bits(want)
    _same_position(lanes, refs)


@pytest.mark.parametrize("start, grid, delta", [
    (DiscretePoint(-1.0, 3), [0.25, 0.5, 0.75, 1.0, 1.5], 0.4),  # cases 1, 2, 4
    (DiscretePoint(-0.75, 0), [1.0, 1.5], 0.3),                   # cases 3, 5
    (ContinuousPoint(0.0), [0.5, 1.0], 2.0),                      # case 4 at rate 0
    (DiscretePoint(2.0, 10 ** 6), [0.5, 1.0], 1.2),               # case 5, median splitting
])
def test_one_lane_paths(start, grid, delta):
    for pid in range(40):
        got = sp.sample_qbes_lanes(start, grid, delta, sp.RngState.for_path(4, [pid]))
        want = sample_qbes_path(start, grid, delta, RngState.for_path(4, pid)).states
        assert [(u, col.tolist()) for u, col in got] == \
            [(s.tau, [s.k]) if isinstance(s, DiscretePoint) else (0.0, [s.y1]) for s in want]
    got = sp.sample_bes_lanes(1.3, grid, delta, sp.RngState(4))
    assert [y.tolist() for y in got] == [[y] for y in sample_bes_path(1.3, grid, delta,
                                                                      RngState(4)).states]


SIM_COMMANDS = [
    # the five kernel cases, with shapes below 1 and huge levels
    ["qbes-sim", "--delta", "2", "--start", "tau=0.978062,k=10", "--t-grid", "0.25,0.5,1.0,2.0"],
    ["qbes-sim", "--delta", "1.53127", "--start", "tau=-1,k=3",
     "--t-grid", "0.25,0.5,0.75,1.0,1.5"],
    ["qbes-sim", "--delta", "0.3", "--start", "tau=-1,k=0", "--t-grid", "0.5,1.0,1.5"],
    ["qbes-sim", "--delta", "1", "--start", "tau=-0.75,k=7", "--t-grid", "1.0,1.5,2.0"],
    ["qbes-sim", "--delta", "2.53957", "--start", "y1=1.97061", "--t-grid", "0.5,1.0,2.0"],
    ["qbes-sim", "--delta", "3", "--start", "tau=-0.5,k=10", "--t-grid", "0.5,1.0"],
    ["qbes-sim", "--delta", "1.2", "--start", "tau=2,k=1000000", "--t-grid", "0.5,1,7"],
    ["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=5000",
     "--t-grid", "0.5,0.9999999999999999,1.5"],
    # the decimal grids of the simulate benchmark: left of, right of and on the crossing
    ["qbes-sim", "--delta", "0.799781", "--start", "tau=-1,k=2", "--t-grid", "0.1:0.5:5"],
    ["qbes-sim", "--delta", "2", "--start", "tau=0.3,k=8", "--t-grid", "0.1:1.0:10"],
    ["qbes-sim", "--delta", "1.69485", "--start", "tau=-0.7,k=5", "--t-grid", "0.1:0.7:7"],
    ["bes-sim", "--delta", "1.51762", "--x0", "0.98598", "--t-grid", "0.25,0.5,0.75,1.0"],
    ["bes-sim", "--delta", "0.5", "--x0", "0", "--t-grid", "0.1:2.9:29"],
    ["bes-sim", "--delta", "2.44033", "--x0", "33.8759", "--t-grid", "0.5,1.0"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", SIM_COMMANDS, ids=lambda argv: " ".join(argv[:5]))
def test_sim_output_matches_reference_loop(argv, fmt, tmp_path):
    argv = argv + ["--paths", "60", "--seed", "1234", "--format", fmt]
    out = tmp_path / "paths"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _reference_sim_output(argv, fmt)


# ---- table walks: block edges and the libm band ----------------------------

@pytest.mark.parametrize("block", [sp._BLOCK, 3, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_poisson_walks_across_block_edges(seed, block, monkeypatch):
    # near rate 10 the inversion walk takes more words than a block holds
    monkeypatch.setattr(sp, "_BLOCK", block)
    rates = _cycle([9.5, 9.7, 9.9, 9.99, 1e-9])
    lanes, refs = _lanes(seed), _refs(seed)
    got = poisson(lanes, rates).tolist()
    assert got == [sample_poisson(r, rate) for r, rate in zip(refs, rates)]
    _same_position(lanes, refs)
    words = [k + 1 for k, rate in zip(got, rates) if rate > 1.0]
    assert max(words) > block
    assert any(w % block == 0 for w in words)  # the walk stops on a block's last word
    assert not any(k for k, rate in zip(got, rates) if rate < 1.0)


@pytest.mark.parametrize("table_lanes", [sp._TABLE_LANES, 7])
@pytest.mark.parametrize("seed", SEEDS)
def test_binomial_inversion_table_edges(seed, table_lanes, monkeypatch):
    monkeypatch.setattr(sp, "_TABLE_LANES", table_lanes)  # 7: many tables per call
    HITS.clear()
    edges = [(n, p) for n in (0, 1, 64, 10 ** 20) for p in (0.0, 0.5, 1.0)]
    ns, ps = zip(*_cycle(edges))
    lanes, refs = _lanes(seed), _refs(seed)
    got = draw(sp._binomial, lanes, np.array(ns, dtype=object), ps).tolist()
    assert got == [sample_binomial(r, n, p) for r, n, p in zip(refs, ns, ps)]
    _same_position(lanes, refs)
    assert {"binomial n > 64", "binomial p > 0.5"} <= set(HITS)


def _unshift(y, k):
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def _state_before(word):
    """The counter state whose next word is word: _mix64 run backwards."""
    z = _unshift(word, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return (_unshift(z, 30) - _GOLDEN) & _MASK64


def test_binomial_walk_stops_at_n_with_the_uniform_left_over():
    # u = 1 - 2^-52 exceeds the rounded sum of the pmf: the walk ends on h = n
    state = _state_before((2 ** 53 - 2) << 11)
    ns, ps = zip(*[(n, p) for n in (0, 1, 10, 20, 40, 64) for p in (0.01, 0.3, 0.5, 0.9)])
    lanes = sp.RngState.for_path(0, range(len(ns)))
    lanes._state[:] = state
    refs = [RngState(0) for _ in ns]
    for r in refs:
        r._state = state
    got = draw(sp._binomial, lanes, np.array(ns, dtype=object), ps).tolist()
    assert got == [sample_binomial(r, n, p) for r, n, p in zip(refs, ns, ps)]
    assert got[ns.index(64) + 1] == 64  # (64, 0.3)
    _same_position(lanes, refs)


def test_ptrs_rejects_a_uniform_of_one():
    # each of the top 2^11 words gives u = 1.0; PTRS divided 2a by us = 0 with
    # a RuntimeWarning. The pair is rejected, so the draw is that of the state
    # two words on
    state = _state_before(_MASK64)
    rng = sp.RngState(0)
    rng._state[:] = state
    assert draw(sp._uniform, rng).tolist() == [1.0]
    rng._state[:] = state
    later = sp.RngState(0)
    later._state[:] = (state + 2 * _GOLDEN) & _MASK64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = poisson(rng, 40.0)
    assert got.tolist() == poisson(later, 40.0).tolist()
    assert rng._state.tolist() == later._state.tolist()


def _log_ulp_gap(below: bool, low: float, high: float):
    """Inputs in [low, high) where numpy's log lies one ulp below (or above)
    the C library's; skips where the two never differ."""
    xs = np.random.default_rng(5).uniform(low, high, 200_000)
    ours, libm = np.log(xs), np.array([math.log(x) for x in xs.tolist()])
    pick = (ours < libm) if below else (ours > libm)
    if not pick.any():
        pytest.skip("numpy's log equals the C library's on every probed input "
                    "under this numpy build and CPU dispatch")
    assert np.all(np.abs(ours - libm)[pick] <= np.spacing(np.abs(libm))[pick])
    return xs[pick]


def test_planted_band_flips_the_squeeze(monkeypatch):
    # (x^2)^2 and libm's pow(x, 4) differ by an ulp on about half of all x
    xs = np.linspace(1.5, 2.3, 2001)
    libm = np.array([1.0 - 0.0331 * math.pow(x, 4.0) for x in xs.tolist()])
    pick = 1.0 - 0.0331 * np.square(np.square(xs)) > libm
    x, u = xs[pick], libm[pick]  # libm rejects every one: u < u is false
    assert x.size and not sp._squeeze(u, x).any()
    monkeypatch.setattr(sp, "_BAND", 0.0)
    assert sp._squeeze(u, x).all()


def test_planted_band_flips_the_gamma_log_test(monkeypatch):
    # with v = 1 the right side is x^2 / 2; pick x with x^2 / 2 = libm's log u exactly
    planted = []
    for u in _log_ulp_gap(True, 1.5, 6.0)[:200]:
        x = math.sqrt(2.0 * math.log(u))
        for _ in range(4):
            if 0.5 * x * x == math.log(u):
                planted.append((u, x))
            x = math.nextafter(x, math.inf)
    assert planted
    u, x = map(np.array, zip(*planted))
    v, d = np.ones(u.size), np.ones(u.size)
    assert not sp._log_test(u, x, v, d).any()
    monkeypatch.setattr(sp, "_BAND", 0.0)
    assert sp._log_test(u, x, v, d).all()


def test_planted_band_flips_the_ptrs_test(monkeypatch):
    v = _log_ulp_gap(False, 0.0, 1.0)
    w, log_alpha = np.ones(v.size), np.zeros(v.size)
    rhs = np.array([math.log(x) for x in v.tolist()])  # libm accepts: log v <= log v
    assert sp._ptrs_test(v, w, log_alpha, rhs).all()
    monkeypatch.setattr(sp, "_BAND", 0.0)
    assert not sp._ptrs_test(v, w, log_alpha, rhs).any()


@pytest.mark.parametrize("seed, ids", [
    (np.int64(7), np.arange(5, dtype=np.int32)),
    (np.uint64(2 ** 63 + 9), np.array([3, 0, 2 ** 40], dtype=np.uint64)),
    (-3, [np.int16(4), 1, True]),
    (2 ** 64 + 3, range(4)),
])
def test_numpy_integer_seeds_keep_their_streams(seed, ids):
    lanes = sp.RngState.for_path(seed, ids)
    refs = [RngState.for_path(int(seed), int(i)) for i in np.asarray(ids).tolist()]
    assert next_words(lanes).tolist() == [r.next_u64() for r in refs]
    assert next_words(sp.RngState(seed)).tolist() == [RngState(int(seed)).next_u64()]
