"""Tests for the RNG streams and the exact samplers.

Statistical assertions use fixed seeds and 3-sigma (or chi-square 0.999)
bands so they are deterministic, not flaky.
"""
import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import hyperbessel
from hyperbessel import cli
from hyperbessel import kernels as kn
from hyperbessel import sampling as sp
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint


def lanes(seed, n):
    """n streams of one seed: path ids 0 .. n-1, one variate per lane and call."""
    return sp.RngState.for_path(seed, range(n))


def chi2_against_law(law, counts, n):
    """Chi-square of level counts over the 20 heaviest atoms plus one rest cell."""
    ranked = sorted(law.atoms, key=lambda ap: -ap[1])[:20]
    chi2 = 0.0
    covered = 0.0
    for atom, prob in ranked:
        exp = n * prob
        chi2 += (counts.get(atom.k, 0) - exp) ** 2 / exp
        covered += prob
    cells = len(ranked)
    rest = 1.0 - covered
    if rest > 1e-12:
        exp = n * rest
        obs = n - sum(counts.get(a.k, 0) for a, _ in ranked)
        chi2 += (obs - exp) ** 2 / exp
        cells += 1
    return chi2, stats.chi2.ppf(0.999, cells - 1)


class TestRngState:
    def test_reproducible_streams(self):
        a = sp.RngState(12345)
        b = sp.RngState(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_path_streams_independent_of_order(self):
        first = sp.RngState.for_path(7, 2).uniform()
        # interleave other streams; stream 2 must be unaffected
        sp.RngState.for_path(7, 0).uniform()
        sp.RngState.for_path(7, 9).uniform()
        assert sp.RngState.for_path(7, 2).uniform() == first

    def test_distinct_paths_differ(self):
        assert sp.RngState.for_path(7, 0).uniform() != sp.RngState.for_path(7, 1).uniform()

    @pytest.mark.parametrize("make", [
        lambda: sp.RngState.for_path(1, 1.5),    # was path 1's stream
        lambda: sp.RngState.for_path(1, [0, 2.5]),
        lambda: sp.RngState.for_path(1, math.nan),
        lambda: sp.RngState.for_path(1, [math.inf]),
        lambda: sp.RngState.for_path(1.5, 0),
        lambda: sp.RngState(2.9),                # was RngState(2)
        lambda: sp.RngState(math.nan),
        lambda: sp.RngState(-math.inf),
        lambda: sp.RngState(np.float32(0.5)),
        lambda: sp.RngState("3"),
    ])
    def test_non_integral_seeds_and_ids_raise(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN id once warned on its cast and went on
            with pytest.raises(ValueError, match="must be an integer"):
                make()

    def test_integral_seeds_and_ids(self):
        assert sp.RngState(2.0).next_u64() == sp.RngState(2).next_u64()
        assert sp.RngState(np.int8(-2)).next_u64() == sp.RngState(-2).next_u64()
        want = sp.RngState.for_path(4, [0, 1, 2]).next_u64().tolist()
        assert sp.RngState.for_path(4.0, [0.0, 1.0, 2.0]).next_u64().tolist() == want
        assert sp.RngState.for_path(np.uint16(4), np.arange(3)).next_u64().tolist() == want
        assert sp.RngState.for_path(4, []).next_u64().tolist() == []

    def test_uniform_open_interval(self):
        us = sp.RngState.for_path(3, range(10000)).uniform()
        assert np.all((0.0 < us) & (us < 1.0))
        assert np.mean(us) == pytest.approx(0.5, abs=0.02)


class TestLanes:
    def test_lane_draws_do_not_depend_on_other_lanes(self):
        # shapes below and above 1 in one call; lane 7 rejects on its own stream
        shapes = np.array([0.3, 2.5] * 5)
        every = sp.sample_gamma(sp.RngState.for_path(3, range(10)), shapes, 1.0)
        some = sp.sample_gamma(sp.RngState.for_path(3, [7, 2]), shapes[[7, 2]], 1.0)
        assert some.tolist() == every[[7, 2]].tolist()
        assert sp.sample_gamma(sp.RngState.for_path(3, 7), 2.5, 1.0) == every[7]

    def test_lane_checks(self):
        with pytest.raises(ValueError):
            sp.RngState.for_path(1, [0, -1])
        with pytest.raises(ValueError):
            sp.sample_poisson(sp.RngState.for_path(1, range(3)), [1.0, math.inf, 2.0])
        assert sp.sample_gamma(sp.RngState.for_path(1, []), 2.0, 1.0).size == 0


class TestDistributions:
    def test_gamma_moments(self):
        draws = sp.sample_gamma(lanes(11, 100000), 2.5, 1.7)
        mean, var = 2.5 * 1.7, 2.5 * 1.7 ** 2
        assert draws.mean() == pytest.approx(mean, abs=3.0 * draws.std() / math.sqrt(draws.size))
        assert draws.var() == pytest.approx(var, rel=0.05)

    def test_gamma_small_shape(self):
        draws = sp.sample_gamma(lanes(12, 100000), 0.4, 2.0)
        assert draws.mean() == pytest.approx(0.8, abs=3.0 * draws.std() / math.sqrt(draws.size))

    def test_poisson_moments(self):
        draws = sp.sample_poisson(lanes(13, 100000), 3.7).astype(float)
        assert draws.mean() == pytest.approx(3.7, abs=3.0 * draws.std() / math.sqrt(draws.size))

    def test_small_rates_keep_product_inversion(self):
        # bes-sim bytes at rates below 10 rest on this exact use of the stream
        for rate in (0.0, 0.3, 9.99):
            rng, ref = sp.RngState(21), sp.RngState(21)
            for _ in range(200):
                want = 0
                if rate > 0.0:
                    prod = ref.uniform()
                    while prod > math.exp(-rate):
                        want += 1
                        prod *= ref.uniform()
                assert sp.sample_poisson(rng, rate) == want
            assert rng.next_u64() == ref.next_u64()

    def test_poisson_ptrs_moments(self):
        rng = lanes(14, 30000)
        for rate in (900.0, 1e6):
            draws = sp.sample_poisson(rng, rate).astype(float)
            assert draws.mean() == pytest.approx(rate, abs=3.0 * math.sqrt(rate / draws.size))
            assert draws.var() == pytest.approx(rate, rel=0.05)

    def test_poisson_huge_rate_returns_fast(self):
        # a step one ulp off the crossing asks for rates like this
        rng = sp.RngState(15)
        t0 = time.perf_counter()
        draw = sp.sample_poisson(rng, 1e12)
        assert time.perf_counter() - t0 < 0.01
        assert abs(draw - 1e12) < 10.0 * 1e6

    def test_gamma_rejects_bad_parameters(self):
        for shape, scale in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                             (2.0, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError):
                sp.sample_gamma(sp.RngState(0), shape, scale)

    def test_poisson_rejects_bad_rates(self):
        for rate in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                sp.sample_poisson(sp.RngState(0), rate)

    def test_binomial_moments(self):
        # n = 1000 goes through median splitting, the others through inversion
        rng = lanes(16, 30000)
        for n, p in ((1000, 0.3), (40, 0.8), (5, 0.5)):
            draws = sp.sample_binomial(rng, n, p).astype(float)
            var = n * p * (1.0 - p)
            assert draws.mean() == pytest.approx(n * p, abs=3.0 * math.sqrt(var / draws.size))
            assert draws.var() == pytest.approx(var, rel=0.05)
            assert draws.min() >= 0 and draws.max() <= n
        rng = sp.RngState(16)
        assert sp.sample_binomial(rng, 10**15, 1.0) == 10**15
        assert sp.sample_binomial(rng, 7, 0.0) == 0


class TestDirectSteps:
    """First steps of sample_qbes_lanes against the exact one-step laws,
    at the strength of acceptance criterion 9."""

    # (start, t, delta, draws); the last two reach PTRS and median splitting
    ATOM_CASES = {
        "case 1": (DiscretePoint(-2.0, 1), 1.0, 1.7, 100000),
        "case 3": (DiscretePoint(-0.5, 1), 2.0, 2.2, 100000),
        "case 4": (ContinuousPoint(3.0), 0.8, 1.0, 100000),
        "case 5": (DiscretePoint(1.2, 4), 0.8, 3.0, 100000),
        "case 1, rates above 10": (DiscretePoint(-1.0, 20), 0.9, 1.5, 20000),
        "case 5, k = 300": (DiscretePoint(2.0, 300), 0.5, 3.0, 20000),
    }

    def test_chi_square_atom_cases(self):
        for seed, (name, (start, t, delta, n)) in enumerate(self.ATOM_CASES.items()):
            law = kn.qbes_transition(start, t, delta)
            [(tau, levels)] = sp.sample_qbes_lanes(start, [t], delta, lanes(2000 + seed, n))
            assert tau == law.tau
            counts = Counter(levels.tolist())
            chi2, crit = chi2_against_law(law, counts, n)
            assert chi2 < crit, f"{name}: chi2 {chi2:.1f} >= {crit:.1f}"

    def test_single_atom_always(self):
        [(tau, levels)] = sp.sample_qbes_lanes(DiscretePoint(1.0, 0), [0.7], 2.0, lanes(1, 50))
        assert (tau, set(levels.tolist())) == (1.7, {0})

    def test_zero_rate_poisson(self):
        [(tau, levels)] = sp.sample_qbes_lanes(ContinuousPoint(0.0), [2.0], 1.5, sp.RngState(2))
        assert (tau, levels.tolist()) == (2.0, [0])

    def test_geometric_frequency(self):
        # kernels example: P(l=0) = 1/2
        n = 100000
        [(_, levels)] = sp.sample_qbes_lanes(DiscretePoint(-2.0, 0), [1.0], 1.0, lanes(99, n))
        hits = levels.tolist().count(0)
        band = 3.0 * math.sqrt(0.25 / n)
        assert hits / n == pytest.approx(0.5, abs=band)

    def test_gamma_ray_law(self):
        [(tau, ys)] = sp.sample_qbes_lanes(DiscretePoint(-1.0, 0), [1.0], 1.5, lanes(4, 20000))
        assert tau == 0.0 and ys.dtype == float
        assert ys.mean() == pytest.approx(1.5, abs=3.0 * ys.std() / math.sqrt(ys.size))

    def test_chi_square_against_pmf(self):
        # one law per kernel discrete case, N = 1e5, fixed seed
        steps = {
            1: (DiscretePoint(-2.0, 1), 1.0, 1.7),
            3: (DiscretePoint(-0.5, 1), 2.0, 2.2),
            4: (ContinuousPoint(3.0), 0.8, 1.0),
            5: (DiscretePoint(1.2, 4), 0.8, 3.0),
        }
        n = 100000
        for case, (start, t, delta) in steps.items():
            [(_, levels)] = sp.sample_qbes_lanes(start, [t], delta, lanes(1000 + case, n))
            law = kn.qbes_transition(start, t, delta)
            chi2, crit = chi2_against_law(law, Counter(levels.tolist()), n)
            assert chi2 < crit, f"case {case}: chi2 {chi2:.1f} >= {crit:.1f}"

    def test_ks_gamma_case(self):
        start, t, delta, n = DiscretePoint(-1.0, 1), 1.0, 1.7, 100000
        law = kn.qbes_transition(start, t, delta)
        [(tau, ys)] = sp.sample_qbes_lanes(start, [t], delta, lanes(2100, n))
        assert tau == 0.0
        ys = np.sort(ys)
        cdf = stats.gamma.cdf(ys, a=law.gamma_ray.shape, scale=law.gamma_ray.scale)
        ks = float(np.max(np.abs(cdf - np.arange(1, n + 1) / n)))
        assert ks < 1.95 / math.sqrt(n)  # 0.999 Kolmogorov quantile


def one_path(steps):
    """The (u, value) states of a one-lane path from sample_qbes_lanes."""
    return [(u, col.tolist()[0]) for u, col in steps]


class TestPaths:
    def test_absorbing_case5_path(self):
        steps = sp.sample_qbes_lanes(DiscretePoint(1.0, 0), [0.5, 1.0, 2.0], 2.0, sp.RngState(1))
        assert one_path(steps) == [(1.5, 0), (2.0, 0), (3.0, 0)]

    def test_uniform_rightward_motion(self):
        # the first coordinate is start.tau + t, one rounding from the grid
        grid = [0.4, 1.1, 2.0, 3.5]
        rng = sp.RngState(8)
        start = DiscretePoint(-5.0, 2)
        steps = sp.sample_qbes_lanes(start, grid, 1.3, rng)
        assert [u for u, _ in steps] == [start.tau + t for t in grid]

    def test_decimal_grids_reach_crossing(self):
        # a:b:n from tau = -b ends on the crossing; summed increments miss it
        # on most of these grids, and the old sampler then spent ~0.5 s per
        # path before giving up
        grids = [(a, b, n) for b in ("0.3", "0.7", "0.9", "1.1", "1.3",
                                     "1.7", "2.1", "2.3", "2.9", "3.7")
                 for a, n in (("0.1", 3), ("0.1", 7), ("0.05", 4), ("0.2", 6))]
        missed_by_increments = 0
        t0 = time.perf_counter()
        for a, b, n in grids:
            grid = cli.parse_grid(f"{a}:{b}:{n}")
            start = DiscretePoint(-float(b), 3)
            steps = sp.sample_qbes_lanes(start, grid, 1.5, sp.RngState(n))
            assert grid[-1] == float(b)
            assert steps[-1][0] == 0.0 and steps[-1][1].dtype == float, (a, b, n)
            assert all(u != 0.0 and col.dtype == object for u, col in steps[:-1])
            tau = start.tau + grid[0]
            for t_prev, t_next in zip(grid, grid[1:]):
                tau += t_next - t_prev
            missed_by_increments += tau != 0.0
        assert time.perf_counter() - t0 < 5.0
        assert missed_by_increments >= len(grids) // 2

    def test_crossing_grid_hits_continuous_branch(self):
        # u = 0.0 marks the continuous branch, a nonzero u a discrete ray
        (u0, arr), (u1, levels) = sp.sample_qbes_lanes(DiscretePoint(-1.0, 0), [1.0, 2.0], 1.5,
                                                       lanes(5, 20000))
        assert (u0, u1) == (0.0, 1.0)
        assert arr.dtype == float and levels.dtype == object
        assert arr.mean() == pytest.approx(1.5, abs=3.0 * arr.std() / math.sqrt(arr.size))

    def test_path_reproducibility(self):
        # -1 + 1.0 == 0, so the third step is on the crossing
        grid = [0.25, 0.75, 1.0, 1.75]
        p1 = sp.sample_qbes_lanes(DiscretePoint(-1.0, 2), grid, 2.0, sp.RngState.for_path(5, [0]))
        p2 = sp.sample_qbes_lanes(DiscretePoint(-1.0, 2), grid, 2.0, sp.RngState.for_path(5, [0]))
        assert one_path(p1) == one_path(p2)
        assert p1[2][0] == 0.0 and p1[2][1].dtype == float

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sp.sample_qbes_lanes(DiscretePoint(1.0, 0), [], 1.0, sp.RngState(0))

    @pytest.mark.parametrize("grid", [[0.5, 0.5, 0.7], [0.7, 0.5], [0.5, math.nan],
                                      [0.5, math.inf], [0.0, 0.5]])
    @pytest.mark.parametrize("sample", [
        lambda grid, rng: sp.sample_qbes_lanes(DiscretePoint(-1.0, 3), grid, 2.0, rng),
        lambda grid, rng: sp.sample_bes_lanes(1.0, grid, 2.0, rng),
    ], ids=["qbes", "bes"])
    def test_lanes_reject_bad_grids(self, sample, grid):
        with pytest.raises(ValueError, match="^time grid must be finite, strictly "
                                             "increasing and start after 0$"):
            sample(grid, lanes(3, 4))


class TestSampleBes:
    def test_rejects_bad_parameters(self):
        for x0, t, delta in ((-1.0, 1.0, 2.0), (math.inf, 1.0, 2.0), (math.nan, 1.0, 2.0),
                             (1.0, math.nan, 2.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)):
            with pytest.raises(ValueError):
                sp.sample_bes(x0, t, delta, sp.RngState(0))

    def test_rejects_infinite_t(self):
        # t = inf passed the check and failed in sample_gamma, naming neither t nor sample_bes
        with pytest.raises(ValueError, match="^sample_bes requires finite t > 0 and delta > 0$"):
            sp.sample_bes(1.0, math.inf, 2.0, sp.RngState(1))

    def test_exponential_case(self):
        # x0 = 0, delta = 2: Y^2 ~ Exponential(mean 2t)
        t = 0.7
        ys = sp.sample_bes(0.0, t, 2.0, lanes(17, 100000)) ** 2
        assert ys.mean() == pytest.approx(2.0 * t, abs=3.0 * ys.std() / math.sqrt(ys.size))

    def test_second_moment_identity(self):
        rng = lanes(18, 100000)
        for (x0, t, delta) in [(1.0, 0.05, 2.0), (1.3, 0.7, 3.5), (0.5, 1.0, 0.8)]:
            ys = sp.sample_bes(x0, t, delta, rng) ** 2
            want = x0 * x0 + delta * t
            assert ys.mean() == pytest.approx(want, abs=3.0 * ys.std() / math.sqrt(ys.size))

    def test_histogram_matches_density(self):
        delta, t, x0 = 2.5, 0.7, 1.3
        n = 100000
        ys = sp.sample_bes(x0, t, delta, lanes(19, n))
        d = kn.BesDensity(delta, t, x0)
        edges = np.linspace(0.0, ys.max() + 0.5, 21)
        counts, _ = np.histogram(ys, bins=edges)
        from hyperbessel.quadrature import QuadratureSpec, integrate
        spec = QuadratureSpec(abs_tol=1e-10)
        sup = 0.0
        for i in range(len(edges) - 1):
            prob = integrate(lambda v: kn.bes_density(d, v), edges[i], edges[i + 1], spec)
            sup = max(sup, abs(counts[i] / n - prob))
        assert sup <= 4.0 / math.sqrt(n)


@pytest.mark.parametrize("module", [hyperbessel, sp], ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
