"""Tests for the QBES transition kernel and the BES transition density.

Expected atom weights are cross-checked against direct log-space evaluation
of the binomial / Poisson / negative-binomial forms, densities against the
reflected-Gaussian closed form at dimension 1 and adaptive quadrature for
normalization.
"""
import json
import math
import time
import warnings

import numpy as np
import pytest

from hyperbessel import cli
from hyperbessel import kernels as kn
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint
from hyperbessel.quadrature import QuadratureError, QuadratureSpec, integrate_rows
from hyperbessel.specfun import log_bessel_i_norm, log_gamma

RNG = np.random.default_rng(905)


def random_scenario(rng, case):
    """Draw (start, t, delta) guaranteed to land in the requested kernel case."""
    delta = rng.uniform(0.3, 5.0)
    k = int(rng.integers(0, 6))
    if case == 1:
        s = -rng.uniform(0.5, 3.0)
        return DiscretePoint(s, k), -s * rng.uniform(0.05, 0.9), delta
    if case == 2:
        s = -rng.uniform(0.5, 3.0)
        return DiscretePoint(s, k), -s, delta
    if case == 3:
        s = -rng.uniform(0.5, 3.0)
        return DiscretePoint(s, k), -s * rng.uniform(1.05, 4.0), delta
    if case == 4:
        return ContinuousPoint(rng.uniform(0.0, 8.0)), rng.uniform(0.2, 3.0), delta
    return DiscretePoint(rng.uniform(0.1, 3.0), k), rng.uniform(0.2, 3.0), delta


class TestQbesTransition:
    def test_case5_k0_single_atom(self):
        for t in [0.2, 1.0, 3.7]:
            for delta in [0.5, 1.0, 4.0]:
                law = kn.qbes_transition(DiscretePoint(1.0, 0), t, delta)
                assert law.case == 5
                assert len(law.atoms) == 1
                atom, prob = law.atoms[0]
                assert atom == DiscretePoint(1.0 + t, 0)
                assert prob == pytest.approx(1.0, abs=1e-14)

    def test_case5_start_ray_past_1e16_t(self):
        # s / u rounds to 1.0 here; ln(1 - p) is taken as ln(t / u)
        law = kn.qbes_transition(DiscretePoint(1e16, 2), 1.0, 1.0)
        assert law.case == 5 and law.tau == 1e16
        assert law.probs == pytest.approx((1e-32, 2e-16, 1.0), rel=1e-12)
        far = kn.qbes_transition(DiscretePoint(1e300, 3), 1.0, 2.0)
        assert far.probs == pytest.approx((0.0, 0.0, 3e-300, 1.0), rel=1e-12)

    def test_case1_time_below_1e16_of_the_start_ray(self):
        # u / s rounds to 1.0 here; ln(1 - p) is taken as ln(t / -s)
        law = kn.qbes_transition(DiscretePoint(-1.0, 0), 1e-17, 1.4)
        assert (law.case, law.tau, law.levels, law.probs) == (1, -1.0, range(0, 1), (1.0,))
        far = kn.qbes_transition(DiscretePoint(-1.0, 3), 1e-17, 1.4)
        assert (far.levels, far.probs) == (range(3, 4), (1.0,))

    def test_case4_zero_rate(self):
        law = kn.qbes_transition(ContinuousPoint(0.0), 2.0, 1.0)
        assert law.case == 4
        assert law.atoms == ((DiscretePoint(2.0, 0), 1.0),)

    def test_case1_geometric_example(self):
        # s=-2, k=0, t=1, delta=1: atoms ((-1, l), 2^-(l+1))
        law = kn.qbes_transition(DiscretePoint(-2.0, 0), 1.0, 1.0)
        assert law.case == 1
        for atom, prob in law.atoms[:25]:
            assert atom.tau == -1.0
            assert prob == pytest.approx(2.0 ** -(atom.k + 1), rel=1e-13)
        assert law.tail_mass <= 1e-12

    def test_case2_gamma(self):
        law = kn.qbes_transition(DiscretePoint(-1.0, 0), 1.0, 1.5)
        assert law.case == 2
        assert law.gamma_ray == kn.GammaRay(1.5, 1.0)
        assert law.atoms == ()

    @pytest.mark.parametrize("shape, at_zero", [(0.5, math.inf), (1.0, 0.5), (2.5, 0.0)])
    def test_gamma_ray_pdf_at_zero(self, shape, at_zero):
        # arrays and scalars take the same path: no NaN or warning at y = 0 for shape 1
        ray = kn.GammaRay(shape, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ys = ray.pdf(np.array([0.0, 1.0]))
            assert ys[0] == pytest.approx(at_zero, rel=1e-15)
            assert ray.pdf(0.0) == ys[0] and ray.pdf(1.0) == ys[1]
        assert ys[1] == pytest.approx(math.exp(-0.5) / (math.gamma(shape) * 2.0 ** shape),
                                      rel=1e-14)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_gamma_ray_off_support(self, shape):
        # y < 0 lies off the ray: density 0 and log-density -inf, no NaN or warning
        ray = kn.GammaRay(shape, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ray.pdf(-1.0) == 0.0 and ray.log_pdf(-1.0) == -math.inf
            assert ray.pdf(np.array([-2.0, -1e-300])).tolist() == [0.0, 0.0]
            assert ray.log_pdf(np.array([-2.0, 1.0]))[0] == -math.inf
            assert ray.pdf(np.array([-1.0, 1.0]))[1] == ray.pdf(1.0)

    def test_case1_weights_match_negative_binomial(self):
        s, k, t, delta = -2.5, 2, 1.0, 1.7
        law = kn.qbes_transition(DiscretePoint(s, k), t, delta)
        u = s + t
        for atom, prob in law.atoms[:30]:
            l = atom.k
            ref = (math.gamma(delta + l) / (math.gamma(delta + k) * math.factorial(l - k))
                   * (u / s) ** (delta + k) * (1.0 - u / s) ** (l - k))
            assert prob == pytest.approx(ref, rel=1e-13)

    def test_case3_weights(self):
        s, k, t, delta = -0.5, 1, 2.0, 2.2
        law = kn.qbes_transition(DiscretePoint(s, k), t, delta)
        u = s + t
        assert law.case == 3
        for atom, prob in law.atoms[:30]:
            l = atom.k
            ref = (math.gamma(delta + k + l) / (math.gamma(delta + k) * math.factorial(l))
                   * (u / t) ** (delta + k) * (-s / t) ** l)
            assert prob == pytest.approx(ref, rel=1e-13)

    def test_case4_poisson_weights(self):
        y1, t = 3.0, 0.8
        law = kn.qbes_transition(ContinuousPoint(y1), t, 1.0)
        rate = y1 / t
        for atom, prob in law.atoms[:30]:
            assert atom.tau == t
            ref = rate ** atom.k * math.exp(-rate) / math.factorial(atom.k)
            assert prob == pytest.approx(ref, rel=1e-13)

    def test_case5_binomial_weights(self):
        s, k, t = 1.2, 4, 0.8
        law = kn.qbes_transition(DiscretePoint(s, k), t, 3.0)
        u = s + t
        assert len(law.atoms) == k + 1
        for atom, prob in law.atoms:
            l = atom.k
            ref = math.comb(k, l) * (s / u) ** l * (1.0 - s / u) ** (k - l)
            assert prob == pytest.approx(ref, rel=1e-13)

    def test_support_geometry(self):
        law = kn.qbes_transition(DiscretePoint(-2.0, 3), 0.5, 1.1)
        assert all(atom.tau == -1.5 and atom.k >= 3 for atom, _ in law.atoms)
        law = kn.qbes_transition(DiscretePoint(2.0, 3), 0.5, 1.1)
        assert all(atom.k <= 3 for atom, _ in law.atoms)

    def test_normalization_sweep(self):
        for i in range(60):
            start, t, delta = random_scenario(RNG, i % 5 + 1)
            law = kn.qbes_transition(start, t, delta)
            assert abs(law.total_mass() - 1.0) <= 1e-12
            assert law.tail_mass <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            kn.qbes_transition(DiscretePoint(1.0, 0), 1.0, 0.0)
        with pytest.raises(ValueError):
            kn.qbes_transition(DiscretePoint(1.0, 0), 1.0, 1.0, trunc_eps=1e-3)
        with pytest.raises(ValueError):
            kn.qbes_transition(DiscretePoint(1.0, 0), -1.0, 1.0)

    @pytest.mark.parametrize("tau, k, t", [(1e308, 2, 1e308), (1.5e308, 0, 5e307)])
    def test_ray_coordinate_overflow_names_it_and_t(self, tau, k, t):
        # u = tau + t = inf raised "math domain error"
        with pytest.raises(ValueError) as exc:
            kn.qbes_transition(DiscretePoint(tau, k), t, 1.0)
        assert str(exc.value) == (f"the ray coordinate tau + t overflows at t = {t!r}; "
                                  "it must be finite")


class TestUnreachableTarget:
    """Laws whose rounded atoms sum to just under 1 - 0.9375 trunc_eps."""

    @pytest.mark.parametrize("start, t, delta", [
        (DiscretePoint(-1.5, 8), 1.496, 0.9),   # case 1, sums to 1 - 9.5e-13
        (ContinuousPoint(2003.09), 1.0, 2.5),   # case 4, sums to 1 - 9.99e-13
    ])
    def test_raise_early(self, start, t, delta):
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError) as info:
                kn.qbes_transition(start, t, delta)
            elapsed.append(time.perf_counter() - t0)
        # walking on to the 500k-atom cap took over 0.1 s per law
        assert min(elapsed) < 0.05
        msg = str(info.value)
        assert msg.startswith("transition law support too large to truncate (mass 1.000000 after")
        assert "cannot reach 1 - trunc_eps" in msg and "--trunc-eps" in msg

    @pytest.mark.parametrize("start, t, delta, n_atoms", [
        (DiscretePoint(-1.0, 4), 0.996, 1.3, 10028),
        (DiscretePoint(-1.0, 0), 0.992, 2.0, 3880),
        (ContinuousPoint(2000.0), 1.0, 2.5, 2326),
        (DiscretePoint(-0.5, 200), 1.5, 1.5, 205),
    ])
    def test_reachable_laws_keep_their_atoms(self, start, t, delta, n_atoms):
        law = kn.qbes_transition(start, t, delta)
        assert len(law.atoms) == n_atoms
        assert law.tail_mass <= 1e-12


def _exact_sum_laws():
    """Laws of every kernel case: random ones, Poisson rates from 0.5 to 5000,
    the near-crossing negative binomials that reach their target, and laws
    holding zero-probability atoms."""
    rng = np.random.default_rng(2511)
    laws = [kn.qbes_transition(*random_scenario(rng, case)) for case in range(1, 6)
            for _ in range(4)]
    laws += [kn.qbes_transition(ContinuousPoint(rate), 1.0, 2.5)
             for rate in (0.5, 3.0, 30.0, 300.0, 700.0, 2000.0, 5000.0)]
    for k in range(0, 11, 2):
        for t in (0.999, 0.9999):
            try:
                laws.append(kn.qbes_transition(DiscretePoint(-1.0, k), t, 1.3))
            except RuntimeError:  # a target its rounded atoms cannot reach
                pass
    laws += [kn.qbes_transition(DiscretePoint(1e300, 3), 1.0, 2.0),
             kn.TransitionLaw(case=5, tau=1.0, levels=range(4), probs=(0.0, 0.5, 0.0, 0.5))]
    return laws


def test_exact_sum_is_fsum_in_natural_order():
    # fsum is correctly rounded, so largest-first changes no bit of a law's sum
    laws = _exact_sum_laws()
    assert {law.case for law in laws} == {1, 2, 3, 4, 5}
    assert sum(0.0 in law.probs for law in laws) >= 3
    assert max(len(law.probs) for law in laws) > 20_000
    for law in laws:
        assert kn._exact_sum(law.probs).hex() == math.fsum(law.probs).hex()
        want = math.fsum(law.probs) + law.tail_mass + (law.gamma_ray is not None)
        assert law.total_mass().hex() == want.hex()


def test_truncation_overshoot_is_rejected():
    # two atoms of 0.5 + 1e-11: the rounded atoms sum above 1 + 1e-12
    log_pmf = lambda ms: np.where(ms < 2, math.log(0.5 + 1e-11), -np.inf)  # noqa: E731
    law, = kn._truncate_rows(lambda rows, ms: log_pmf(ms)[None], lambda row, m: 0.0, 1e-12,
                             [(-1.0, 0, 1)])
    with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12"):
        raise law


class TestTransitionLawInvariants:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            kn.TransitionLaw(case=5, tau=1.0, levels=range(1), probs=(0.5,))

    def test_rejects_negative_prob(self):
        with pytest.raises(ValueError):
            kn.TransitionLaw(case=5, tau=1.0, levels=range(2), probs=(1.5, -0.5))

    def test_rejects_nan_prob(self):
        # NaN sums to a NaN mass, which the mass check alone lets through
        with pytest.raises(ValueError, match="must be >= 0"):
            kn.TransitionLaw(case=5, tau=1.0, levels=range(2), probs=(1.0, math.nan))

    @pytest.mark.parametrize("tail", [math.nan, -1e-13])
    def test_rejects_tail_mass_that_is_not_nonnegative(self, tail):
        # a NaN tail_mass passed both checks, and law_json wrote "tail_mass": NaN
        with pytest.raises(ValueError, match="^tail_mass must be >= 0$"):
            kn.TransitionLaw(case=4, tau=1.0, levels=range(1), probs=(1.0,), tail_mass=tail)

    def test_serialization_round_trip(self):
        for law in [
            kn.qbes_transition(DiscretePoint(-2.0, 1), 1.0, 1.3),
            kn.qbes_transition(DiscretePoint(-1.0, 0), 1.0, 1.5),
            kn.qbes_transition(ContinuousPoint(2.0), 0.5, 2.0),
            kn.qbes_transition(DiscretePoint(0.5, 3), 0.5, 2.0),
        ]:
            # every field of the law reads back exactly from its JSON
            data = json.loads(kn.law_json(law))
            assert [(a["tau"], a["k"], a["prob"]) for a in data["atoms"]] == [
                (law.tau, l, p) for l, p in zip(law.levels, law.probs)]
            g = law.gamma_ray
            gamma = None if g is None else {"shape": g.shape, "scale": g.scale}
            assert (data["case"], data["gamma"], data["tail_mass"]) == (
                law.case, gamma, law.tail_mass)


def per_atom_law_to_dict(law):
    """The law's dict form as it was when a law stored (point, prob) pairs."""
    atoms = []
    for point, prob in law.atoms:
        if isinstance(point, DiscretePoint):
            atoms.append({"tau": point.tau, "k": point.k, "y1": None, "prob": prob})
        else:
            atoms.append({"tau": None, "k": None, "y1": point.y1, "prob": prob})
    gamma = None
    if law.gamma_ray is not None:
        gamma = {"shape": law.gamma_ray.shape, "scale": law.gamma_ray.scale}
    return {"case": law.case, "atoms": atoms, "gamma": gamma, "tail_mass": law.tail_mass}


class TestLawLayout:
    """A law is one ray tau, a step-1 range of levels and a tuple of probs."""

    LAWS = [
        (DiscretePoint(-2.0, 1), 1.0, 1.3),      # case 1
        (DiscretePoint(-1.0, 2), 1.0, 1.5),      # case 2
        (DiscretePoint(-0.5, 1), 2.0, 2.2),      # case 3
        (ContinuousPoint(3.0), 0.8, 1.0),        # case 4
        (ContinuousPoint(0.0), 2.0, 1.0),        # case 4, zero rate
        (DiscretePoint(1.2, 4), 0.8, 3.0),       # case 5
        (DiscretePoint(1.0, 0), 0.7, 2.0),       # case 5, k = 0
        (DiscretePoint(-1.0, 4), 0.996, 1.3),    # the reachable laws of TestUnreachableTarget
        (DiscretePoint(-1.0, 0), 0.992, 2.0),
        (ContinuousPoint(2000.0), 1.0, 2.5),
        (DiscretePoint(-0.5, 200), 1.5, 1.5),
    ]

    @pytest.mark.parametrize("start, t, delta", LAWS)
    def test_json_matches_per_atom_serialization(self, start, t, delta):
        law = kn.qbes_transition(start, t, delta)
        assert kn.law_json(law) == json.dumps(per_atom_law_to_dict(law))

    @pytest.mark.parametrize("levels", [[0, 1], (0, 1), range(0, 4, 2), range(1, -1, -1)])
    def test_levels_must_be_a_step_one_range(self, levels):
        with pytest.raises(ValueError):
            kn.TransitionLaw(case=5, tau=1.0, levels=levels, probs=(0.5, 0.5))

    @pytest.mark.dispatch_pinned
    def test_chapman_kolmogorov_values_unchanged(self):
        # the chapman-kolmogorov verify suite, in its order; per-level sums
        # keep their order, so every value keeps its bits
        scenarios = [
            (DiscretePoint(-2.0, 0), 0.5, 0.5, 1.7, 2.712053462546436e-13),
            (DiscretePoint(-1.0, 1), 0.4, 1.0, 2.3, 2.3250239070369417e-13),
            (DiscretePoint(-1.0, 1), 1.0, 1.0, 2.3, 2.9268765841051877e-13),
            (DiscretePoint(-2.0, 1), 1.2, 0.8, 1.5, 3.895669382064031e-14),
            (DiscretePoint(1.0, 3), 0.4, 0.6, 0.9, 5.551115123125783e-17),
            (ContinuousPoint(0.7), 0.6, 0.9, 2.0, 1.388569873546468e-13),
        ]
        for start, t1, t2, delta, want in scenarios:
            assert kn.chapman_kolmogorov_qbes(start, t1, t2, delta) == want


def _parent_bes_density(d, y):
    """bes_density before the per-row helper, verbatim."""
    arr = np.asarray(y, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError("bes_density requires y >= 0")
    delta, t, x = d.delta, d.t, d.x
    nu = delta / 2.0 - 1.0
    out = np.empty_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        yp = arr[pos]
        log_p = (math.log(2.0) + (delta - 1.0) * np.log(yp)
                 - 0.5 * delta * math.log(2.0 * t) - log_gamma(delta / 2.0)
                 + log_bessel_i_norm(nu, x * yp / t)
                 - (x * x + yp * yp) / (2.0 * t))
        out[pos] = np.exp(log_p)
    if np.any(~pos):
        if delta > 1.0:
            edge = 0.0
        elif delta == 1.0:
            edge = 2.0 * math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
        else:
            edge = math.inf
        out[~pos] = edge
    if np.ndim(y) == 0:
        return float(out)
    return out


def _parent_bits(d, ys):
    """The parent's values, but at delta = 1, y = 0, which now takes the y > 0
    formula: there its value at the least positive y."""
    want = _parent_bes_density(d, ys)
    if d.delta == 1.0:
        want[ys == 0.0] = _parent_bes_density(d, 5e-324)
    return want


class TestBesDensity:
    def test_dimension_one_reflected_gaussian(self):
        d = kn.BesDensity(1.0, 0.7, 1.3)
        for y in np.linspace(0.0, 5.0, 41):
            want = ((math.exp(-(1.3 - y) ** 2 / 1.4) + math.exp(-(1.3 + y) ** 2 / 1.4))
                    / math.sqrt(2.0 * math.pi * 0.7))
            assert kn.bes_density(d, y) == pytest.approx(want, abs=1e-12)

    def test_zero_start_closed_form(self):
        d = kn.BesDensity(2.5, 0.7, 0.0)
        for y in [0.5, 1.0, 2.0]:
            want = (2.0 * y ** 1.5 * math.exp(-y * y / 1.4)
                    / ((1.4) ** 1.25 * math.gamma(1.25)))
            assert kn.bes_density(d, y) == pytest.approx(want, rel=1e-12)

    def test_normalizes(self):
        # y = w^2 regularizes the y^(delta-1) endpoint for delta < 1
        spec = QuadratureSpec(abs_tol=1e-11)
        for (delta, t, x) in [(2.5, 0.7, 1.3), (1.0, 1.0, 0.5), (4.0, 0.3, 2.0), (0.7, 1.1, 0.4)]:
            d = kn.BesDensity(delta, t, x)
            hi = math.sqrt(x + 12.0 * math.sqrt(t) + 5.0)
            [mass] = integrate_rows(lambda ws, rows: 2.0 * ws * kn.bes_density(d, ws * ws),
                                    [(0.0, hi)], spec)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_no_overflow_at_large_drift(self):
        d = kn.BesDensity(2.0, 0.001, 30.0)
        val = kn.bes_density(d, 30.0)
        assert np.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("delta,t,x,grid", [
        (2.5, 0.7, 1.3, "0:4:81"),       # the README example
        (1.5, 0.5, 1.2, "0:6:200"),      # the tabulate design points
        (3.0, 1.0, 30.0, "0:40:200"),
        (60.0, 1.0, 30.0, "0:40:200"),
        (1.0, 0.7, 1.3, "0:4:81"),       # the y = 0 edge at each side of delta = 1
        (0.7, 0.5, 1.2, "0:4:81"),
    ])
    def test_rows_helper_keeps_bits(self, delta, t, x, grid):
        ys = np.array(cli.parse_grid(grid))
        d = kn.BesDensity(delta, t, x)
        want = _parent_bits(d, ys)
        assert kn.bes_density(d, ys).tobytes() == want.tobytes()
        assert [kn.bes_density(d, y) for y in ys[:3].tolist()] == want[:3].tolist()
        if delta == 1.0:
            assert kn.bes_density(d, 0.0) == kn.bes_density(d, 5e-324)
        # the same density as row 1 of a family, its nodes interleaved with row 0's
        pair = [kn.BesDensity(delta, 2.0 * t, 0.5 * x), d]
        rows = np.arange(2 * ys.size) % 2
        got = kn._bes_density_rows(pair, np.repeat(ys, 2), rows)
        assert got[1::2].tobytes() == want.tobytes()
        assert got[0::2].tobytes() == _parent_bits(pair[0], ys).tobytes()

    def test_rows_of_mixed_deltas_keep_lone_bits(self):
        # each row carries its own delta; delta 1 keeps its "no ln y" case per row
        ys = np.array(cli.parse_grid("0:4:81"))
        family = [kn.BesDensity(delta, t, x) for delta, t, x in
                  ((2.5, 0.7, 1.3), (1.0, 0.7, 1.3), (0.7, 0.5, 1.2), (60.0, 1.0, 30.0))]
        rows = np.arange(len(family) * ys.size) % len(family)
        got = kn._bes_density_rows(family, np.repeat(ys, len(family)), rows)
        for r, d in enumerate(family):
            assert got[r::len(family)].tobytes() == kn.bes_density(d, ys).tobytes()

    @pytest.mark.parametrize("x,t,want", [
        # 2 exp(-x^2 / 2t) / sqrt(2 pi t) by 30-digit mpmath
        (1.3, 0.7, 0.2851908317156703231559235),
        (1.2, 0.5, 0.267344347003539174197204),
        (5.0, 2.0, 0.001089142115176354860193339),
        (30.0, 1.0, 2.947292269757095038098987e-196),
    ])
    def test_dimension_one_at_zero(self, x, t, want):
        assert kn.bes_density(kn.BesDensity(1.0, t, x), 0.0) == pytest.approx(want, rel=3e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            kn.BesDensity(0.0, 1.0, 0.0)
        for y in (-1.0, math.nan, math.inf, [1.0, math.inf]):
            with pytest.raises(ValueError, match="^bes_density requires finite y >= 0$"):
                kn.bes_density(kn.BesDensity(1.0, 1.0, 0.0), y)


class TestChapmanKolmogorov:
    @pytest.mark.parametrize("start,t1,t2,step_t", [
        # the direct law is on the gamma ray; the step laws are moved off u = 0
        (DiscretePoint(-2.0, 1), 1.2, 0.8, lambda s: 1.6),
        # the direct law is discrete; the step laws are moved onto u = 0
        (DiscretePoint(-1.0, 1), 0.4, 1.0, lambda s: -s.tau),
    ])
    def test_step_laws_on_another_branch_than_the_direct_law(self, monkeypatch, start,
                                                             t1, t2, step_t):
        # every step law must have a gamma ray exactly when the direct law has one
        transition_rows = kn._transition_rows
        monkeypatch.setattr(kn, "_transition_rows", lambda rows: transition_rows(
            [(s, step_t(s) if t == t2 else t, delta) for s, t, delta in rows]))
        with pytest.raises(AssertionError, match="^an intermediate step law and the direct "
                                                 "law differ in branch$"):
            kn.chapman_kolmogorov_qbes(start, t1, t2, 1.5)

    def test_within_case_one(self):
        assert kn.chapman_kolmogorov_qbes(DiscretePoint(-2.0, 0), 0.5, 0.5, 1.7) <= 1e-10

    def test_case_one_to_three(self):
        assert kn.chapman_kolmogorov_qbes(DiscretePoint(-1.0, 1), 0.4, 1.0, 2.3) <= 1e-8

    def test_gamma_intermediate(self):
        assert kn.chapman_kolmogorov_qbes(DiscretePoint(-1.0, 1), 1.0, 1.0, 2.3) <= 1e-8

    def test_exact_binomial_composition(self):
        assert kn.chapman_kolmogorov_qbes(DiscretePoint(1.0, 3), 0.4, 0.6, 0.9) <= 1e-12

    def test_gamma_endpoint(self):
        assert kn.chapman_kolmogorov_qbes(DiscretePoint(-2.0, 1), 1.2, 0.8, 1.5) <= 1e-8

    def test_poisson_thinning(self):
        assert kn.chapman_kolmogorov_qbes(ContinuousPoint(0.7), 0.6, 0.9, 2.0) <= 1e-12

    @pytest.mark.parametrize("delta,start,t1,t2", [
        (delta, start, t1, t2) for delta in (0.2, 0.5)
        for start, t1, t2 in ((DiscretePoint(-1.0, 0), 1.0, 1.0),
                              (DiscretePoint(-1.0, 1), 1.0, 1.0),
                              (DiscretePoint(-2.0, 0), 2.0, 0.5))
    ] + [(0.9, DiscretePoint(-1.0, 0), 1.0, 1.0), (0.9, DiscretePoint(-2.0, 0), 2.0, 0.5),
         (2.0, DiscretePoint(-1.0, 150), 1.0, 1.0),          # shape 152
         (2.0, DiscretePoint(-1.0, 300), 1.0, 1.0),          # shape 302
         (1.4, DiscretePoint(-1e-200, 1), 1e-200, 1e-200)])  # scale 1e-200
    def test_gamma_intermediate_returns(self, delta, start, t1, t2):
        # shapes below 1.5 exhausted the bisection depth at 0 while y^(shape-1)
        # was a term of the integrand; as an endpoint weight in absolute y it
        # overflowed at a large shape (cutoff^shape) or a small scale (scale^-shape)
        assert kn.chapman_kolmogorov_qbes(start, t1, t2, delta) <= 1e-12

    def test_gamma_intermediate_does_not_see_the_time_unit(self):
        # in u = Y/scale every term is a ratio of times, so rescaling the
        # start and both times by c gives the same error
        errs = {kn.chapman_kolmogorov_qbes(DiscretePoint(-c, 0), c, c, 1.4)
                for c in (1.0, 1e-100, 1e-300)}
        assert len(errs) == 1 and errs.pop() <= 1e-12

    def test_case1_time_below_1e16_of_the_start_ray(self):
        # raised "math domain error" while u / s rounded to 1.0
        assert kn.chapman_kolmogorov_qbes(DiscretePoint(-1, 0), 1e-100, 1e-100, 1.4) == 0.0

    def test_case5_start_ray_past_1e16_t(self):
        # raised "math domain error" while s / u rounded to 1.0
        err = kn.chapman_kolmogorov_qbes(DiscretePoint(1e16, 2), 1, 1, 1)
        assert 0.0 <= err <= 1e-15


def _parent_poisson_mixture_pmf(gamma_ray, t2, levels, quad):
    """The per-level loop that _poisson_mixture_pmf replaced, verbatim except
    that it integrates over u = Y/scale and a power u^(shape-1) below u^1 is
    the endpoint weight of integrate_rows instead of a term of the integrand's log."""
    shape, scale = gamma_ray.shape, gamma_ray.scale
    weight = shape - 1.0 if shape < 2.0 else 0.0
    out = np.empty(len(levels))
    for i, l in enumerate(levels):
        cutoff = (shape + l + 45.0 + 12.0 * math.sqrt(shape + l + 1.0)) / (1.0 + scale / t2)

        def integrand(us):
            log_u = np.log(us)
            log_f = ((shape - 1.0 - weight) * log_u - us - log_gamma(shape)
                     + l * (log_u + (math.log(scale) - math.log(t2))) - us * (scale / t2)
                     - log_gamma(l + 1.0))
            return np.exp(log_f)

        [out[i]] = integrate_rows(lambda us, rows: integrand(us), [(0.0, cutoff)], quad,
                                  [weight])
    return out


@pytest.mark.parametrize("shape,scale,t2,levels", [
    (3.3, 1.0, 1.0, range(0, 40)),     # the chapman-kolmogorov verify scenario
    (1.5, 2.0, 0.8, range(0, 25)),
    (0.4, 0.7, 2.5, range(3, 9)),
])
@pytest.mark.parametrize("quad", [QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)])
def test_poisson_mixture_matches_per_level_loop(shape, scale, t2, levels, quad):
    gamma_ray = kn.GammaRay(shape, scale)
    try:
        want = _parent_poisson_mixture_pmf(gamma_ray, t2, levels, quad)
    except QuadratureError as exc:  # the same error, from the same level
        with pytest.raises(QuadratureError) as got:
            kn._poisson_mixture_pmf(gamma_ray, t2, levels, quad)
        assert str(got.value) == str(exc)
        return
    got = kn._poisson_mixture_pmf(gamma_ray, t2, levels, quad)
    assert got.dtype == want.dtype and np.array_equal(got, want)
