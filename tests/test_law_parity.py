"""Array-speed law construction keeps every bit of the per-atom code.

The per-atom forms of the truncation, of the negative-binomial and Poisson
pmfs, of kernels.law_json and of TransitionLaw.__post_init__ are kept below
verbatim (prefixed _per_atom_ where the name would clash). The per-atom
reference of the row family kernels._truncate_rows truncates each row alone
with them, so qbes_transition and kernels._transition_rows then build each
law atom by atom; every law, its JSON text and every raise message of the
array forms, lone or in a family of rows, must be equal to theirs.
"""
import json
import math

import numpy as np
import pytest

from hyperbessel import kernels as kn
from hyperbessel import verify as vf
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint
from hyperbessel.specfun import log_gamma

_NORM_SLACK = kn._NORM_SLACK
_MAX_ATOMS = kn._MAX_ATOMS


class TransitionLaw(kn.TransitionLaw):
    """TransitionLaw with the per-atom mass check."""

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4, 5):
            raise ValueError("case must be 1..5")
        if not (isinstance(self.levels, range) and self.levels.step == 1
                and self.levels.start >= 0 and len(self.levels) == len(self.probs)):
            raise ValueError("levels must be a step-1 range of levels >= 0, one per prob")
        if self.levels and (self.tau is None or not math.isfinite(self.tau) or self.tau == 0.0):
            raise ValueError("atoms require a nonzero finite ray tau")
        if self.tail_mass < 0.0:
            raise ValueError("tail_mass must be >= 0")
        if not all(p >= 0.0 for p in self.probs):  # NaN included
            raise ValueError("atom probabilities must be >= 0")
        total = self.total_mass()
        if abs(total - 1.0) > _NORM_SLACK:
            raise ValueError(f"law mass {total!r} deviates from 1 beyond 1e-12")


def _truncate_series(log_pmf, tail_ratio, trunc_eps, tau, first_level, case):
    target = 1.0 - 0.9375 * trunc_eps
    probs: list[float] = []
    total = 0.0
    comp = 0.0  # Neumaier compensation
    level = 0
    chunk = 512
    done = False
    while not done:
        ms = np.arange(level, level + chunk)
        ps = np.exp(log_pmf(ms))
        for p_val in ps:
            p = float(p_val)
            t_sum = total + p
            if abs(total) >= abs(p):
                comp += (total - t_sum) + p
            else:
                comp += (p - t_sum) + total
            total = t_sum
            probs.append(p)
            if total + comp >= target:
                done = True
                break
        level += chunk
        ratio = tail_ratio(level - 1)
        out_of_reach = not done and ratio < 1.0 and (
            total + comp + 2.0 * float(ps[-1]) * ratio / (1.0 - ratio) + 1e-15 < target)
        if out_of_reach or level > _MAX_ATOMS:
            raise RuntimeError(
                f"transition law support too large to truncate (mass {total + comp:.6f} "
                f"after {level} atoms); its rounded atom probabilities "
                f"{'cannot' if out_of_reach else 'do not'} reach 1 - trunc_eps "
                f"(trunc_eps = {trunc_eps:g}); use a larger trunc_eps (--trunc-eps)")
    tail = max(0.0, 1.0 - math.fsum(probs))
    return TransitionLaw(case=case, tau=tau, levels=range(first_level, first_level + len(probs)),
                         probs=tuple(probs), tail_mass=tail)


def _neg_binomial_pmf(r, lp, lq):
    q = math.exp(lq)

    def log_pmf(ms):
        return (log_gamma(r + ms) - log_gamma(r) - log_gamma(ms + 1.0)
                + r * lp + ms * lq)

    def tail_ratio(m):
        # sup over j >= m of (r + j) / (j + 1) q; the fraction falls to 1
        # when r >= 1 and rises to 1 when r < 1
        return q * max((r + m) / (m + 1.0), 1.0)

    return log_pmf, tail_ratio


def _poisson_pmf(rate, log_rate):
    def log_pmf(ls):
        return ls * log_rate - rate - log_gamma(ls + 1.0)

    return log_pmf, lambda m: rate / (m + 1.0)


def _per_row(pmf):
    """A row family's (log_pmf, tail_ratio) from the per-atom pmf of each row."""
    def kind(series):
        pmfs = [pmf(*row) for row in series]
        return (lambda rows, ms: np.array([pmfs[i][0](ms) for i in rows]),
                lambda row, m: pmfs[row][1](m))
    return kind


def _per_atom_truncate_rows(log_pmf, tail_ratio, trunc_eps, heads):
    """kernels._truncate_rows as a loop of per-atom truncations, one per row."""
    outcomes = []
    for i, head in enumerate(heads):
        try:
            outcomes.append(_truncate_series(lambda ms: log_pmf(np.array([i]), ms)[0],
                                             lambda m: tail_ratio(i, m), trunc_eps, *head))
        except (RuntimeError, ValueError) as exc:
            outcomes.append(exc)
    return outcomes


def _per_atom_law_json(law):
    atom = '{"tau": %s, "k": %%d, "y1": null, "prob": %%s}' % json.dumps(law.tau)
    atoms = ", ".join([atom % (l, float.__repr__(p)) for l, p in zip(law.levels, law.probs)])
    g = law.gamma_ray
    gamma = None if g is None else {"shape": g.shape, "scale": g.scale}
    return '{"case": %d, "atoms": [%s], "gamma": %s, "tail_mass": %s}' % (
        law.case, atoms, json.dumps(gamma), json.dumps(law.tail_mass))


def _outcome(build, write):
    """Every bit of a built law and its JSON, or the raise it ends in."""
    try:
        law = build()
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(p) is float for p in law.probs)
    return (law.case, law.tau, law.levels, [p.hex() for p in law.probs],
            law.tail_mass.hex(), write(law))


@pytest.fixture
def per_atom_law(monkeypatch):
    """The outcome of qbes_transition through the per-atom code."""
    def outcome(start, t, delta, trunc_eps=1e-12):
        with monkeypatch.context() as m:
            for name, obj in (("_truncate_rows", _per_atom_truncate_rows),
                              ("_neg_binomial", _per_row(_neg_binomial_pmf)),
                              ("_poisson", _per_row(_poisson_pmf)),
                              ("TransitionLaw", TransitionLaw)):
                m.setattr(kn, name, obj)
            return _outcome(lambda: kn.qbes_transition(start, t, delta, trunc_eps),
                            _per_atom_law_json)
    return outcome


def _law(start, t, delta, trunc_eps=1e-12):
    return _outcome(lambda: kn.qbes_transition(start, t, delta, trunc_eps), kn.law_json)


def _raised(outcome):
    """A row's law, or the error it holds raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _rows(truncate, pmfs, trunc_eps, heads):
    """Each row's outcome of the truncation family truncate over the rows'
    (log_pmf(ms), tail_ratio(m)) pairs pmfs, from one call."""
    laws = truncate(lambda rows, ms: np.array([pmfs[i][0](ms) for i in rows]),
                    lambda row, m: pmfs[row][1](m), trunc_eps, heads)
    write = kn.law_json if truncate is kn._truncate_rows else _per_atom_law_json
    return [_outcome(lambda law=law: _raised(law), write) for law in laws]


# (start, t, delta) by kernel case; t near 1 |s| puts the crossing deep in a
# negative binomial of ~1e3 to ~4e4 atoms, or makes it unreachable
LAW_FAMILIES = {
    # the ray only moves tau: q = t / |s| sets the atoms
    "case1": [(DiscretePoint(-1.0, k), f, delta)
              for k in (0, 2, 4, 8) for delta in (0.5, 1.3, 2.0)
              for f in (0.3, 0.9, 0.992, 0.996)] + [(DiscretePoint(-1.5, 3), 0.45, 0.7)],
    "case1-deep": [(DiscretePoint(-1.0, k), t, delta)
                   for k, delta, t in ((0, 0.5, 0.999), (4, 2.0, 0.999), (0, 0.5, 0.9999))],
    "case3": [(DiscretePoint(-1.0, k), f, delta)
              for k in (0, 3, 200) for delta in (0.7, 2.5) for f in (1.01, 1.2, 1.5, 3.0)
              if k < 200 or f > 1.01] + [(DiscretePoint(-0.5, 3), 0.6, 0.7)],
    "case4": [(ContinuousPoint(y1), t, 2.5)
              for y1 in (0.5, 3.0, 30.0, 300.0, 700.0, 2000.0, 2003.09, 5000.0)
              for t in (1.0, 0.7)],
    "case5": [(DiscretePoint(s, k), 0.5, 1.0)
              for s in (0.3, 2.0, 1e16) for k in (0, 1, 7, 40, 300, 400)],
}


@pytest.mark.parametrize("family, trunc_eps", [
    (family, eps) for family in sorted(LAW_FAMILIES) for eps in (1e-12, 1e-9, 1e-6)
    if family != "case1-deep" or eps == 1e-12])  # the deep laws at the default only
def test_laws_keep_their_bits(per_atom_law, family, trunc_eps):
    outcomes = []
    for start, t, delta in LAW_FAMILIES[family]:
        outcomes.append(_law(start, t, delta, trunc_eps))
        assert outcomes[-1] == per_atom_law(start, t, delta, trunc_eps), (start, t, delta)
    if family == "case1-deep":
        # one unreachable target and one law of more than 20,000 atoms
        raised = [o for o in outcomes if o[0] == "RuntimeError"]
        assert any("cannot reach" in o[1] for o in raised)
        assert max(len(o[3]) for o in outcomes if o not in raised) > 20_000


# the qbes-kernel laws of the tabulate benchmark; two of them raise
DESIGN_LAWS = [(DiscretePoint(-1.0, 4), 0.996, 1.3), (DiscretePoint(-1.0, 0), 0.992, 2.0),
               (DiscretePoint(-1.5, 8), 1.496, 0.9), (ContinuousPoint(2000.0), 1.0, 2.5),
               (ContinuousPoint(2003.09), 1.0, 2.5), (ContinuousPoint(700.0), 1.0, 1.0),
               (DiscretePoint(-0.5, 200), 1.5, 1.5), (DiscretePoint(2.0, 300), 0.5, 3.0),
               (DiscretePoint(-2.0, 5), 0.5, 0.7)]


def _normalization_rows():
    rng = np.random.default_rng(20241)
    return [vf._random_scenario(rng, i % 5 + 1) for i in range(200)]


def _ck_rows():
    """The laws of the chapman-kolmogorov suite: both ends, then each step."""
    rows = []
    for start, t1, t2, delta in ((DiscretePoint(-2.0, 0), 0.5, 0.5, 1.7),
                                 (DiscretePoint(-1.0, 1), 0.4, 1.0, 2.3),
                                 (DiscretePoint(-1.0, 1), 1.0, 1.0, 2.3),
                                 (DiscretePoint(-2.0, 1), 1.2, 0.8, 1.5),
                                 (DiscretePoint(1.0, 3), 0.4, 0.6, 0.9),
                                 (ContinuousPoint(0.7), 0.6, 0.9, 2.0)):
        law1 = kn.qbes_transition(start, t1, delta)
        rows += [(start, t1, delta), (start, t1 + t2, delta)]
        rows += [(DiscretePoint(law1.tau, l), t2, delta) for l in law1.levels]
    return rows


ROW_FAMILIES = {**LAW_FAMILIES, "design": DESIGN_LAWS, "normalization": _normalization_rows(),
                "chapman-kolmogorov": _ck_rows()}
ROW_FAMILIES["all"] = [row for rows in ROW_FAMILIES.values() for row in rows]


def _family(rows, trunc_eps):
    """Every law of one _transition_rows call, or the raise it ends in."""
    try:
        laws = kn._transition_rows(rows, trunc_eps)
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [_outcome(lambda law=law: law, kn.law_json) for law in laws]


@pytest.mark.parametrize("family, trunc_eps", [
    (family, eps) for family in sorted(ROW_FAMILIES) for eps in (1e-12, 1e-9, 1e-6)
    if family not in ("case1-deep", "all") or eps == 1e-12])
def test_law_family_equals_its_lone_laws(per_atom_law, family, trunc_eps):
    # one family call keeps every law of the per-atom lone calls; with a row
    # that raises, it raises the first such row's error
    rows = ROW_FAMILIES[family]
    lone = [per_atom_law(*row, trunc_eps) for row in rows]
    raised = [o for o in lone if len(o) == 2]
    assert _family(rows, trunc_eps) == (raised[0] if raised else lone)
    kept = [row for row, o in zip(rows, lone) if len(o) != 2]
    assert _family(kept, trunc_eps) == [o for o in lone if len(o) != 2]
    if (family, trunc_eps) == ("design", 1e-12):
        assert len(raised) == 2


def test_law_family_raises_its_first_failing_row():
    # a row the checks reject, a row past its reach and a row whose shape
    # delta + k overflows (alone it raises what log_gamma(inf) says), either
    # side of good rows
    good, far = LAW_FAMILIES["case1"][0], LAW_FAMILIES["case1-deep"][1]
    bad = (DiscretePoint(-1.0, 0), 1.0, -2.0)
    huge = (DiscretePoint(-1.0, int(1.7e308)), 0.5, 1e308)
    with pytest.raises(ValueError) as infinite_shape:
        log_gamma(math.inf)
    for rows, message in (([good, bad, far], "qbes_transition requires delta > 0"),
                          ([good, far, bad], "cannot reach"),
                          ([far, good, bad], "cannot reach"),
                          ([good, (ContinuousPoint(1.0), 1.0, 1.0), bad], "requires delta > 0"),
                          ([huge], str(infinite_shape.value)),
                          ([good, huge, far], str(infinite_shape.value)),
                          ([far, good, huge], "cannot reach")):
        with pytest.raises((RuntimeError, ValueError), match=message):
            kn._transition_rows(rows)
    with pytest.raises(TypeError, match="^not a fan point"):
        kn._transition_rows([good, ((1.0, 2.0), 1.0, 1.0), far])
    assert kn._transition_rows([]) == []


def test_a_round_holds_at_most_a_block_of_rows(monkeypatch):
    # the family truncates _BLOCK rows per call, so a round's arrays hold at
    # most _BLOCK x 512 atoms however many rows come, and normalization_check
    # keeps one block of laws at a time
    rounds, calls = [], []
    truncate, transition = kn._truncate_rows, kn._transition_rows

    def spy_truncate(log_pmf, tail_ratio, trunc_eps, heads):
        def counted(rows, ms):
            rounds.append(rows.size * ms.size)
            return log_pmf(rows, ms)
        return truncate(counted, tail_ratio, trunc_eps, heads)

    def spy_transition(rows, *args):
        calls.append(len(rows))
        return transition(rows, *args)

    monkeypatch.setattr(kn, "_truncate_rows", spy_truncate)
    monkeypatch.setattr(kn, "_transition_rows", spy_transition)
    n = 3 * kn._BLOCK + 7
    got = vf.normalization_check(n)
    assert calls == [kn._BLOCK] * 3 + [7]
    assert max(rounds) <= kn._BLOCK * kn._ROUND
    rng = np.random.default_rng(20241)
    laws = [kn.qbes_transition(*vf._random_scenario(rng, i % 5 + 1)) for i in range(n)]
    assert got.max_abs_err == max(abs(law.total_mass() - 1.0) for law in laws)
    assert got.notes == f"max_tail={max(law.tail_mass for law in laws):.3e}"
    rounds.clear()
    rows = [(DiscretePoint(-1.0, k % 7), 0.9, 1.5) for k in range(2 * kn._BLOCK + 1)]
    assert kn._transition_rows(rows) == [kn.qbes_transition(*row) for row in rows]
    assert max(rounds) <= kn._BLOCK * kn._ROUND


def _geometric(q, mass=1.0):
    def log_pmf(ms):
        return math.log(mass * (1.0 - q)) + ms * math.log(q)
    return log_pmf, lambda m: q


def _uniform(n):
    def log_pmf(ms):
        return np.where(ms < n, -math.log(n), -np.inf)
    return log_pmf, lambda m: 1.0 if m < n - 1 else 0.0


def _piece_edge_pmfs(n, trunc_eps):
    # 1 - q^m reaches the target first at m = n atoms
    q = (0.9375 * trunc_eps) ** (1.0 / (n - 0.5))
    return [_geometric(q), _uniform(n)]


PIECE_EDGES = [63, 64, 65, 511, 512, 513, 1023, 1024, 1025]


@pytest.mark.parametrize("n", PIECE_EDGES)
@pytest.mark.parametrize("trunc_eps", [1e-12, 1e-7])
def test_crossing_at_piece_edges(n, trunc_eps):
    pmfs = _piece_edge_pmfs(n, trunc_eps)
    for pmf in pmfs:
        args = (*pmf, trunc_eps, 0.5, 3, 1)
        got = _rows(kn._truncate_rows, [pmf], trunc_eps, [(0.5, 3, 1)])[0]
        assert got == _outcome(lambda: _truncate_series(*args), _per_atom_law_json)
        assert got[2] == range(3, 3 + n)


@pytest.mark.parametrize("trunc_eps", [1e-12, 1e-7])
def test_crossings_at_every_piece_edge_in_one_family(trunc_eps):
    # rows that stop in different rounds leave one call at their own atoms
    pmfs = [pmf for n in PIECE_EDGES for pmf in _piece_edge_pmfs(n, trunc_eps)]
    heads = [(0.5, i, 1) for i in range(len(pmfs))]
    got = _rows(kn._truncate_rows, pmfs, trunc_eps, heads)
    assert got == _rows(_per_atom_truncate_rows, pmfs, trunc_eps, heads)
    assert [len(law[3]) for law in got] == [n for n in PIECE_EDGES for _ in range(2)]


def test_compensation_decides_the_crossing():
    # atoms triple up to level 29 (each outgrows the running total, the other
    # branch of Neumaier's step), then halve; targets a few ulps around the
    # running sums put the stop where only the carried compensation decides it
    def log_pmf(ms):
        return np.where(ms < 30, ms * math.log(3.0),
                        29 * math.log(3.0) - (ms - 29) * math.log(2.0)) - log_norm
    log_norm = math.log(math.fsum(3.0 ** m for m in range(30)) + 3.0 ** 29)
    sums = np.cumsum(np.exp(log_pmf(np.arange(80))))
    pmf = (log_pmf, lambda m: 3.0 if m < 29 else 0.5)
    for j in range(45, 75):
        for k in range(-6, 7):
            eps = (1.0 - (sums[j] + k * 2.0 ** -53)) / 0.9375
            args = (*pmf, eps, 0.5, 0, 1)
            assert (_rows(kn._truncate_rows, [pmf], eps, [(0.5, 0, 1)])[0]
                    == _outcome(lambda: _truncate_series(*args), _per_atom_law_json)), (j, k)


@pytest.mark.parametrize("mass", [0.5, 1.0 - 2e-12])
def test_unreachable_pmf_raises_alike(mass):
    # next to rows that finish first and later, in the same call
    pmfs = [_geometric(0.5), _geometric(0.99, mass), _geometric(0.995)]
    heads = [(0.5, 0, 1)] * 3
    got = _rows(kn._truncate_rows, pmfs, 1e-12, heads)
    assert got == _rows(_per_atom_truncate_rows, pmfs, 1e-12, heads)
    assert got[1][0] == "RuntimeError" and "cannot reach" in got[1][1]
    assert got[0][0] == got[2][0] == 1


def test_nan_pmf_raises_alike():
    pmf = (lambda ms: np.where(ms < 70, -5.0, np.nan), lambda m: 0.5)
    got = _rows(kn._truncate_rows, [pmf], 1e-12, [(0.5, 0, 1)])[0]
    assert got == _outcome(lambda: _truncate_series(*pmf, 1e-12, 0.5, 0, 1), _per_atom_law_json)
    assert got[0] == "RuntimeError" and "mass nan after 500224 atoms" in got[1]


def _mass_outcome(cls, **fields):
    try:
        cls(**fields)
    except ValueError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("n", [1, 2, 100, 2000, 4400, 5000])
def test_mass_check_agrees_with_the_exact_sum(n):
    # atoms spanning 1e-300 .. 1e-3 plus one large atom; the tail then moves the
    # mass across 1 - 1e-12 and 1 + 1e-12 in steps finer than an ulp of 1
    rng = np.random.default_rng(n)
    small = np.exp(rng.uniform(-690.0, -7.0, n - 1)) * (0.5 / n)
    probs = tuple(small.tolist()) + (1.0 - 1e-9 - math.fsum(small),)
    outcomes = set()
    for edge in (-1e-12, 1e-12):
        for step in range(-24, 25):
            d = edge + step * 2.0 ** -55
            atoms = {"case": 4, "tau": 1.0, "levels": range(n), "probs": probs,
                     "tail_mass": 1e-9 + d}
            gamma = {"case": 2, "gamma_ray": kn.GammaRay(1.0, 1.0), "tail_mass": abs(d)}
            for fields in (atoms, gamma):
                got = _mass_outcome(kn.TransitionLaw, **fields)
                assert got == _mass_outcome(TransitionLaw, **fields), (n, d, fields["case"])
                outcomes.add(got == "ok")
    assert outcomes == {True, False}


@pytest.mark.parametrize("probs", [(0.5, -0.0, 0.5), (0.5, math.nan, 0.5), (math.nan,) * 2,
                                   (0.5, 0.5, -1e-300), (math.inf,), (1e308, 1e308),
                                   (np.float64(0.25),) * 4, (1, 0), (0.75, 0.25)])
def test_sign_and_mass_checks_raise_alike(probs):
    fields = {"case": 5, "tau": 1.0, "levels": range(len(probs)), "probs": probs}
    try:
        expected = _mass_outcome(TransitionLaw, **fields)
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{exc}$"):
            kn.TransitionLaw(**fields)
        return
    assert _mass_outcome(kn.TransitionLaw, **fields) == expected


def test_json_of_numpy_float_probs():
    law = kn.TransitionLaw(case=5, tau=np.float64(2.0), levels=range(1, 5),
                           probs=tuple(np.full(4, 0.25)))
    assert kn.law_json(law) == _per_atom_law_json(law)
    assert '"k": 4, "y1": null, "prob": 0.25}]' in kn.law_json(law)
    gamma = kn.TransitionLaw(case=2, gamma_ray=kn.GammaRay(2.5, 0.5))
    assert kn.law_json(gamma) == _per_atom_law_json(gamma)
