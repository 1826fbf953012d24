"""Exact transition laws of the quantum and classical Bessel processes.

The one-step law of QBES(delta) started at a fan point splits into five
regimes indexed by the sign of the start ray s and of u = s + t:

    1. s < 0, u < 0: negative-binomial atoms at (u, l|u|), l >= k,
       success u/s in (0, 1), shape delta + k.
    2. s < 0, u = 0: a Gamma(delta + k, t) density on the continuous ray.
    3. s < 0, u > 0: shifted negative-binomial atoms at (u, l u), l >= 0,
       weight (u/t)^(delta+k) (-s/t)^l Gamma(delta+k+l)/(Gamma(delta+k) l!).
    4. s = 0 (continuous start y1): Poisson(y1/t) atoms at (t, l t).
    5. s > 0: binomial(k, s/u) atoms at (u, l u), l = 0..k, exact.

A law stores its one ray tau (None for the gamma-ray law), a range of levels,
a tuple of their probs, an optional gamma ray and tail_mass. All
factorial/Gamma ratios are assembled in log space. Infinite supports are
truncated by cumulative mass (never by fixed count); the remainder is recorded
in tail_mass, and normalization within 1e-12 is enforced as a constructor
invariant rather than silently repaired. Rounded atom probabilities can sum to
just under the mass target: once a geometric bound on the atoms still to come
shows that, the law raises RuntimeError instead of walking on to the atom cap.
Laws are built as a row family (_transition_rows; qbes_transition is its
one-row call, and the normalization, Chapman-Kolmogorov and generator checks
build their laws through it). Truncation walks up to _BLOCK (256) unfinished
laws at once, in rounds of 512 atoms per law: a round takes one exp and one
log_gamma over a 2-D chunk of atoms, sums each row by np.cumsum, carrying
Neumaier's sum and compensation exactly, with no per-atom Python loop, and
drops the laws that stop. Truncation takes the exact sum of its atoms (fsum,
largest first, which keeps fsum's partials few); the constructor takes it
again only where the error bound of the plain sum cannot decide the mass
check, past about 4,500 atoms. law_json fills its atom list in one % call.
bes_density evaluates a whole y-grid in one call, y = 0 by the same formula
as y > 0 (its y^(delta-1) factor gives 0 above delta = 1 and inf below it).
The regime boundary u = 0 triggers only on exact float equality s + t == 0:
the kernel is genuinely singular there and no epsilon snapping is applied.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hypergroup import ContinuousPoint, DiscretePoint, FanPoint
from .quadrature import QuadratureSpec, integrate_rows
from .specfun import log_bessel_i_norm, log_gamma

__all__ = [
    "GammaRay",
    "TransitionLaw",
    "BesDensity",
    "qbes_transition",
    "bes_density",
    "chapman_kolmogorov_qbes",
    "law_json",
]

_NORM_SLACK = 1e-12
_MAX_ATOMS = 500_000


@dataclass(frozen=True)
class GammaRay:
    """Gamma(shape, scale) density on the continuous ray {(0, y1): y1 >= 0}."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("GammaRay requires positive shape and scale")

    def log_pdf(self, y):
        """ln of the density: -inf (density 0) at y < 0, off the ray."""
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            # shape 1 has no log y term; 0 * log 0 would be NaN at y = 0
            power = (self.shape - 1.0) * np.log(y) if self.shape != 1.0 else 0.0
        out = power - y / self.scale - log_gamma(self.shape) - self.shape * math.log(self.scale)
        return np.where(y < 0.0, -np.inf, out)[()]

    def pdf(self, y):
        return np.exp(self.log_pdf(y))


@dataclass(frozen=True)
class TransitionLaw:
    """One-step QBES law: a tuple of probs at the step-1 range of levels on the one
    ray tau (None for the gamma-ray law), an optional gamma ray and tail_mass."""

    case: int
    tau: float | None = None
    levels: range = range(0)
    probs: tuple = ()
    gamma_ray: GammaRay | None = None
    tail_mass: float = 0.0

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4, 5):
            raise ValueError("case must be 1..5")
        if not (isinstance(self.levels, range) and self.levels.step == 1
                and self.levels.start >= 0 and len(self.levels) == len(self.probs)):
            raise ValueError("levels must be a step-1 range of levels >= 0, one per prob")
        if self.levels and (self.tau is None or not math.isfinite(self.tau) or self.tau == 0.0):
            raise ValueError("atoms require a nonzero finite ray tau")
        if not self.tail_mass >= 0.0:  # NaN included: json would write it as NaN
            raise ValueError("tail_mass must be >= 0")
        mass = sum(self.probs)  # NaN if any prob is; min may skip a NaN
        if not (min(self.probs, default=0.0) >= 0.0 and mass == mass):
            raise ValueError("atom probabilities must be >= 0")
        # the plain sum errs by at most (n + 2) 2^-53 mass: accept it without
        # the exact sum where that slop cannot decide the check
        mass += self.tail_mass + (1.0 if self.gamma_ray is not None else 0.0)
        if not abs(mass - 1.0) <= _NORM_SLACK - (len(self.probs) + 2) * 2.0 ** -52 * mass:
            total = self.total_mass()
            if abs(total - 1.0) > _NORM_SLACK:
                raise ValueError(f"law mass {total!r} deviates from 1 beyond 1e-12")

    # no command reads these pairs; bench/tracing.py counts them in traced runs
    @property
    def atoms(self) -> tuple:  # (DiscretePoint, prob) pairs, rebuilt on each access
        return tuple((DiscretePoint(self.tau, l), p) for l, p in zip(self.levels, self.probs))

    def total_mass(self) -> float:
        mass = _exact_sum(self.probs) + self.tail_mass
        return mass + (1.0 if self.gamma_ray is not None else 0.0)


def _exact_sum(probs) -> float:
    """math.fsum(probs), taken largest first: the order changes no bit, but
    each addition walks fsum's partials, and a Poisson law's left tail down
    to 1e-300 leaves about 19 of them for every later atom."""
    return math.fsum(sorted(probs, reverse=True))


_ROUND = 512  # atoms per row in a round
# rows per _truncate_rows call, so that a round holds at most _BLOCK x _ROUND atoms
_BLOCK = 256


def _truncate_rows(log_pmf, tail_ratio, trunc_eps, heads) -> list:
    """The law (tau, first_level, case) of each head with atoms (tau, first_level + m)
    until its compensated mass reaches 1 - trunc_eps, or the error it raises
    there: one outcome per row.

    log_pmf(rows, ms) gives the ln pmf of each row of rows (an index array)
    at each m of ms, as a (len(rows), len(ms)) array; every row of a round
    is at the same ms, so one array call walks all the unfinished rows, and
    a row leaves at its last atom.

    The stop target keeps a small margin below trunc_eps so that the exact
    tail (1 - fsum) cannot exceed trunc_eps through summation slop.

    np.cumsum along a row adds in order, so it gives Neumaier's running total
    and, over his per-atom corrections (max(prev, p) - cur) + min(prev, p),
    his running compensation bit for bit; a row stops at the first atom
    where their sum reaches the target.

    tail_ratio(row, m) bounds every later pmf ratio p_(j+1) / p_j, j >= m, of
    the row: the ratio at m or its limit (0 for the Poisson, q for the
    negative binomials). After a round ending at atom m, a multiple of 512,
    the atoms still to come hold at most p_m R / (1 - R), R = tail_ratio(m)
    < 1. Doubling that covers relative pmf rounding up to 1/3 (gammaln's is
    ~1e-9 even at level 5e5) and 1e-15 the rounding of the compensated sum;
    if the mass still falls short of the target, the row raises there
    instead of at _MAX_ATOMS.
    """
    target = 1.0 - 0.9375 * trunc_eps
    outcomes = [None] * len(heads)
    probs = [[] for _ in heads]  # each row's chunks of atoms
    active = np.arange(len(heads))
    total = comp = np.zeros(len(heads))  # Neumaier's sum and compensation per active row
    level = 0
    while active.size:
        ps = np.exp(log_pmf(active, np.arange(level, level + _ROUND)))
        totals = np.concatenate((total[:, None], ps), axis=1).cumsum(axis=1)
        prev = totals[:, :-1]
        comps = np.concatenate(
            (comp[:, None], (np.maximum(prev, ps) - totals[:, 1:]) + np.minimum(prev, ps)),
            axis=1).cumsum(axis=1)
        hit = totals[:, 1:] + comps[:, 1:] >= target  # NaN never hits
        total, comp = totals[:, -1], comps[:, -1]  # carried by the rows that go on
        # a row stops at its first hit; 0 marks a row that goes on
        stops = (np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0).tolist()
                 if hit.any() else [0] * active.size)
        level += _ROUND
        leaving = False
        for j, (i, stop) in enumerate(zip(active.tolist(), stops)):
            probs[i].append(ps[j, :stop] if stop else ps[j])
            out_of_reach = False
            if not stop:
                ratio = tail_ratio(i, level - 1)
                out_of_reach = ratio < 1.0 and (
                    total[j] + comp[j] + 2.0 * ps[j, -1] * ratio / (1.0 - ratio) + 1e-15 < target)
            leaving |= bool(stop) or out_of_reach or level > _MAX_ATOMS
            if out_of_reach or level > _MAX_ATOMS:
                mass = totals[j, stop or _ROUND] + comps[j, stop or _ROUND]
                outcomes[i] = RuntimeError(
                    f"transition law support too large to truncate (mass {mass:.6f} "
                    f"after {level} atoms); its rounded atom probabilities "
                    f"{'cannot' if out_of_reach else 'do not'} reach 1 - trunc_eps "
                    f"(trunc_eps = {trunc_eps:g}); use a larger trunc_eps (--trunc-eps)")
            elif stop:
                tau, first_level, case = heads[i]
                law_probs = tuple(np.concatenate(probs[i]).tolist())
                tail = max(0.0, 1.0 - _exact_sum(law_probs))
                try:
                    outcomes[i] = TransitionLaw(
                        case=case, tau=tau, probs=law_probs, tail_mass=tail,
                        levels=range(first_level, first_level + len(law_probs)))
                except ValueError as exc:
                    outcomes[i] = exc
        if leaving:
            keep = np.array([outcomes[i] is None for i in active.tolist()], dtype=bool)
            active, total, comp = active[keep], total[keep], comp[keep]
    return outcomes


def _neg_binomial(series):
    """(log_pmf, tail_ratio) of _truncate_rows for rows of (r, ln p, ln q): the
    negative binomial of real shape r, Gamma(r + m) / (Gamma(r) m!) p^r q^m."""
    cols = np.array(series)[:, :, None]  # rows, (r, ln p, ln q), m
    cols = np.concatenate((cols, log_gamma(cols[:, :1]), cols[:, :1] * cols[:, 1:2]), axis=1)

    def log_pmf(rows, ms):
        at = cols if rows.size == len(cols) else cols[rows]
        r, _, lq, log_gamma_r, r_lp = at.transpose(1, 0, 2)
        lg = log_gamma(np.concatenate(((r + ms).ravel(), ms + 1.0)))  # one call: Gamma(r + m), m!
        return (lg[:-ms.size].reshape(r.size, -1) - log_gamma_r - lg[-ms.size:]
                + r_lp + ms * lq)

    def tail_ratio(row, m):
        # sup over j >= m of (r + j) / (j + 1) q; the fraction falls to 1
        # when r >= 1 and rises to 1 when r < 1
        r, _, lq = series[row]
        return math.exp(lq) * max((r + m) / (m + 1.0), 1.0)

    return log_pmf, tail_ratio


def _poisson(series):
    """(log_pmf, tail_ratio) of _truncate_rows for rows of (rate, ln rate)."""
    cols = np.array(series)[:, :, None]

    def log_pmf(rows, ms):
        at = cols if rows.size == len(cols) else cols[rows]
        rate, log_rate = at.transpose(1, 0, 2)
        return ms * log_rate - rate - log_gamma(ms + 1.0)

    return log_pmf, lambda row, m: series[row][0] / (m + 1.0)


def _row_law(start, t, delta, trunc_eps):
    """The law of one qbes_transition row, or where its support is infinite
    the series that _truncate_rows walks: (_neg_binomial or _poisson, its
    row, (tau, first_level, case))."""
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError("qbes_transition requires delta > 0")
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError("qbes_transition requires t > 0")
    if not (0.0 < trunc_eps <= 1e-6):
        raise ValueError("trunc_eps must lie in (0, 1e-6]")

    if isinstance(start, ContinuousPoint):
        # case 4: Poisson(y1/t) atoms on (t, l t)
        rate = start.y1 / t
        if rate == 0.0:
            return TransitionLaw(case=4, tau=t, levels=range(1), probs=(1.0,))
        return _poisson, (rate, math.log(rate)), (t, 0, 4)

    if not isinstance(start, DiscretePoint):
        raise TypeError(f"not a fan point: {start!r}")

    s, k = start.tau, start.k
    u = s + t
    if u == math.inf:
        raise ValueError(f"the ray coordinate tau + t overflows at t = {t!r}; it must be finite")
    if s > 0.0:
        # case 5: binomial(k, s/u) on levels 0..k, exact; ln q = ln(t/u) where s/u rounds to 1
        p = s / u
        lp, lq = math.log(p), math.log1p(-p) if p < 1.0 else math.log(t / u)
        ls = np.arange(k + 1)
        logs = (log_gamma(k + 1.0) - log_gamma(ls + 1.0) - log_gamma(k - ls + 1.0)
                + ls * lp + (k - ls) * lq)
        return TransitionLaw(case=5, tau=u, levels=range(k + 1),
                             probs=tuple(np.exp(logs).tolist()))

    if u == 0.0:
        # case 2: the continuous branch, Gamma(delta + k, t)
        return TransitionLaw(case=2, gamma_ray=GammaRay(delta + k, t))

    r = delta + k
    if r == math.inf:  # what log_gamma(r) says, raised here in row order
        raise ValueError("log_gamma requires finite x > 0")
    if u < 0.0:
        # case 1: negative binomial with success u/s, atoms at levels l >= k;
        # ln q = ln(t/-s) where u/s rounds to 1
        p = u / s
        lq = math.log1p(-p) if p < 1.0 else math.log(t / -s)
        return _neg_binomial, (r, math.log(p), lq), (u, k, 1)
    # case 3: u > 0, shifted negative binomial with success u/t on levels l >= 0
    return _neg_binomial, (r, math.log(u / t), math.log(-s / t)), (u, 0, 3)


def _transition_rows(rows, trunc_eps: float = 1e-12) -> list[TransitionLaw]:
    """qbes_transition(start, t, delta, trunc_eps) of each (start, t, delta)
    row: the infinite supports truncated together, one _truncate_rows call
    per _BLOCK rows of the negative binomials and of the Poissons. Each law
    has the bits of its row called alone, and the error raised is the one
    the first failing row raises alone."""
    outcomes, series = [], {_neg_binomial: [], _poisson: []}  # kind: [(row index, row, head)]
    for start, t, delta in rows:
        try:
            law = _row_law(start, t, delta, trunc_eps)
        except Exception as exc:  # raised below, after any earlier row's error
            outcomes.append(exc)
            break
        if isinstance(law, tuple):
            series[law[0]].append((len(outcomes), *law[1:]))
        outcomes.append(law)
    for kind, walks in series.items():
        for block in range(0, len(walks), _BLOCK):
            at, kind_rows, heads = zip(*walks[block:block + _BLOCK])
            for i, law in zip(at, _truncate_rows(*kind(kind_rows), trunc_eps, heads)):
                outcomes[i] = law
    for law in outcomes:
        if isinstance(law, Exception):
            raise law
    return outcomes


def qbes_transition(start: FanPoint, t: float, delta: float,
                    trunc_eps: float = 1e-12) -> TransitionLaw:
    """One-step QBES(delta) transition law from a fan point over time t > 0:
    the one-row call of _transition_rows."""
    return _transition_rows([(start, t, delta)], trunc_eps)[0]


@dataclass(frozen=True)
class BesDensity:
    """Transition density parameters of BES(delta) from x over time t."""

    delta: float
    t: float
    x: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("BesDensity requires delta > 0")
        if not (np.isfinite(self.t) and self.t > 0.0):
            raise ValueError("BesDensity requires t > 0")
        if not (np.isfinite(self.x) and self.x >= 0.0):
            raise ValueError("BesDensity requires x >= 0")


def bes_density(d: BesDensity, y):
    """p_t(x, y) = 2 y^(delta-1) / ((2t)^(delta/2) Gamma(delta/2))
    * i_(delta/2-1)(x y / t) * exp(-(x^2 + y^2) / (2t)).

    Exponentials are combined in log space, so neither the modified Bessel
    factor nor the Gaussian overflows for large x y / t. Log space does not
    remove their cancellation: ln i_nu(x y / t), about x y / t, and
    -(x^2 + y^2) / 2t sum to about -(x - y)^2 / 2t, so the relative error
    grows like eps x y / t (8.2e-9 at delta 2, x = y = 1, t = 1e-8; item 11
    of ROADMAP.md).
    """
    return _bes_density_rows([d], y)


def _bes_density_rows(densities, y, rows=0):
    """bes_density at each y under densities[r], r the node's entry of rows:
    a family of (delta, x, t) rows in one array call. y = 0 takes the same
    log-space formula as y > 0."""
    arr = np.asarray(y, dtype=float)
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise ValueError("bes_density requires finite y >= 0")
    # ln (2t)^(delta/2) and ln Gamma(delta/2) once per row, as a lone call takes them
    delta, x, t, log_norm, log_gamma_half = np.array([
        (d.delta, d.x, d.t, 0.5 * d.delta * math.log(2.0 * d.t), log_gamma(d.delta / 2.0))
        for d in densities]).T[:, rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        # delta 1 has no ln y term; 0 * ln 0 would be NaN at y = 0
        power = np.where(delta != 1.0, (delta - 1.0) * np.log(arr), 0.0)
    log_p = (math.log(2.0) + power - log_norm - log_gamma_half
             + log_bessel_i_norm(delta / 2.0 - 1.0, x * arr / t)
             - (x * x + arr * arr) / (2.0 * t))
    out = np.exp(log_p)
    return float(out) if np.ndim(y) == 0 else out


def _poisson_mixture_pmf(gamma_ray: GammaRay, t2: float, levels, quad) -> np.ndarray:
    """P(level = l) of Poisson(Y/t2) with Y ~ gamma_ray, one quadrature row per level, over
    u = Y/scale, so no term sees the size of the scale. A power u^(shape-1) below u^1 is each
    row's endpoint weight, so 0 costs no bisections; a larger one stays in the log."""
    shape, ratio = gamma_ray.shape, gamma_ray.scale / t2
    weight = shape - 1.0 if shape < 2.0 else 0.0
    log_ratio = math.log(gamma_ray.scale) - math.log(t2)
    ls = np.array(levels, dtype=float)
    log_fact = log_gamma(ls + 1.0)

    def integrand(us, rows):  # Gauss nodes are interior: u > 0
        log_u = np.log(us)
        log_f = ((shape - 1.0 - weight) * log_u - us - log_gamma(shape)
                 + ls[rows] * (log_u + log_ratio) - us * ratio - log_fact[rows])
        return np.exp(log_f)

    cutoffs = [(shape + l + 45.0 + 12.0 * math.sqrt(shape + l + 1.0)) / (1.0 + ratio)
               for l in levels]
    return np.array(integrate_rows(integrand, [(0.0, c) for c in cutoffs], quad,
                                   [weight] * len(cutoffs)))


def chapman_kolmogorov_qbes(start: FanPoint, t1: float, t2: float, delta: float,
                            quad=None) -> float:
    """Max abs discrepancy between the composed two-step law and the direct law.

    Discrete intermediates are summed exactly; a gamma intermediate is pushed
    through the Poisson step by adaptive quadrature; a gamma endpoint is
    compared as a density mixture on a quantile-spread grid.
    """
    quad = quad or QuadratureSpec(abs_tol=1e-12)
    law1, direct = _transition_rows([(start, t1, delta), (start, t1 + t2, delta)])

    if law1.gamma_ray is not None:
        # gamma intermediate -> Poisson step; direct law is discrete (case 3)
        levels = range(direct.levels.start, direct.levels.stop + 3)
        composed = _poisson_mixture_pmf(law1.gamma_ray, t2, levels, quad)
        return float(np.max(np.abs(composed - np.array(direct.probs + (0.0,) * 3))))

    # discrete intermediate: one step law per atom, each on the branch of the direct law
    steps = _transition_rows([(DiscretePoint(law1.tau, l), t2, delta) for l in law1.levels])
    if any((step.gamma_ray is None) != (direct.gamma_ray is None) for step in steps):
        raise AssertionError("an intermediate step law and the direct law differ in branch")
    if direct.gamma_ray is not None:
        g = direct.gamma_ray
        grid = np.linspace(0.0, (g.shape + 10.0 * math.sqrt(g.shape) + 10.0) * g.scale, 257)[1:]
        mix = np.zeros_like(grid)
        for p1, step in zip(law1.probs, steps):
            mix += p1 * step.gamma_ray.pdf(grid)
        return float(np.max(np.abs(mix - g.pdf(grid))))

    # discrete -> discrete composition; each level sums p1 * p2 in law1's order
    acc = np.zeros(max([direct.levels.stop] + [step.levels.stop for step in steps]))
    for p1, step in zip(law1.probs, steps):
        acc[step.levels.start:step.levels.stop] += p1 * np.array(step.probs)
    acc[direct.levels.start:direct.levels.stop] -= direct.probs
    return float(np.max(np.abs(acc)))


def law_json(law: TransitionLaw) -> str:
    """The law as JSON {case, atoms: [{tau, k, y1, prob}], gamma, tail_mass},
    from % templates: json formats the ray, the gamma ray and tail_mass once;
    one % call fills every atom with its level and float.__repr__ of its prob,
    which is how json writes a float (repr of a numpy float would not be)."""
    atom = '{"tau": %s, "k": %%d, "y1": null, "prob": %%s}' % json.dumps(law.tau)
    atoms = ", ".join([atom] * len(law.probs)) % tuple(
        chain.from_iterable(zip(law.levels, map(float.__repr__, law.probs))))
    g = law.gamma_ray
    gamma = None if g is None else {"shape": g.shape, "scale": g.scale}
    return '{"case": %d, "atoms": [%s], "gamma": %s, "tail_mass": %s}' % (
        law.case, atoms, json.dumps(gamma), json.dumps(law.tail_mass))
