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

All factorial/Gamma ratios are assembled in log space. Infinite supports are
truncated by cumulative mass (never by fixed count); the remainder is recorded
in tail_mass, and normalization within 1e-12 is enforced as a constructor
invariant rather than silently repaired. The regime boundary u = 0 triggers
only on exact float equality s + t == 0: the kernel is genuinely singular
there and no epsilon snapping is applied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergroup import ContinuousPoint, DiscretePoint, FanPoint
from .specfun import log_bessel_i_norm, log_gamma

__all__ = [
    "GammaRay",
    "TransitionLaw",
    "BesDensity",
    "qbes_transition",
    "qbes_law_pmf",
    "bes_density",
    "chapman_kolmogorov_qbes",
    "law_to_dict",
    "law_from_dict",
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
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return ((self.shape - 1.0) * np.log(y) - y / self.scale
                    - log_gamma(self.shape) - self.shape * math.log(self.scale))

    def pdf(self, y):
        if np.ndim(y) == 0:
            y = float(y)
            if y == 0.0:
                if self.shape > 1.0:
                    return 0.0
                if self.shape == 1.0:
                    return 1.0 / self.scale
                return math.inf
            return math.exp(self.log_pdf(y))
        return np.exp(self.log_pdf(y))


@dataclass(frozen=True)
class TransitionLaw:
    """One-step QBES law: atoms and/or a gamma density, plus truncated tail."""

    case: int
    atoms: tuple
    gamma_ray: GammaRay | None = None
    tail_mass: float = 0.0

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4, 5):
            raise ValueError("case must be 1..5")
        if self.tail_mass < 0.0:
            raise ValueError("tail_mass must be >= 0")
        if any(p < 0.0 for _, p in self.atoms):
            raise ValueError("atom probabilities must be >= 0")
        total = self.total_mass()
        if abs(total - 1.0) > _NORM_SLACK:
            raise ValueError(f"law mass {total!r} deviates from 1 beyond 1e-12")

    def total_mass(self) -> float:
        mass = math.fsum(p for _, p in self.atoms) + self.tail_mass
        return mass + (1.0 if self.gamma_ray is not None else 0.0)


def _truncate_series(log_pmf, trunc_eps, make_point, case):
    """Accumulate atoms until the compensated mass reaches 1 - trunc_eps.

    The stop target keeps a small margin below trunc_eps so that the exact
    tail (1 - fsum) cannot exceed trunc_eps through summation slop.
    """
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
        if level > _MAX_ATOMS:
            raise RuntimeError(
                f"transition law support too large to truncate (mass {total + comp:.6f} "
                f"after {level} atoms); a start ray this close to the crossing usually "
                "means the time grid missed s + t = 0 exactly")
    exact = math.fsum(probs)
    if exact > 1.0 + _NORM_SLACK:
        raise ArithmeticError(f"truncated mass {exact!r} exceeds 1 beyond slack")
    tail = max(0.0, 1.0 - exact)
    atoms = tuple((make_point(m), p) for m, p in enumerate(probs))
    return TransitionLaw(case=case, atoms=atoms, tail_mass=tail)


def qbes_transition(start: FanPoint, t: float, delta: float,
                    trunc_eps: float = 1e-12) -> TransitionLaw:
    """One-step QBES(delta) transition law from a fan point over time t > 0."""
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
            return TransitionLaw(case=4, atoms=((DiscretePoint(t, 0), 1.0),))
        log_rate = math.log(rate)

        def log_pmf(ls):
            return ls * log_rate - rate - log_gamma(ls + 1.0)

        return _truncate_series(log_pmf, trunc_eps, lambda m: DiscretePoint(t, m), case=4)

    if not isinstance(start, DiscretePoint):
        raise TypeError(f"not a fan point: {start!r}")

    s, k = start.tau, start.k
    u = s + t
    if s > 0.0:
        # case 5: binomial(k, s/u) on levels 0..k, exact
        p = s / u
        lp, lq = math.log(p), math.log1p(-p)
        ls = np.arange(k + 1)
        logs = (log_gamma(k + 1.0) - log_gamma(ls + 1.0) - log_gamma(k - ls + 1.0)
                + ls * lp + (k - ls) * lq)
        probs = np.exp(logs)
        atoms = tuple((DiscretePoint(u, int(l)), float(pr)) for l, pr in zip(ls, probs))
        return TransitionLaw(case=5, atoms=atoms)

    if u == 0.0:
        # case 2: the continuous branch, Gamma(delta + k, t)
        return TransitionLaw(case=2, atoms=(), gamma_ray=GammaRay(delta + k, t))

    r = delta + k
    if u < 0.0:
        # case 1: negative binomial with success u/s, atoms at levels l >= k
        p = u / s
        lp, lq = math.log(p), math.log1p(-p)

        def log_pmf(ms):
            return (log_gamma(r + ms) - log_gamma(r) - log_gamma(ms + 1.0)
                    + r * lp + ms * lq)

        return _truncate_series(log_pmf, trunc_eps, lambda m: DiscretePoint(u, k + m), case=1)

    # case 3: u > 0, shifted negative binomial on levels l >= 0
    p = u / t
    q = -s / t
    lp, lq = math.log(p), math.log(q)

    def log_pmf(ls):
        return (log_gamma(r + ls) - log_gamma(r) - log_gamma(ls + 1.0)
                + r * lp + ls * lq)

    return _truncate_series(log_pmf, trunc_eps, lambda m: DiscretePoint(u, m), case=3)


def qbes_law_pmf(law: TransitionLaw, point: FanPoint) -> float:
    """Probability of an atom (0 if absent); density value on the gamma ray."""
    if isinstance(point, DiscretePoint):
        for atom, prob in law.atoms:
            if isinstance(atom, DiscretePoint) and atom.tau == point.tau and atom.k == point.k:
                return prob
        return 0.0
    if isinstance(point, ContinuousPoint):
        if law.gamma_ray is None:
            return 0.0
        return law.gamma_ray.pdf(point.y1)
    raise TypeError(f"not a fan point: {point!r}")


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

    Exponentials are combined in log space, so the e^{-(x-y)^2/2t}-scale
    cancellation between the modified Bessel factor and the Gaussian does not
    overflow for large x y / t.
    """
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


def _poisson_mixture_pmf(gamma_ray: GammaRay, t2: float, levels, quad) -> np.ndarray:
    """P(level = l) of Poisson(Y/t2) with Y ~ gamma_ray, by adaptive quadrature."""
    from .quadrature import integrate

    shape, scale = gamma_ray.shape, gamma_ray.scale
    rate_scale = 1.0 / scale + 1.0 / t2
    out = np.empty(len(levels))
    for i, l in enumerate(levels):
        cutoff = (shape + l + 45.0 + 12.0 * math.sqrt(shape + l + 1.0)) / rate_scale

        def integrand(ys):
            with np.errstate(divide="ignore"):
                log_f = ((shape - 1.0) * np.log(ys) - ys / scale
                         - log_gamma(shape) - shape * math.log(scale)
                         + l * (np.log(ys) - math.log(t2)) - ys / t2
                         - log_gamma(l + 1.0))
            return np.exp(log_f)

        out[i] = integrate(integrand, 0.0, cutoff, quad)
    return out


def chapman_kolmogorov_qbes(start: FanPoint, t1: float, t2: float, delta: float,
                            trunc_eps: float = 1e-12, quad=None) -> float:
    """Max abs discrepancy between the composed two-step law and the direct law.

    Discrete intermediates are summed exactly; a gamma intermediate is pushed
    through the Poisson step by adaptive quadrature; a gamma endpoint is
    compared as a density mixture on a quantile-spread grid.
    """
    from .quadrature import QuadratureSpec

    quad = quad or QuadratureSpec(abs_tol=1e-12)
    law1 = qbes_transition(start, t1, delta, trunc_eps)
    direct = qbes_transition(start, t1 + t2, delta, trunc_eps)

    if law1.gamma_ray is not None:
        # gamma intermediate -> Poisson step; direct law is discrete (case 3)
        levels = [atom.k for atom, _ in direct.atoms]
        levels += [max(levels) + 1 + i for i in range(3)]
        composed = _poisson_mixture_pmf(law1.gamma_ray, t2, levels, quad)
        direct_pmf = {atom.k: p for atom, p in direct.atoms}
        return float(max(abs(c - direct_pmf.get(l, 0.0))
                         for l, c in zip(levels, composed)))

    if direct.gamma_ray is not None:
        # discrete intermediate laws all hit the continuous branch exactly
        g = direct.gamma_ray
        grid = np.linspace(0.0, (g.shape + 10.0 * math.sqrt(g.shape) + 10.0) * g.scale, 257)[1:]
        mix = np.zeros_like(grid)
        for atom, p1 in law1.atoms:
            step = qbes_transition(atom, t2, delta, trunc_eps)
            if step.gamma_ray is None:
                raise AssertionError("intermediate atom missed the continuous branch")
            mix += p1 * step.gamma_ray.pdf(grid)
        return float(np.max(np.abs(mix - g.pdf(grid))))

    # discrete -> discrete composition
    acc: dict[int, float] = {}
    for atom, p1 in law1.atoms:
        step = qbes_transition(atom, t2, delta, trunc_eps)
        if step.gamma_ray is not None:
            raise AssertionError("unexpected continuous branch in discrete composition")
        for atom2, p2 in step.atoms:
            acc[atom2.k] = acc.get(atom2.k, 0.0) + p1 * p2
    direct_pmf = {atom.k: p for atom, p in direct.atoms}
    levels = set(acc) | set(direct_pmf)
    return float(max(abs(acc.get(l, 0.0) - direct_pmf.get(l, 0.0)) for l in levels))


def law_to_dict(law: TransitionLaw) -> dict:
    """Structured serialization: {case, atoms:[{tau,k,y1,prob}], gamma, tail_mass}."""
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


def law_from_dict(data: dict) -> TransitionLaw:
    atoms = []
    for entry in data["atoms"]:
        if entry.get("tau") is not None:
            atoms.append((DiscretePoint(entry["tau"], entry["k"]), entry["prob"]))
        else:
            atoms.append((ContinuousPoint(entry["y1"]), entry["prob"]))
    gamma = None
    if data.get("gamma") is not None:
        gamma = GammaRay(data["gamma"]["shape"], data["gamma"]["scale"])
    return TransitionLaw(case=data["case"], atoms=tuple(atoms),
                         gamma_ray=gamma, tail_mass=data["tail_mass"])
