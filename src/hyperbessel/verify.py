"""Machine-checkable certification of the identities behind the kernels.

Each check evaluates one identity two independent ways (closed form vs
quadrature, series vs kernel sum, composed vs direct law) and returns a
VerificationReport with the observed maximum absolute error against a stated
tolerance. Default tolerances: 1e-8 for quadrature-backed checks, 1e-9 for
Weber's integral, 1e-6 for the multiplicativity checks, 1e-10 for series-only
checks, 1e-12 for algebraically exact reductions.

The standard suite (run_suite, ``hyperbessel verify``) runs every check
under one spec, QuadratureSpec() unless one is given: 64 Gauss-Jacobi nodes
and adaptive abs_tol 1e-10. chapman_kolmogorov_check called on its own
integrates to abs_tol 1e-12 unless given a QuadratureSpec.

Checks are certified by suite: the Weber, generator, spectral, Laguerre and
half-line multiplicativity checks are row families (_weber_rows,
_glowne3_rows, _bk_spectral_rows, _laguerre_rows, _bk_multiplicativity_rows)
whose rows carry their own order (nu, delta or alpha), each suite one call
of its family under the suite's spec. A family takes its integrals from one
integrate_rows call and its Bessel values from array calls over an array of
orders, which return the bits of scalar-order calls, so each report has the
bits of its family called with that one row. Each Laguerre series identity
reads its own run of the recurrence, as far as it sums. The generator,
normalization and Chapman-Kolmogorov checks build their laws with the law
family of kernels (_transition_rows), a block of laws per call.

A whole run of run_suite forks one child for _CHILD_SUITES (Weber,
generator, multiplicativity and PSD: about half the CPU time, 38.5 ms alone
on a 2-CPU Xeon VM against 39.4 ms for the other six suites) and reads their
outcomes back through a pipe while it runs the rest. Each suite seeds its
own generator and builds its own laws and rules, so the reports are bit
for bit those of one process, as are the error raised (that of the first
failing suite in SUITE_NAMES order) and the warnings (recorded per suite
and re-issued in suite order, in one process too). The child is used only
where os.fork exists, os.sched_getaffinity holds at least 2 CPUs and no
other thread runs; a CPU quota below 2 under a wider affinity gains
nothing.

Validity guards are hard: the Gegenbauer and Watson product formulas are
rejected (not attempted) outside nu >= -1/2 and nu > -1/2 respectively, and
infinite integrals are cut where the integrand envelope drops below 1e-16 of
its peak.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

import numpy as np

from . import kernels as kn
from .hypergroup import (
    BesselKingmanParams,
    ContinuousPoint,
    DiscretePoint,
    FanPoint,
    HeisPoint,
    LaguerreParams,
    _bk_translate_rows,
    _first_kind_char,
    _lag_char,
    _second_kind_char,
    bk_translate,
    lag_character,
    lag_translate,
    psi_heis,
)
from .quadrature import QuadratureSpec, gauss_jacobi, integrate_rows
from .specfun import (
    _laguerre_run,
    bessel_j_norm,
    hyp1f1,
    laguerre_L,
    laguerre_L_all,
    log_bessel_i_norm,
    log_gamma,
)

__all__ = [
    "VerificationReport",
    "gegenbauer_check",
    "watson_check",
    "lag_multiplicativity_check",
    "psd_gram_check",
    "chapman_kolmogorov_check",
    "normalization_check",
    "run_suite",
    "SUITE_NAMES",
    "report_to_dict",
    "reports_json",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check; passed is defined as err <= tol."""

    check_name: str
    params: tuple
    max_abs_err: float
    tol: float
    notes: str = field(default="", compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.max_abs_err) and self.max_abs_err >= 0.0):
            raise ValueError("max_abs_err must be finite and >= 0")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")

    @property
    def passed(self) -> bool:
        return self.max_abs_err <= self.tol


def _report(name, params: dict, err: float, tol: float, notes: str = "") -> VerificationReport:
    return VerificationReport(name, tuple(sorted(params.items())), float(err), tol, notes)


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "check": report.check_name,
        "params": dict(report.params),
        "max_abs_err": report.max_abs_err,
        "tol": report.tol,
        "pass": report.passed,
    }


def reports_json(reports) -> str:
    """json.dumps([report_to_dict(r) for r in reports], indent=2), without
    json's pure-Python indenting encoder: one json.dumps call formats every
    scalar, so escapes, NaN and Infinity read as there, with a newline
    between two (no formatted scalar holds one), and one % call fills the
    fixed layout of every report."""
    if not reports:
        return "[]"
    params = [dict(r.params) for r in reports]
    scalars = [v for r, p in zip(reports, params) for v in
               (r.check_name, *chain.from_iterable(p.items()), r.max_abs_err, r.tol, r.passed)]
    cells = json.dumps(scalars, separators=("\n", ":"))[1:-1].split("\n")
    return ("[\n" + ",\n".join([_report_template(len(p)) for p in params]) + "\n]") % tuple(cells)


def _report_template(n_params: int) -> str:
    params = "{\n" + ",\n".join(["      %s: %s"] * n_params) + "\n    }" if n_params else "{}"
    return ('  {\n    "check": %s,\n    "params": ' + params
            + ',\n    "max_abs_err": %s,\n    "tol": %s,\n    "pass": %s\n  }')


def _short(value: float) -> str:
    """value under :g where that reads back exactly, else its repr."""
    label = f"{value:g}"
    return label if float(label) == value else repr(value)


def _fan_label(point: FanPoint) -> str:
    if isinstance(point, DiscretePoint):
        return f"tau={_short(point.tau)},k={point.k}"
    return f"y1={_short(point.y1)}"


# ---------------------------------------------------------------------------
# integral identity for the BES identification


_WEBER_TOL = 1e-9


def _weber_rows(rows, q, tol=_WEBER_TOL) -> list[VerificationReport]:
    """Weber's integral at each (nu, alpha, beta, gamma) row, each at its own order:

        int_0^inf e^{-alpha v^2} i_nu(beta v) j_nu(gamma v) v^(2nu+1) / (2^nu Gamma(nu+1)) dv
        = (2 alpha)^-(nu+1) e^{(beta^2-gamma^2)/(4 alpha)} j_nu(beta gamma / (2 alpha))

    for nu > -1, alpha > 0 and beta, gamma >= 0; the integrals from one
    integrate_rows call and the closed forms' j_nu from one bessel_j_norm call."""
    nus, alphas, betas, gammas = (np.array(col, dtype=float) for col in zip(*rows))
    log_pref = -nus * math.log(2.0) - log_gamma(nus + 1.0)

    def integrand(vs, r):
        nu = nus[r]
        with np.errstate(divide="ignore"):
            log_env = -alphas[r] * vs * vs + (2.0 * nu + 1.0) * np.log(vs) + log_pref[r]
        # at beta = 0, ln i_nu(0) = 0 adds exactly 0 to the exponent
        return (np.exp(log_env + log_bessel_i_norm(nu, betas[r] * vs))
                * bessel_j_norm(nu, gammas[r] * vs))

    cuts = []  # grow each cutoff until the exponential envelope is 1e-16 of its peak
    for nu, alpha, beta, _ in rows:
        peak_v = max((beta + math.sqrt(beta * beta + 4.0 * alpha * (2.0 * nu + 1.0 + 1.0)))
                     / (2.0 * alpha), 1.0)
        cut = peak_v + math.sqrt(50.0 / alpha) + beta / alpha
        while (-alpha * cut * cut + beta * cut + abs(2.0 * nu + 1.0) * math.log(1.0 + cut)
               ) > (-alpha * peak_v * peak_v + beta * peak_v - 37.0 * math.log(10.0)):
            cut *= 1.25
        cuts.append(cut)

    lhs = integrate_rows(integrand, [(0.0, cut) for cut in cuts], q)
    js = bessel_j_norm(nus, betas * gammas / (2.0 * alphas)).tolist()
    return [_report("weber_schafheitlin", {"nu": nu, "alpha": al, "beta": be, "gamma": ga},
                    abs(value - (2.0 * al) ** -(nu + 1.0)
                        * math.exp((be * be - ga * ga) / (4.0 * al)) * j), tol)
            for (nu, al, be, ga), value, j in zip(rows, lhs, js)]


# ---------------------------------------------------------------------------
# the QBES spectral identity: exp(t psi) chi_x(x, -w) = sum chi_y q_t(x, dy)


def _glowne3_rows(laws, points, q, tol=1e-8) -> list[VerificationReport]:
    """QBES generator identity at order alpha = delta - 1 of each (start, t,
    delta) law at each Heisenberg point: the laws from one law-family call,
    the gamma-ray integrals of all of them, each at its own order, from one
    integrate_rows call.

    Certified for delta >= 1 (the hypergroup regime); smaller delta > 0 is
    accepted for informative runs since the kernel itself extends there.
    """
    xs = np.array([a.x for a in points], dtype=float)
    ws = np.array([a.w for a in points], dtype=float)
    params, lhs, rhs = [], [], []  # per law and point; rhs first holds the atom sum
    gamma_rows = []  # (check index, gamma ray, x, order) per gamma-ray integral
    for (start, t, delta), law in zip(laws, kn._transition_rows(laws)):
        al = delta - 1.0
        # the identity reads chi(x, -w), the conjugate of chi(x, w)
        chis_start = np.conj(_lag_char(start, al, xs, ws, "glowne3"))
        if law.levels:
            probs = np.array(law.probs)
            chis = np.conj(_first_kind_char(al, law.tau, np.array(law.levels), xs, ws, "glowne3"))
        for i, a in enumerate(points):
            atom_sum = 0.0 + 0.0j
            if law.levels:
                atom_sum += np.sum(probs * chis[:, i])
            if law.gamma_ray is not None:
                gamma_rows.append((len(rhs), law.gamma_ray, a.x, al))
            params.append({"start": _fan_label(start), "x": a.x, "w": a.w, "t": t, "delta": delta})
            lhs.append(np.exp(t * psi_heis(a)) * chis_start[i])
            rhs.append(atom_sum)

    rays = [g for _, g, _, _ in gamma_rows]
    xs = np.array([x for _, _, x, _ in gamma_rows])
    als = np.array([al for *_, al in gamma_rows])

    def integrand(ys, rows):
        pdf = np.empty_like(ys)
        for row, g in enumerate(rays):
            pdf[rows == row] = g.pdf(ys[rows == row])
        # chi_(0,y)(x, .) = j_al(2 x sqrt(y)); reuse the y1=1 form scaled
        return pdf * _second_kind_char(als[rows], 1.0, xs[rows] * np.sqrt(ys))

    cuts = [g.scale * (g.shape + 45.0 + 12.0 * math.sqrt(g.shape + 1.0)) for g in rays]
    values = integrate_rows(integrand, [(0.0, cut) for cut in cuts], q)
    for (n, *_), value in zip(gamma_rows, values):
        rhs[n] += value
    return [_report("glowne3", p, abs(l - r), tol) for p, l, r in zip(params, lhs, rhs)]


def _bk_spectral_rows(rows, q, tol=1e-8) -> list[VerificationReport]:
    """BES spectral identity e^{-t x^2/2} eta_u(x) = int eta_v(x) p_t(u, dv) at
    each (u, x, t, delta) row (u, x >= 0, t > 0), each at its own order
    delta/2 - 1: the characters eta_u(x) = j_(delta/2-1)(u x) from one
    bessel_j_norm call, the integrals from one integrate_rows call."""
    nus = np.array([BesselKingmanParams(delta).alpha for *_, delta in rows]) / 2.0 - 1.0
    us, xs, _, _ = (np.array(col, dtype=float) for col in zip(*rows))
    chars = bessel_j_norm(nus, us * xs).tolist()
    densities = [kn.BesDensity(delta, t, u) for u, _, t, delta in rows]

    def integrand(vs, r):
        return bessel_j_norm(nus[r], vs * xs[r]) * kn._bes_density_rows(densities, vs, r)

    rhs = integrate_rows(integrand, [(0.0, u + 12.0 * math.sqrt(t) + 1.0) for u, _, t, _ in rows],
                         q)
    return [_report("bk_spectral", {"u": u, "x": x, "t": t, "delta": delta},
                    abs(math.exp(-0.5 * t * x * x) * char - value), tol)
            for (u, x, t, delta), char, value in zip(rows, chars, rhs)]


# ---------------------------------------------------------------------------
# Laguerre-side identities used in the QBES identification


# terms summed at most by the series identities (i), (iii) and (iv)
_LAG_TERMS = 420


def _lag_series(lag, tau, ratio, divide=False):
    """sum_n c_n L_n tau^n over the run lag of L_0, L_1, ..., with c_0 = 1 and
    c_{n+1} = c_n ratio(n); with divide, the terms are L_n tau^n / c_n instead.
    Stops after the first term past n = 8 below 1e-18 of the sum, or after
    _LAG_TERMS terms."""
    coef = 1.0
    total = 0.0
    tp = 1.0
    for n, lag_n in zip(range(_LAG_TERMS), lag):
        term = lag_n * tp / coef if divide else coef * lag_n * tp
        total += term
        if abs(term) <= 1e-18 * max(1.0, abs(total)) and n > 8:
            break
        coef *= ratio(n)
        tp *= tau
    return total


def _identity_ii(rows, lag, q):
    """Integral form: k! L_k(u) = u^{-alpha/2} int e^{u-v} v^{k+alpha/2} J_alpha(2 sqrt(uv)) dv.

    Compared as L_k(u) vs e^u / (k! Gamma(alpha+1)) int e^{-v} v^{k+alpha}
    j_alpha(2 sqrt(uv)) dv, integrated under v = w^4 so the v^alpha endpoint
    stays differentiable even at k = 0, alpha < 0. Returns the error of each
    (alpha, k, u) row, each at its own order, the integrals from one
    integrate_rows call; lag[alpha][u] holds L_n(u).
    """
    alphas, ks, us = (np.array(col, dtype=float) for col in zip(*rows))
    log_norm = us - log_gamma(ks + 1.0) - log_gamma(alphas + 1.0)

    def integrand(ws, r):
        vs = ws ** 4
        with np.errstate(divide="ignore"):
            log_f = -vs + (ks[r] + alphas[r]) * np.log(vs) + np.log(4.0 * ws ** 3)
        return (np.exp(log_f + log_norm[r])
                * bessel_j_norm(alphas[r], 2.0 * np.sqrt(us[r] * vs)))

    cuts = [(k + alpha + 50.0 + 12.0 * math.sqrt(k + alpha + 1.0)) ** 0.25 for alpha, k, _ in rows]
    rhs = integrate_rows(integrand, [(0.0, cut) for cut in cuts], q)
    return [abs(lag[alpha][u][k] - value) for (alpha, k, u), value in zip(rows, rhs)]


def _identity_v(alpha, k, c, lag, lag_c):
    """Dilation: L_k(c v) = (alpha+1)_k sum_l c^l (1-c)^{k-l} / ((k-l)! (alpha+1)_l) L_l(v);
    lag holds L_n(v) and lag_c holds L_n(c v), each to degree k or more."""
    total = 0.0
    poch = 1.0  # (alpha+1)_l, one factor per term
    for l in range(k + 1):
        total += c ** l * (1.0 - c) ** (k - l) / (math.factorial(k - l) * poch) * lag[l]
        if l < k:
            poch *= alpha + 1.0 + l
    return abs(lag_c[k] - poch * total)


def _laguerre_rows(alphas, k_max, q, tol) -> list[VerificationReport]:
    """The five Laguerre/Bessel identities behind the kernel identification,
    five reports per alpha: the (ii) integrals of every alpha from one
    integrate_rows call, (iv)'s j_alpha of every alpha from one bessel_j_norm
    call.

    A given tol applies to all five; with None each has its own default:
    (i) 1e-10, (ii) 1e-8 (quadrature), (iii) 1e-10, (iv) 1e-10, (v) 1e-12
    (finite, exact in exact arithmetic).

    The defaults hold at k_max = 10 at each alpha probed in [-0.6, 3.8],
    under QuadratureSpec() and under abs_tol 1e-12. (ii) raises
    QuadratureError from alpha -0.7 down, and from 3.9 up under abs_tol
    1e-12; QuadratureSpec() there fails (i) (1.02e-10 at 4). (v) cancels as
    k_max grows: at alpha 0.5, k_max 15 passes and 20 fails (v) with
    4.51e-12; at alpha 2 it fails from 15.
    """
    if not all(alpha > -1.0 for alpha in alphas):
        raise ValueError("the Laguerre identities require alpha > -1")
    if not (k_max >= 0 and float(k_max).is_integer()):
        raise ValueError("the Laguerre identities require an integer k_max >= 0")
    k_max = int(k_max)
    ks = sorted({0, 1, min(3, k_max), min(7, k_max), k_max})
    # (ii), (v) and the closed forms read one table per alpha; each series reads
    # its own run as far as it sums (entry n of a run has the bits of table row n)
    points = [0.5, 2.0, *(v / (1.0 - tau) for v in (0.5, 2.1) for tau in (0.3, -0.4)),
              *(c * 1.7 for c in (1.0, 0.35, 1.4))]
    lags = {alpha: dict(zip(points, laguerre_L_all(max(k_max, 1), alpha, points).T.tolist()))
            for alpha in alphas}
    errs_ii = np.reshape(_identity_ii([(alpha, k, u) for alpha in alphas for k in ks
                                       for u in (0.5, 2.0)], lags, q), (len(alphas), -1)).tolist()
    iv_rows = [(v, tau) for v in (0.8, 3.0) for tau in (0.4, 2.5)]
    iv_js = bessel_j_norm(np.repeat(np.array(alphas, dtype=float), len(iv_rows)),
                          np.array([2.0 * math.sqrt(v * tau) for v, tau in iv_rows]
                                   * len(alphas))).reshape(len(alphas), -1).tolist()
    reports = []
    for alpha, err_ii, js in zip(alphas, errs_ii, iv_js):
        lag, run = lags[alpha], partial(_laguerre_run, alpha)
        # (i) generating identity: sum_i (i+j)!/(i! j!) L_{i+j}(v) tau^i
        err_i = max(abs(_lag_series(islice(run(v), j, None), tau,
                                    lambda i: (i + j + 1.0) / (i + 1.0))
                        - (1.0 - tau) ** (-alpha - 1.0 - j) * math.exp(-v * tau / (1.0 - tau))
                        * lag[v / (1.0 - tau)][j])
                    for j in ks for v in (0.5, 2.1) for tau in (0.3, -0.4))
        # (iii) Pochhammer-ratio sum vs its Kummer-transformed hypergeometric form
        err_iii = max(abs(_lag_series(run(v), tau, lambda l: (c + l) / (alpha + 1.0 + l))
                          - (1.0 - tau) ** (-c) * math.exp(-v * tau / (1.0 - tau))
                          * hyp1f1(alpha + 1.0 - c, alpha + 1.0, v * tau / (1.0 - tau)))
                      for c in (alpha + 1.0, alpha + 1.0 + k_max, 1.7)
                      for v in (1.2, 2.1) for tau in (0.35,))
        # (iv) sum_l L_l(v) tau^l / (alpha+1)_l = e^tau j_alpha(2 sqrt(v tau))
        err_iv = max(abs(_lag_series(run(v), tau, lambda l: alpha + 1.0 + l, divide=True)
                         - math.exp(tau) * j)
                     for (v, tau), j in zip(iv_rows, js))
        err_v = max(_identity_v(alpha, k, c, lag[1.7], lag[c * 1.7])
                    for k in ks for c in (1.0, 0.35, 1.4))
        reports += [_report(f"laguerre_identity_{name}", {"alpha": alpha}, err,
                            default_tol if tol is None else tol)
                    for name, err, default_tol in (("i", err_i, 1e-10), ("ii", max(err_ii), 1e-8),
                                                   ("iii", err_iii, 1e-10),
                                                   ("iv", err_iv, 1e-10), ("v", err_v, 1e-12))]
    return reports


# ---------------------------------------------------------------------------
# product formulas


def gegenbauer_check(nu: float, x: float, y: float,
                     q: QuadratureSpec | None = None,
                     tol: float = 1e-8) -> VerificationReport:
    """Gegenbauer's product formula in normalized form for nu > -1/2:

        j_nu(x) j_nu(y) = Gamma(nu+1) / (Gamma(nu+1/2) sqrt(pi))
                          * int_0^pi j_nu(sqrt(x^2+y^2-2xy cos th)) sin^(2nu) th dth;

    at nu = -1/2 it degenerates to cos x cos y = (cos(x+y) + cos(x-y)) / 2.
    """
    if nu < -0.5:
        raise ValueError("Gegenbauer product formula requires nu >= -1/2")
    if x <= 0.0 or y <= 0.0:
        raise ValueError("gegenbauer_check requires x, y > 0")
    q = q or QuadratureSpec()
    if nu == -0.5:
        lhs = math.cos(x) * math.cos(y)
        rhs = 0.5 * (math.cos(x + y) + math.cos(x - y))
        return _report("gegenbauer", {"nu": nu, "x": x, "y": y}, abs(lhs - rhs), tol,
                       notes="degenerate cosine product")
    j_x, j_y = bessel_j_norm(nu, np.array([x, y])).tolist()
    us, ws = gauss_jacobi(q.nodes, nu - 0.5, nu - 0.5)
    radii = np.sqrt(np.maximum(x * x + y * y - 2.0 * x * y * us, 0.0))
    pref = math.exp(log_gamma(nu + 1.0) - log_gamma(nu + 0.5)) / math.sqrt(math.pi)
    rhs = pref * float(np.sum(ws * bessel_j_norm(nu, radii)))
    return _report("gegenbauer", {"nu": nu, "x": x, "y": y}, abs(j_x * j_y - rhs), tol)


def watson_check(nu: float, x: float, y: float, k: int,
                 q: QuadratureSpec | None = None,
                 tol: float = 1e-8) -> VerificationReport:
    """Watson's product formula for Laguerre polynomials, Re nu > -1/2:

        L_k(x^2) L_k(y^2) = Gamma(nu+k+1) / (Gamma(k+1) Gamma(nu+1/2) sqrt(pi))
            * int_0^pi e^{xy cos th} j_(nu-1/2)(xy sin th)
              L_k(x^2+y^2-2xy cos th) sin^(2nu) th dth.
    """
    if not nu > -0.5:
        raise ValueError("Watson product formula requires nu > -1/2")
    if not (0 <= k < math.inf and k % 1 == 0):
        raise ValueError("watson_check requires integer k >= 0")
    q = q or QuadratureSpec()
    k = int(k)
    lhs = laguerre_L(k, nu, x * x) * laguerre_L(k, nu, y * y)
    us, ws = gauss_jacobi(q.nodes, nu - 0.5, nu - 0.5)
    sins = np.sqrt(np.maximum(1.0 - us * us, 0.0))
    args = x * x + y * y - 2.0 * x * y * us
    vals = (np.exp(x * y * us)
            * bessel_j_norm(nu - 0.5, abs(x * y) * sins)
            * laguerre_L(k, nu, args))
    pref = math.exp(log_gamma(nu + k + 1.0) - log_gamma(k + 1.0)
                    - log_gamma(nu + 0.5)) / math.sqrt(math.pi)
    rhs = pref * float(np.sum(ws * vals))
    return _report("watson", {"nu": nu, "x": x, "y": y, "k": k}, abs(lhs - rhs), tol)


def _bk_multiplicativity_rows(rows, q, tol=1e-6) -> list[VerificationReport]:
    """Translation of a half-line character equals the product of its values,
    at each (u, x, xp, alpha) row, each at its own order: eta_u =
    j_(alpha/2-1)(u .) at every translation node from one bessel_j_norm call,
    and at both product points from one more."""
    nus = np.array([BesselKingmanParams(alpha).alpha for *_, alpha in rows]) / 2.0 - 1.0
    us, xs, xps, alphas = (np.array(col, dtype=float) for col in zip(*rows))
    lhs = _bk_translate_rows(lambda radii, r: bessel_j_norm(nus[r], us[r] * radii),
                             xs, xps, alphas, q).tolist()
    eta_x, eta_xp = bessel_j_norm(np.concatenate((nus, nus)),
                                  np.concatenate((us * xs, us * xps))).reshape(2, -1).tolist()
    return [_report("bk_multiplicativity", {"u": u, "x": x, "xp": xp, "alpha": alpha},
                    abs(l - ex * exp), tol)
            for (u, x, xp, alpha), l, ex, exp in zip(rows, lhs, eta_x, eta_xp)]


def lag_multiplicativity_check(c: FanPoint, a: HeisPoint, b: HeisPoint, alpha: float,
                               q: QuadratureSpec | None = None,
                               tol: float = 1e-6) -> VerificationReport:
    p = LaguerreParams(alpha)
    q = q or QuadratureSpec()
    lhs = lag_translate(lambda xs, ws: _lag_char(c, alpha, xs, ws), a, b, p, q)
    chi_a, chi_b = lag_character(c, HeisPoint(np.array([a.x, b.x]), np.array([a.w, b.w])),
                                 p).tolist()
    return _report("lag_multiplicativity",
                   {"chi": _fan_label(c), "ax": a.x, "aw": a.w, "bx": b.x, "bw": b.w,
                    "alpha": alpha},
                   abs(lhs - chi_a * chi_b), tol)


def psd_gram_check(points, t: float, delta: float,
                   q: QuadratureSpec | None = None,
                   tol: float = 1e-8) -> VerificationReport:
    """Bochner positivity: the Gram matrix of exp(t psi) must be PSD.

    G_mn = E[exp(-t X^2 / 2)] for X drawn from delta_{x_m} * delta_{x_n}, the
    translation of x -> exp(-t x^2 / 2) on the half-line of order delta; all
    entries come from one bk_translate call on the grid of point pairs, so G
    is exactly symmetric. points is a nonempty 1-d list of finite x >= 0 and
    t > 0 is finite; a NaN eigenvalue fails (max_abs_err must be finite),
    never passes.
    """
    q = q or QuadratureSpec()
    p = BesselKingmanParams(delta)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("psd_gram_check requires a 1-d point list")
    if not np.all((pts >= 0.0) & (pts < math.inf)):
        raise ValueError("psd_gram_check requires finite points >= 0")
    if not 0.0 < t < math.inf:
        raise ValueError("psd_gram_check requires finite t > 0")
    gram = bk_translate(lambda r: np.exp(-0.5 * t * r * r), pts[:, None], pts[None, :], p, q)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    err = 0.0 if min_eig >= 0.0 else -min_eig
    return _report("psd_gram",
                   {"n": len(points), "t": t, "delta": delta},
                   err, tol, notes=f"min_eig={min_eig:.3e}")


def chapman_kolmogorov_check(start: FanPoint, t1: float, t2: float, delta: float,
                             q: QuadratureSpec | None = None,
                             tol: float = 1e-8) -> VerificationReport:
    err = kn.chapman_kolmogorov_qbes(start, t1, t2, delta, q)
    return _report("chapman_kolmogorov",
                   {"start": _fan_label(start), "t1": t1, "t2": t2, "delta": delta},
                   err, tol)


def _random_scenario(rng, case: int):
    delta = float(rng.uniform(0.3, 5.0))
    k = int(rng.integers(0, 6))
    if case == 1:
        s = -float(rng.uniform(0.5, 3.0))
        return DiscretePoint(s, k), -s * float(rng.uniform(0.05, 0.9)), delta
    if case == 2:
        s = -float(rng.uniform(0.5, 3.0))
        return DiscretePoint(s, k), -s, delta
    if case == 3:
        s = -float(rng.uniform(0.5, 3.0))
        return DiscretePoint(s, k), -s * float(rng.uniform(1.05, 4.0)), delta
    if case == 4:
        return ContinuousPoint(float(rng.uniform(0.0, 8.0))), float(rng.uniform(0.2, 3.0)), delta
    return DiscretePoint(float(rng.uniform(0.1, 3.0)), k), float(rng.uniform(0.2, 3.0)), delta


def normalization_check(n: int = 200, tol: float = 1e-12) -> VerificationReport:
    """Sweep n >= 1 random laws (an integer n; an integral float is taken as
    one) through all five kernel cases, built by one law-family call per
    block of kn._BLOCK laws; report the worst deviation of total mass from 1
    (tail sizes recorded in the notes)."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Real)
            or not (1 <= n < math.inf and n % 1 == 0)):
        raise ValueError("normalization_check requires integer n >= 1")
    n = int(n)
    seed = 20241
    rng = np.random.default_rng(seed)
    worst_mass = worst_tail = 0.0
    for block in range(0, n, kn._BLOCK):  # so a block of laws at a time is kept
        laws = kn._transition_rows([_random_scenario(rng, i % 5 + 1)
                                    for i in range(block, min(block + kn._BLOCK, n))])
        worst_mass = max(worst_mass, *(abs(law.total_mass() - 1.0) for law in laws))
        worst_tail = max(worst_tail, *(law.tail_mass for law in laws))
    return _report("normalization", {"n": n, "seed": seed}, worst_mass, tol,
                   notes=f"max_tail={worst_tail:.3e}")


# ---------------------------------------------------------------------------
# the standard suite


def _tol(tol, default=None) -> dict:
    """The user's tolerance as a keyword, else default; none at all keeps the
    check's own default."""
    tol = default if tol is None else tol
    return {} if tol is None else {"tol": tol}


def _suite_weber(q, tol):
    rows = ((0.5, 0.0, 1.0), (1.0, 1.0, 1.0), (0.7, 0.5, 1.5), (2.0, 1.2, 0.3))
    return _weber_rows([(nu, *row) for nu in (-0.5, 0.5, 1.5) for row in rows], q, **_tol(tol))


def _suite_glowne3(q, tol):
    laws = (
        (DiscretePoint(-1.0, 2), 0.4),   # case 1
        (DiscretePoint(-1.0, 2), 1.0),   # case 2
        (DiscretePoint(-1.0, 2), 1.6),   # case 3
        (ContinuousPoint(0.7), 0.9),     # case 4
        (DiscretePoint(1.0, 3), 0.7),    # case 5
    )
    heis = (HeisPoint(0.8, 0.3), HeisPoint(2.0, -1.1))
    return _glowne3_rows([(start, t, delta) for delta in (1.0, 1.5, 2.0, 3.7)
                          for start, t in laws], heis, q, **_tol(tol))


def _suite_bk_spectral(q, tol):
    rows = ((1.0, 1.3, 0.7), (0.0, 0.9, 1.2), (2.0, 0.5, 0.4))
    return _bk_spectral_rows([(*row, delta) for delta in (1.0, 2.0, 2.5, 4.0) for row in rows],
                             q, **_tol(tol))


def _suite_laguerre(q, tol):
    return _laguerre_rows((-0.3, 0.0, 0.5, 2.1), 10, q, tol)


def _suite_gegenbauer(q, tol):
    return [gegenbauer_check(nu, x, y, q, **_tol(tol))
            for nu in (-0.5, 0.75, 2.0)
            for (x, y) in ((1.3, 0.7), (3.0, 0.1), (0.4, 2.2))]


def _suite_watson(q, tol):
    return [watson_check(nu, x, y, k, q, **_tol(tol))
            for nu in (0.5, 1.4)
            for k in (0, 2, 5)
            for (x, y) in ((1.0, 1.0), (0.0, 1.3), (1.7, 0.6))]


def _suite_multiplicativity(q, tol):
    rng = np.random.default_rng(777)
    bk_rows = []
    for _ in range(25):
        alpha = float(rng.uniform(1.0, 4.0))
        bk_rows.append((*(float(v) for v in rng.uniform(0.1, 2.5, size=3)), alpha))
    reports = _bk_multiplicativity_rows(bk_rows, q, **_tol(tol))
    for i in range(25):
        alpha = float(rng.uniform(0.0, 3.0))
        a = HeisPoint(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        b = HeisPoint(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        if i % 3 == 2:
            c: FanPoint = ContinuousPoint(float(rng.uniform(0.0, 3.0)))
        else:
            c = DiscretePoint(float(rng.uniform(0.2, 2.0)) * (-1.0 if i % 2 else 1.0),
                              int(rng.integers(0, 5)))
        reports.append(lag_multiplicativity_check(c, a, b, alpha, q, **_tol(tol)))
    return reports


def _suite_psd(q, tol):
    points = np.linspace(0.3, 2.7, 10)
    return [psd_gram_check(points, t, delta, q, **_tol(tol))
            for t in (0.1, 1.0, 5.0) for delta in (1.0, 2.5)]


def _suite_ck(q, tol):
    scenarios = (
        (DiscretePoint(-2.0, 0), 0.5, 0.5, 1.7, 1e-10),  # within case 1
        (DiscretePoint(-1.0, 1), 0.4, 1.0, 2.3, 1e-8),   # case 1 -> case 3
        (DiscretePoint(-1.0, 1), 1.0, 1.0, 2.3, 1e-8),   # gamma intermediate
        (DiscretePoint(-2.0, 1), 1.2, 0.8, 1.5, 1e-8),   # gamma endpoint
        (DiscretePoint(1.0, 3), 0.4, 0.6, 0.9, 1e-12),   # exact binomial
        (ContinuousPoint(0.7), 0.6, 0.9, 2.0, 1e-12),    # Poisson thinning
    )
    return [chapman_kolmogorov_check(start, t1, t2, delta, q, **_tol(tol, base_tol))
            for (start, t1, t2, delta, base_tol) in scenarios]


def _suite_normalization(q, tol):
    return [normalization_check(200, **_tol(tol))]


_SUITES = {
    "weber-schafheitlin": _suite_weber,
    "glowne3": _suite_glowne3,
    "bk-spectral": _suite_bk_spectral,
    "laguerre-identities": _suite_laguerre,
    "gegenbauer": _suite_gegenbauer,
    "watson": _suite_watson,
    "multiplicativity": _suite_multiplicativity,
    "psd-gram": _suite_psd,
    "chapman-kolmogorov": _suite_ck,
    "normalization": _suite_normalization,
}
SUITE_NAMES = tuple(_SUITES)
# the suites a whole run hands to its second process: about half its CPU time
# (each side 43-48 ms inside the fork on a 2-CPU Xeon VM)
_CHILD_SUITES = ("weber-schafheitlin", "glowne3", "multiplicativity", "psd-gram")


def _two_processes() -> bool:
    """Whether a whole run may fork a child: a second CPU to run on, and no
    other thread whose locks the child could inherit held."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _run_suites(names, q, tol) -> dict:
    """{suite: (reports, warnings, error)} of names, run in order up to the
    first that raises. Each suite's warnings are kept as (message, category,
    filename, lineno) for run_suite to re-issue, not shown."""
    outcomes = {}
    for name in names:
        with warnings.catch_warnings(record=True) as caught:
            try:
                reports, error = _SUITES[name](q, tol), None
            except Exception as exc:  # run_suite raises it in suite order
                reports, error = None, exc
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        outcomes[name] = (reports, caught, error)
        if error is not None:
            break
    return outcomes


def _forked_suites(q, tol) -> dict:
    """_run_suites of every suite: _CHILD_SUITES in one forked child, which
    pickles its outcomes down a pipe, and the rest here meanwhile. The child is
    reaped on every path; unless its pipe was read to the end it is killed
    first, so the wait cannot block."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_suites(_CHILD_SUITES, q, tol), pipe)
            status = 0
        finally:  # leave without exit handlers or a flush of the parent's buffers
            os._exit(status)
    os.close(write_fd)
    data = None
    with open(read_fd, "rb") as pipe:
        try:
            outcomes = _run_suites([n for n in SUITE_NAMES if n not in _CHILD_SUITES], q, tol)
            data = pipe.read()
        finally:
            if data is None:
                import signal  # only here: nothing else in the package needs it
                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:  # the child exits 0 only once its pickle is written whole
        raise RuntimeError(f"verify: the process running {', '.join(_CHILD_SUITES)} exited "
                           f"with status {status} without a result")
    return {**outcomes, **pickle.loads(data)}


def run_suite(suite: str | None = None, q: QuadratureSpec | None = None,
              tol: float | None = None) -> list[VerificationReport]:
    """Run one named suite or all of them; reports come back in canonical
    order (check name, then parameters). A whole run forks one child for
    _CHILD_SUITES where _two_processes allows, with the outcome of one process."""
    if suite is not None and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    q = q or QuadratureSpec()
    names = (suite,) if suite is not None else SUITE_NAMES
    if len(names) > 1 and _two_processes():
        outcomes = _forked_suites(q, tol)
    else:
        outcomes = _run_suites(names, q, tol)
    reports = []
    for name in names:
        suite_reports, caught, error = outcomes[name]
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        reports.extend(suite_reports)
    reports.sort(key=lambda r: (r.check_name, repr(r.params)))
    return reports
