"""Quadrature engines shared by the hypergroup and verification modules.

Gauss-Legendre nodes, weight-matched Gauss-Jacobi nodes (for the sin^a theta
convolution weights; scipy's ``roots_jacobi``, imported on the first call),
and an adaptive bisection scheme on Gauss-Legendre panels, for one integral
(``integrate``) or a family of rows (``integrate_rows``). Integrands get a 1-d
numpy array of nodes (and, for rows, each node's row index) and return an
array (real or complex) of the same length whose every value depends only on
its own node and row: one call evaluates a panel pair of every unfinished row.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "gauss_legendre",
    "gauss_jacobi",
    "integrate",
]


class QuadratureError(RuntimeError):
    """Adaptive bisection exhausted its depth budget."""


_MAX_NODES = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature controls: nodes per axis, adaptive tolerance and depth."""

    nodes: int = 64
    abs_tol: float = 1e-10
    max_depth: int = 20

    def __post_init__(self):
        # the plane translations evaluate nodes^2 points, so the cap keeps them in memory
        if not 16 <= self.nodes <= _MAX_NODES:
            raise ValueError(f"QuadratureSpec.nodes must be in 16..{_MAX_NODES}")
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError("QuadratureSpec.abs_tol must be finite and positive")
        if self.max_depth < 1:
            raise ValueError("QuadratureSpec.max_depth must be >= 1")
        for name in ("nodes", "max_depth"):  # an integral float becomes an int
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"QuadratureSpec.{name} must be an integer")
            object.__setattr__(self, name, int(value))


DEFAULT_SPEC = QuadratureSpec()
# order of integrate's coarse Gauss-Legendre rule; the fine rule has twice as many nodes
_ORDER = 16


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1]."""
    return leggauss(n)


@lru_cache(maxsize=256)
def gauss_jacobi(n: int, a: float, b: float):
    """Nodes and weights for the weight (1-x)^a (1+x)^b on [-1, 1]."""
    from scipy.special import roots_jacobi
    return roots_jacobi(n, a, b)


def integrate_rows(f, bounds, spec: QuadratureSpec | None = None) -> list:
    """Integrate row i over bounds[i] = (a, b), for every row at once.

    f(xs, rows) gets the nodes and, per node, its row index; each value may
    depend only on its own node and row. Each row keeps the heap, stop rule
    and budget of a lone integrate call, and each round bisects the worst
    panel of every unfinished row in one call of f, so every value has the
    bits of a lone call (a row with a == b is 0.0). The QuadratureError
    raised is that of the lowest row that exhausts, as a loop over the rows
    gives; rows after it are dropped at once.
    """
    spec = spec or DEFAULT_SPEC
    if any(b < a for a, b in bounds):
        raise ValueError("integrate requires a <= b")
    x_coarse, w_coarse = gauss_legendre(_ORDER)
    x_fine, w_fine = gauss_legendre(2 * _ORDER)
    x_pair = np.concatenate((x_coarse, x_fine))

    def panels(todo):
        # (error, fine value) of each (row, pa, pb) panel, from one call of f
        if not todo:
            return []
        halves = [0.5 * (pb - pa) for _, pa, pb in todo]
        vals = f(np.concatenate([0.5 * (pa + pb) + half * x_pair
                                 for (_, pa, pb), half in zip(todo, halves)]),
                 np.repeat([row for row, _, _ in todo], x_pair.size))
        out = []
        for i, half in enumerate(halves):
            v = vals[i * x_pair.size:(i + 1) * x_pair.size]
            coarse = half * np.sum(w_coarse * v[:_ORDER])
            fine = half * np.sum(w_fine * v[_ORDER:])
            out.append((abs(fine - coarse), fine))
        return out

    live = [i for i, (a, b) in enumerate(bounds) if b != a]
    values = [0.0] * len(bounds)
    # per row: a heap of (neg_err, pa, pb, depth, value), one entry per panel (pa
    # is unique, so comparisons never reach the possibly complex value), and its error
    heaps, errs = {}, {}
    for i, (err, val) in zip(live, panels([(i, *bounds[i]) for i in live])):
        heaps[i] = [(-err, *bounds[i], 0, val)]
        errs[i], values[i] = err, val
    failure = None
    while live:
        split = []
        for i in live:
            if not errs[i] > spec.abs_tol:
                continue
            neg_err, pa, pb, depth, v_old = heapq.heappop(heaps[i])
            if depth >= spec.max_depth or len(heaps[i]) + 1 >= 16384:
                failure = QuadratureError(
                    f"adaptive quadrature exhausted on [{pa:g}, {pb:g}]: "
                    f"total residual {errs[i]:.3e} > {spec.abs_tol:.3e}")
                break  # a loop over the rows would stop here
            split.append((i, neg_err, pa, 0.5 * (pa + pb), pb, depth, v_old))
        live = [i for i, *_ in split]
        halves = panels([panel for i, _, pa, mid, pb, *_ in split
                         for panel in ((i, pa, mid), (i, mid, pb))])
        for n, (i, neg_err, pa, mid, pb, depth, v_old) in enumerate(split):
            (e1, v1), (e2, v2) = halves[2 * n:2 * n + 2]
            errs[i] += e1 + e2 + neg_err
            values[i] += v1 + v2 - v_old
            heapq.heappush(heaps[i], (-e1, pa, mid, depth + 1, v1))
            heapq.heappush(heaps[i], (-e2, mid, pb, depth + 1, v2))
    if failure is not None:
        raise failure
    return values


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None):
    """Integrate f over [a, b] by adaptive bisection: integrate_rows of one row.

    The scheme greedily bisects the panel with the largest error estimate
    (Gauss pair of order 16 and 32) until the summed estimate drops below
    abs_tol; it raises QuadratureError once a panel would be split beyond
    max_depth (or past 16384 panels) with the budget unmet. f(xs) is called on
    the 48 nodes of the first panel, then once per bisection on the 96 nodes
    of both halves, so it must be elementwise.
    """
    return integrate_rows(lambda xs, rows: f(xs), [(a, b)], spec)[0]
