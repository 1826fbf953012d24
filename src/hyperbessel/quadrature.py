"""Quadrature engines shared by the hypergroup and verification modules.

Gauss-Legendre nodes, weight-matched Gauss-Jacobi nodes (for the sin^a theta
convolution weights; scipy's ``roots_jacobi``, imported on the first call),
and an adaptive bisection scheme on Gauss-Legendre panels.
Integrands are called with a 1-d numpy array of nodes and must return an
array (real or complex) of the same length whose every value depends only on
its own node: ``integrate`` evaluates several panels' nodes in one call.
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


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None):
    """Integrate f over [a, b] by adaptive bisection.

    The scheme greedily bisects the panel with the largest error
    estimate (Gauss pair of order 16 and 32) until the summed estimate drops
    below abs_tol, and raises QuadratureError once a panel would have to be
    split beyond max_depth while the budget is still unmet.

    f is called once on the 48 nodes of the first panel and then once per
    bisection on the 96 nodes of both halves, so each value must depend only
    on its own node (an elementwise integrand).
    """
    spec = spec or DEFAULT_SPEC
    if b < a:
        raise ValueError("integrate requires a <= b")
    if b == a:
        return 0.0
    x_coarse, w_coarse = gauss_legendre(_ORDER)
    x_fine, w_fine = gauss_legendre(2 * _ORDER)
    x_pair = np.concatenate((x_coarse, x_fine))

    def panels(*bounds):
        # (error, fine value) of each panel, from one call of f on all nodes
        halves = [0.5 * (pb - pa) for pa, pb in bounds]
        vals = f(np.concatenate([0.5 * (pa + pb) + half * x_pair
                                 for (pa, pb), half in zip(bounds, halves)]))
        out = []
        for i, half in enumerate(halves):
            v = vals[i * x_pair.size:(i + 1) * x_pair.size]
            coarse = half * np.sum(w_coarse * v[:_ORDER])
            fine = half * np.sum(w_fine * v[_ORDER:])
            out.append((abs(fine - coarse), fine))
        return out

    ((err0, val0),) = panels((a, b))
    # (neg_err, pa, pb, depth, value); pa is unique per panel, so comparisons
    # never reach the (possibly complex) value slot
    heap = [(-err0, a, b, 0, val0)]
    total_err, total_val = err0, val0
    n_panels = 1
    while total_err > spec.abs_tol:
        neg_err, pa, pb, depth, v_old = heapq.heappop(heap)
        if depth >= spec.max_depth or n_panels >= 16384:
            raise QuadratureError(
                f"adaptive quadrature exhausted on [{pa:g}, {pb:g}]: "
                f"total residual {total_err:.3e} > {spec.abs_tol:.3e}")
        mid = 0.5 * (pa + pb)
        (e1, v1), (e2, v2) = panels((pa, mid), (mid, pb))
        total_err += e1 + e2 + neg_err
        total_val += v1 + v2 - v_old
        heapq.heappush(heap, (-e1, pa, mid, depth + 1, v1))
        heapq.heappush(heap, (-e2, mid, pb, depth + 1, v2))
        n_panels += 1
    return total_val
