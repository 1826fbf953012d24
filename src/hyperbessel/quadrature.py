"""Quadrature engines shared by the hypergroup and verification modules.

Gauss-Legendre nodes (the order-16 and order-32 rules of the adaptive scheme,
stored as constants, as QUADPACK stores its Gauss tables), weight-matched
Gauss-Jacobi nodes (for the sin^a theta convolution weights; scipy's
``roots_jacobi``, imported on the first call), and an adaptive bisection
scheme on Gauss-Legendre panels for a family of rows (``integrate_rows``;
one integral is a family of one). A row may carry an algebraic weight
(x - a)^beta at its left end (QUADPACK's QAWS weight, Piessens et al.
1983): the panel at a then uses the Gauss-Jacobi (0, beta) pair, so
x^(alpha-1) at 0 costs no bisections. Integrands get a 1-d numpy array of
nodes and each node's row index, and return an array (real or complex) of
the same length whose every value depends only on its own node and row:
one call evaluates a panel pair of every unfinished row.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "gauss_jacobi",
    "integrate_rows",
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
# order of the coarse Gauss rule of a panel; the fine rule has twice as many nodes
_ORDER = 16


# the positive nodes and their weights of leggauss(16) and leggauss(32), which
# leggauss makes exactly antisymmetric and exactly symmetric about 0
_LEGENDRE_HALVES = {
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
          0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
          0.027152459411754176)),
    32: ((0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
          0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
          0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
          0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
         (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
          0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
          0.06582222277636168, 0.058684093478535565, 0.05099805926237609,
          0.042835898022226836, 0.034273862913021765, 0.025392065309262024,
          0.016274394730905743, 0.007018610009470506)),
}


@lru_cache(maxsize=256)
def gauss_jacobi(n: int, a: float, b: float):
    """Nodes and weights for the weight (1-x)^a (1+x)^b on [-1, 1]."""
    from scipy.special import roots_jacobi
    return roots_jacobi(n, a, b)


def _pair(rule, *args):
    """(coarse and fine nodes, coarse weights, fine weights) of a Gauss pair."""
    (x_coarse, w_coarse), (x_fine, w_fine) = rule(_ORDER, *args), rule(2 * _ORDER, *args)
    return np.concatenate((x_coarse, x_fine)), w_coarse, w_fine


def _legendre(n):
    """The stored order-n rule on [-1, 1], mirrored as leggauss symmetrizes it."""
    x, w = map(np.array, _LEGENDRE_HALVES[n])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# the Gauss-Legendre pair of every panel but a weighted one; each call shares it
_LEGENDRE = _pair(_legendre)
for _array in _LEGENDRE:
    _array.flags.writeable = False


def integrate_rows(f, bounds, spec: QuadratureSpec | None = None, beta=None) -> list:
    """Integrate row i over bounds[i] = (a, b), for every row at once.

    f(xs, rows) gets the nodes and, per node, its row index; each value may
    depend only on its own node and row. Each row keeps the heap, stop rule
    and budget it would have alone, and each round bisects the worst
    panel of every unfinished row in one call of f, so every value has the
    bits of a one-row call (a row with a == b is 0.0). The QuadratureError
    raised is that of the lowest row that exhausts, as a loop over the rows
    gives; rows after it are dropped at once.

    beta, if given, holds one endpoint power per row: row i integrates
    f(x) (x - a)^beta[i]. Its panel at a applies the Gauss-Jacobi (0, beta)
    pair to f; every other panel multiplies f by np.power(xs - a, beta). A
    row with beta 0 takes the path of a call without beta.
    """
    spec = spec or DEFAULT_SPEC
    if not all(-math.inf < a <= b < math.inf for a, b in bounds):
        raise ValueError("integrate_rows requires finite a <= b")
    beta = [0.0] * len(bounds) if beta is None else [float(bt) for bt in beta]
    if len(beta) != len(bounds) or not all(-1.0 < bt < math.inf for bt in beta):
        raise ValueError("integrate_rows requires one finite beta > -1 per row")
    jacobi = {bt: _pair(gauss_jacobi, 0.0, bt) for bt in set(beta) if bt}

    def panels(todo):
        # (error, fine value) of each (row, pa, pb) panel, from one call of f
        if not todo:
            return []
        rules = [jacobi[beta[row]] if beta[row] and pa == bounds[row][0] else _LEGENDRE
                 for row, pa, _ in todo]
        nodes = [0.5 * (pa + pb) + 0.5 * (pb - pa) * rule[0]
                 for (_, pa, pb), rule in zip(todo, rules)]
        vals = f(np.concatenate(nodes), np.repeat([row for row, _, _ in todo], 3 * _ORDER))
        out = []
        for i, ((row, pa, pb), rule, xs) in enumerate(zip(todo, rules, nodes)):
            v = vals[i * 3 * _ORDER:(i + 1) * 3 * _ORDER]
            scale = 0.5 * (pb - pa)
            if rule is not _LEGENDRE:  # the panel at a: its weights carry the power
                scale **= beta[row] + 1.0
            elif beta[row]:
                v = v * np.power(xs - bounds[row][0], beta[row])
            coarse = scale * np.sum(rule[1] * v[:_ORDER])
            fine = scale * np.sum(rule[2] * v[_ORDER:])
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
