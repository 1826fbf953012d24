"""Tests for the Gauss-Legendre / Gauss-Jacobi / adaptive quadrature layer."""
import heapq
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from hyperbessel import quadrature
from hyperbessel.quadrature import QuadratureError, QuadratureSpec, gauss_jacobi, integrate_rows


def one_row(f, a, b, spec=None, beta=0.0):
    """f(x) (x - a)^beta over [a, b]: integrate_rows with one row."""
    return integrate_rows(lambda xs, rows: f(xs), [(a, b)], spec, [beta])[0]


def stored_rule(n):
    """The order-n rule (16 or 32) of the stored Gauss-Legendre pair."""
    nodes, coarse, fine = quadrature._LEGENDRE
    return (nodes[:16], coarse) if n == 16 else (nodes[16:], fine)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=8)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            QuadratureSpec(abs_tol=tol)


@pytest.mark.parametrize("field", ["nodes", "max_depth"])
def test_spec_counts_are_integers(field):
    # a fractional count was accepted; the Jacobi rules then failed inside scipy
    for value in (16.5, 2.5, math.inf):
        with pytest.raises(ValueError, match=f"^QuadratureSpec.{field} must be "):
            QuadratureSpec(**{field: value})
    spec = QuadratureSpec(**{field: 32.0})  # an integral float becomes an int
    assert getattr(spec, field) == 32 and type(getattr(spec, field)) is int


def test_gauss_legendre_polynomial_exactness():
    # order-n rule integrates degree 2n-1 exactly
    x, w = stored_rule(16)
    for deg in [0, 5, 17, 31]:
        got = np.sum(w * x ** deg)
        want = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert got == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [16, 32])
def test_stored_legendre_rules_are_leggauss(n):
    # the stored orders keep every bit of numpy's rule and its exact symmetry
    x, w = stored_rule(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    assert x.dtype == w.dtype == np.float64 and x.shape == w.shape == (n,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(x[n // 2:] > 0.0)
    with pytest.raises(ValueError):  # shared constants are read-only
        x[0] = 0.0


def test_import_loads_no_numpy_polynomial():
    # the stored rules serve every command, so nothing imports numpy.polynomial
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, hyperbessel.cli; print('numpy.polynomial' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_gauss_jacobi_weight_mass():
    # sum of weights equals the beta-function mass of (1-x)^a (1+x)^b
    for a, b in [(0.25, 0.25), (-0.5, -0.5), (1.7, 0.0)]:
        _, w = gauss_jacobi(32, a, b)
        want = (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
                / math.gamma(a + b + 2.0))
        assert np.sum(w) == pytest.approx(want, rel=1e-13)


def test_adaptive_matches_closed_form():
    spec = QuadratureSpec(abs_tol=1e-12)
    got = one_row(lambda x: np.cos(x) * np.exp(-0.1 * x), 0.0, 20.0, spec)
    # int cos(x) e^{-cx} = [e^{-cx}(sin x - c cos x)/(1+c^2)]
    c = 0.1

    def anti(x):
        return math.exp(-c * x) * (math.sin(x) - c * math.cos(x)) / (1 + c * c)

    assert got == pytest.approx(anti(20.0) - anti(0.0), abs=1e-11)


def test_adaptive_handles_mild_endpoint_singularity():
    spec = QuadratureSpec(abs_tol=1e-10)
    got = one_row(lambda x: np.sqrt(x), 0.0, 1.0, spec)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_adaptive_complex_integrand():
    spec = QuadratureSpec(abs_tol=1e-12)
    got = one_row(lambda x: np.exp(1j * x), 0.0, math.pi, spec)
    assert got == pytest.approx(2j, abs=1e-11)


def test_adaptive_depth_exhaustion_raises():
    # an interior |x - c|^(-0.9) singularity cannot be bisected to 1e-14 in 8 levels
    c = 1.0 / math.sqrt(2.0)
    spec = QuadratureSpec(abs_tol=1e-14, max_depth=8)
    with pytest.raises(QuadratureError):
        one_row(lambda x: np.abs(x - c) ** -0.9, 0.0, 1.0, spec)


def test_degenerate_interval():
    assert one_row(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        one_row(lambda x: x, 2.0, 1.0)


def _reference_integrate(f, a, b, spec):
    """The per-panel integrator that integrate_rows replaced: four calls of f (two
    Gauss rules on each half) per bisection. A row must match it bit for
    bit on elementwise integrands. Each panel sum is formed here from numpy's
    Legendre nodes, not from the module under test."""
    def rule(pa, pb, n):
        x, w = np.polynomial.legendre.leggauss(n)
        mid = 0.5 * (pa + pb)
        half = 0.5 * (pb - pa)
        return half * np.sum(w * f(mid + half * x))

    def panel(pa, pb):
        coarse = rule(pa, pb, 16)
        fine = rule(pa, pb, 32)
        return abs(fine - coarse), fine

    err0, val0 = panel(a, b)
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
        e1, v1 = panel(pa, mid)
        e2, v2 = panel(mid, pb)
        total_err += e1 + e2 + neg_err
        total_val += v1 + v2 - v_old
        heapq.heappush(heap, (-e1, pa, mid, depth + 1, v1))
        heapq.heappush(heap, (-e2, mid, pb, depth + 1, v2))
        n_panels += 1
    return total_val


class _Counting:
    """Wraps an integrand and records the nodes of every call."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, xs):
        self.calls.append(np.array(xs))
        return self.f(xs)


_SINGULAR_C = 1.0 / math.sqrt(2.0)

BATCH_CASES = [
    (lambda x: np.cos(x) * np.exp(-0.1 * x), 0.0, 20.0, QuadratureSpec(abs_tol=1e-12)),
    (lambda x: np.sqrt(x), 0.0, 1.0, QuadratureSpec(abs_tol=1e-10)),
    (lambda x: np.exp(1j * x), 0.0, math.pi, QuadratureSpec(abs_tol=1e-12)),
    (lambda x: np.exp(-x * x), -1.0, 6.0, QuadratureSpec()),
    # chirps that take several bisections
    (lambda x: np.sin(x * x), 0.0, 12.0, QuadratureSpec(abs_tol=1e-11)),
    (lambda x: np.exp(1j * x * x), 0.0, 8.0, QuadratureSpec(abs_tol=1e-12)),
]


@pytest.mark.parametrize("f,a,b,spec", BATCH_CASES)
def test_batched_integrate_matches_per_panel_reference(f, a, b, spec):
    got = one_row(f, a, b, spec)
    want = _reference_integrate(f, a, b, spec)
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("f,a,b,spec", BATCH_CASES)
def test_one_integrand_call_per_bisection(f, a, b, spec):
    new, ref = _Counting(f), _Counting(f)
    one_row(new, a, b, spec)
    _reference_integrate(ref, a, b, spec)
    # the reference calls f twice on the first panel and four times per bisection
    bisections = (len(ref.calls) - 2) // 4
    assert len(ref.calls) == 2 + 4 * bisections
    assert len(new.calls) == 1 + bisections
    assert [xs.size for xs in new.calls] == [48] + [96] * bisections
    # the same nodes, each once per panel rule, in fewer calls
    assert np.array_equal(np.sort(np.concatenate(new.calls)),
                          np.sort(np.concatenate(ref.calls)))


def test_batched_exhaustion_message_matches_reference():
    spec = QuadratureSpec(abs_tol=1e-14, max_depth=8)
    f = lambda x: np.abs(x - _SINGULAR_C) ** -0.9  # noqa: E731
    with pytest.raises(QuadratureError) as new:
        one_row(f, 0.0, 1.0, spec)
    with pytest.raises(QuadratureError) as ref:
        _reference_integrate(f, 0.0, 1.0, spec)
    assert str(new.value) == str(ref.value)


def _row_integrand(fs, complex_=False):
    """f(xs, rows) evaluating fs[i] on the nodes of row i, recording every call."""
    calls = []

    def f(xs, rows):
        calls.append((np.array(xs), np.array(rows)))
        out = np.empty(xs.shape, dtype=complex if complex_ else float)
        for i, fi in enumerate(fs):
            mask = rows == i
            if np.any(mask):
                out[mask] = fi(xs[mask])
        return out

    return f, calls


ROW_SPEC = QuadratureSpec(abs_tol=1e-11)
# rows of different depths (1, 1, 16 and 8 bisections) and a degenerate row
REAL_ROWS = [
    (lambda x: np.exp(-x * x), -1.0, 6.0),
    (lambda x: np.cos(x) * np.exp(-0.1 * x), 0.0, 20.0),
    (lambda x: np.sin(x * x), 0.0, 12.0),
    (lambda x: x, 2.0, 2.0),
    (lambda x: np.sqrt(x), 0.0, 1.0),
]
COMPLEX_ROWS = [
    (lambda x: np.exp(1j * x * x), 0.0, 8.0),
    (lambda x: x + 0j, 1.0, 1.0),
    (lambda x: np.exp(1j * x), 0.0, math.pi),
]


@pytest.mark.parametrize("rows,complex_", [(REAL_ROWS, False), (COMPLEX_ROWS, True)])
def test_integrate_rows_matches_reference_per_row(rows, complex_):
    f, _ = _row_integrand([fi for fi, _, _ in rows], complex_)
    got = integrate_rows(f, [(a, b) for _, a, b in rows], ROW_SPEC)
    for value, (fi, a, b) in zip(got, rows):
        want = _reference_integrate(fi, a, b, ROW_SPEC) if b != a else 0.0
        assert type(value) is type(want)
        assert value == want
        assert value == one_row(fi, a, b, ROW_SPEC)


def test_integrate_rows_one_call_per_round():
    f, calls = _row_integrand([fi for fi, _, _ in REAL_ROWS])
    integrate_rows(f, [(a, b) for _, a, b in REAL_ROWS], ROW_SPEC)
    bisections = []
    for fi, a, b in REAL_ROWS:
        counted = _Counting(fi)
        one_row(counted, a, b, ROW_SPEC)
        bisections.append(len(counted.calls) - 1 if b != a else None)
    live = [n for n in bisections if n is not None]
    assert len(calls) == 1 + max(live)
    # round r bisects every row that needs more than r - 1 bisections, 96 nodes each
    assert [xs.size for xs, _ in calls] == (
        [48 * len(live)] + [96 * sum(n >= r for n in live) for r in range(1, max(live) + 1)])
    for xs, rows in calls:
        assert rows.shape == xs.shape and rows.dtype.kind == "i"
    assert bisections[3] is None and not any(np.any(rows == 3) for _, rows in calls)


_TWO_SINGULAR = (lambda x: np.abs(x - _SINGULAR_C) ** -0.9  # noqa: E731
                 + np.abs(x - 0.3) ** -0.9)
_ONE_SINGULAR = lambda x: np.abs(x - _SINGULAR_C) ** -0.9  # noqa: E731
EXHAUST_SPEC = QuadratureSpec(abs_tol=1e-14, max_depth=8)


def _exhaustion(fi):
    with pytest.raises(QuadratureError) as exc:
        _reference_integrate(fi, 0.0, 1.0, EXHAUST_SPEC)
    return str(exc.value)


def test_integrate_rows_raises_first_failing_row_and_drops_later_rows():
    # row 0 succeeds after many rounds, row 1 exhausts early, row 2 would exhaust
    fs = [lambda x: np.sin(x * x), _ONE_SINGULAR, _TWO_SINGULAR]
    f, calls = _row_integrand(fs)
    with pytest.raises(QuadratureError) as exc:
        integrate_rows(f, [(0.0, 12.0), (0.0, 1.0), (0.0, 1.0)], EXHAUST_SPEC)
    assert str(exc.value) == _exhaustion(_ONE_SINGULAR)
    counted = _Counting(_ONE_SINGULAR)
    with pytest.raises(QuadratureError):
        one_row(counted, 0.0, 1.0, EXHAUST_SPEC)
    failed_round = len(counted.calls)  # the round whose pop exhausts row 1
    assert any(np.any(rows == 0) for _, rows in calls[failed_round:])
    assert not any(np.any(rows >= 1) for _, rows in calls[failed_round:])


def test_integrate_rows_lower_row_failing_later_wins():
    # row 1 exhausts first, but a loop over the rows would stop at row 0
    for first, second in ((_ONE_SINGULAR, _TWO_SINGULAR), (_TWO_SINGULAR, _ONE_SINGULAR)):
        f, _ = _row_integrand([first, second])
        with pytest.raises(QuadratureError) as exc:
            integrate_rows(f, [(0.0, 1.0), (0.0, 1.0)], EXHAUST_SPEC)
        assert str(exc.value) == _exhaustion(first)
    assert _exhaustion(_ONE_SINGULAR) != _exhaustion(_TWO_SINGULAR)


def test_integrate_rows_edge_cases():
    assert integrate_rows(lambda xs, rows: xs, [], ROW_SPEC) == []
    assert integrate_rows(lambda xs, rows: xs, [(1.0, 1.0)] * 2) == [0.0, 0.0]
    with pytest.raises(ValueError, match="a <= b"):
        integrate_rows(lambda xs, rows: xs, [(0.0, 1.0), (2.0, 1.0)])


def test_nan_row_stops_as_a_lone_call():
    # a NaN error estimate ends a row at once (as "while err > tol" does), it is not bisected
    f = lambda x: np.full_like(x, np.nan)  # noqa: E731
    assert math.isnan(_reference_integrate(f, 0.0, 1.0, ROW_SPEC))
    g, calls = _row_integrand([f, np.exp])
    nan_row, exp_row = integrate_rows(g, [(0.0, 1.0), (0.0, 1.0)], ROW_SPEC)
    assert math.isnan(nan_row) and exp_row == _reference_integrate(np.exp, 0.0, 1.0, ROW_SPEC)
    assert len(calls) == 1


@pytest.mark.parametrize("beta", [-0.5, 0.085, 0.5, 1.95, 3.1, 29.0])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, 4.0), (0.5, 4.5)])
def test_endpoint_power_matches_incomplete_gamma(beta, a, b):
    # int_a^b (x - a)^beta e^-(x - a) dx = Gamma(beta + 1) P(beta + 1, b - a)
    got = one_row(lambda x: np.exp(a - x), a, b, ROW_SPEC, beta)
    want = special.gamma(beta + 1.0) * special.gammainc(beta + 1.0, b - a)
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_endpoint_power_needs_no_bisection_toward_a():
    # x^0.085 e^-x: the weighted rule takes one panel; the power left in f bisects toward 0
    weighted, plain = _Counting(lambda x: np.exp(-x)), _Counting(lambda x: x ** 0.085 * np.exp(-x))
    got = one_row(weighted, 0.0, 1.0, ROW_SPEC, 0.085)
    assert len(weighted.calls) == 1
    with pytest.raises(QuadratureError, match=r"exhausted on \[0, "):
        one_row(plain, 0.0, 1.0, ROW_SPEC)
    assert got == pytest.approx(math.gamma(1.085) * 0.5955852551197113, rel=1e-13)


# (f, a, b, beta): a beta row that bisects 49 times, interior panels on either side of
# a shifted left end, beta 0 rows of several depths, a degenerate row, a shared beta
BETA_ROWS = [
    (lambda x: np.exp(-x), 0.0, 4.0, 29.0),
    (lambda x: np.cos(x) * np.exp(-0.1 * x), 0.0, 20.0, 0.5),
    (lambda x: np.sin(x * x), 0.0, 12.0, 0.0),
    (lambda x: np.exp(0.5 - x), 0.5, 4.5, -0.5),
    (lambda x: x, 2.0, 2.0, 0.3),
    (lambda x: np.sqrt(x), 0.0, 1.0, 0.0),
    (lambda x: np.sin(3.0 * x), 1.0, 9.0, 0.5),
]


@pytest.mark.dispatch_pinned
def test_integrate_rows_mixed_beta_rows_keep_lone_call_bits():
    f, calls = _row_integrand([fi for fi, *_ in BETA_ROWS])
    got = integrate_rows(f, [(a, b) for _, a, b, _ in BETA_ROWS], ROW_SPEC,
                         [beta for *_, beta in BETA_ROWS])
    rounds = []
    for value, (fi, a, b, beta) in zip(got, BETA_ROWS):
        counted = _Counting(fi)
        assert value == one_row(counted, a, b, ROW_SPEC, beta)
        rounds.append(len(counted.calls))
        if beta == 0.0:
            assert value == (_reference_integrate(fi, a, b, ROW_SPEC) if b != a else 0.0)
    assert len(calls) == max(rounds) and rounds[0] == 50


def test_endpoint_panel_uses_jacobi_nodes():
    # the panel at a holds the Gauss-Jacobi (0, beta) nodes, the panel beyond it Legendre's
    counted = _Counting(lambda x: np.cos(20.0 * x))
    one_row(counted, 1.0, 3.0, ROW_SPEC, 0.5)
    first, second = counted.calls[:2]
    jac = np.concatenate([gauss_jacobi(n, 0.0, 0.5)[0] for n in (16, 32)])
    leg = np.concatenate([np.polynomial.legendre.leggauss(n)[0] for n in (16, 32)])
    assert np.array_equal(first, 2.0 + jac)
    assert np.array_equal(second, np.concatenate((1.5 + 0.5 * jac, 2.5 + 0.5 * leg)))


@pytest.mark.parametrize("a,b", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
                                 (math.nan, 1.0), (math.inf, math.inf)])
def test_non_finite_bounds_raise(a, b):
    # a row (0, nan) returned nan, and (0, inf) nan after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^integrate_rows requires finite a <= b$"):
            one_row(np.exp, a, b)
        with pytest.raises(ValueError, match="^integrate_rows requires finite a <= b$"):
            integrate_rows(lambda xs, rows: xs, [(0.0, 1.0), (a, b)])


@pytest.mark.parametrize("beta", [[math.nan], [math.inf], [-1.0], [-2.5], [0.5, 0.5], []])
def test_bad_beta_raises(beta):
    with pytest.raises(ValueError, match="^integrate_rows requires one finite beta > -1 per row$"):
        integrate_rows(lambda xs, rows: xs, [(0.0, 1.0)], ROW_SPEC, beta)


def _per_panel_integrate_rows(f, bounds, spec=None, beta=None):
    """integrate_rows as it was before each round became one block: a loop over
    the panels with two np.sum calls each, kept verbatim as the reference whose
    bits the block form must keep."""
    spec = spec or quadrature.DEFAULT_SPEC
    _ORDER, _LEGENDRE, _pair = quadrature._ORDER, quadrature._LEGENDRE, quadrature._pair
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


def _same_bits(got, want):
    """Equal type and bytes: NaN equals NaN, and 0.0 differs from -0.0."""
    return type(got) is type(want) and np.array(got).tobytes() == np.array(want).tobytes()


# (f, a, b, beta): rows that finish in different rounds, betas in (-1, 0) and
# above, a shared beta, beta 0 next to weighted rows, a degenerate row, a NaN
# row, a row whose value is -0.0, and a left end away from 0
BLOCK_REAL_ROWS = [
    (lambda x: np.exp(-x), 0.0, 4.0, 29.0),
    (lambda x: np.cos(x) * np.exp(-0.1 * x), 0.0, 20.0, 0.5),
    (lambda x: np.sin(x * x), 0.0, 12.0, 0.0),
    (lambda x: np.exp(0.5 - x), 0.5, 4.5, -0.5),
    (lambda x: x, 2.0, 2.0, 0.3),
    (lambda x: np.cos(5.0 * x), 0.0, 3.0, -0.7),
    (lambda x: np.full_like(x, np.nan), 0.0, 1.0, -0.3),
    (lambda x: np.full_like(x, -0.0), 1.0, 2.0, 0.0),
    (lambda x: np.sin(3.0 * x), 1.0, 9.0, 0.5),
    (lambda x: np.sqrt(x), 0.0, 1.0, 0.0),
    (lambda x: np.exp(-3.0 * x) * np.cos(7.0 * x), 0.25, 6.0, -0.95),
]
BLOCK_COMPLEX_ROWS = [
    (lambda x: np.exp(1j * x * x), 0.0, 14.0, 0.0),
    (lambda x: np.exp(1j * x) * np.exp(-x), 0.0, math.pi, -0.4),
    (lambda x: x + 0j, 1.0, 1.0, 0.0),
    (lambda x: np.exp(3j * x), 0.5, 6.0, 1.5),
    (lambda x: np.full_like(x, complex(np.nan, 1.0), dtype=complex), 0.0, 1.0, 0.0),
]


@pytest.mark.parametrize("rows,complex_", [(BLOCK_REAL_ROWS, False), (BLOCK_COMPLEX_ROWS, True)])
@pytest.mark.parametrize("with_beta", [True, False])
def test_block_rounds_keep_the_bits_of_the_per_panel_loop(rows, complex_, with_beta):
    f, calls = _row_integrand([fi for fi, *_ in rows], complex_)
    ref, ref_calls = _row_integrand([fi for fi, *_ in rows], complex_)
    bounds = [(a, b) for _, a, b, _ in rows]
    beta = [bt for *_, bt in rows] if with_beta else None
    got = integrate_rows(f, bounds, ROW_SPEC, beta)
    want = _per_panel_integrate_rows(ref, bounds, ROW_SPEC, beta)
    assert all(_same_bits(g, w) for g, w in zip(got, want)), (got, want)
    # the same rounds, each one call of f on the same nodes and rows
    assert len(calls) == len(ref_calls) > 10
    for (xs, r), (ref_xs, ref_r) in zip(calls, ref_calls):
        assert np.array_equal(xs, ref_xs) and np.array_equal(r, ref_r)
    assert any(math.isnan(abs(v)) for v in got)


def test_block_rounds_raise_the_per_panel_loops_error():
    rows = [(lambda x: np.sin(x * x), 0.0, 12.0, 0.0), (_ONE_SINGULAR, 0.0, 1.0, -0.2),
            (_TWO_SINGULAR, 0.0, 1.0, 0.4)]
    messages = []
    for integrate in (integrate_rows, _per_panel_integrate_rows):
        f, _ = _row_integrand([fi for fi, *_ in rows])
        with pytest.raises(QuadratureError) as exc:
            integrate(f, [(a, b) for _, a, b, _ in rows], EXHAUST_SPEC, [bt for *_, bt in rows])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_block_rounds_leave_the_integrands_array_as_it_was():
    # the endpoint power multiplies a copy, never the array f returned
    calls = []

    def f(xs, rows):
        calls.append((np.array(xs), np.cos(20.0 * xs)))
        return calls[-1][1]

    integrate_rows(f, [(1.0, 3.0)], ROW_SPEC, [0.5])
    assert len(calls) > 1 and all(np.array_equal(v, np.cos(20.0 * xs)) for xs, v in calls)
