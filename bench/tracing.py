"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each hyperbessel module from outside the
program: nothing under src/ knows about it. A wrapped call records a span
(id, name, start, end, parent) in memory, plus counts taken at the same
boundary (points evaluated, atoms built, integrand nodes, RNG words). Every
module namespace that binds the wrapped object is patched, so calls through
`from ... import` bindings are seen too.

Self time of a span is its duration minus the part of it that its child spans
cover. A path simulation runs in a pool thread while the CLI thread waits on
it, so a span that opens with an empty stack in another thread takes the
innermost open span of the main thread as its parent. `calls` counts only
entries that are not already inside a span of the same name, so the
recursive calls of sample_gamma and sample_poisson count once while their
self times still add up.
"""
from __future__ import annotations

import contextlib
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

SUITES = ("weber-schafheitlin", "glowne3", "bk-spectral", "laguerre-identities",
          "gegenbauer", "watson", "multiplicativity", "psd-gram",
          "chapman-kolmogorov", "normalization")
COMMANDS = ("qbes-kernel", "qbes-sim", "bes-sim", "bes-density", "char-eval",
            "hankel", "verify")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _points(pos, name):
    def count(counts, span, args, kwargs, result):
        counts[span + ".points"] += int(np.size(_arg(args, kwargs, pos, name)))
    return count


def _char_points(counts, span, args, kwargs, result):
    u, x = _arg(args, kwargs, 0, "u"), _arg(args, kwargs, 1, "x")
    counts[span + ".points"] += int(np.broadcast(u, x).size)


def _law(counts, span, args, kwargs, result):
    counts[f"{span}.case{result.case}.calls"] += 1
    counts[span + ".atoms"] += len(result.atoms)


def _steps(counts, span, args, kwargs, result):
    counts["sampling.steps"] += len(result.states)


def _failed_checks(counts, span, args, kwargs, result):
    counts["verify.checks_failed"] += sum(1 for r in result if not r.passed)


# (module, function, what to count from a finished call)
TARGETS = (
    ("sampling", "sample_law", None),
    ("sampling", "sample_gamma", None),
    ("sampling", "sample_poisson", None),
    ("sampling", "sample_qbes_path", _steps),
    ("sampling", "sample_bes_path", _steps),
    ("kernels", "qbes_transition", _law),
    ("kernels", "bes_density", _points(1, "y")),
    ("kernels", "chapman_kolmogorov_qbes", None),
    ("kernels", "law_to_dict", None),
    ("specfun", "bessel_j_norm", _points(1, "z")),
    ("specfun", "log_bessel_i_norm", _points(1, "y")),
    ("specfun", "log_gamma", _points(0, "x")),
    ("specfun", "laguerre_L", _points(2, "x")),
    ("specfun", "hyp1f1", None),
    ("quadrature", "integrate", None),
    ("quadrature", "gauss_jacobi", None),
    ("hypergroup", "bk_translate", None),
    ("hypergroup", "lag_translate", None),
    ("hypergroup", "bk_fourier", None),
    ("hypergroup", "lag_character", None),
    ("hypergroup", "jacobi_eigenvalues", None),
    ("hypergroup", "bk_character", _char_points),
    ("verify", "run_suite", _failed_checks),
)


_UNITS = {"calls": "count", "points": "count", "atoms": "count",
          "integrand_evals": "count", "self_s": "s", "s": "s"}


def _layer(span, *quantities):
    return [(f"{span}.{q}", _UNITS[q.rsplit(".", 1)[-1]]) for q in quantities]


#: every per-layer metric a traced run reports, with its unit
PER_LAYER = tuple(
    [("sampling.rng_words", "count"), ("sampling.steps", "count"),
     ("sampling.words_per_step", "1/step")]
    + _layer("sampling.sample_law", "calls", "self_s")
    + _layer("sampling.sample_gamma", "calls", "self_s")
    + _layer("sampling.sample_poisson", "calls", "self_s")
    + _layer("sampling.sample_qbes_path", "self_s")
    + _layer("sampling.sample_bes_path", "self_s")
    + _layer("kernels.qbes_transition", "calls", *(f"case{c}.calls" for c in range(1, 6)),
             "atoms", "self_s")
    + _layer("kernels.bes_density", "points", "self_s")
    + _layer("kernels.chapman_kolmogorov_qbes", "calls", "self_s")
    + _layer("kernels.law_to_dict", "self_s")
    + [m for f in ("bessel_j_norm", "log_bessel_i_norm", "log_gamma", "laguerre_L")
       for m in _layer(f"specfun.{f}", "points", "self_s")]
    + _layer("specfun.hyp1f1", "calls", "self_s")
    + _layer("quadrature.integrate", "calls", "integrand_evals", "self_s")
    + _layer("quadrature.gauss_jacobi", "calls", "self_s")
    + [m for f in ("bk_translate", "lag_translate", "bk_fourier", "lag_character",
                   "jacobi_eigenvalues")
       for m in _layer(f"hypergroup.{f}", "calls", "self_s")]
    + _layer("hypergroup.bk_character", "points", "self_s")
    + [m for suite in SUITES for m in _layer(f"verify.{suite}", "s")]
    + [("verify.checks_failed", "count")]
    + [m for c in COMMANDS for m in _layer(f"cli.{c}", "self_s")]
    + [("cli.bytes_out", "bytes"),
       ("setup.import.scipy_special_s", "s"), ("setup.import.hyperbessel_s", "s"),
       ("trace.overhead_s", "s")]
)


class _ThreadState:
    __slots__ = ("stack", "active", "spans", "counts", "words")

    def __init__(self):
        self.stack = []
        self.active = defaultdict(int)
        self.spans = []
        self.counts = defaultdict(int)
        self.words = 0


class Tracer:
    """Records spans and counts; install() patches the hyperbessel modules."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._main = self._state()
        self._undo = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, name):
        st = self._state()
        sid = next(self._ids)
        if st.stack:
            parent = st.stack[-1]
        else:
            main_stack = self._main.stack
            parent = main_stack[-1] if (st is not self._main and main_stack) else 0
        st.stack.append(sid)
        st.active[name] += 1
        if st.active[name] == 1:
            st.counts[name + ".calls"] += 1
        return st, sid, parent, time.perf_counter()

    def _exit(self, name, token):
        end = time.perf_counter()
        st, sid, parent, start = token
        st.stack.pop()
        st.active[name] -= 1
        st.spans.append((sid, name, start, end, parent))
        return st

    @contextlib.contextmanager
    def span(self, name):
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, token)

    def wrap(self, fn, name, count=None):
        enter, leave = self._enter, self._exit
        count_nodes = name == "quadrature.integrate"

        def traced(*args, **kwargs):
            if count_nodes and args:
                args = (self._counting_integrand(args[0]),) + args[1:]
            elif count_nodes:
                kwargs["f"] = self._counting_integrand(kwargs["f"])
            token = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = leave(name, token)
            if count is not None:
                count(st.counts, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_integrand(self, f):
        def counted(xs):
            self._state().counts["quadrature.integrate.integrand_evals"] += int(np.size(xs))
            return f(xs)
        return counted

    def install(self):
        """Patch every hyperbessel namespace; returns the names it could not find."""
        missing = []
        for module, attr, count in TARGETS:
            mod = sys.modules.get(f"hyperbessel.{module}")
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            self._rebind(original, self.wrap(original, f"{module}.{attr}", count))
        rng_cls = getattr(sys.modules.get("hyperbessel.sampling"), "RngState", None)
        if rng_cls is None or not hasattr(rng_cls, "next_u64"):
            missing.append("sampling.RngState.next_u64")
        else:
            next_u64 = rng_cls.next_u64
            state = self._state

            def counted_next_u64(rng):
                state().words += 1
                return next_u64(rng)

            self._set(rng_cls, "next_u64", counted_next_u64)
        suites = getattr(sys.modules.get("hyperbessel.verify"), "_SUITES", None)
        if not isinstance(suites, dict):
            missing.append("verify._SUITES")
        else:
            for key, fn in list(suites.items()):
                suites[key] = self.wrap(fn, f"verify.{key}")
                self._undo.append(lambda key=key, fn=fn: suites.__setitem__(key, fn))
        return missing

    def uninstall(self):
        """Undo install(), restoring every original binding."""
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, key, value):
        original = getattr(owner, key)
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, original))

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperbessel" or mod_name.startswith("hyperbessel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def collect(self) -> tuple[dict, list]:
        """Aggregate and clear everything recorded since the last collect."""
        with self._lock:
            states = list(self._states)
        spans, counts, words = [], defaultdict(int), 0
        for st in states:
            spans.extend(st.spans)
            st.spans = []
            for k, v in st.counts.items():
                counts[k] += v
            st.counts = defaultdict(int)
            words += st.words
            st.words = 0
        children = defaultdict(list)
        for sid, _, start, end, parent in spans:
            children[parent].append((start, end))
        self_s, total_s = defaultdict(float), defaultdict(float)
        for sid, name, start, end, _ in spans:
            self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
            total_s[name] += end - start
        out = dict(counts)
        out["sampling.rng_words"] = words
        steps = counts.get("sampling.steps", 0)
        out["sampling.words_per_step"] = words / steps if steps else 0.0
        for name, v in self_s.items():
            out[name + ".self_s"] = v
        for key in SUITES:
            out[f"verify.{key}.s"] = total_s.get(f"verify.{key}", 0.0)
        return out, spans


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def write_spans(path, spans):
    """Spans as CSV (id,name,start_s,end_s,parent), gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent\n")
        for sid, name, start, end, parent in sorted(spans):
            fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent}\n")
