"""The host's speed, read by a fixed probe that runs no hyperbessel code.

The benchmark runs on a few cores of a shared host whose speed moves by a
third over seconds to minutes (see README.md): the same job took 2.5 s in
one run and 4.3 s in the next. probe() times a fixed mix of pure-Python
and small-array numpy/scipy work, the kind of work the program does, right
before and after each timed call; scaled() turns a call's seconds into
reference seconds, the time the call would take on a host where the probe
takes REF_PROBE_S. A change to hyperbessel moves reference seconds as much
as it moves wall seconds; drift of the host moves the probe alike and
cancels.
"""
from __future__ import annotations

import statistics
import time

#: probe seconds that define a reference second; the probe read 3 to 6 ms
#: on the 2-core virtual machine the benchmark was built on
REF_PROBE_S = 0.004
PROBE_REPEATS = 5


def _kernel():
    import numpy as np
    from scipy import special
    acc, table = 0.0, {}
    for i in range(12500):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    x = np.linspace(0.1, 4.0, 64)
    for i in range(200):
        acc += float(np.exp(-x * i).sum() + special.gammaln(x + i)[3])
    return acc


def probe(repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of repeats runs of the fixed kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """Reference seconds of a call timed between two probes."""
    return seconds * 2.0 * REF_PROBE_S / (probe_before + probe_after)
