"""Seeded job generators for the three benchmark workloads.

A job is a fixed list of CLI invocations. Its structure is a fixed design:
which kernel cases, branches, switches and grids each command reaches. The
seed jitters continuous parameters by up to 3 % around their design points
and draws the path seeds, so two seeds give different inputs but the same
amount of work; a wider draw made the cost of a job, and so every timing,
depend on the seed. Each entry is a dict:

    kind   the CLI subcommand
    argv   the argument list passed to hyperbessel.cli.main (without --out)

README.md in this directory explains why each workload exists.
"""
from __future__ import annotations

import random

WORKLOADS = ("simulate", "tabulate", "certify")


class _Design:
    """Seeded jitter around design points."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def near(self, x: float, spread: float = 0.03) -> str:
        return format(x * self.rng.uniform(1.0 - spread, 1.0 + spread), ".6g")

    def path_seed(self) -> str:
        return str(self.rng.randrange(1 << 31))


def simulate_job(seed: int) -> list[dict]:
    """QBES paths through all five kernel cases, and BES paths on both
    Poisson branches and on both sides of delta = 2."""
    d = _Design(seed)
    job = []
    # (delta, start, grid, paths); integer and non-integer delta alternate
    for delta, start, grid, paths in (
        ("2", f"tau={d.near(1.0)},k=10", "0.25,0.5,1.0,2.0", 200),        # case 5
        (d.near(1.5), "tau=-1,k=3", "0.25,0.5,0.75,1.0,1.5", 200),         # 1,1,1,2,4
        ("1", "tau=-0.75,k=7", "1.0,1.5,2.0", 200),                        # case 3
        (d.near(2.5), f"y1={d.near(2.0)}", "0.5,1.0,2.0", 200),            # case 4
        ("3", "tau=-0.5,k=10", "0.5,1.0", 200),                            # case 2
        # decimal grids as users write them: left of the crossing, right of
        # it, and one that contains it (s + t == 0 only up to rounding)
        (d.near(0.8), "tau=-1,k=2", "0.1:0.5:5", 200),
        ("2", "tau=0.3,k=8", "0.1:1.0:10", 100),
        (d.near(1.7), "tau=-0.7,k=5", "0.1:0.7:7", 200),
    ):
        job.append({"kind": "qbes-sim", "argv": [
            "qbes-sim", "--delta", delta, "--start", start, "--t-grid", grid,
            "--paths", str(paths), "--seed", d.path_seed()]})
    for delta, x0, grid, paths in (
        (d.near(1.5), d.near(1.0), "0.25,0.5,0.75,1.0", 1500),
        (d.near(3.5), d.near(2.0), "0.5,1.0,2.0", 1500),
        # x0^2 / 2t > 500 takes the split-Poisson branch
        (d.near(2.5), d.near(34.0, 0.01), "0.5,1.0", 40),
    ):
        job.append({"kind": "bes-sim", "argv": [
            "bes-sim", "--delta", delta, "--x0", x0, "--t-grid", grid,
            "--paths", str(paths), "--seed", d.path_seed()]})
    return job


def tabulate_job(seed: int) -> list[dict]:
    """Characters, densities, transforms and whole one-step laws on grids."""
    d = _Design(seed)
    job = []

    def add(*argv):
        job.append({"kind": argv[0], "argv": list(argv)})

    # u x runs to 48, across the z = 25 switch of j; one order is large
    for alpha in (d.near(3.0), d.near(60.0)):
        add("char-eval", "--family", "bk", "--alpha", alpha,
            "--u-grid", "0:2:20", "--x-grid", "0:24:16")
    for alpha, state in ((d.near(2.0), f"tau={d.near(1.5)},k=6"),
                         (d.near(0.5), f"tau=-{d.near(1.5)},k=9")):
        add("char-eval", "--family", "laguerre", "--alpha", alpha, "--state", state,
            "--x-grid", "0:3:40", "--w-grid=-2:2:40")
    # continuous states: 2 x sqrt(y1) runs past 25 as well
    for alpha, y1 in ((d.near(1.5), d.near(2.0)), (d.near(30.0), d.near(4.0))):
        add("char-eval", "--family", "laguerre", "--alpha", alpha, "--state", f"y1={y1}",
            "--x-grid", "0:8:20", "--w-grid=-1:1:3")
    # x y / t runs to ~1200, across the y = 600 switch of log i; one order is large
    for delta, t, x, top in ((d.near(1.5), d.near(0.5), d.near(1.2), "6"),
                             (d.near(3.0), "1", d.near(30.0, 0.01), "40"),
                             (d.near(60.0), "1", d.near(30.0, 0.01), "40")):
        add("bes-density", "--delta", delta, "--t", t, "--x", x, "--y-grid", f"0:{top}:200")
    # the second order sits just above 1, where x^(alpha-1) is not smooth at 0
    for alpha in (d.near(3.0), d.near(1.1)):
        add("hankel", "--alpha", alpha, "--function", "gaussian",
            "--u-grid", "0:4:16", "--cutoff", "12")
    add("hankel", "--alpha", d.near(4.0), "--function", "indicator", "--u-grid", "0:25:30")
    # Whole laws: near the crossing (~1e4 atoms), large-rate Poisson, large k,
    # all finite cases. These are not jittered: whether truncation reaches its
    # target depends on rounding in the atom probabilities, so a jittered law
    # failed on one seed in four and made law_atoms_per_s depend on the seed.
    # Two of them fail at the design point (see README.md, known defects).
    for delta, state, t in (
        ("1.3", "tau=-1,k=4", "0.996"),
        ("2", "tau=-1,k=0", "0.992"),
        ("0.9", "tau=-1.5,k=8", "1.496"),
        ("2.5", "y1=2000", "1"),
        ("2.5", "y1=2003.09", "1"),
        ("1", "y1=700", "1"),
        ("1.5", "tau=-0.5,k=200", "1.5"),
        ("3", "tau=2,k=300", "0.5"),
        ("0.7", "tau=-2,k=5", "0.5"),
    ):
        add("qbes-kernel", "--delta", delta, "--state", state, "--t", t)
    return job


def certify_job(seed: int) -> list[dict]:
    """The full verification suite exactly as users run it; no seed enters."""
    del seed
    return [{"kind": "verify", "argv": ["verify"]}]


def make_job(workload: str, seed: int) -> list[dict]:
    return {"simulate": simulate_job, "tabulate": tabulate_job,
            "certify": certify_job}[workload](seed)
