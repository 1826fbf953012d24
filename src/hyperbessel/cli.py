"""Command-line frontend.

Subcommands: qbes-kernel, qbes-sim, bes-density, bes-sim, char-eval, hankel,
verify. Tabular commands emit CSV (RFC-4180-style, LF endings) or JSON;
structured outputs (transition laws, verification reports) are JSON. Numbers
are serialized with 17 significant digits so output round-trips exactly.

Exit status: 0 on success, 1 on invalid parameters (single-line diagnostic on
stderr), 2 when a verification check fails. Each simulated path draws from
its own seeded stream, so its rows do not depend on --paths.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import kernels as kn
from . import sampling as sp
from . import verify as vf
from .hypergroup import (
    BesselKingmanParams,
    ContinuousPoint,
    DiscretePoint,
    LaguerreParams,
    bk_character,
    bk_fourier,
    fan_coords,
    lag_character,
    HeisPoint,
)
from .quadrature import QuadratureSpec

__all__ = ["main"]


class CliError(ValueError):
    """Invalid command-line parameters (exit status 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def parse_state(text: str):
    """Fan-point syntax: 'tau=<real>,k=<int>' or 'y1=<real>'."""
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"bad state component {part!r}")
        key, _, val = part.partition("=")
        fields[key.strip()] = val.strip()
    try:
        if set(fields) == {"tau", "k"}:
            return DiscretePoint(float(fields["tau"]), int(fields["k"]))
        if set(fields) == {"y1"}:
            return ContinuousPoint(float(fields["y1"]))
    except ValueError as exc:
        raise CliError(f"invalid state {text!r}: {exc}") from exc
    raise CliError(f"state must be 'tau=<real>,k=<int>' or 'y1=<real>', got {text!r}")


def parse_grid(text: str) -> list[float]:
    """Comma list '0.5,1.0' or linspace 'start:stop:count'."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"invalid grid {text!r}: {exc}") from exc


def parse_time_grid(text: str) -> list[float]:
    """A path time grid: strictly increasing and starting after 0."""
    grid = parse_grid(text)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] <= 0.0:
        raise CliError("--t-grid must be strictly increasing and start after 0")
    return grid


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, header: list[str], rows: list[list]):
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(payload, indent=None, separators=(",", ":")) + "\n")
        return
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit(args, "\n".join(lines) + "\n")


def cmd_qbes_kernel(args) -> int:
    if args.format == "csv":
        raise CliError("qbes-kernel emits a structured law; use --format json")
    law = kn.qbes_transition(parse_state(args.state), args.t, args.delta, args.trunc_eps)
    _emit(args, json.dumps(kn.law_to_dict(law)) + "\n")
    return 0


def _path_rows(path: sp.PathSample) -> list[list]:
    rows = []
    for t, state in zip(path.times, path.states):
        coord0, coord1 = fan_coords(state)
        if isinstance(state, DiscretePoint):
            rows.append([path.path_id, t, coord0, coord1, "discrete", state.k])
        else:
            rows.append([path.path_id, t, coord0, coord1, "continuous", -1])
    return rows


def cmd_qbes_sim(args) -> int:
    start = parse_state(args.start)
    grid = parse_time_grid(args.t_grid)
    paths = [sp.sample_qbes_path(start, grid, args.delta,
                                 sp.RngState.for_path(args.seed, pid), path_id=pid)
             for pid in range(args.paths)]
    rows = [row for path in paths for row in _path_rows(path)]
    _emit_table(args, ["path_id", "time", "coord0", "coord1", "branch", "k"], rows)
    return 0


def cmd_bes_sim(args) -> int:
    grid = parse_time_grid(args.t_grid)
    if args.x0 < 0.0:
        raise CliError("--x0 must be >= 0")
    paths = [sp.sample_bes_path(args.x0, grid, args.delta,
                                sp.RngState.for_path(args.seed, pid), path_id=pid)
             for pid in range(args.paths)]
    rows = [[p.path_id, t, y, 0.0, "continuous", -1]
            for p in paths for t, y in zip(p.times, p.states)]
    _emit_table(args, ["path_id", "time", "coord0", "coord1", "branch", "k"], rows)
    return 0


def cmd_bes_density(args) -> int:
    density = kn.BesDensity(args.delta, args.t, args.x)
    ys = parse_grid(args.y_grid)
    rows = [[y, kn.bes_density(density, y)] for y in ys]
    _emit_table(args, ["y", "density"], rows)
    return 0


def cmd_char_eval(args) -> int:
    rows: list[list] = []
    if args.family == "bk":
        p = BesselKingmanParams(args.alpha)
        for u in parse_grid(args.u_grid):
            for x in parse_grid(args.x_grid):
                rows.append([u, x, bk_character(u, x, p)])
        _emit_table(args, ["u", "x", "value"], rows)
        return 0
    p = LaguerreParams(args.alpha)
    c = parse_state(args.state)
    for x in parse_grid(args.x_grid):
        for w in parse_grid(args.w_grid):
            val = lag_character(c, HeisPoint(x, w), p)
            rows.append([x, w, val.real, val.imag])
    _emit_table(args, ["x", "w", "re", "im"], rows)
    return 0


_HANKEL_FUNCTIONS = {
    "gaussian": lambda xs: np.exp(-0.5 * xs * xs),
    "indicator": lambda xs: np.where(xs <= 1.0, 1.0, 0.0),
}


def cmd_hankel(args) -> int:
    p = BesselKingmanParams(args.alpha)
    f = _HANKEL_FUNCTIONS[args.function]
    spec = QuadratureSpec(abs_tol=args.tol)
    # the indicator vanishes beyond 1, so cut just past its support edge
    cutoff = min(args.cutoff, math.nextafter(1.0, 2.0)) if args.function == "indicator" \
        else args.cutoff
    rows = [[u, bk_fourier(f, u, p, spec, cutoff=cutoff)] for u in parse_grid(args.u_grid)]
    _emit_table(args, ["u", "value"], rows)
    return 0


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise CliError("verify emits structured reports; use --format json")
    spec = QuadratureSpec(nodes=args.nodes)
    reports = vf.run_suite(args.suite, spec, args.tol)
    payload = [vf.report_to_dict(r) for r in reports]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    n_failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        n_failed += 0 if r.passed else 1
        params = ",".join(f"{k}={v}" for k, v in r.params)
        print(f"{status} {r.check_name} [{params}] max_abs_err={r.max_abs_err:.3e} "
              f"tol={r.tol:.1e}")
    print(f"{len(reports) - n_failed}/{len(reports)} checks passed")
    return 2 if n_failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperbessel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp_, fmt_default="csv"):
        sp_.add_argument("--out", default=None, help="output file (default stdout)")
        sp_.add_argument("--format", choices=("csv", "json"), default=fmt_default)

    p = sub.add_parser("qbes-kernel", help="serialize a one-step QBES transition law")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--state", required=True, help="tau=<real>,k=<int> or y1=<real>")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--trunc-eps", type=float, default=1e-12, dest="trunc_eps")
    add_common(p, fmt_default="json")
    p.set_defaults(func=cmd_qbes_kernel)

    p = sub.add_parser("qbes-sim", help="simulate QBES paths to CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--start", required=True, help="tau=<real>,k=<int> or y1=<real>")
    p.add_argument("--t-grid", required=True, dest="t_grid")
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_qbes_sim)

    p = sub.add_parser("bes-sim", help="simulate BES paths to CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--t-grid", required=True, dest="t_grid")
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_bes_sim)

    p = sub.add_parser("bes-density", help="tabulate the BES transition density")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y-grid", required=True, dest="y_grid")
    add_common(p)
    p.set_defaults(func=cmd_bes_density)

    p = sub.add_parser("char-eval", help="evaluate hypergroup characters on grids")
    p.add_argument("--family", choices=("bk", "laguerre"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--u-grid", dest="u_grid", help="bk family: character index grid")
    p.add_argument("--x-grid", dest="x_grid", required=True)
    p.add_argument("--w-grid", dest="w_grid", help="laguerre family: central coordinate grid")
    p.add_argument("--state", help="laguerre family: fan point of the character")
    add_common(p)
    p.set_defaults(func=cmd_char_eval)

    p = sub.add_parser("hankel", help="Haar-weighted transform of a built-in test function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--function", choices=sorted(_HANKEL_FUNCTIONS), required=True)
    p.add_argument("--u-grid", required=True, dest="u_grid")
    p.add_argument("--cutoff", type=float, default=30.0)
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--suite", choices=vf.SUITE_NAMES, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--nodes", type=int, default=64)
    add_common(p, fmt_default="json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "char-eval":
            if args.family == "bk" and not args.u_grid:
                raise CliError("char-eval --family bk requires --u-grid")
            if args.family == "laguerre" and not (args.state and args.w_grid):
                raise CliError("char-eval --family laguerre requires --state and --w-grid")
        return args.func(args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"hyperbessel: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
