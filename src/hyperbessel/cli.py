"""Command-line frontend.

Subcommands: qbes-kernel, qbes-sim, bes-density, bes-sim, char-eval, hankel,
verify. Tabular commands emit CSV (RFC-4180-style, LF endings) or JSON;
structured outputs (transition laws, verification reports) are JSON. Numbers
are serialized with 17 significant digits so output round-trips exactly.

Exit status: 0 on success, 1 on invalid parameters or an output that cannot
be written (single-line diagnostic on stderr), 2 when a verification check
fails. A warning is one stderr line, "hyperbessel: warning: <message>". Each
simulated path draws from its own seeded stream, so its rows do not depend
on --paths.

A command builds only its own parser from the one table of subcommands;
build_parser() assembles all of them, for --help and for an argv that names
no subcommand. Each handler imports the modules it runs: qbes-kernel and
bes-density import kernels, verify imports verify (its parser reads the
suite names from it), and json loads only for JSON tables; so qbes-sim and
bes-sim load neither kernels nor verify. A transition law is written by
kernels.law_json, and the verification reports by verify.reports_json. Other
CSV text comes from one % call per table, whose template holds every shared
cell formatted once. A path table's template is a path block of one row per
grid time (its time and the cells all paths share there, and on a discrete
step one cell per path taken from the level cells, formatted once per
distinct level), repeated once per path and filled in path order. A grid
table's template holds each grid coordinate formatted once. Other JSON is written
by json.dumps, a table a group of rows at a time. An empty grid gives no rows.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from contextlib import nullcontext
from itertools import chain, islice, product, repeat

import numpy as np

from . import sampling as sp
from .hypergroup import (
    BesselKingmanParams,
    ContinuousPoint,
    DiscretePoint,
    LaguerreParams,
    bk_character,
    bk_fourier,
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


def parse_state(text: str):
    """Fan-point syntax: 'tau=<real>,k=<int>' or 'y1=<real>'."""
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"bad state component {part!r}")
        key, _, val = (side.strip() for side in part.partition("="))
        if key in fields:
            raise CliError(f"repeated state component {key!r} in {text!r}")
        fields[key] = val
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
    """A path time grid, checked as the samplers check it."""
    grid = parse_grid(text)
    try:
        return sp._grid(grid)
    except ValueError:
        raise CliError("--t-grid must be finite, strictly increasing and start after 0") from None


def _emit(out: str | None, text):
    """text (a str, or str pieces) to the file out, or to stdout; a failed write is a CliError."""
    try:
        with open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as f:
            f.writelines([text] if isinstance(text, str) else text)
            f.flush()
    except OSError as exc:
        raise CliError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from None


def _emit_json(args, header: list[str], rows):
    """Rows (an iterator of tuples in header order) as a JSON list of objects, written a group
    of at most _GROUP rows at a time: json.dumps of a list is its items joined by ","."""
    import json
    groups = iter(lambda: [dict(zip(header, row)) for row in islice(rows, _GROUP)], [])
    _emit(args.out, chain("[", (("," if i else "") + json.dumps(group, separators=(",", ":"))[1:-1]
                                for i, group in enumerate(groups)), "]\n"))


def _emit_table(args, header: list[str], axes: list[list], cols: list[list]):
    """A table over the grid of axes (outer axis first), one row per grid
    point in row-major order, its values from cols (one list per value
    column, each in row order). In CSV each axis value is formatted once and
    its cells are joined into the leading cells of every row; one % call
    fills every value cell."""
    if args.format == "json":
        _emit_json(args, header, (lead + vals for lead, vals in zip(product(*axes), zip(*cols))))
        return
    leads = [",".join(cells) for cells in product(*[["%.17g" % v for v in a] for a in axes])]
    row = "%s" + ",%.17g" * len(cols) + "\n"
    _emit(args.out, ",".join(header) + "\n"
          + "".join([row] * len(leads)) % tuple(chain.from_iterable(zip(leads, *cols))))


def cmd_qbes_kernel(args) -> int:
    if args.format == "csv":
        raise CliError("qbes-kernel emits a structured law; use --format json")
    from . import kernels as kn
    law = kn.qbes_transition(parse_state(args.state), args.t, args.delta, args.trunc_eps)
    _emit(args.out, kn.law_json(law) + "\n")
    return 0


_SIM_HEADER = ["path_id", "time", "coord0", "coord1", "branch", "k"]
_SIM_CELLS = ("%d", "%.17g", "%.17g", "%.17g", "%s", "%d")
_COLUMN = (list, range)  # the cells of a path row that differ over the paths
_GROUP = 8192  # paths per % call of a CSV path table, rows per json.dumps of a JSON table


def _sim_template(row: tuple) -> str:
    """The % template of a CSV path row: each shared cell formatted once, and
    the spec of each column. A row short of the header ends in a column of
    str cells (a discrete step's level cells, formatted once per level)."""
    cells = [spec if isinstance(c, _COLUMN) else spec % c for spec, c in zip(_SIM_CELLS, row)]
    if len(row) < len(_SIM_CELLS):
        cells[-1] = "%s"
    return ",".join(cells) + "\n"


def _emit_sim(args, steps: list):
    """The path table, path by path, from the row of each grid time, in which
    each cell that differs over the paths is a column (path ids first).

    In CSV the row templates of all grid times form one path block; one % call per group of at
    most _GROUP paths fills it, repeated once per path, with the paths' own cells in path
    order, and writes it before the next group is made. A JSON row is a tuple for _emit_json."""
    if args.format == "json":
        per_time = [zip(*[c if isinstance(c, _COLUMN) else repeat(c) for c in row])
                    for row in steps]
        _emit_json(args, _SIM_HEADER, chain.from_iterable(zip(*per_time)))
        return
    block = "".join(_sim_template(row) for row in steps)
    paths = zip(*[c for row in steps for c in row if isinstance(c, _COLUMN)])
    sizes = [min(_GROUP, args.paths - lo) for lo in range(0, max(args.paths, 1), _GROUP)]
    _emit(args.out, ((("" if i else ",".join(_SIM_HEADER) + "\n") + block * n)
                     % tuple(chain.from_iterable(islice(paths, n))) for i, n in enumerate(sizes)))


def cmd_qbes_sim(args) -> int:
    start = parse_state(args.start)
    grid = parse_time_grid(args.t_grid)
    ids = range(args.paths)
    rng = sp.RngState.for_path(args.seed, ids)
    steps = []
    for t, (u, col) in zip(grid, sp.sample_qbes_lanes(start, grid, args.delta, rng)):
        vals = col.tolist()
        if u == 0.0:
            steps.append((ids, t, 0.0, vals, "continuous", -1))
        elif args.format == "json":  # a discrete point embeds as (tau, k |tau|)
            steps.append((ids, t, u, [k * abs(u) for k in vals], "discrete", vals))
        else:  # paths share a few levels: each level's cells are formatted once
            cells = {k: "%.17g,discrete,%d" % (k * abs(u), k) for k in set(vals)}
            steps.append((ids, t, u, [cells[k] for k in vals]))
    _emit_sim(args, steps)
    return 0


def cmd_bes_sim(args) -> int:
    grid = parse_time_grid(args.t_grid)
    if not 0.0 <= args.x0 < math.inf:
        raise CliError("--x0 must be finite and >= 0")
    ids = range(args.paths)
    rng = sp.RngState.for_path(args.seed, ids)
    _emit_sim(args, [(ids, t, col.tolist(), 0.0, "continuous", -1)
                     for t, col in zip(grid, sp.sample_bes_lanes(args.x0, grid, args.delta, rng))])
    return 0


def cmd_bes_density(args) -> int:
    from . import kernels as kn
    density = kn.BesDensity(args.delta, args.t, args.x)
    ys = parse_grid(args.y_grid)
    values = kn.bes_density(density, np.array(ys)).tolist()
    _emit_table(args, ["y", "density"], [ys], [values])
    return 0


def cmd_char_eval(args) -> int:
    # one array call over the grid, whose rows run through the second grid fastest;
    # a missing option errors, and so does the other family's, even if empty
    if args.family == "bk":
        if args.u_grid is None:
            raise CliError("char-eval --family bk requires --u-grid")
        if args.state is not None or args.w_grid is not None:
            raise CliError("char-eval --family bk takes no --state or --w-grid")
        p = BesselKingmanParams(args.alpha)
        axes = [parse_grid(args.u_grid), parse_grid(args.x_grid)]
        vals = bk_character(*np.meshgrid(*axes, indexing="ij"), p)
        _emit_table(args, ["u", "x", "value"], axes, [vals.ravel().tolist()])
        return 0
    if args.state is None or args.w_grid is None:
        raise CliError("char-eval --family laguerre requires --state and --w-grid")
    if args.u_grid is not None:
        raise CliError("char-eval --family laguerre takes no --u-grid")
    p = LaguerreParams(args.alpha)
    c = parse_state(args.state)
    axes = [parse_grid(args.x_grid), parse_grid(args.w_grid)]
    vals = lag_character(c, HeisPoint(*np.meshgrid(*axes, indexing="ij")), p).ravel()
    _emit_table(args, ["x", "w", "re", "im"], axes, [vals.real.tolist(), vals.imag.tolist()])
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
    us = parse_grid(args.u_grid)
    values = bk_fourier(f, np.array(us), p, spec, cutoff=cutoff)
    _emit_table(args, ["u", "value"], [us], [values.tolist()])
    return 0


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise CliError("verify emits structured reports; use --format json")
    from . import verify as vf
    spec = QuadratureSpec(nodes=args.nodes)
    reports = vf.run_suite(args.suite, spec, args.tol)
    if args.out:  # the JSON goes only to --out; stdout carries the summary
        _emit(args.out, vf.reports_json(reports) + "\n")
    n_failed = sum(not r.passed for r in reports)
    lines = []
    for r in reports:
        params = ",".join(f"{k}={v}" for k, v in r.params)
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.check_name} [{params}] "
                     f"max_abs_err={r.max_abs_err:.3e} tol={r.tol:.1e}\n")
    _emit(None, "".join(lines) + f"{len(reports) - n_failed}/{len(reports)} checks passed\n")
    return 2 if n_failed else 0


def _suite_keywords() -> dict:
    """--suite's keywords, read from verify only when the verify parser is built."""
    from . import verify as vf
    return dict(choices=vf.SUITE_NAMES)


_STATE_HELP = "tau=<real>,k=<int> or y1=<real>"
_REAL = dict(type=float, required=True)
_SIM_ARGS = [("--t-grid", dict(required=True, dest="t_grid")),
             ("--paths", dict(type=int, default=1)), ("--seed", dict(type=int, default=0))]

#: each subcommand once: name -> (help, handler, default --format, the
#: (flag, add_argument keywords, or a function returning them) of its options
#: before --out and --format)
_COMMANDS = {
    "qbes-kernel": ("serialize a one-step QBES transition law", cmd_qbes_kernel, "json", [
        ("--delta", _REAL), ("--state", dict(required=True, help=_STATE_HELP)), ("--t", _REAL),
        ("--trunc-eps", dict(type=float, default=1e-12, dest="trunc_eps"))]),
    "qbes-sim": ("simulate QBES paths to CSV", cmd_qbes_sim, "csv", [
        ("--delta", _REAL), ("--start", dict(required=True, help=_STATE_HELP)), *_SIM_ARGS]),
    "bes-sim": ("simulate BES paths to CSV", cmd_bes_sim, "csv",
                [("--delta", _REAL), ("--x0", _REAL), *_SIM_ARGS]),
    "bes-density": ("tabulate the BES transition density", cmd_bes_density, "csv", [
        ("--delta", _REAL), ("--t", _REAL), ("--x", _REAL),
        ("--y-grid", dict(required=True, dest="y_grid"))]),
    "char-eval": ("evaluate hypergroup characters on grids", cmd_char_eval, "csv", [
        ("--family", dict(choices=("bk", "laguerre"), required=True)), ("--alpha", _REAL),
        ("--u-grid", dict(dest="u_grid", help="bk family: character index grid")),
        ("--x-grid", dict(dest="x_grid", required=True)),
        ("--w-grid", dict(dest="w_grid", help="laguerre family: central coordinate grid")),
        ("--state", dict(help="laguerre family: fan point of the character"))]),
    "hankel": ("Haar-weighted transform of a built-in test function", cmd_hankel, "csv", [
        ("--alpha", _REAL), ("--function", dict(choices=sorted(_HANKEL_FUNCTIONS), required=True)),
        ("--u-grid", dict(required=True, dest="u_grid")),
        ("--cutoff", dict(type=float, default=30.0)), ("--tol", dict(type=float, default=1e-10))]),
    "verify": ("run the identity verification suite", cmd_verify, "json", [
        ("--suite", _suite_keywords), ("--tol", dict(type=float)),
        ("--nodes", dict(type=int, default=64))]),
}


def _command(parser: _Parser, name: str) -> _Parser:
    """parser with the options and handler of the subcommand name."""
    _, handler, fmt, options = _COMMANDS[name]
    for flag, keywords in options:
        parser.add_argument(flag, **(keywords() if callable(keywords) else keywords))
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=fmt)
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> _Parser:
    """Every subcommand's parser: for --help, and for an argv that names none."""
    parser = _Parser(prog="hyperbessel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, *_) in _COMMANDS.items():
        _command(sub.add_parser(name, help=help_), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by its subcommand's parser alone, or by build_parser()."""
    if argv and argv[0] in _COMMANDS:
        return _command(_Parser(prog=f"hyperbessel {argv[0]}"), argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def _show_warning(message, *_) -> None:
    """A warning as one line with no source location, so it reads the same
    from every install."""
    print(f"hyperbessel: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    shown, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.command in ("qbes-sim", "bes-sim") and args.paths < 0:
            raise CliError("--paths must be >= 0")
        if args.out:  # a missing directory fails before the work, and no file is made
            try:
                os.stat(os.path.join(os.path.dirname(args.out) or ".", ""))
            except OSError as exc:
                raise CliError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        return args.func(args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"hyperbessel: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
