"""Command-line front end.

Subcommands: fidelity | peak | sweep | bound | analyze. Output is CSV or
JSON (schema_version 1, fixed key order); identical flags always produce
byte-identical output. Each subcommand's handler returns its report: the
JSON fields after u and v, or CSV text. main parses the graph, checks the
vertex pair, hands the graph to the handler, adds the JSON header, writes
to --out or stdout, and maps each failure to a single-line JSON error
object on stderr and exit code 2 (usage, validation), 3 (numeric), or
4 (I/O). A named graph and its edge list take the same cospectrality
route: glwalk.cospectral decides which involution may prove a pair.

build_parser is the one declaration of the flags. Besides the argparse
parser it derives, per subcommand, a table of that subparser's own store
actions, defaults and required options. parse_args reads argv through the
table when every token after the subcommand is an exact option string, each
value-taking option is followed by a value (not dash-led unless it is a
negative number) that the option's type converts and its choices admit, and
every required option is present; it then returns the namespace argparse
would. Any other argv goes to argparse, so help, abbreviations,
--flag=value and usage errors are argparse's own. JSON reports are written
by json.dumps(report, indent=2), which runs json's C encoder from Python
3.13 on and its pure-Python encoder before.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from ._g17 import g17_rows
from .bounds import k_threshold_two_class
from .cospectral import (
    cospectrality,
    find_involution_pairing,
    parse_permutation,
    sign_pattern,
    verify_involution,
)
from .dynamics import GridSearch, TwoLevelSearch, fidelity_curve, peak_fidelity, sweep_peaks
from .errors import (
    ConvergenceError,
    CospectralityMismatchError,
    DegenerateGapError,
    InvolutionSearchLimitError,
    ThresholdHypothesisError,
)
from .graphs import Graph, complete_bipartite, cycle_graph, from_edge_list, path_graph
from .hamiltonians import hamiltonian_matrix, parse_model
from .spectral import eigendecompose, pair_spectrum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


#: argparse reads only -1 and -1.5 as negative numbers and takes -1.5e2 for an
#: option; every float literal with a leading minus is read as a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER
        #: subcommand -> (subparser, option string -> store action, defaults, required actions)
        self._tables = {}

    def error(self, message):  # argparse would sys.exit; surface as JSON instead
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        known = self._read(argv) if namespace is None else None
        return known if known is not None else super().parse_args(argv, namespace)

    def _read(self, argv: list) -> argparse.Namespace | None:
        """argparse's namespace for a well-formed argv (module docstring); None for any other."""
        table = self._tables.get(argv[0]) if argv else None
        if table is None:
            return None
        parser, options, defaults, required = table
        values, seen = dict(defaults), set()
        tokens = iter(argv[1:])
        for token in tokens:
            action = options.get(token)
            if action is None:
                return None
            if action.nargs == 0:
                value = action.const
            else:
                value = next(tokens, None)
                if value is None or (value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
                    return None
                try:
                    value = parser._get_value(action, value)
                    parser._check_value(action, value)
                except argparse.ArgumentError:
                    return None
            values[action.dest] = value
            seen.add(action)
        return argparse.Namespace(**values) if required <= seen else None


def _defaults(parser: argparse.ArgumentParser) -> dict:
    """What parse_known_args puts in a fresh namespace before it reads argv."""
    values = {
        action.dest: action.default
        for action in parser._actions
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
    }
    for dest, value in parser._defaults.items():
        values.setdefault(dest, value)
    return values


def _table(parser: argparse.ArgumentParser, sub, name: str) -> tuple:
    """(subparser, option string -> store action, defaults, required actions) of one subcommand."""
    p = sub.choices[name]
    options = {
        option: action
        for option, action in p._option_string_actions.items()
        if isinstance(action, argparse._StoreConstAction)
        or type(action) is argparse._StoreAction and action.nargs is None
    }
    defaults = _defaults(parser) | {sub.dest: name} | _defaults(p)
    return p, options, defaults, {action for action in p._actions if action.required}


def parse_graph(text: str) -> Graph:
    """Graph shorthand: path:<n>, cycle:<n>, bipartite:<a>,<b>, file:<path>."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"graph flag needs '<kind>:<params>', got {text!r}")
    try:
        if kind == "path":
            return path_graph(int(rest))
        if kind == "cycle":
            return cycle_graph(int(rest))
        if kind == "bipartite":
            a, b = rest.split(",")
            return complete_bipartite(int(a), int(b))
    except ValueError as exc:
        raise UsageError(f"bad graph flag {text!r}: {exc}") from None
    if kind == "file":
        with open(rest, "r", encoding="utf-8") as fh:
            return from_edge_list(fh.read())
    raise UsageError(f"unknown graph kind {kind!r}")


def _json_number(value: int | float):
    # JSON has no infinity; an infinite order or bound prints as "infinite"
    return "infinite" if math.isinf(value) else value


#: rows formatted per block; g17_rows holds about 350 bytes per value of a block
CSV_BLOCK_ROWS = 1024
#: below this many values (rows x columns) one % call is faster than g17_rows,
#: whose numpy steps cost over 100 us a call (both took about 0.3 ms for 384
#: values in 2 or 3 columns on a 2-vCPU x86-64 host)
CSV_KERNEL_MIN_VALUES = 384


def _csv(columns, *values) -> str:
    """CSV text: the header, then each row as 17-significant-digit values.

    values holds one sequence per column. The columns are stacked as float64
    (a 0/1 marker prints as 1 or 0 all the same) and formatted a block of
    rows at a time by _g17.g17_rows, which writes the bytes of '%.17g' % x.
    Small tables and tables with a non-finite value go through one % over a
    tuple of Python floats per block instead.
    """
    table = np.column_stack(values)
    parts = [",".join(columns) + "\n"]
    if table.size >= CSV_KERNEL_MIN_VALUES and np.isfinite(table).all():
        rows = g17_rows
    else:
        line = ",".join(["%.17g"] * len(columns)) + "\n"

        def rows(block):
            return line * len(block) % tuple(block.ravel().tolist())

    for start in range(0, len(table), CSV_BLOCK_ROWS):
        parts.append(rows(table[start : start + CSV_BLOCK_ROWS]))
    return "".join(parts)


def _pair_spectrum(args, graph: Graph):
    # the pair's record in the decomposition of the --model Hamiltonian
    return pair_spectrum(eigendecompose(hamiltonian_matrix(parse_model(args.model), graph)), args.u, args.v)


def _cmd_fidelity(args, graph: Graph) -> dict | str:
    curve = fidelity_curve(_pair_spectrum(args, graph), args.tmax, args.samples)
    if args.json:
        return {
            "times": curve.times.tolist(),
            "probabilities": curve.probabilities.tolist(),
        }
    return _csv(("t", "probability"), curve.times, curve.probabilities)


def _cmd_peak(args, graph: Graph) -> dict:
    pair = _pair_spectrum(args, graph)
    if args.strategy == "grid":
        strategy = GridSearch(t_max=args.tmax, samples=args.samples)
    else:
        strategy = TwoLevelSearch(
            refine_window_fraction=args.window, refine_samples=args.refine_samples
        )
    # strategy by keyword, where bench/tracing.py's peak_fidelity hook reads it
    peak = peak_fidelity(pair, strategy=strategy)
    try:
        res = k_threshold_two_class(graph, args.u, args.v, args.epsilon)
    except ThresholdHypothesisError as exc:
        threshold, order = None, exc.cospectrality_order
    except ValueError:  # raised before the cospectrality order was taken
        threshold, order = None, cospectrality(graph, args.u, args.v).order
    else:
        threshold = {
            "epsilon": args.epsilon,
            "q_min": _json_number(res.q_min),
            "k_min": _json_number(res.k_min),
            "t_bound": _json_number(res.t_bound),
        }
        order = res.cospectrality_order
    return {
        "fidelity": peak.fidelity,
        "probability": peak.fidelity**2,
        "t_star": peak.t_star,
        "method": peak.method,
        "threshold": threshold,
        "cospectrality_order": _json_number(order),
        "sign_pattern": [s.value for s in sign_pattern(pair).signs],
        "localization_mass_top_groups": sorted(pair.masses.tolist(), reverse=True)[:2],
    }


def _cmd_sweep(args, graph: Graph) -> dict | str:
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    if not (math.isfinite(args.kmin) and math.isfinite(args.kmax)):
        raise UsageError(f"--kmin and --kmax must be finite, got {args.kmin!r} and {args.kmax!r}")
    fallback = GridSearch(t_max=args.tmax, samples=args.samples)
    k_min_threshold = None
    if args.threshold or args.epsilon is not None:
        epsilon = args.epsilon if args.epsilon is not None else 0.1
        k_min_threshold = k_threshold_two_class(graph, args.u, args.v, epsilon).k_min
    ks = np.linspace(args.kmin, args.kmax, args.steps).tolist()
    peaks = sweep_peaks(graph, args.u, args.v, ks, fallback)
    rows = []
    crossed = False
    for k, peak in zip(ks, peaks):
        row = {"k": k, "fidelity": peak.fidelity, "t_star": peak.t_star}
        if k_min_threshold is not None:
            row["crosses_threshold"] = int(not crossed and abs(k) > k_min_threshold)
            crossed = crossed or row["crosses_threshold"] == 1
        rows.append(row)
    if args.json:
        if k_min_threshold is not None:
            k_min_threshold = _json_number(k_min_threshold)
        return {"k_min_threshold": k_min_threshold, "rows": rows}
    columns = list(rows[0])
    return _csv(columns, *([row[c] for row in rows] for c in columns))


def _cmd_bound(args, graph: Graph) -> dict:
    res = k_threshold_two_class(graph, args.u, args.v, args.epsilon)
    return {
        "epsilon": args.epsilon,
        "q_min": _json_number(res.q_min),
        "k_min": _json_number(res.k_min),
        "t_bound": _json_number(res.t_bound),
        "eps_exponent": res.eps_exponent,
        "degree_exponent": res.degree_exponent,
        "max_degree": graph.max_degree(),
        "distance": int(graph.distance(args.u, args.v)),
        "cospectrality_order": _json_number(res.cospectrality_order),
    }


def _cmd_analyze(args, graph: Graph) -> dict:
    involution = None
    searched = False
    if args.involution is not None:
        sigma = parse_permutation(args.involution, graph.n)
        if verify_involution(graph, sigma) and sigma[args.u] == args.v:
            involution = list(sigma)
    else:
        try:
            found = find_involution_pairing(graph, args.u, args.v)
            searched = True
            if found is not None:
                involution = list(found)
        except InvolutionSearchLimitError:
            pass
    adjacency = pair_spectrum(eigendecompose(graph.adjacency_matrix(with_loops=False)), args.u, args.v)
    cos = cospectrality(graph, args.u, args.v, adjacency, involution)
    divergence = None if cos.first_divergence is None else dataclasses.asdict(cos.first_divergence)
    return {
        "cospectrality_order": _json_number(cos.order),
        "first_divergence": divergence,
        "projector_cospectral": cos.infinite,
        "involution_searched": searched,
        "involution": involution,
        "sign_pattern": [s.value for s in sign_pattern(adjacency).signs],
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--graph", required=True, help="path:<n> | cycle:<n> | bipartite:<a>,<b> | file:<path>")
    common.add_argument("--u", type=int, required=True, help="source vertex")
    common.add_argument("--v", type=int, required=True, help="target vertex")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--json", action="store_true", help="JSON output for the CSV commands")

    p = sub.add_parser("fidelity", parents=[common], help="sample the transfer-probability curve as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_fidelity)

    p = sub.add_parser("peak", parents=[common], help="peak-fidelity search with diagnostics (JSON)")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=["two-level", "grid"], default="two-level")
    p.add_argument("--tmax", type=float, default=100.0, help="grid strategy horizon")
    p.add_argument("--samples", type=int, default=100001, help="grid strategy sample count")
    p.add_argument(
        "--window", type=float, default=0.5, help="two-level refinement window fraction (uncertified searches only)"
    )
    p.add_argument("--refine-samples", type=int, default=2000, help="window samples (uncertified searches only)")
    p.add_argument("--epsilon", type=float, default=0.1, help="epsilon for the reported threshold")
    p.set_defaults(handler=_cmd_peak)

    p = sub.add_parser("sweep", parents=[common], help="peak fidelity across a range of k (CSV)")
    p.add_argument("--kmin", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--threshold", action="store_true", help="add the threshold crossing marker column")
    p.add_argument("--epsilon", type=float, default=None, help="threshold level (implies --threshold; default 0.1)")
    p.add_argument("--tmax", type=float, default=200.0, help="grid fallback horizon")
    p.add_argument("--samples", type=int, default=100001, help="grid fallback sample count")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("bound", parents=[common], help="guaranteed threshold for the pair (JSON)")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("analyze", parents=[common], help="cospectrality and involution report (JSON)")
    p.add_argument("--involution", default=None, help="verify these comma-separated images instead of searching")
    p.set_defaults(handler=_cmd_analyze)

    parser._tables = {name: _table(parser, sub, name) for name in sub.choices}
    return parser


#: (exception type, JSON error type, exit code); the first row that matches wins
_ERRORS = (
    (UsageError, "usage", EXIT_USAGE),
    (DegenerateGapError, "degenerate-gap", EXIT_NUMERIC),
    (ConvergenceError, "convergence", EXIT_NUMERIC),
    (CospectralityMismatchError, "cospectrality-mismatch", EXIT_NUMERIC),
    (OverflowError, "overflow", EXIT_NUMERIC),
    (ValueError, "validation", EXIT_USAGE),
    (IndexError, "validation", EXIT_USAGE),
    (OSError, "io", EXIT_IO),
)


def _report(args) -> str:
    graph = parse_graph(args.graph)
    graph.check_vertex(args.u)
    graph.check_vertex(args.v)
    if args.command != "fidelity" and args.u == args.v:
        raise UsageError("--u and --v must name distinct vertices")
    body = args.handler(args, graph)
    if isinstance(body, str):
        return body
    header = {"schema_version": SCHEMA_VERSION, "graph": args.graph}
    if "model" in args:
        header["model"] = args.model
    return json.dumps(header | {"u": args.u, "v": args.v} | body, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = _report(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return EXIT_OK
    except tuple(row[0] for row in _ERRORS) as exc:
        kind, code = next((kind, code) for cls, kind, code in _ERRORS if isinstance(exc, cls))
        error = {"schema_version": SCHEMA_VERSION, "error": {"type": kind, "message": str(exc)}}
        print(json.dumps(error), file=sys.stderr)
        return code


def entry() -> None:
    raise SystemExit(main())
