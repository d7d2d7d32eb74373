"""Command-line front end.

Subcommands: fidelity | peak | sweep | bound | analyze. Output is CSV or
JSON (schema_version 1, fixed key order); identical flags always produce
byte-identical output. Each subcommand's handler returns its report: the
JSON fields after u and v, or CSV text. main parses the graph, checks the
vertex pair, adds the JSON header, writes to --out or stdout, and maps each
failure to a single-line JSON error object on stderr and exit code 2
(usage, validation), 3 (numeric), or 4 (I/O).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .bounds import k_threshold_two_class
from .cospectral import (
    cospectrality,
    find_involution_pairing,
    parse_permutation,
    sign_pattern,
    verify_involution,
)
from .dynamics import GridSearch, TwoLevelSearch, fidelity_curve, peak_fidelity
from .errors import (
    ConvergenceError,
    CospectralityMismatchError,
    DegenerateGapError,
    InvolutionSearchLimitError,
    ThresholdHypothesisError,
)
from .graphs import Graph, complete_bipartite, cycle_graph, from_edge_list, path_graph
from .hamiltonians import Generalized, HamiltonianSpec, Model, hamiltonian_matrix, parse_model
from .spectral import eigendecompose, localization_mass

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface as JSON instead
        raise UsageError(message)


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


def _order_json(order: int | float):
    return "infinite" if math.isinf(order) else int(order)


def _csv(columns, rows) -> str:
    """CSV text: the header, then each row as 17-significant-digit values."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + "".join(line % row for row in rows)


def _decompose(graph: Graph, model: Model):
    return eigendecompose(hamiltonian_matrix(HamiltonianSpec(model, graph)))


def _cmd_fidelity(args, graph: Graph) -> dict | str:
    dec = _decompose(graph, parse_model(args.model))
    curve = fidelity_curve(dec, args.u, args.v, args.tmax, args.samples)
    if args.json:
        return {
            "times": [float(t) for t in curve.times],
            "probabilities": [float(p) for p in curve.probabilities],
        }
    return _csv(("t", "probability"), zip(curve.times, curve.probabilities))


def _cmd_peak(args, graph: Graph) -> dict:
    dec = _decompose(graph, parse_model(args.model))
    if args.strategy == "grid":
        strategy = GridSearch(t_max=args.tmax, samples=args.samples)
    else:
        strategy = TwoLevelSearch(
            refine_window_fraction=args.window, refine_samples=args.refine_samples
        )
    peak = peak_fidelity(dec, args.u, args.v, strategy)
    try:
        res = k_threshold_two_class(graph, args.u, args.v, args.epsilon)
    except ThresholdHypothesisError as exc:
        threshold, order = None, exc.cospectrality_order
    except ValueError:  # raised before any walk was counted
        threshold, order = None, cospectrality(graph, args.u, args.v).order
    else:
        threshold = {"epsilon": args.epsilon, "q_min": res.q_min, "k_min": res.k_min, "t_bound": res.t_bound}
        order = res.cospectrality_order
    signs = sign_pattern(dec, args.u, args.v)
    masses = localization_mass(dec, args.u, args.v)
    top_masses = sorted((float(m) for m in masses), reverse=True)[:2]
    return {
        "fidelity": peak.fidelity,
        "probability": peak.fidelity**2,
        "t_star": peak.t_star,
        "method": peak.method,
        "threshold": threshold,
        "cospectrality_order": _order_json(order),
        "sign_pattern": [s.value for s in signs.signs],
        "localization_mass_top_groups": top_masses,
    }


def _cmd_sweep(args, graph: Graph) -> dict | str:
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    if not (math.isfinite(args.kmin) and math.isfinite(args.kmax)):
        raise UsageError(f"--kmin and --kmax must be finite, got {args.kmin!r} and {args.kmax!r}")
    k_min_threshold = None
    if args.threshold or args.epsilon is not None:
        epsilon = args.epsilon if args.epsilon is not None else 0.1
        k_min_threshold = k_threshold_two_class(graph, args.u, args.v, epsilon).k_min
    rows = []
    crossed = False
    for k in np.linspace(args.kmin, args.kmax, args.steps):
        dec = _decompose(graph, Generalized(float(k)))
        try:
            peak = peak_fidelity(dec, args.u, args.v, TwoLevelSearch())
        except DegenerateGapError:
            peak = peak_fidelity(dec, args.u, args.v, GridSearch(t_max=args.tmax, samples=args.samples))
        row = {"k": float(k), "fidelity": peak.fidelity, "t_star": peak.t_star}
        if k_min_threshold is not None:
            row["crosses_threshold"] = int(not crossed and abs(row["k"]) > k_min_threshold)
            crossed = crossed or row["crosses_threshold"] == 1
        rows.append(row)
    if args.json:
        return {"k_min_threshold": k_min_threshold, "rows": rows}
    return _csv(list(rows[0]), (tuple(row.values()) for row in rows))


def _cmd_bound(args, graph: Graph) -> dict:
    res = k_threshold_two_class(graph, args.u, args.v, args.epsilon)
    return {
        "epsilon": args.epsilon,
        "q_min": res.q_min,
        "k_min": res.k_min,
        "t_bound": res.t_bound,
        "eps_exponent": res.eps_exponent,
        "degree_exponent": res.degree_exponent,
        "max_degree": graph.max_degree(),
        "distance": int(graph.distance(args.u, args.v)),
        "cospectrality_order": _order_json(res.cospectrality_order),
    }


def _cmd_analyze(args, graph: Graph) -> dict:
    cos = cospectrality(graph, args.u, args.v)
    signs = sign_pattern(eigendecompose(graph.adjacency_matrix(with_loops=False)), args.u, args.v)
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
            searched = False
    divergence = None if cos.first_divergence is None else dataclasses.asdict(cos.first_divergence)
    return {
        "cospectrality_order": _order_json(cos.order),
        "first_divergence": divergence,
        "projector_cospectral": cos.projector_cospectral,
        "involution_searched": searched,
        "involution": involution,
        "sign_pattern": [s.value for s in signs.signs],
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
    p.add_argument("--window", type=float, default=0.5, help="two-level refinement window fraction")
    p.add_argument("--refine-samples", type=int, default=2000)
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
