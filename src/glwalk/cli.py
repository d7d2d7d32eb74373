"""Command-line front end.

Subcommands: fidelity | peak | sweep | bound | analyze. Output is CSV or
JSON (schema_version 1, fixed key order); identical flags always produce
byte-identical output. Failures print a single-line JSON error object to
stderr and exit with 2 (validation), 3 (numeric), or 4 (I/O).
"""

from __future__ import annotations

import argparse
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
    DegenerateGapError,
    InvolutionSearchLimitError,
    WalkCountOverflowError,
)
from .graphs import Graph, complete_bipartite, cycle_graph, from_edge_list, path_graph
from .hamiltonians import Generalized, HamiltonianSpec, hamiltonian_matrix, parse_model
from .spectral import eigendecompose, localization_mass, spectral_projectors

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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _decompose(graph: Graph, model_text: str):
    model = parse_model(model_text)
    return model, eigendecompose(hamiltonian_matrix(HamiltonianSpec(model, graph)))


def _check_pair(graph: Graph, u: int, v: int, distinct: bool) -> None:
    graph.check_vertex(u)
    graph.check_vertex(v)
    if distinct and u == v:
        raise UsageError("--u and --v must name distinct vertices")


def _cmd_fidelity(args) -> None:
    graph = parse_graph(args.graph)
    _check_pair(graph, args.u, args.v, distinct=False)
    _, dec = _decompose(graph, args.model)
    curve = fidelity_curve(dec, args.u, args.v, args.tmax, args.samples)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "graph": args.graph,
            "model": args.model,
            "u": args.u,
            "v": args.v,
            "times": [float(t) for t in curve.times],
            "probabilities": [float(p) for p in curve.probabilities],
        }
        _write(json.dumps(report, indent=2) + "\n", args.out)
        return
    lines = ["t,probability"]
    lines.extend(f"{_fmt(t)},{_fmt(p)}" for t, p in zip(curve.times, curve.probabilities))
    _write("\n".join(lines) + "\n", args.out)


def _cmd_peak(args) -> None:
    graph = parse_graph(args.graph)
    _check_pair(graph, args.u, args.v, distinct=True)
    _, dec = _decompose(graph, args.model)
    if args.strategy == "grid":
        strategy = GridSearch(t_max=args.tmax, samples=args.samples)
    else:
        strategy = TwoLevelSearch(
            refine_window_fraction=args.window, refine_samples=args.refine_samples
        )
    peak = peak_fidelity(dec, args.u, args.v, strategy)
    try:
        res = k_threshold_two_class(graph, args.u, args.v, args.epsilon)
    except ValueError:
        threshold = None
        order = cospectrality(graph, args.u, args.v).order
    else:
        threshold = {"epsilon": args.epsilon, "q_min": res.q_min, "k_min": res.k_min, "t_bound": res.t_bound}
        order = res.cospectrality_order
    projectors = spectral_projectors(dec)
    signs = sign_pattern(projectors, args.u, args.v)
    masses = localization_mass(projectors, args.u, args.v)
    top_masses = sorted((float(m) for m in masses), reverse=True)[:2]
    report = {
        "schema_version": SCHEMA_VERSION,
        "graph": args.graph,
        "model": args.model,
        "u": args.u,
        "v": args.v,
        "fidelity": peak.fidelity,
        "probability": peak.fidelity**2,
        "t_star": peak.t_star,
        "method": peak.method,
        "threshold": threshold,
        "cospectrality_order": _order_json(order),
        "sign_pattern": [s.value for s in signs.signs],
        "localization_mass_top_groups": top_masses,
    }
    _write(json.dumps(report, indent=2) + "\n", args.out)


def _cmd_sweep(args) -> None:
    graph = parse_graph(args.graph)
    _check_pair(graph, args.u, args.v, distinct=True)
    k_min_threshold = None
    if args.threshold or args.epsilon is not None:
        epsilon = args.epsilon if args.epsilon is not None else 0.1
        k_min_threshold = k_threshold_two_class(graph, args.u, args.v, epsilon).k_min
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    ks = np.linspace(args.kmin, args.kmax, args.steps)
    header = "k,fidelity,t_star"
    if k_min_threshold is not None:
        header += ",crosses_threshold"
    rows = []
    crossed = False
    for k in ks:
        dec = eigendecompose(hamiltonian_matrix(HamiltonianSpec(Generalized(float(k)), graph)))
        try:
            peak = peak_fidelity(dec, args.u, args.v, TwoLevelSearch())
        except DegenerateGapError:
            peak = peak_fidelity(dec, args.u, args.v, GridSearch(t_max=args.tmax, samples=args.samples))
        marker = None
        if k_min_threshold is not None:
            marker = 0
            if not crossed and abs(float(k)) > k_min_threshold:
                marker = 1
                crossed = True
        rows.append((float(k), peak.fidelity, peak.t_star, marker))
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "graph": args.graph,
            "u": args.u,
            "v": args.v,
            "k_min_threshold": k_min_threshold,
            "rows": [
                {"k": k, "fidelity": f, "t_star": t}
                | ({} if marker is None else {"crosses_threshold": marker})
                for k, f, t, marker in rows
            ],
        }
        _write(json.dumps(report, indent=2) + "\n", args.out)
        return
    lines = [header]
    for k, f, t, marker in rows:
        row = f"{_fmt(k)},{_fmt(f)},{_fmt(t)}"
        if marker is not None:
            row += f",{marker}"
        lines.append(row)
    _write("\n".join(lines) + "\n", args.out)


def _cmd_bound(args) -> None:
    graph = parse_graph(args.graph)
    _check_pair(graph, args.u, args.v, distinct=True)
    res = k_threshold_two_class(graph, args.u, args.v, args.epsilon)
    report = {
        "schema_version": SCHEMA_VERSION,
        "graph": args.graph,
        "u": args.u,
        "v": args.v,
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
    _write(json.dumps(report, indent=2) + "\n", args.out)


def _cmd_analyze(args) -> None:
    graph = parse_graph(args.graph)
    _check_pair(graph, args.u, args.v, distinct=True)
    cos = cospectrality(graph, args.u, args.v)
    dec = eigendecompose(graph.adjacency_matrix(with_loops=False))
    signs = sign_pattern(spectral_projectors(dec), args.u, args.v)
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
    divergence = None
    if cos.first_divergence is not None:
        divergence = {
            "length": cos.first_divergence.length,
            "count_u": cos.first_divergence.count_u,
            "count_v": cos.first_divergence.count_v,
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "graph": args.graph,
        "u": args.u,
        "v": args.v,
        "cospectrality_order": _order_json(cos.order),
        "first_divergence": divergence,
        "projector_cospectral": cos.projector_cospectral,
        "involution_searched": searched,
        "involution": involution,
        "sign_pattern": [s.value for s in signs.signs],
    }
    _write(json.dumps(report, indent=2) + "\n", args.out)


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


def _fail(kind: str, exc: BaseException, code: int) -> int:
    line = json.dumps(
        {"schema_version": SCHEMA_VERSION, "error": {"type": kind, "message": str(exc)}}
    )
    print(line, file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return EXIT_OK
    except UsageError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except (DegenerateGapError, ConvergenceError, WalkCountOverflowError, OverflowError) as exc:
        kind = {
            DegenerateGapError: "degenerate-gap",
            ConvergenceError: "convergence",
        }.get(type(exc), "overflow")
        return _fail(kind, exc, EXIT_NUMERIC)
    except (ValueError, IndexError) as exc:
        return _fail("validation", exc, EXIT_USAGE)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)


def entry() -> None:
    raise SystemExit(main())
