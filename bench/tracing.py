"""Span tracing of glwalk's layers from outside the program.

Every public function of each glwalk module (and every public method of
``Graph``) is replaced by a timing wrapper wherever a caller resolves it:
the defining module and every module that imported the name. A span is
(query, name, start, end, parent); a layer's self time is its spans'
durations minus the part their child spans cover.

Spans stay in memory (up to SPAN_CAP) and are written out when the run
ends; per-layer totals are accumulated for every call regardless.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "hamiltonians", "spectral", "dynamics", "cospectral", "bounds")
SPAN_CAP = 200_000

#: inclusive-time metrics: metric name -> the functions whose spans it sums
INCLUSIVE = {
    "graphs.parse_ms": ("graphs.from_edge_list", "graphs.path_graph", "graphs.cycle_graph",
                        "graphs.complete_bipartite"),
    "hamiltonians.matrix_ms": ("hamiltonians.hamiltonian_matrix",),
    "spectral.eigendecompose_ms": ("spectral.eigendecompose",),
    "spectral.projectors_ms": ("spectral.spectral_projectors",),
    "dynamics.amplitude_series_ms": ("dynamics.amplitude_series",),
    "dynamics.candidate_ms": ("dynamics.two_level_candidate_time",),
    "cospectral.cospectrality_ms": ("cospectral.cospectrality",),
    "cospectral.walk_counts_ms": ("cospectral.closed_walk_counts",),
    "cospectral.sign_pattern_ms": ("cospectral.sign_pattern",),
    "cospectral.involution_ms": ("cospectral.find_involution_pairing", "cospectral.verify_involution"),
    "bounds.threshold_ms": ("bounds.k_threshold_two_class",),
}

#: call-count metrics: metric name -> function
CALLS = {
    "spectral.eigendecompose_calls": "spectral.eigendecompose",
    "dynamics.point_evals": "dynamics.evolution_amplitude",
    "cospectral.cospectrality_calls": "cospectral.cospectrality",
}

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("cli.import_ms", "ms", "lower"), ("cli.output_kb", "KB", "lower")]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [(name, "ms", "lower") for name in INCLUSIVE]
    + [(name, "count", "lower") for name in CALLS]
    + [
        ("spectral.projector_mb", "MB", "lower"),
        ("dynamics.amplitude_terms", "count", "lower"),
        ("dynamics.two_level_ratio", "ratio", "higher"),
        ("cospectral.walk_steps", "count", "lower"),
        ("cospectral.walk_steps_useful_ratio", "ratio", "higher"),
        ("trace.queries_per_s", "1/s", "higher"),
    ]
)


class Tracer:
    """Wraps glwalk's layers and accumulates spans and counters."""

    def __init__(self):
        self.query = -1
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._hooks = {
            "dynamics.amplitude_series": self._count_terms,
            "spectral.spectral_projectors": self._count_projector_bytes,
            "cospectral.closed_walk_counts": self._count_walk_steps,
            "cospectral.cospectrality": self._count_useful_steps,
            "dynamics.peak_fidelity": self._count_two_level,
        }

    def reset(self) -> None:
        """Forget everything recorded so far (used after the warm-up query)."""
        self.spans.clear()
        self.spans_dropped = 0
        for table in (self.inclusive, self.self_time, self.calls, self.counters):
            table.clear()

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"glwalk.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("glwalk"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, wrapper)
        graph_cls = modules["graphs"].Graph
        for attr, fn in list(vars(graph_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                setattr(graph_cls, attr, self._wrap("graphs", f"graphs.Graph.{attr}", fn))

    def _wrap(self, layer: str, name: str, fn):
        stack, spans = self._stack, self.spans
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            span_id = len(spans) if len(spans) < SPAN_CAP else -1
            if span_id >= 0:
                spans.append(None)
            else:
                self.spans_dropped += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self.self_time[layer] += duration - frame[1]
                self.inclusive[name] += duration
                self.calls[name] += 1
                if span_id >= 0:
                    spans[span_id] = (self.query, name, frame[0], end, parent)
                if hook is not None:
                    hook(args, kwargs, result, exc)

        return traced

    def _count_terms(self, args, kwargs, result, exc):
        dec, times = args[0], args[1]
        self.counters["amplitude_terms"] += dec.n * len(times)

    def _count_projector_bytes(self, args, kwargs, result, exc):
        dec = args[0]
        self.counters["projector_bytes"] += len(dec.groups) * dec.n * dec.n * 8

    def _count_walk_steps(self, args, kwargs, result, exc):
        self.counters["walk_steps"] += args[2] if len(args) > 2 else kwargs["k_max"]

    def _count_useful_steps(self, args, kwargs, result, exc):
        if result is None:
            return
        divergence = result.first_divergence
        length = divergence.length if divergence is not None else 2 * args[0].n
        self.counters["walk_steps_useful"] += 2 * length

    def _count_two_level(self, args, kwargs, result, exc):
        strategy = args[3] if len(args) > 3 else kwargs["strategy"]
        if type(strategy).__name__ == "TwoLevelSearch":
            self.counters["two_level_attempts"] += 1
            self.counters["two_level_settled"] += result is not None

    def metrics(self, queries: int, query_seconds: float, output_bytes: int, import_ms: float) -> dict:
        """Per-query layer metrics (times in ms, counts per query)."""
        per = 1.0 / queries
        c = self.counters
        values = {
            "cli.import_ms": import_ms,
            "cli.output_kb": output_bytes / 1024.0 * per,
            **{f"{layer}.self_ms": self.self_time[layer] * 1e3 * per for layer in LAYERS},
            **{m: sum(self.inclusive[f] for f in fns) * 1e3 * per for m, fns in INCLUSIVE.items()},
            **{m: self.calls[f] * per for m, f in CALLS.items()},
            "spectral.projector_mb": c["projector_bytes"] / 1e6 * per,
            "dynamics.amplitude_terms": c["amplitude_terms"] * per,
            "dynamics.two_level_ratio": c["two_level_settled"] / max(c["two_level_attempts"], 1.0),
            "cospectral.walk_steps": c["walk_steps"] * per,
            "cospectral.walk_steps_useful_ratio": c["walk_steps_useful"] / max(c["walk_steps"], 1.0),
            "trace.queries_per_s": queries / query_seconds,
        }
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    def dump(self, path, queries: list[dict]) -> None:
        """Write the recorded spans (times in microseconds) and the query table."""
        origin = min((s[2] for s in self.spans if s is not None), default=0.0)
        doc = {
            "format": "span = [query, name, start_us, end_us, parent_span]; "
                      "timed query q ran queries[q % len(queries)]",
            "queries": [" ".join(q["argv"]) for q in queries],
            "spans_dropped": self.spans_dropped,
            "spans": [
                [s[0], s[1], round((s[2] - origin) * 1e6, 3), round((s[3] - origin) * 1e6, 3), s[4]]
                for s in self.spans
                if s is not None
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
