"""Seeded query designs for the three benchmark workloads.

A workload is a fixed design: which subcommands run on which graph sizes,
and how often per round. The seed draws only the free parameters inside
that design (vertex pairs, k, epsilon, time horizons, Erdos-Renyi edges)
and the order of the round. Every run repeats the same round, so the mix
of query kinds and sizes, and with it the latency distribution, is the
same whatever the seed.

Each query is a plain dict: ``kind``, ``graph``, ``u``, ``v``, the glwalk
``argv`` and the parameters the output checks need. This module does not
import glwalk; the program receives only the argv and the edge-list files.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("paper", "walks", "scale")

#: epsilon of every paper-regime peak and sweep; the guarantee is checked at it
PAPER_EPSILON = 0.1


def paper_k_min(graph: str, epsilon: float = PAPER_EPSILON) -> float | None:
    """Closed-form k_min for the paper graphs' marked pairs, or None.

    Path endpoints and the pair (0, 1) of bipartite:2,b are swapped by an
    automorphism (infinite cospectrality order), so
    k_min = 16 m^(3/2) / sqrt(eps) / |d1 - d2|.
    """
    kind, _, rest = graph.partition(":")
    if kind == "path":
        n = int(rest)
        if n < 3:
            return None
        m, spread = 2, 1
    else:
        b = int(rest.split(",")[1])
        m, spread = max(2, b), abs(b - 2)
    return 16.0 * m**1.5 / math.sqrt(epsilon) / spread


def query(kind: str, graph: str, u: int, v: int, *flags: str, **params) -> dict:
    argv = [kind, "--graph", graph, "--u", str(u), "--v", str(v), *flags]
    return {"kind": kind, "graph": graph, "u": u, "v": v, "argv": argv, **params}


def peak_query(graph, u, v, k, *flags, **params):
    return query("peak", graph, u, v, "--model", f"generalized:{k!r}", *flags, k=k, **params)


def fidelity_query(graph, u, v, k, tmax, samples):
    return query(
        "fidelity", graph, u, v, "--model", f"generalized:{k!r}",
        "--tmax", repr(tmax), "--samples", str(samples),
        k=k, tmax=tmax, samples=samples,
    )


def sweep_query(graph, u, v, kmin, kmax, steps, epsilon=None, *fallback: str, **params):
    flags = ["--kmin", repr(kmin), "--kmax", repr(kmax), "--steps", str(steps)]
    if epsilon is not None:
        flags += ["--epsilon", repr(epsilon)]
    return query(
        "sweep", graph, u, v, *flags, *fallback,
        kmin=kmin, kmax=kmax, steps=steps, epsilon=epsilon, **params,
    )


def bound_query(graph, u, v, epsilon):
    return query("bound", graph, u, v, "--epsilon", repr(epsilon), epsilon=epsilon)


def analyze_query(graph, u, v):
    return query("analyze", graph, u, v)


def _signed(rng: random.Random, magnitude: float) -> float:
    return magnitude if rng.random() < 0.5 else -magnitude


def paper_round(rng: random.Random) -> list[dict]:
    """8 queries per graph: 1 bound, 1 analyze, 1 fidelity, 3 peak, 2 sweep.

    Graphs: endpoints of path:2..path:6 and the pair (0, 1) of
    bipartite:2,b for b = 3..8, all with two degree classes (path:2 has one
    class, so it gets a second analyze in place of bound and its sweeps
    carry no threshold). The fast kinds fill the lowest 3/8 of the sorted
    latencies, peaks the next 3/8 and sweeps the top 1/4, so the median
    sits inside the peak band and the 90th percentile inside the sweep band.
    """
    graphs = [(f"path:{n}", 0, n - 1) for n in range(2, 7)]
    graphs += [(f"bipartite:2,{b}", 0, 1) for b in range(3, 9)]
    queries = []
    for graph, u, v in graphs:
        k_min = paper_k_min(graph)
        scale = k_min if k_min is not None else 100.0
        if k_min is not None:
            queries.append(bound_query(graph, u, v, rng.uniform(0.05, 0.3)))
        else:
            queries.append(analyze_query(graph, u, v))
        queries.append(analyze_query(graph, u, v))
        queries.append(fidelity_query(
            graph, u, v, _signed(rng, scale * rng.uniform(0.5, 1.5)),
            rng.uniform(5.0, 50.0), 500,
        ))
        for _ in range(3):
            queries.append(peak_query(
                graph, u, v, _signed(rng, scale * rng.uniform(0.5, 1.5)), paper=True,
            ))
        epsilon = PAPER_EPSILON if k_min is not None else None
        for _ in range(2):
            lo, hi = scale * rng.uniform(0.5, 0.9), scale * rng.uniform(1.1, 1.5)
            if rng.random() < 0.5:
                lo, hi = -hi, -lo
            queries.append(sweep_query(graph, u, v, lo, hi, 8, epsilon, paper=True))
    return queries


def walks_round(rng: random.Random) -> list[dict]:
    """14 queries per size n = 20, 30, 40, 50, 60 on paths and cycles.

    Twice per size: bound on the path endpoints (the only two-degree-class
    pair of a path), and analyze and small-|k| peak on a mirror path pair, a
    non-mirror path pair and a cycle pair. Two draws of each keep the seed's
    share of the round's cost small (which pairs hit the endpoints, the
    threshold path or a cospectral pair changes a query's cost several-fold).
    """
    queries = []
    for n in (20, 30, 40, 50, 60):
        path, cycle = f"path:{n}", f"cycle:{n}"
        for _ in range(2):
            mu = rng.randrange(n // 2)
            while True:
                a, b = sorted(rng.sample(range(n), 2))
                if a + b != n - 1:
                    break
            queries.append(bound_query(path, 0, n - 1, rng.uniform(0.05, 0.3)))
            pairs = ((path, (mu, n - 1 - mu)), (path, (a, b)), (cycle, tuple(sorted(rng.sample(range(n), 2)))))
            for graph, (u, v) in pairs:
                queries.append(analyze_query(graph, u, v))
                queries.append(peak_query(graph, u, v, _signed(rng, rng.uniform(0.1, 1.5))))
    return queries


def write_erdos_renyi(path: Path, n: int, rng: random.Random) -> None:
    """G(n, p = 10/n) as an edge-list file with an n= header."""
    p = 10.0 / n
    lines = [f"n={n}"]
    lines += [f"{i} {j}" for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def scale_round(rng: random.Random, input_dir: Path) -> list[dict]:
    """16 queries: sweep and fidelity on six large graphs, three 100001-sample
    grid peaks on path:60 / cycle:60, and one analyze on path:60.

    Sample counts are tied to graph size (samples x n stays within 3.0M to
    4.0M terms per curve) so the seed cannot move the cost of a curve.
    Sweeps use 4 steps and a 5001-sample grid fallback, which bounds the
    fallback's samples x n intermediate at about 30 MB. The grid peaks are
    the slowest kind and fill the top 3/16 of the sorted latencies, so the
    90th percentile sits inside their band.
    """
    queries = []
    sized = []
    for n, samples in ((150, 20000), (250, 15000), (350, 10000)):
        path = input_dir / f"er-{n}.txt"
        write_erdos_renyi(path, n, rng)
        sized.append((f"file:{path}", n, samples))
    sized += [("path:200", 200, 20000), ("cycle:300", 300, 10000), ("path:400", 400, 10000)]
    for graph, n, samples in sized:
        u, v = rng.sample(range(n), 2)
        queries.append(sweep_query(
            graph, u, v, -rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 4, None,
            "--tmax", "50", "--samples", "5001",
        ))
        u, v = rng.sample(range(n), 2)
        queries.append(fidelity_query(
            graph, u, v, rng.uniform(-2.0, 2.0), rng.uniform(10.0, 100.0), samples,
        ))
    mirror = rng.randrange(30)
    pairs = [("path:60", (mirror, 59 - mirror)), ("path:60", rng.sample(range(60), 2)),
             ("cycle:60", rng.sample(range(60), 2))]
    for graph, (u, v) in pairs:
        queries.append(peak_query(
            graph, u, v, rng.uniform(-2.0, 2.0),
            "--strategy", "grid", "--tmax", repr(rng.uniform(50.0, 200.0)),
        ))
    queries.append(analyze_query("path:60", *pairs[1][1]))
    return queries


def build_round(workload: str, seed: int, input_dir: Path) -> list[dict]:
    """The seeded round of one workload, in its seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper":
        queries = paper_round(rng)
    elif workload == "walks":
        queries = walks_round(rng)
    elif workload == "scale":
        queries = scale_round(rng, input_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(queries)
    return queries


#: one fixed, seed-independent query per workload, run before timing starts
WARMUP = {
    "paper": ["peak", "--graph", "path:6", "--model", "generalized:143", "--u", "0", "--v", "5"],
    "walks": ["analyze", "--graph", "path:40", "--u", "0", "--v", "39"],
    "scale": ["fidelity", "--graph", "path:200", "--model", "generalized:0.5",
              "--u", "0", "--v", "199", "--tmax", "50", "--samples", "5000"],
}
