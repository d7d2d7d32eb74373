"""Seeded random instance generators shared by the property tests."""

from __future__ import annotations

import numpy as np

from glwalk import (
    Adjacency,
    Generalized,
    Graph,
    Laplacian,
    LoopPerturbed,
    Model,
    SignlessLaplacian,
    complete_bipartite,
    cycle_graph,
    path_graph,
    verify_involution,
)
from glwalk.cospectral import _mirror_candidates


def random_graph(rng: np.random.Generator, n_max: int = 12, allow_loops: bool = True) -> Graph:
    """Erdos-Renyi graph on 2..n_max vertices, sometimes with loop weights."""
    n = int(rng.integers(2, n_max + 1))
    p = float(rng.uniform(0.2, 0.7))
    edges = {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    }
    loops: dict[int, float] = {}
    if allow_loops and rng.random() < 0.3:
        picked = rng.choice(n, size=min(2, n), replace=False)
        loops = {int(v): float(rng.uniform(-3.0, 3.0)) for v in picked}
    return Graph(n=n, edges=frozenset(edges), loop_weights=loops)


def structured_graph(rng: np.random.Generator, n_max: int = 12) -> Graph:
    """Path, cycle, or complete bipartite graph; these carry involutions."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return path_graph(int(rng.integers(2, n_max + 1)))
    if kind == 1:
        return cycle_graph(int(rng.integers(3, n_max + 1)))
    a = int(rng.integers(1, 4))
    b = int(rng.integers(1, max(2, n_max - a) + 1))
    return complete_bipartite(a, b)


def mirror_pair(g: Graph, rng: np.random.Generator) -> tuple[int, int]:
    """A vertex pair likely to be swapped by an automorphism of a structured graph."""
    u = int(rng.integers(0, g.n))
    v = g.n - 1 - u
    if u == v:
        v = (u + 1) % g.n
    return u, v


#: the path 0-1-2-4-3-5: the reversal (5, 3, 4, 1, 2, 0) swaps its endpoints but neither
#: closed-form candidate does, so cospectrality counts their walks and cross-checks them
PATH6_RELABELLED = "n=6\n0 1\n1 2\n2 4\n3 4\n3 5\n"


def relabelled(g: Graph, u: int, v: int, rng: np.random.Generator, draws: int = 100) -> tuple[Graph, int, int]:
    """g under a seeded random vertex relabelling, and the new labels of u and v.

    Relabellings are drawn until neither closed-form candidate of
    glwalk.cospectral (the reflection and the transposition of the pair) is
    an automorphism, so cospectrality counts the pair's walks; after draws
    tries the last one is returned. Twins, such as two vertices on one side
    of a complete bipartite graph, keep their transposition under every
    relabelling.
    """
    for _ in range(draws):
        label = rng.permutation(g.n).tolist()
        h = Graph(
            n=g.n,
            edges=frozenset((label[a], label[b]) for a, b in g.edges),
            loop_weights={label[x]: q for x, q in g.loop_weights.items()},
        )
        a, b = label[u], label[v]
        if not any(verify_involution(h, sigma) for sigma in _mirror_candidates(h.n, a, b)):
            break
    return h, a, b


def random_model(rng: np.random.Generator, g: Graph) -> Model:
    choice = int(rng.integers(0, 5))
    if choice == 0:
        return Adjacency()
    if choice == 1:
        return Laplacian()
    if choice == 2:
        return SignlessLaplacian()
    if choice == 3:
        return Generalized(float(rng.uniform(-3.0, 3.0)))
    u, v = rng.choice(g.n, size=2, replace=False)
    return LoopPerturbed(int(u), int(v), float(rng.uniform(-30.0, 30.0)))


def late_divergence_graph(rng: np.random.Generator) -> tuple[Graph, int, int]:
    """A graph and pair (u, v) whose closed-walk counts agree past 2^128.

    u = 0 and v = 10 sit in two copies of K_10. The last vertex of each
    clique starts a path of 20 edges that ends on one of two seeded vertices
    a, b of a seeded random 6-vertex graph, and a and b have different
    degrees. Walks from u and v mirror each other until they reach that
    graph, so the counts first differ at about length 2 * 21, where they
    have grown like 9^length.
    """
    clique, path, feature = 10, 20, 6
    while True:
        inner = [(i, j) for i in range(feature) for j in range(i + 1, feature) if rng.random() < 0.5]
        degree = np.bincount(np.array(inner, dtype=int).ravel(), minlength=feature)
        a, b = (int(x) for x in rng.choice(feature, size=2, replace=False))
        if degree[a] != degree[b]:
            break
    first_feature = 2 * clique + 2 * (path - 1)
    edges = {(base + i, base + j) for base in (0, clique) for i in range(clique) for j in range(i + 1, clique)}
    edges |= {(first_feature + i, first_feature + j) for i, j in inner}
    nxt = 2 * clique
    for start, end in ((clique - 1, first_feature + a), (2 * clique - 1, first_feature + b)):
        chain = [start, *range(nxt, nxt + path - 1), end]
        edges |= set(zip(chain, chain[1:]))
        nxt += path - 1
    return Graph(n=first_feature + feature, edges=frozenset(edges)), 0, clique
