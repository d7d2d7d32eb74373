"""Simple undirected graphs with dense 0-based vertex indices.

Self-loops are stored as real weights separate from the edge set: they
appear on the diagonal of the adjacency matrix but never contribute to
vertex degrees.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import EdgeListError

Edge = tuple[int, int]

_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)$")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge] = frozenset()
    loop_weights: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be a positive integer")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-edge at vertex {u}; self-loops belong in loop_weights")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))
        weights = {v: float(q) for v, q in self.loop_weights.items()}
        for w, q in weights.items():
            if not 0 <= w < self.n:
                raise ValueError(f"loop weight at vertex {w} out of range for n={self.n}")
            if not math.isfinite(q):
                raise ValueError(f"loop weight at vertex {w} must be finite, got {q!r}")
        object.__setattr__(self, "loop_weights", MappingProxyType(weights))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency_list(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(lst)) for lst in nbrs)

    def adjacency_matrix(self, with_loops: bool = True) -> np.ndarray:
        """Dense adjacency matrix; loop weights go on the diagonal unless disabled."""
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        if with_loops:
            for v, q in self.loop_weights.items():
                a[v, v] = q
        return a

    def degree_vector(self) -> np.ndarray:
        """Edge-incidence counts per vertex; loop weights do not contribute."""
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return int(self.degree_vector().max())

    def distance(self, u: int, v: int) -> int | float:
        """BFS shortest-path length; math.inf when u and v are disconnected."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            return 0
        nbrs = self.adjacency_list()
        dist = [-1] * self.n
        dist[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    queue.append(y)
        return math.inf


def path_graph(n: int) -> Graph:
    """Path on n vertices: edges {i, i+1}."""
    if n < 1:
        raise ValueError("path graph needs at least one vertex")
    return Graph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle graph needs at least three vertices")
    return Graph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise ValueError("both parts of a complete bipartite graph must be nonempty")
    return Graph(n=a + b, edges=frozenset((i, a + j) for i in range(a) for j in range(b)))


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    UTF-8 text; lines starting with "#" are comments; blank lines ignored.
    An optional first significant line "n=<int>" fixes the vertex count,
    otherwise it is inferred as 1 + the largest index seen. Edge lines are
    "<u> <v>"; self-loop weights are given as "loop <v> <weight>".
    """
    declared_n: int | None = None
    seen_content = False
    edges: dict[Edge, int] = {}
    loops: dict[int, float] = {}
    max_index = -1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_content:
            seen_content = True
            header = _HEADER_RE.match(line)
            if header:
                declared_n = int(header.group(1))
                if declared_n < 1:
                    raise EdgeListError("declared vertex count must be positive", lineno)
                continue
        parts = line.split()
        if parts[0] == "loop":
            if len(parts) != 3:
                raise EdgeListError("loop line must be 'loop <vertex> <weight>'", lineno)
            try:
                v = int(parts[1])
                q = float(parts[2])
            except ValueError:
                raise EdgeListError(f"cannot parse loop line {line!r}", lineno) from None
            if v < 0:
                raise EdgeListError(f"negative vertex index {v}", lineno)
            if v in loops:
                raise EdgeListError(f"duplicate loop weight for vertex {v}", lineno)
            loops[v] = q
            max_index = max(max_index, v)
            continue
        if len(parts) != 2:
            raise EdgeListError(f"expected '<u> <v>', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"cannot parse edge line {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListError(f"negative vertex index in {line!r}", lineno)
        if u == v:
            raise EdgeListError(f"self-edge at vertex {u}; use a 'loop' line instead", lineno)
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            raise EdgeListError(f"duplicate edge ({edge[0]}, {edge[1]})", lineno)
        edges[edge] = lineno
        max_index = max(max_index, u, v)

    if declared_n is None:
        if max_index < 0:
            raise EdgeListError("empty edge list without an n= header")
        n = max_index + 1
    else:
        n = declared_n
        if max_index >= n:
            offending = [
                (edge, lineno) for edge, lineno in edges.items() if max(edge) >= n
            ] + [((v, v), 0) for v in loops if v >= n]
            if offending and offending[0][1]:
                edge, lineno = offending[0]
                raise EdgeListError(f"vertex index {max(edge)} >= declared n={n}", lineno)
            raise EdgeListError(f"vertex index {max_index} >= declared n={n}")
    return Graph(n=n, edges=frozenset(edges), loop_weights=loops)


def to_edge_list(g: Graph) -> str:
    """Serialize a graph back to the edge-list format (round-trips with from_edge_list)."""
    lines = [f"n={g.n}"]
    for v in sorted(g.loop_weights):
        lines.append(f"loop {v} {g.loop_weights[v]!r}")
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
