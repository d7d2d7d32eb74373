"""Cospectrality diagnostics: closed-walk counts, projector tests, involutions.

The cospectrality order of a vertex pair is the largest m such that the
closed-walk counts from u and v agree for every length <= m. It is settled
one of two ways:

- Proved infinite by an involution. An automorphism sigma of the graph with
  sigma(u) = v maps the closed walks from u one-to-one onto those from v, so
  the counts agree at every length. cospectrality tries a caller's sigma,
  then the reflection x -> (u + v - x) mod n and the transposition (u v),
  on every graph; once verify_involution accepts one, the order is
  infinite with no walk counted and no eigendecomposition. The two closed
  forms swap the mirror pairs of path, cycle and complete bipartite graphs
  as glwalk numbers them; a candidate that fails is ignored.
- Counted and cross-checked. Counts are compared exactly up to length n-1:
  (A^k)_uu and (A^k)_vv both obey the recurrence of A's minimal polynomial,
  of order <= n, so agreement at lengths 0..n-1 forces agreement at every
  length and any divergence shows below n. Counts advance in int64 while
  the next length cannot overflow and in Python ints after that, so they
  are exact at every length and never out of range. An infinite count is
  cross-checked through the adjacency spectral projector diagonals.

Walk counts always use the unweighted adjacency structure; loop weights are
a dynamical perturbation and do not count walks, so an involution need not
preserve them to prove the order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .errors import CospectralityMismatchError, InvolutionSearchLimitError
from .graphs import Graph
from .spectral import PairSpectrum, eigendecompose, pair_spectrum

#: Sentinel for an infinite cospectrality order (supports c >= d comparisons).
INFINITE = math.inf

SIGN_TOL = 1e-7
PROJECTOR_DIAG_TOL = 1e-7
INT64_MAX = 2**63 - 1
INVOLUTION_SEARCH_MAX = 16


class GroupSign(Enum):
    """How one eigenspace projects the pair: P e_u = +P e_v, -P e_v, both zero, or neither."""

    PLUS = "plus"
    MINUS = "minus"
    NULL = "null"
    MIXED = "mixed"


@dataclass(frozen=True)
class SignPattern:
    signs: tuple[GroupSign, ...]

    @property
    def consistent(self) -> bool:
        """True when no group is MIXED, i.e. every eigenvector satisfies psi(u) = +-psi(v)."""
        return GroupSign.MIXED not in self.signs


@dataclass(frozen=True)
class WalkDivergence:
    length: int
    count_u: int
    count_v: int


@dataclass(frozen=True)
class CospectralityResult:
    """order is a nonnegative int or INFINITE; finite order means counts first
    differ at length order + 1 (recorded in first_divergence). An infinite
    order was proved by a verified involution or has passed the projector
    cross-check; either way the pair is projector-cospectral."""

    order: int | float
    first_divergence: WalkDivergence | None

    @property
    def infinite(self) -> bool:
        return math.isinf(self.order)


def _closed_walks(g: Graph, vertices: list[int]) -> Iterator[list[int]]:
    # [(A^k)_{xx} for x in vertices] for k = 1, 2, ..., exact at every k. The
    # state holds column vertices[j] of A^k at j*(n+1) .. j*(n+1) + n-1, then
    # a zero that isolated vertices gather as their only neighbour and that
    # gathers itself; one gather and one reduceat advance it a length. It is
    # int64 while the next length cannot overflow (no entry of A @ state
    # exceeds max degree times the largest entry of state) and holds Python
    # ints of any size from the first length that could.
    nbrs = [row or (g.n,) for row in g.adjacency_list()] + [(g.n,)]
    sizes = np.array([len(row) for row in nbrs])
    neighbours = np.array([w for row in nbrs for w in row], dtype=np.intp)
    columns = np.arange(len(vertices))[:, None]
    gather = ((g.n + 1) * columns + neighbours).ravel()
    starts = (len(neighbours) * columns + np.cumsum(sizes) - sizes).ravel()
    positions = (g.n + 1) * columns.ravel() + vertices
    max_degree = int(sizes.max())
    state = np.zeros(len(vertices) * (g.n + 1), dtype=np.int64)
    state[positions] = 1
    while True:
        if state.dtype != object and max_degree * int(state.max()) > INT64_MAX:
            state = state.astype(object)
        np.add.reduceat(state[gather], starts, out=state)
        yield state[positions].tolist()


def closed_walk_counts(g: Graph, x: int, k_max: int) -> list[int]:
    """Exact closed-walk counts (A^k)_{xx} for k = 1..k_max.

    Counts are exact at every length: the walk vector A^k e_x advances in
    int64 while max degree times its largest entry fits in int64, so the next
    length cannot overflow, and in Python ints of any size from there on.
    """
    g.check_vertex(x)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [counts[0] for counts in islice(_closed_walks(g, [x]), k_max)]


def _mirror_candidates(n: int, u: int, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reflection x -> (u + v - x) mod n and the transposition (u v).

    The reflection swaps a path's pairs with u + v = n - 1 and every pair of
    a cycle, the transposition two vertices on one side of a complete
    bipartite graph. Both map u to v; whether either is an automorphism is
    for verify_involution to decide.
    """
    transposition = list(range(n))
    transposition[u], transposition[v] = v, u
    return tuple((u + v - x) % n for x in range(n)), tuple(transposition)


def cospectrality(
    g: Graph,
    u: int,
    v: int,
    adjacency: PairSpectrum | None = None,
    involution: Sequence[int] | None = None,
) -> CospectralityResult:
    """Cospectrality order of the pair, proved by an involution or counted.

    The candidates for sigma are involution when given, then the reflection
    x -> (u + v - x) mod n and the transposition (u v). Once
    verify_involution(g, sigma) holds for one with sigma[u] == v, the order
    is infinite by proof and returns at once: no walk is counted and no
    eigendecomposition runs. Every other permutation is ignored; an
    involution that is not a permutation of the vertices raises ValueError.

    Otherwise exact walk counts from u and v are compared in lockstep up to
    length n-1; the first disagreement yields the finite order and the
    diverging counts. Full agreement is certified as infinite after
    verifying (P_r)_{uu} = (P_r)_{vv} on every adjacency spectral projector;
    a group where they differ raises CospectralityMismatchError. adjacency
    is the pair's PairSpectrum in the decomposition of g's loop-free
    adjacency matrix when the caller holds it; otherwise the cross-check
    computes it.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("cospectrality needs two distinct vertices")
    candidates = _mirror_candidates(g.n, u, v)
    if involution is not None:
        candidates = (involution, *candidates)
    if any(verify_involution(g, sigma) and sigma[u] == v for sigma in candidates):
        return CospectralityResult(order=INFINITE, first_divergence=None)
    for k, (cu, cv) in enumerate(islice(_closed_walks(g, [u, v]), g.n - 1), start=1):
        if cu != cv:
            divergence = WalkDivergence(length=k, count_u=cu, count_v=cv)
            return CospectralityResult(order=k - 1, first_divergence=divergence)
    if adjacency is None:
        adjacency = pair_spectrum(eigendecompose(g.adjacency_matrix(with_loops=False)), u, v)
    difference = np.abs(adjacency.diag_u - adjacency.diag_v)
    mismatched = np.flatnonzero(difference > PROJECTOR_DIAG_TOL)
    if mismatched.size:
        r = mismatched[0]
        raise CospectralityMismatchError(
            "walk counts and projector diagonals disagree; "
            f"projector at eigenvalue {float(adjacency.means[r])} differs by {difference[r]:.3e}"
        )
    return CospectralityResult(order=INFINITE, first_divergence=None)


def sign_pattern(pair: PairSpectrum) -> SignPattern:
    """Classify each eigenspace as PLUS, MINUS, NULL, or MIXED for the pair.

    With P_r the projector onto group r: NULL where P_r e_u and P_r e_v both
    have norm at most SIGN_TOL, else PLUS where P_r (e_u - e_v) has, MINUS
    where P_r (e_u + e_v) has, MIXED otherwise. ||P_r x||^2 = x^T P_r x, so
    the four squared norms are (P_r)_{uu}, (P_r)_{vv} and
    (P_r)_{uu} + (P_r)_{vv} -+ 2 c_r, compared with SIGN_TOL**2.
    """
    masses, twice = pair.masses, 2.0 * pair.couplings
    norms = np.array([pair.diag_u, pair.diag_v, masses - twice, masses + twice])
    small = (norms <= SIGN_TOL**2).tolist()
    signs = []
    for null_u, null_v, plus, minus in zip(*small):
        if null_u and null_v:
            signs.append(GroupSign.NULL)
        elif plus:
            signs.append(GroupSign.PLUS)
        elif minus:
            signs.append(GroupSign.MINUS)
        else:
            signs.append(GroupSign.MIXED)
    return SignPattern(signs=tuple(signs))


def parse_permutation(text: str, n: int) -> tuple[int, ...]:
    """Parse comma-separated images like "5,4,3,2,1,0" into a permutation of 0..n-1."""
    try:
        images = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse permutation {text!r}") from None
    if len(images) != n or sorted(images) != list(range(n)):
        raise ValueError(f"{text!r} is not a permutation of 0..{n - 1}")
    return images


def verify_involution(g: Graph, sigma) -> bool:
    """True iff sigma is its own inverse and maps edges exactly onto edges."""
    images = tuple(int(s) for s in sigma)
    if len(images) != g.n or sorted(images) != list(range(g.n)):
        raise ValueError("sigma is not a permutation of the vertex set")
    if any(images[images[x]] != x for x in range(g.n)):
        return False
    # bijectivity makes "every edge maps to an edge" equivalent to "iff"
    for a, b in g.edges:
        ia, ib = images[a], images[b]
        if ((ia, ib) if ia < ib else (ib, ia)) not in g.edges:
            return False
    return True


def find_involution_pairing(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """Search for an involutive automorphism with sigma(u) = v.

    Degree-partition-pruned backtracking, deterministic (smallest unassigned
    vertex first, candidates ascending). Limited to n <= 16; larger graphs
    raise InvolutionSearchLimitError and should go through verify_involution
    with a user-supplied permutation instead.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("need two distinct vertices to pair")
    if g.n > INVOLUTION_SEARCH_MAX:
        raise InvolutionSearchLimitError(
            f"involution search supports n <= {INVOLUTION_SEARCH_MAX} (got n={g.n}); "
            "verify a candidate permutation with verify_involution instead"
        )
    deg = g.degree_vector()
    if deg[u] != deg[v]:
        return None
    nbrs = [set(row) for row in g.adjacency_list()]
    sigma = [-1] * g.n

    def consistent(x: int, y: int) -> bool:
        for z in range(g.n):
            w = sigma[z]
            if w < 0 or z == x or z == y:
                continue
            if (z in nbrs[x]) != (w in nbrs[y]):
                return False
            if x != y and (z in nbrs[y]) != (w in nbrs[x]):
                return False
        return True

    def backtrack() -> bool:
        try:
            x = sigma.index(-1)
        except ValueError:
            return True
        for y in range(g.n):
            if y != x and sigma[y] >= 0:
                continue
            if deg[y] != deg[x]:
                continue
            if not consistent(x, y):
                continue
            sigma[x] = y
            sigma[y] = x
            if backtrack():
                return True
            sigma[x] = -1
            sigma[y] = -1
        return False

    sigma[u] = v
    sigma[v] = u
    if not consistent(u, v):
        return None
    if backtrack():
        return tuple(sigma)
    return None
