"""Cospectrality diagnostics: closed-walk counts, projector tests, involutions.

The cospectrality order of a vertex pair is the largest m such that the
closed-walk counts from u and v agree for every length <= m. Counts are
compared exactly up to length n-1: (A^k)_uu and (A^k)_vv both obey the
recurrence of A's minimal polynomial, of order <= n, so agreement at lengths
0..n-1 forces agreement at every length and any divergence shows below n.
An independent witness cross-checks the infinite verdict through the
adjacency spectral projector diagonals.

Walk counts always use the unweighted adjacency structure; loop weights are
a dynamical perturbation and do not count walks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import count, islice

import numpy as np

from .errors import InvolutionSearchLimitError, WalkCountOverflowError
from .graphs import Graph
from .spectral import SpectralProjector, eigendecompose, spectral_projectors

#: Sentinel for an infinite cospectrality order (supports c >= d comparisons).
INFINITE = math.inf

SIGN_TOL = 1e-7
PROJECTOR_DIAG_TOL = 1e-7
WALK_COUNT_MAX = 2**128 - 1
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
    differ at length order + 1 (recorded in first_divergence)."""

    order: int | float
    first_divergence: WalkDivergence | None
    projector_cospectral: bool

    @property
    def infinite(self) -> bool:
        return math.isinf(self.order)


def _closed_walks(g: Graph, x: int) -> Iterator[int]:
    # (A^k)_{xx} for k = 1, 2, ...; raises at the first k with a count beyond 128 bits
    nbrs = g.adjacency_list()
    vec = [0] * g.n
    vec[x] = 1
    for k in count(1):
        vec = [sum(vec[w] for w in nbrs[y]) for y in range(g.n)]
        if max(vec, default=0) > WALK_COUNT_MAX:
            raise WalkCountOverflowError(k)
        yield vec[x]


def closed_walk_counts(g: Graph, x: int, k_max: int) -> list[int]:
    """Exact closed-walk counts (A^k)_{xx} for k = 1..k_max.

    Integer arithmetic throughout; any count leaving the 128-bit range raises
    WalkCountOverflowError naming the offending length.
    """
    g.check_vertex(x)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return list(islice(_closed_walks(g, x), k_max))


def cospectrality(g: Graph, u: int, v: int) -> CospectralityResult:
    """Cospectrality order of the pair with a projector cross-check.

    Exact walk counts from u and v are compared in lockstep up to length n-1;
    the first disagreement yields the finite order and the diverging counts.
    Full agreement is certified as infinite after verifying
    (P_r)_{uu} = (P_r)_{vv} on every adjacency spectral projector.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("cospectrality needs two distinct vertices")
    walks = zip(_closed_walks(g, u), _closed_walks(g, v))
    for k, (cu, cv) in enumerate(islice(walks, g.n - 1), start=1):
        if cu != cv:
            return CospectralityResult(
                order=k - 1,
                first_divergence=WalkDivergence(length=k, count_u=cu, count_v=cv),
                projector_cospectral=False,
            )
    dec = eigendecompose(g.adjacency_matrix(with_loops=False))
    for p in spectral_projectors(dec):
        difference = abs(p.diagonal(u) - p.diagonal(v))
        if difference > PROJECTOR_DIAG_TOL:
            raise RuntimeError(
                "walk counts and projector diagonals disagree; "
                f"projector at eigenvalue {p.eigenvalue} differs by {difference:.3e}"
            )
    return CospectralityResult(order=INFINITE, first_divergence=None, projector_cospectral=True)


def sign_pattern(
    projectors: list[SpectralProjector], u: int, v: int, tol: float = SIGN_TOL
) -> SignPattern:
    """Classify each eigenspace as PLUS, MINUS, NULL, or MIXED for the pair."""
    signs = []
    for p in projectors:
        pu = p.column(u)
        pv = p.column(v)
        if np.max(np.abs(pu)) <= tol and np.max(np.abs(pv)) <= tol:
            signs.append(GroupSign.NULL)
        elif np.max(np.abs(pu - pv)) <= tol:
            signs.append(GroupSign.PLUS)
        elif np.max(np.abs(pu + pv)) <= tol:
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
