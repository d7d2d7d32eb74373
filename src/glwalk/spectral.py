"""Dense eigendecomposition of real symmetric matrices with degeneracy grouping.

Residual and orthonormality tolerances are binding contracts checked by the
test suite: the decomposition must reproduce the input within
RESIDUAL_SCALE * max(1, inf-norm).

A matrix H that equals its reversal exactly (H[n-1-i, n-1-j] == H[i, j],
as the Hamiltonians of paths and cycles in their natural numbering do)
commutes with x -> n-1-x, so it splits into an even and an odd sector
(Christandl et al., PRL 92, 187902, 2004). Such a matrix is decomposed
through its two sector blocks of about n/2 rows, whose solves together
take about a quarter of the flops of the full one. Its eigenvectors
satisfy V[n-1-x] = +-V[x] exactly; the results meet the residual and
orthonormality contracts but are not bit-equal to those of the full solve.

A vertex pair (u, v) reads a decomposition through its PairSpectrum: the
eigenvalues, the weights V[u] * V[v] and, per degeneracy group, the
projector entries (P_r)_{uu}, (P_r)_{vv} and (P_r)_{uv} and the mean
eigenvalue. pair_spectra builds the records of a block of decompositions
from rows u and v of each eigenvector matrix, read once, and one
group_sums; every pair-level quantity the library reports derives from
them, and no dense projector is formed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConvergenceError

RESIDUAL_SCALE = 1e-10
ORTHONORMALITY_TOL = 1e-10
# Loose enough to merge numerically split true multiplicities (solver noise is
# ~1e-13 * range), tight enough not to swallow the physically meaningful beat
# gap of a strongly loop-perturbed pair, which can sit near 1e-11 * range.
GROUPING_SCALE = 1e-12


def residual_tolerance(matrix: np.ndarray) -> float:
    norm = float(np.max(np.sum(np.abs(matrix), axis=1))) if matrix.size else 0.0
    return RESIDUAL_SCALE * max(1.0, norm)


def grouping_tolerance(eigenvalues: np.ndarray) -> float | np.ndarray:
    """Gap tolerance of ascending eigenvalues; one per row of a (K, n) stack."""
    spread = eigenvalues[..., -1] - eigenvalues[..., 0] if eigenvalues.shape[-1] else 0.0
    return GROUPING_SCALE * np.maximum(1.0, spread)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal column eigenvectors, degeneracy group sizes.

    The degeneracy groups are runs of (numerically) equal eigenvalues,
    ordered by eigenvalue; group r is the group_sizes[r] consecutive columns
    after those of groups 0..r-1, so per-group reductions run over the
    eigenvector columns in order. Eigenvector signs are as the solver returns
    them: every quantity read from a column is a product of two of its
    entries, which negating the column leaves bit-identical.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    group_sizes: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _group_sizes(eigenvalues: np.ndarray) -> list[tuple[int, ...]]:
    # the group sizes of each row of a (K, n) stack of ascending eigenvalues
    n = eigenvalues.shape[1]
    sizes = []
    gaps = eigenvalues[:, 1:] - eigenvalues[:, :-1]
    for breaks in (gaps > grouping_tolerance(eigenvalues)[:, None]).tolist():
        bounds = [0, *(i + 1 for i, gap in enumerate(breaks) if gap), n]
        sizes.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return sizes


def _eigh(a: np.ndarray):
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc


def _mirror_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigh of a stack of matrices equal to their reversal, through the blocks
    # H+-[i, j] = H[i, j] +- H[i, n-1-j] (i, j < n // 2) of the even vectors
    # (e_i + e_{n-1-i}) / sqrt 2 and the odd vectors (e_i - e_{n-1-i}) / sqrt 2;
    # for odd n the middle vertex m joins H+ with entries sqrt 2 * H[i, m]
    k, n, _ = a.shape
    m = n // 2
    top, across = a[:, :m, :m], a[:, :m, ::-1][:, :, :m]
    if n % 2:
        plus = np.empty((k, m + 1, m + 1))
        plus[:, :m, :m] = top + across
        plus[:, :m, m] = plus[:, m, :m] = math.sqrt(2.0) * a[:, :m, m]
        plus[:, m, m] = a[:, m, m]
        (plus_values, plus_vectors), (minus_values, minus_vectors) = _eigh(plus), _eigh(top - across)
    else:
        values, vectors = _eigh(np.concatenate([top + across, top - across]))
        plus_values, minus_values, plus_vectors, minus_vectors = values[:k], values[k:], vectors[:k], vectors[k:]
    # column j < n - m is plus eigenvector j, the rest the minus ones
    vectors = np.zeros((k, n, n))
    reversed_rows = vectors[:, ::-1]
    vectors[:, :m, : n - m] = reversed_rows[:, :m, : n - m] = plus_vectors[:, :m] / math.sqrt(2.0)
    if n % 2:
        vectors[:, m, : n - m] = plus_vectors[:, m]
    odd = minus_vectors / math.sqrt(2.0)
    vectors[:, :m, n - m :] = odd
    reversed_rows[:, :m, n - m :] = -odd
    eigenvalues = np.concatenate([plus_values, minus_values], axis=1)
    order = np.argsort(eigenvalues, axis=1, kind="stable")
    stack = np.arange(k)[:, None]
    return eigenvalues[stack, order], vectors[stack[:, :, None], np.arange(n)[:, None], order[:, None, :]]


def eigendecompose_stack(matrices: np.ndarray) -> list[EigenDecomposition]:
    """eigendecompose of each slice of a (K, n, n) stack, with stacked eigh calls.

    A slice that equals its reversal exactly (see the module docstring) is
    decomposed through its even and odd sector blocks: one stacked eigh
    when the two blocks have one size (even n), two when they differ (odd
    n). Their spectra merge by a stable sort, so an eigenvalue found in
    both sectors lists the even one first. Every other slice takes one
    full eigh. Each decomposition equals that of its matrix alone bit for
    bit and views the stack's arrays, which live as long as any of the
    decompositions. Its group sizes come from one gap comparison over the
    stacked eigenvalues; eigenvector signs are those eigh returns.
    """
    a = np.asarray(matrices, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if not (a == a.swapaxes(1, 2)).all():
        raise ValueError("matrix must be exactly symmetric")
    mirrored = (a == a[:, ::-1, ::-1]).all(axis=(1, 2))
    if mirrored.all():
        eigenvalues, vectors = _mirror_eigh(a)
    elif not mirrored.any():
        eigenvalues, vectors = _eigh(a)
    else:
        # each slice of a mixed stack takes the route it takes alone
        eigenvalues, vectors = np.empty(a.shape[:2]), np.empty_like(a)
        for route, chosen in ((_mirror_eigh, mirrored), (_eigh, ~mirrored)):
            eigenvalues[chosen], vectors[chosen] = route(a[chosen])
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return [
        EigenDecomposition(eigenvalues=values, eigenvectors=columns, group_sizes=sizes)
        for values, columns, sizes in zip(eigenvalues, vectors, _group_sizes(eigenvalues))
    ]


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of an exactly symmetric real matrix.

    Raises ConvergenceError if the underlying solver fails to converge,
    ValueError for non-square or non-symmetric input. Eigenvector signs are
    as the solver returns them (see EigenDecomposition); repeated runs on
    one matrix give identical output.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return eigendecompose_stack(a[None])[0]


def group_sums(values: np.ndarray, sizes) -> np.ndarray:
    """Sums over consecutive runs of sizes[r] entries along the last axis.

    Each sum is bit-identical to np.sum of its run. np.add.reduceat starts a
    run from its first entry and adds the rest pairwise, while np.sum adds
    the whole run to zero pairwise, so a zero goes in front of every run.
    Where every run holds one entry, that sum is the entry plus zero.
    """
    if len(sizes) == values.shape[-1]:
        return values + 0.0
    sizes = np.asarray(sizes)
    runs = np.arange(len(sizes))
    # every entry moves right by one slot per run that starts at or before it
    shifted = np.arange(values.shape[-1]) + np.repeat(runs + 1, sizes)
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + len(sizes),))
    padded[..., shifted] = values
    return np.add.reduceat(padded, np.cumsum(sizes) - sizes + runs, axis=-1)


@dataclass(frozen=True)
class PairSpectrum:
    """What the vertex pair (u, v) reads of one decomposition.

    Per eigenvector: the eigenvalues and the weights w = V[u] * V[v], so that
    U(t)_{u,v} = sum_j w_j * exp(-i*eigenvalues_j*t). Per degeneracy group r,
    with P_r the projector onto its eigenspace: diag_u = (P_r)_{uu}, diag_v =
    (P_r)_{vv}, the couplings c_r = (P_r)_{uv} and the mean eigenvalues, each
    bit-identical to np.sum or np.mean over the group's columns.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    diag_u: np.ndarray
    diag_v: np.ndarray
    couplings: np.ndarray
    means: np.ndarray

    @property
    def masses(self) -> np.ndarray:
        """(P_r)_{uu} + (P_r)_{vv} per group; large values flag eigenspaces living on the pair."""
        return self.diag_u + self.diag_v


def pair_spectra(decompositions: Sequence[EigenDecomposition], u: int, v: int) -> list[PairSpectrum]:
    """The PairSpectrum of (u, v) in each decomposition (all of one size), in input order.

    Rows u and v of every eigenvector matrix are read once, and one
    group_sums over the rows V[u]**2, V[v]**2, V[u]*V[v] and the eigenvalues
    of all the decompositions gives every group's fields.
    """
    eigenvalues = np.array([dec.eigenvalues for dec in decompositions])
    x = np.array([dec.eigenvectors[u] for dec in decompositions])
    y = np.array([dec.eigenvectors[v] for dec in decompositions])
    weights = x * y
    sizes = np.array([size for dec in decompositions for size in dec.group_sizes])
    # one entry per group, the decompositions' groups one after another
    diag_u, diag_v, couplings, sums = group_sums(np.array([x * x, y * y, weights, eigenvalues]).reshape(4, -1), sizes)
    means = sums / sizes
    ends = list(accumulate(len(dec.group_sizes) for dec in decompositions))
    return [
        PairSpectrum(values, products, diag_u[a:b], diag_v[a:b], couplings[a:b], means[a:b])
        for values, products, a, b in zip(eigenvalues, weights, [0, *ends], ends)
    ]


def pair_spectrum(decomposition: EigenDecomposition, u: int, v: int) -> PairSpectrum:
    """The PairSpectrum of (u, v) in one decomposition."""
    return pair_spectra([decomposition], u, v)[0]
