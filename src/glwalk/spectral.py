"""Dense eigendecomposition of real symmetric matrices with degeneracy grouping.

Residual and orthonormality tolerances are binding contracts checked by the
test suite: the decomposition must reproduce the input within
RESIDUAL_SCALE * max(1, inf-norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

RESIDUAL_SCALE = 1e-10
ORTHONORMALITY_TOL = 1e-10
# Loose enough to merge numerically split true multiplicities (solver noise is
# ~1e-13 * range), tight enough not to swallow the physically meaningful beat
# gap of a strongly loop-perturbed pair, which can sit near 1e-11 * range.
GROUPING_SCALE = 1e-12
# entries below this are skipped when picking the sign-fixing reference entry
SIGN_REFERENCE_TOL = 1e-8


def residual_tolerance(matrix: np.ndarray) -> float:
    norm = float(np.max(np.sum(np.abs(matrix), axis=1))) if matrix.size else 0.0
    return RESIDUAL_SCALE * max(1.0, norm)


def grouping_tolerance(eigenvalues: np.ndarray) -> float | np.ndarray:
    """Gap tolerance of ascending eigenvalues; one per row of a (K, n) stack."""
    spread = eigenvalues[..., -1] - eigenvalues[..., 0] if eigenvalues.shape[-1] else 0.0
    return GROUPING_SCALE * np.maximum(1.0, spread)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal column eigenvectors, degeneracy groups.

    groups partitions 0..n-1 into runs of (numerically) equal eigenvalues,
    ordered by eigenvalue, so the columns of a group are consecutive and
    per-group reductions run over the eigenvector columns in order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def group_sizes(self) -> list[int]:
        return [len(group) for group in self.groups]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # make the first entry above SIGN_REFERENCE_TOL nonnegative, per column of
    # each matrix of the stack; a column with no such entry is left as it is
    stack = vectors.reshape(-1, *vectors.shape[-2:])
    significant = np.abs(stack) > SIGN_REFERENCE_TOL
    first = np.argmax(significant, axis=1)
    members, columns = np.arange(len(stack))[:, None], np.arange(stack.shape[2])
    flip = significant[members, first, columns] & (stack[members, first, columns] < 0)
    np.negative(vectors, out=vectors, where=flip.reshape(*vectors.shape[:-2], 1, vectors.shape[-1]))
    return vectors


def _group_by_gap(eigenvalues: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    # the groups of each row of a (K, n) stack of ascending eigenvalues
    n = eigenvalues.shape[1]
    groups = []
    gaps = eigenvalues[:, 1:] - eigenvalues[:, :-1]
    for breaks in (gaps > grouping_tolerance(eigenvalues)[:, None]).tolist():
        bounds = [0, *(i + 1 for i, gap in enumerate(breaks) if gap), n]
        groups.append(tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))
    return groups


def eigendecompose_stack(matrices: np.ndarray) -> list[EigenDecomposition]:
    """eigendecompose of each slice of a (K, n, n) stack, with one stacked eigh call.

    Each decomposition equals that of its matrix alone bit for bit and views
    the stack's arrays, which live as long as any of the decompositions.
    """
    a = np.asarray(matrices, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if not (a == a.swapaxes(1, 2)).all():
        raise ValueError("matrix must be exactly symmetric")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    vectors = _fix_signs(vectors)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return [
        EigenDecomposition(eigenvalues=values, eigenvectors=columns, groups=groups)
        for values, columns, groups in zip(eigenvalues, vectors, _group_by_gap(eigenvalues))
    ]


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of an exactly symmetric real matrix.

    Raises ConvergenceError if the underlying solver fails to converge,
    ValueError for non-square or non-symmetric input. Eigenvector signs
    follow a fixed convention so repeated runs give identical output.
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
    """
    sizes = np.asarray(sizes)
    runs = np.arange(len(sizes))
    # every entry moves right by one slot per run that starts at or before it
    shifted = np.arange(values.shape[-1]) + np.repeat(runs + 1, sizes)
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + len(sizes),))
    padded[..., shifted] = values
    return np.add.reduceat(padded, np.cumsum(sizes) - sizes + runs, axis=-1)


def group_eigenvalues(decomposition: EigenDecomposition) -> np.ndarray:
    """Mean eigenvalue of each degeneracy group, ordered by eigenvalue."""
    sizes = decomposition.group_sizes
    # np.mean of each group is its np.sum over its size
    return group_sums(decomposition.eigenvalues, sizes) / sizes


def pair_diagonals(decomposition: EigenDecomposition, u: int, v: int) -> np.ndarray:
    """2 x groups array of (P_r)_{uu} and (P_r)_{vv}, P_r the projector onto group r's eigenspace."""
    return group_sums(decomposition.eigenvectors[[u, v]] ** 2, decomposition.group_sizes)


def localization_mass(decomposition: EigenDecomposition, u: int, v: int) -> np.ndarray:
    """(P_r)_{uu} + (P_r)_{vv} per group; large values flag eigenspaces living on the pair."""
    diag_u, diag_v = pair_diagonals(decomposition, u, v)
    return diag_u + diag_v
