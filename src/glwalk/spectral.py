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


def eigendecompose_stack(matrices: np.ndarray) -> list[EigenDecomposition]:
    """eigendecompose of each slice of a (K, n, n) stack, with one stacked eigh call.

    Each decomposition equals that of its matrix alone bit for bit and views
    the stack's arrays, which live as long as any of the decompositions.
    Its group sizes come from one gap comparison over the stacked
    eigenvalues; eigenvector signs are those eigh returns.
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
