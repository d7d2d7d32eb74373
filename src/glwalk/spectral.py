"""Dense eigendecomposition of real symmetric matrices with degeneracy grouping.

Residual and orthonormality tolerances are binding contracts checked by the
test suite: the decomposition must reproduce the input within
RESIDUAL_SCALE * max(1, inf-norm).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def grouping_tolerance(eigenvalues: np.ndarray) -> float:
    spread = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) else 0.0
    return GROUPING_SCALE * max(1.0, spread)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal column eigenvectors, degeneracy groups.

    groups partitions 0..n-1 into runs of (numerically) equal eigenvalues,
    ordered by eigenvalue.
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


@dataclass(frozen=True)
class SpectralProjector:
    """Orthogonal projector onto one degeneracy group's eigenspace.

    Stored as the group's n x rank eigenvector columns."""

    eigenvalue: float
    indices: tuple[int, ...]
    vectors: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.indices)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense n x n matrix, formed on first read."""
        matrix = self.vectors @ self.vectors.T
        matrix.setflags(write=False)
        return matrix

    def column(self, x: int) -> np.ndarray:
        """P e_x."""
        return self.vectors @ self.vectors[x]

    def diagonal(self, x: int) -> float:
        """(P)_{xx}, the squared norm of row x of the eigenvector columns."""
        return float(np.sum(self.vectors[x] ** 2))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # make the first entry above SIGN_REFERENCE_TOL nonnegative, per column
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        significant = np.nonzero(np.abs(col) > SIGN_REFERENCE_TOL)[0]
        if significant.size and col[significant[0]] < 0:
            vectors[:, j] = -col
    return vectors


def _group_by_gap(eigenvalues: np.ndarray) -> tuple[tuple[int, ...], ...]:
    tol = grouping_tolerance(eigenvalues)
    groups: list[tuple[int, ...]] = []
    current = [0]
    for j in range(1, len(eigenvalues)):
        if eigenvalues[j] - eigenvalues[j - 1] <= tol:
            current.append(j)
        else:
            groups.append(tuple(current))
            current = [j]
    groups.append(tuple(current))
    return tuple(groups)


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of an exactly symmetric real matrix.

    Raises ConvergenceError if the underlying solver fails to converge,
    ValueError for non-square or non-symmetric input. Eigenvector signs
    follow a fixed convention so repeated runs give identical output.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    vectors = _fix_signs(vectors)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(
        eigenvalues=eigenvalues, eigenvectors=vectors, groups=_group_by_gap(eigenvalues)
    )


def spectral_projectors(decomposition: EigenDecomposition) -> list[SpectralProjector]:
    """One projector per degeneracy group, ordered by eigenvalue."""
    out = []
    for group in decomposition.groups:
        # groups are runs of consecutive indices, so the columns are a view
        members = slice(group[0], group[-1] + 1)
        out.append(
            SpectralProjector(
                eigenvalue=float(np.mean(decomposition.eigenvalues[members])),
                indices=group,
                vectors=decomposition.eigenvectors[:, members],
            )
        )
    return out


def localization_mass(projectors: list[SpectralProjector], u: int, v: int) -> np.ndarray:
    """(P_r)_{uu} + (P_r)_{vv} per group; large values flag eigenspaces living on the pair."""
    return np.array([p.diagonal(u) + p.diagonal(v) for p in projectors])
