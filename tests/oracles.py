"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: the matrix
exponential is a scaling-and-squaring Taylor series (no eigendecomposition),
walk counts come from full integer matrix powers (no adjacency-list
iteration), peaks come from dense scans that form every phase
exp(-i*lambda*t) directly, and high-precision amplitudes come from an mpmath
eigensolver (no float64 eigenpair).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from glwalk import EigenDecomposition, Graph


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling and squaring with a Taylor series."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 1e-300 else 0
    b = a / (2.0**squarings)
    n = a.shape[0]
    term = np.eye(n, dtype=complex)
    out = np.eye(n, dtype=complex)
    for k in range(1, 80):
        term = term @ b / k
        out = out + term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def unitary_oracle(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) computed without any spectral decomposition."""
    return expm_taylor(-1j * np.asarray(h, dtype=complex) * t)


def integer_adjacency(g: Graph) -> list[list[int]]:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return a


def walk_count_oracle(g: Graph, x: int, k_max: int) -> list[int]:
    """(A^k)_{xx} for k = 1..k_max via exact integer matrix powers."""
    a = integer_adjacency(g)
    power = [row[:] for row in a]
    counts = [power[x][x]]
    for _ in range(k_max - 1):
        power = [
            [sum(power[i][m] * a[m][j] for m in range(g.n)) for j in range(g.n)]
            for i in range(g.n)
        ]
        counts.append(power[x][x])
    return counts


def amplitude_oracle(dec: EigenDecomposition, times: np.ndarray, u: int, v: int) -> np.ndarray:
    """U(t)_{u,v} at each time, with every phase exp(-i*lambda*t) formed directly."""
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    return np.exp(-1j * np.outer(np.asarray(times, dtype=float), dec.eigenvalues)) @ weights


def mp_amplitude(h: np.ndarray, t: float, u: int, v: int, dps: int = 40) -> float:
    """|exp(-iHt)_{u,v}| from mpmath's symmetric eigensolver, working at dps digits."""
    with mpmath.workdps(dps):
        values, vectors = mpmath.eigsy(mpmath.matrix(np.asarray(h, dtype=float).tolist()))
        tt = mpmath.mpf(t)
        total = mpmath.fsum(vectors[u, j] * vectors[v, j] * mpmath.expj(-values[j] * tt) for j in range(len(values)))
        return float(abs(total))


def dense_peak(dec: EigenDecomposition, u: int, v: int, times: np.ndarray) -> tuple[float, float]:
    """Best sampled |U(t)_{u,v}| and its time over an explicit grid."""
    values = np.abs(amplitude_oracle(dec, times, u, v))
    i = int(np.argmax(values))
    return float(times[i]), float(values[i])


def group_runs(dec: EigenDecomposition) -> list[slice]:
    """Each degeneracy group's run of consecutive column indices, from the cumulative group sizes."""
    stops = np.cumsum(dec.group_sizes).tolist()
    return [slice(stop - size, stop) for size, stop in zip(dec.group_sizes, stops)]


def group_columns(dec: EigenDecomposition) -> list[np.ndarray]:
    """Each degeneracy group's eigenvector columns V_r."""
    return [dec.eigenvectors[:, run] for run in group_runs(dec)]


def projector_matrices(dec: EigenDecomposition) -> list[np.ndarray]:
    """Dense projector V_r V_r^T onto each degeneracy group's eigenspace, ordered by eigenvalue."""
    return [vectors @ vectors.T for vectors in group_columns(dec)]
