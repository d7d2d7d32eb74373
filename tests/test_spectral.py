from __future__ import annotations

import math

import numpy as np
import pytest

from glwalk import complete_bipartite, eigendecompose, path_graph, spectral_projectors
from glwalk.spectral import (
    ORTHONORMALITY_TOL,
    grouping_tolerance,
    residual_tolerance,
)


def _adjacency(g):
    return g.adjacency_matrix(with_loops=False)


def test_p2_adjacency_eigenvalues() -> None:
    dec = eigendecompose(_adjacency(path_graph(2)))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_p3_adjacency_matches_closed_form() -> None:
    # path eigenvalues are 2*cos(j*pi/(n+1)); compute the oracle first
    expected = sorted(2.0 * math.cos(j * math.pi / 4.0) for j in (1, 2, 3))
    dec = eigendecompose(_adjacency(path_graph(3)))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


def test_k24_adjacency_spectrum_and_groups() -> None:
    a = _adjacency(complete_bipartite(2, 4))
    dec = eigendecompose(a)
    root8 = math.sqrt(8.0)
    assert np.allclose(dec.eigenvalues, [-root8, 0, 0, 0, 0, root8], atol=1e-10)
    projectors = spectral_projectors(dec)
    assert [p.rank for p in projectors] == [1, 4, 1]


def test_projectors_p2() -> None:
    dec = eigendecompose(_adjacency(path_graph(2)))
    projectors = spectral_projectors(dec)
    assert len(projectors) == 2
    for p in projectors:
        assert p.rank == 1
        assert np.allclose(np.diag(p.matrix), [0.5, 0.5], atol=1e-12)


def test_projector_of_identity_is_identity() -> None:
    dec = eigendecompose(np.eye(3))
    projectors = spectral_projectors(dec)
    assert len(projectors) == 1
    assert projectors[0].rank == 3
    assert np.allclose(projectors[0].matrix, np.eye(3), atol=1e-12)


def test_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))


def _random_symmetric(rng, n):
    a = rng.uniform(-5.0, 5.0, size=(n, n))
    return (a + a.T) / 2.0


def test_random_matrix_contracts() -> None:
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        m = _random_symmetric(rng, n)
        dec = eigendecompose(m)
        lam, vec = dec.eigenvalues, dec.eigenvectors
        tol = residual_tolerance(m)

        assert np.all(np.diff(lam) >= 0.0)
        assert float(np.max(np.abs(m @ vec - vec * lam))) <= tol
        assert float(np.max(np.abs(vec.T @ vec - np.eye(n)))) <= ORTHONORMALITY_TOL
        assert float(np.max(np.abs((vec * lam) @ vec.T - m))) <= tol
        assert abs(float(np.trace(m)) - float(lam.sum())) <= tol * n

        group_tol = grouping_tolerance(lam)
        assert sum(len(g) for g in dec.groups) == n
        for group in dec.groups:
            members = lam[list(group)]
            assert float(members.max() - members.min()) <= group_tol
        for left, right in zip(dec.groups, dec.groups[1:]):
            assert lam[right[0]] - lam[left[-1]] > group_tol


def test_projector_contracts_random() -> None:
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        m = _random_symmetric(rng, n)
        dec = eigendecompose(m)
        projectors = spectral_projectors(dec)
        tol = residual_tolerance(m)
        total = np.zeros((n, n))
        for p in projectors:
            assert float(np.max(np.abs(p.matrix @ p.matrix - p.matrix))) <= tol
            assert np.allclose(p.matrix, p.matrix.T, atol=1e-14)
            columns = np.column_stack([p.column(x) for x in range(n)])
            diagonal = np.array([p.diagonal(x) for x in range(n)])
            assert max(np.max(np.abs(columns - p.matrix)), np.max(np.abs(diagonal - np.diag(p.matrix)))) <= 1e-14
            total += p.matrix
        assert float(np.max(np.abs(total - np.eye(n)))) <= tol
        assert sum(p.rank for p in projectors) == n


def test_eigenvalue_shift_property() -> None:
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        m = _random_symmetric(rng, n)
        c = float(rng.uniform(-10.0, 10.0))
        base = eigendecompose(m).eigenvalues
        shifted = eigendecompose(m + c * np.eye(n)).eigenvalues
        assert float(np.max(np.abs(shifted - (base + c)))) <= residual_tolerance(m) + abs(c) * 1e-12


def test_sign_convention_is_deterministic() -> None:
    rng = np.random.default_rng(109)
    m = _random_symmetric(rng, 8)
    first = eigendecompose(m)
    second = eigendecompose(m)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(8):
        col = first.eigenvectors[:, j]
        lead = col[np.abs(col) > 1e-8][0]
        assert lead >= 0.0
