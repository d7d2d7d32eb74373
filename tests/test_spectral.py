from __future__ import annotations

import math

import numpy as np
import pytest

from generators import mirror_pair, random_graph, random_model, structured_graph
from glwalk import (
    Adjacency,
    CospectralityMismatchError,
    DegenerateGapError,
    EigenDecomposition,
    FidelityCurve,
    Generalized,
    GridSearch,
    GroupSign,
    TwoLevelSearch,
    complete_bipartite,
    cospectrality,
    cycle_graph,
    eigendecompose,
    eigendecompose_stack,
    evolution_amplitude,
    fidelity_curve,
    hamiltonian_matrix,
    pair_spectrum,
    path_graph,
    peak_fidelity,
    sign_pattern,
    two_level_candidate_time,
)
from glwalk.cospectral import SIGN_TOL
from glwalk.spectral import (
    ORTHONORMALITY_TOL,
    group_sums,
    grouping_tolerance,
    pair_spectra,
    residual_tolerance,
)
from oracles import group_columns, group_runs, projector_matrices


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
    assert dec.group_sizes == (1, 4, 1)


def test_projectors_p2() -> None:
    dec = eigendecompose(_adjacency(path_graph(2)))
    projectors = projector_matrices(dec)
    assert len(projectors) == 2
    for p, rank in zip(projectors, dec.group_sizes):
        assert rank == 1
        assert np.allclose(np.diag(p), [0.5, 0.5], atol=1e-12)


def test_projector_of_identity_is_identity() -> None:
    dec = eigendecompose(np.eye(3))
    projectors = projector_matrices(dec)
    assert len(projectors) == 1
    assert dec.group_sizes[0] == 3
    assert np.allclose(projectors[0], np.eye(3), atol=1e-12)


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
        runs = group_runs(dec)
        assert sum(dec.group_sizes) == n and min(dec.group_sizes) >= 1
        for run in runs:
            members = lam[run]
            assert float(members.max() - members.min()) <= group_tol
        for left, right in zip(runs, runs[1:]):
            assert lam[right.start] - lam[left.stop - 1] > group_tol


def test_projector_contracts_random() -> None:
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        m = _random_symmetric(rng, n)
        dec = eigendecompose(m)
        vectors, sizes = dec.eigenvectors, dec.group_sizes
        # the per-group reductions the library reads instead of projectors:
        # products[x, i, r] = (P_r)_{ix} as in sign_pattern, diagonals[x, r] = (P_r)_{xx}
        products = group_sums(vectors * vectors[:, None, :], sizes)
        diagonals = group_sums(vectors**2, sizes)
        tol = residual_tolerance(m)
        total = np.zeros((n, n))
        for r, p in enumerate(projector_matrices(dec)):
            assert float(np.max(np.abs(p @ p - p))) <= tol
            assert np.allclose(p, p.T, atol=1e-14)
            columns = products[:, :, r].T
            diagonal = diagonals[:, r]
            assert max(np.max(np.abs(columns - p)), np.max(np.abs(diagonal - np.diag(p)))) <= 1e-14
            total += p
        assert float(np.max(np.abs(total - np.eye(n)))) <= tol
        assert sum(sizes) == n


def test_eigenvalue_shift_property() -> None:
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        m = _random_symmetric(rng, n)
        c = float(rng.uniform(-10.0, 10.0))
        base = eigendecompose(m).eigenvalues
        shifted = eigendecompose(m + c * np.eye(n)).eigenvalues
        assert float(np.max(np.abs(shifted - (base + c)))) <= residual_tolerance(m) + abs(c) * 1e-12


def test_eigenvectors_are_deterministic() -> None:
    rng = np.random.default_rng(109)
    m = _random_symmetric(rng, 8)
    first = eigendecompose(m)
    second = eigendecompose(m)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def _reversal_symmetric(rng, n):
    # exactly symmetric and equal to its reversal: each entry is a sum of the
    # same four floats, in one order or the other
    a = _random_symmetric(rng, n)
    return a + a[::-1, ::-1]


def _mirror_cases():
    # seeded matrices equal to their reversal: n = 1, 2, 3, mixed odd and even
    # sizes up to 60, and walk Hamiltonians of paths and cycles, whose cycle
    # spectra repeat eigenvalues across the two sectors
    rng = np.random.default_rng(139)
    sizes = [1, 2, 3, 60, 59, *(int(n) for n in rng.integers(4, 61, size=16))]
    for n in sizes:
        yield _reversal_symmetric(rng, n)
    for n in (2, 3, 7, 24, 31, 60):
        k = float(rng.uniform(-3.0, 3.0))
        yield hamiltonian_matrix(Generalized(k), path_graph(n))
        yield hamiltonian_matrix(Generalized(k), cycle_graph(max(n, 3)))
    yield hamiltonian_matrix(Generalized(143.0), path_graph(6))


def test_reversal_symmetric_matrices_take_the_mirror_route(eigh_shapes) -> None:
    eps = np.finfo(float).eps
    for m in _mirror_cases():
        n = m.shape[0]
        assert np.array_equal(m, m[::-1, ::-1]) and np.array_equal(m, m.T)
        eigh_shapes.clear()
        dec = eigendecompose(m)
        half = n // 2
        # the even block has n - n // 2 rows and the odd block n // 2
        if n % 2:
            assert eigh_shapes == [(1, half + 1, half + 1), (1, half, half)]
        else:
            assert eigh_shapes == [(2, half, half)]
        lam, vec = dec.eigenvalues, dec.eigenvectors
        tol = residual_tolerance(m)
        assert np.all(np.diff(lam) >= 0.0)
        assert float(np.max(np.abs(m @ vec - vec * lam))) <= tol
        assert float(np.max(np.abs(vec.T @ vec - np.eye(n)))) <= ORTHONORMALITY_TOL
        norm = float(np.max(np.sum(np.abs(m), axis=1)))
        assert float(np.max(np.abs(lam - np.linalg.eigvalsh(m)))) <= n * eps * max(1.0, norm)
        # each eigenvector is even or odd under x -> n-1-x, bit for bit; an odd
        # one is zero at the middle vertex of odd n
        for column in vec.T:
            top, bottom = column[:half], column[::-1][:half]
            if bottom.tobytes() == top.tobytes():
                continue
            assert bottom.tobytes() == (-top).tobytes()
            assert n % 2 == 0 or column[half] == 0.0


def test_mirror_route_stacked_equals_single() -> None:
    rng = np.random.default_rng(149)
    for n in (1, 2, 3, 8, 13, 40, 41):
        matrices = [_reversal_symmetric(rng, n) for _ in range(4)]
        # a slice that is not its own reversal takes the full eigh in any stack
        plain = _random_symmetric(rng, n)
        for stack in (matrices, [*matrices[:2], plain, *matrices[2:]] if n > 1 else matrices):
            for dec, m in zip(eigendecompose_stack(np.stack(stack)), stack):
                single = eigendecompose(m)
                assert dec.eigenvalues.tobytes() == single.eigenvalues.tobytes()
                assert dec.eigenvectors.tobytes() == single.eigenvectors.tobytes()
                assert dec.group_sizes == single.group_sizes


@pytest.mark.parametrize("n", [3, 24, 31])
def test_matrices_off_the_reversal_take_the_full_eigh(eigh_shapes, n) -> None:
    rng = np.random.default_rng(151 + n)
    loop = _reversal_symmetric(rng, n)
    loop[0, 0] += 1.0  # a loop the reversal does not swap
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    for m in (loop, _reversal_symmetric(rng, n)[np.ix_(swap, swap)]):
        dec = eigendecompose(m)
        assert float(np.max(np.abs(m @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues))) <= residual_tolerance(m)
    assert eigh_shapes == [(1, n, n)] * 2


def _reference_signs(dec, u, v) -> tuple[GroupSign, ...]:
    signs = []
    for vectors in group_columns(dec):
        pu, pv = vectors @ vectors[u], vectors @ vectors[v]
        if np.max(np.abs(pu)) <= SIGN_TOL and np.max(np.abs(pv)) <= SIGN_TOL:
            signs.append(GroupSign.NULL)
        elif np.max(np.abs(pu - pv)) <= SIGN_TOL:
            signs.append(GroupSign.PLUS)
        elif np.max(np.abs(pu + pv)) <= SIGN_TOL:
            signs.append(GroupSign.MINUS)
        else:
            signs.append(GroupSign.MIXED)
    return tuple(signs)


def _reduction_cases():
    rng = np.random.default_rng(127)
    for _ in range(40):
        g = structured_graph(rng) if rng.random() < 0.5 else random_graph(rng)
        yield g, random_model(rng, g)
    # degenerate groups: 2 members (cycles), 10 and 18 (the zero eigenspace of
    # K_{3,9} and K_{10,10}), 8 and 2 (K_{3,9} at k = 0.5)
    for g in (cycle_graph(24), cycle_graph(31), complete_bipartite(3, 9), complete_bipartite(10, 10)):
        yield g, Adjacency()
    yield complete_bipartite(3, 9), Generalized(0.5)
    yield path_graph(6), Generalized(143.0)


def _assert_pair_fields(pair, dec, u, v) -> None:
    # every field of the pair's record against np.sum and np.mean over each group's columns
    columns = group_columns(dec)
    assert pair.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
    assert pair.weights.tobytes() == (dec.eigenvectors[u] * dec.eigenvectors[v]).tobytes()
    assert pair.diag_u.tolist() == [float(np.sum(c[u] ** 2)) for c in columns]
    assert pair.diag_v.tolist() == [float(np.sum(c[v] ** 2)) for c in columns]
    assert pair.couplings.tolist() == [float(np.sum(c[u] * c[v])) for c in columns]
    assert pair.means.tolist() == [float(np.mean(dec.eigenvalues[run])) for run in group_runs(dec)]
    assert pair.masses.tolist() == [float(np.sum(c[u] ** 2)) + float(np.sum(c[v] ** 2)) for c in columns]


def test_group_reductions_equal_per_group_reference() -> None:
    sizes = set()
    for g, model in _reduction_cases():
        dec = eigendecompose(hamiltonian_matrix(model, g))
        sizes.update(dec.group_sizes)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                pair = pair_spectrum(dec, u, v)
                _assert_pair_fields(pair, dec, u, v)
                assert sign_pattern(pair).signs == _reference_signs(dec, u, v)
    assert {1, 2, 8, 10, 18} <= sizes


def test_pair_spectra_of_a_stack_equal_each_alone() -> None:
    # one group_sums over a stack of spectra gives each record the fields of its spectrum alone
    for g, model in _reduction_cases():
        ks = [0.0, 1.5, -2.0]
        decs = eigendecompose_stack(np.array([hamiltonian_matrix(Generalized(k), g) for k in ks]))
        u, v = 0, g.n - 1
        for pair, dec in zip(pair_spectra(decs, u, v), decs, strict=True):
            _assert_pair_fields(pair, dec, u, v)


def test_group_sums_equal_np_sum_bit_for_bit() -> None:
    # random runs and all one-entry runs (the fast path), with a -0.0 entry, which np.sum
    # and the sum from zero both turn into +0.0
    rng = np.random.default_rng(139)
    for n in range(1, 101):
        values = rng.standard_normal((3, n))
        values[rng.integers(3), rng.integers(n)] = -0.0
        cuts = np.flatnonzero(rng.random(n - 1) < 0.4) + 1
        for sizes in (np.diff([0, *cuts, n]).tolist(), [1] * n):
            sums = group_sums(values, sizes)
            bounds = np.cumsum([0, *sizes])
            expected = [[np.sum(row[a:b]) for a, b in zip(bounds, bounds[1:])] for row in values]
            assert sums.tobytes() == np.array(expected).tobytes()


def _flip_cases():
    rng = np.random.default_rng(131)
    for i in range(30):
        if i % 2:
            g = structured_graph(rng)
            u, v = mirror_pair(g, rng)
        else:
            g = random_graph(rng)
            u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        yield g, random_model(rng, g), u, v
    yield path_graph(6), Generalized(143.0), 0, 5


def _with_flipped_columns(dec, rng):
    # the same decomposition with a random nonempty subset of its columns negated
    flip = rng.random(dec.n) < 0.5
    flip[rng.integers(dec.n)] = True
    return EigenDecomposition(dec.eigenvalues, np.where(flip, -dec.eigenvectors, dec.eigenvectors), dec.group_sizes)


def _outcome(f, *args):
    # f's result as exact bytes or repr, or the error it raises
    try:
        result = f(*args)
    except (DegenerateGapError, CospectralityMismatchError) as exc:
        return repr(exc)
    if isinstance(result, FidelityCurve):
        return result.times.tobytes(), result.probabilities.tobytes()
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    return repr(result)


def test_flipping_eigenvector_signs_changes_no_result() -> None:
    # every result reads products of two entries of one eigenvector column,
    # which negating the column leaves bit-identical
    rng = np.random.default_rng(137)
    for g, model, u, v in _flip_cases():
        dec = eigendecompose(hamiltonian_matrix(model, g))
        flipped = _with_flipped_columns(dec, rng)
        assert not np.array_equal(flipped.eigenvectors, dec.eigenvectors)
        pair, flipped_pair = pair_spectrum(dec, u, v), pair_spectrum(flipped, u, v)
        for field in ("eigenvalues", "weights", "diag_u", "diag_v", "couplings", "means", "masses"):
            assert _outcome(getattr, flipped_pair, field) == _outcome(getattr, pair, field), field
        calls = [(evolution_amplitude, t) for t in (0.0, 0.7, 13.0, 6.6e8)] + [
            (fidelity_curve, 20.0, 301),
            (fidelity_curve, 1e9, 301),
            (peak_fidelity, GridSearch(20.0, 401)),
            (peak_fidelity, TwoLevelSearch()),
            (two_level_candidate_time,),
            (sign_pattern,),
        ]
        for f, *args in calls:
            assert _outcome(f, flipped_pair, *args) == _outcome(f, pair, *args), f.__name__
        adjacency = eigendecompose(g.adjacency_matrix(with_loops=False))
        flipped = pair_spectrum(_with_flipped_columns(adjacency, rng), u, v)
        adjacency = pair_spectrum(adjacency, u, v)
        assert _outcome(cospectrality, g, u, v, flipped) == _outcome(cospectrality, g, u, v, adjacency)
