from __future__ import annotations

import numpy as np
import pytest

from generators import random_graph, random_model
from glwalk import (
    Adjacency,
    DegreeStructureError,
    Generalized,
    Graph,
    Laplacian,
    LoopPerturbed,
    SignlessLaplacian,
    complete_bipartite,
    cycle_graph,
    eigendecompose,
    evolution_amplitude,
    hamiltonian_matrix,
    model_name,
    pair_spectrum,
    parse_model,
    path_graph,
    reduced_model,
)


def test_generalized_zero_is_adjacency() -> None:
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(rng)
        assert np.array_equal(hamiltonian_matrix(Generalized(0.0), g), hamiltonian_matrix(Adjacency(), g))


def test_generalized_one_is_signless_laplacian() -> None:
    p3 = path_graph(3)
    assert np.array_equal(hamiltonian_matrix(Generalized(1.0), p3), hamiltonian_matrix(SignlessLaplacian(), p3))


def test_generalized_minus_one_is_laplacian() -> None:
    p3 = path_graph(3)
    h = hamiltonian_matrix(Generalized(-1.0), p3)
    assert np.array_equal(h, hamiltonian_matrix(Laplacian(), p3))
    a = p3.adjacency_matrix()
    d = np.diag(p3.degree_vector().astype(float))
    assert np.array_equal(h, d - a)


def test_loop_perturbed_matrix_p6() -> None:
    p6 = path_graph(6)
    h = hamiltonian_matrix(LoopPerturbed(0, 5, -143.0), p6)
    expected = -p6.adjacency_matrix()
    expected[0, 0] = 143.0
    expected[5, 5] = 143.0
    assert np.array_equal(h, expected)


def test_graph_loop_weights_fold_into_every_model() -> None:
    bare = path_graph(6)
    weighted = Graph(n=6, edges=bare.edges, loop_weights={0: -7.5, 5: -7.5})
    assert np.array_equal(
        hamiltonian_matrix(Adjacency(), weighted), hamiltonian_matrix(LoopPerturbed(0, 5, -7.5), bare)
    )
    # and they stack: a loop-perturbed model on a weighted graph adds both
    h = hamiltonian_matrix(LoopPerturbed(0, 5, 2.0), weighted)
    assert h[0, 0] == pytest.approx(7.5 - 2.0)


def test_hamiltonian_always_exactly_symmetric() -> None:
    rng = np.random.default_rng(29)
    for _ in range(30):
        g = random_graph(rng)
        h = hamiltonian_matrix(random_model(rng, g), g)
        assert np.array_equal(h, h.T)


def test_generalized_diagonal_and_offdiagonal() -> None:
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng, allow_loops=False)
        k = float(rng.uniform(-4.0, 4.0))
        h = hamiltonian_matrix(Generalized(k), g)
        deg = g.degree_vector().astype(float)
        assert np.allclose(np.diag(h), -k * deg, atol=0.0)
        off = h - np.diag(np.diag(h))
        assert np.array_equal(off, -g.adjacency_matrix(with_loops=False))


def test_loop_perturbed_validation() -> None:
    with pytest.raises(ValueError):
        LoopPerturbed(2, 2, 1.0)
    with pytest.raises(IndexError):
        hamiltonian_matrix(LoopPerturbed(0, 9, 1.0), path_graph(3))


def test_reduced_model_path() -> None:
    assert reduced_model(path_graph(6), 0, 5, 143.0) == LoopPerturbed(0, 5, -143.0)


def test_reduced_model_bipartite() -> None:
    assert reduced_model(complete_bipartite(2, 4), 0, 1, 3.0).q == 6.0


def test_reduced_model_structure_errors() -> None:
    k24 = complete_bipartite(2, 4)
    with pytest.raises(DegreeStructureError):
        reduced_model(k24, 0, 2, 1.0)  # degrees 4 and 2 differ
    with pytest.raises(DegreeStructureError, match="vertex 2"):
        reduced_model(path_graph(6), 1, 4, 1.0)  # vertex 0 sets background 1, vertex 2 breaks it
    with pytest.raises(DegreeStructureError):
        reduced_model(cycle_graph(5), 0, 2, 1.0)  # single degree class
    with pytest.raises(DegreeStructureError):
        reduced_model(path_graph(2), 0, 1, 1.0)  # nobody outside the pair


def test_parse_model() -> None:
    assert parse_model("adjacency") == Adjacency()
    assert parse_model("laplacian") == Laplacian()
    assert parse_model("signless") == SignlessLaplacian()
    assert parse_model("generalized:143") == Generalized(143.0)
    assert parse_model("generalized:1.5e2") == Generalized(150.0)
    assert parse_model("loops:0,5,-143") == LoopPerturbed(0, 5, -143.0)
    assert parse_model("loops:0,5,-1.43e2") == LoopPerturbed(0, 5, -143.0)
    for bad in ("huh", "generalized:x", "loops:0,5", "loops:a,b,c"):
        with pytest.raises(ValueError):
            parse_model(bad)


def test_model_name_round_trips() -> None:
    for text in ("adjacency", "laplacian", "signless", "generalized:143", "loops:0,5,-143"):
        assert model_name(parse_model(text)) == text


def test_model_name_round_trips_random_models() -> None:
    assert model_name(parse_model("generalized:143.1083")) == "generalized:143.1083"
    assert model_name(parse_model("loops:0,5,-143.25371")) == "loops:0,5,-143.25371"
    rng = np.random.default_rng(43)
    for _ in range(200):
        x = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-6, 7))
        u, v = (int(w) for w in rng.choice(50, size=2, replace=False))
        for model in (Generalized(x), LoopPerturbed(u, v, x)):
            assert parse_model(model_name(model)) == model


def test_named_models_are_generalized_members_bit_for_bit() -> None:
    # equal entries and equal signs of zero, so eigh sees the same input
    named = {
        "adjacency": (0.0, Adjacency),
        "laplacian": (-1.0, Laplacian),
        "signless": (1.0, SignlessLaplacian),
    }
    rng = np.random.default_rng(41)
    graphs = [g for g in (random_graph(rng) for _ in range(60)) if g.loop_weights]
    assert len(graphs) >= 10
    for g in graphs:
        for name, (k, alias) in named.items():
            expected = hamiltonian_matrix(Generalized(k), g)
            for model in (parse_model(name), alias()):
                h = hamiltonian_matrix(model, g)
                assert np.array_equal(h, expected), name
                assert np.array_equal(np.signbit(h), np.signbit(expected)), name


def test_hamiltonian_matches_reference_bits() -> None:
    # the in-place build equals -(a + k*diag(d)) and -(a + q*(E_u + E_v))
    # entry for entry, signs of zero included
    rng = np.random.default_rng(59)
    graphs = [random_graph(rng) for _ in range(40)]
    graphs += [
        Graph(n=3),
        Graph(n=5, edges=frozenset({(0, 1), (1, 2)}), loop_weights={3: -0.0, 4: 2.5, 0: -1.25}),
        Graph(n=4, edges=frozenset({(1, 2)}), loop_weights={0: 0.0}),
    ]
    assert any(g.loop_weights for g in graphs)
    assert any(0 in g.degree_vector() and g.edges for g in graphs)
    ks = [0.0, -0.0, 1.0, -1.0, 143.2, -143.2, *rng.uniform(-200.0, 200.0, size=20)]
    for g in graphs:
        a = g.adjacency_matrix()
        d = g.degree_vector()
        assert d.dtype == np.int64
        counted = [0] * g.n
        for u, v in g.edges:
            counted[u] += 1
            counted[v] += 1
        assert d.tolist() == counted
        for k in ks:
            expected = -(a + k * np.diag(d.astype(float)))
            h = hamiltonian_matrix(Generalized(float(k)), g)
            assert np.array_equal(h, expected), (g, k)
            assert np.array_equal(np.signbit(h), np.signbit(expected)), (g, k)
            perturbation = np.zeros_like(a)
            perturbation[0, 0] = perturbation[g.n - 1, g.n - 1] = k
            expected = -(a + perturbation)
            h = hamiltonian_matrix(LoopPerturbed(0, g.n - 1, float(k)), g)
            assert np.array_equal(h, expected), (g, k)
            assert np.array_equal(np.signbit(h), np.signbit(expected)), (g, k)


def test_loop_weight_reduction_preserves_transfer_magnitude() -> None:
    # |U(t)_{u,v}| under A + kD equals that under A + q(E_u + E_v), q = k(d1 - d2)
    rng = np.random.default_rng(37)
    cases = [(path_graph(5), 0, 4), (complete_bipartite(2, 4), 0, 1)]
    for g, u, v in cases:
        for _ in range(20):
            k = float(rng.uniform(-10.0, 10.0))
            t = float(rng.uniform(0.1, 20.0))
            full = eigendecompose(hamiltonian_matrix(Generalized(k), g))
            reduced = eigendecompose(hamiltonian_matrix(reduced_model(g, u, v, k), g))
            diff = abs(
                abs(evolution_amplitude(pair_spectrum(full, u, v), t))
                - abs(evolution_amplitude(pair_spectrum(reduced, u, v), t))
            )
            assert diff <= 1e-9
