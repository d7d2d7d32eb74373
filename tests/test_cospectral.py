from __future__ import annotations

import math

import numpy as np
import pytest

from generators import PATH6_RELABELLED, mirror_pair, random_graph, relabelled, structured_graph
from glwalk import (
    Adjacency,
    Graph,
    GroupSign,
    InvolutionSearchLimitError,
    LoopPerturbed,
    closed_walk_counts,
    complete_bipartite,
    cospectrality,
    cycle_graph,
    eigendecompose,
    find_involution_pairing,
    from_edge_list,
    hamiltonian_matrix,
    pair_spectrum,
    path_graph,
    sign_pattern,
    verify_involution,
)
import glwalk.cospectral
from glwalk.cospectral import INT64_MAX, PROJECTOR_DIAG_TOL, parse_permutation
from oracles import projector_matrices, walk_count_oracle


def _adjacency_dec(g: Graph):
    return eigendecompose(g.adjacency_matrix(with_loops=False))


def _adjacency_projectors(g: Graph):
    return projector_matrices(_adjacency_dec(g))


def test_walk_counts_p3_endpoint() -> None:
    counts = closed_walk_counts(path_graph(3), 0, 6)
    assert counts == walk_count_oracle(path_graph(3), 0, 6)
    assert counts[:3] == [0, 1, 0]  # closed 2-walks equal the degree
    assert counts[3] == 2


def test_walk_counts_p4_interior() -> None:
    assert closed_walk_counts(path_graph(4), 1, 2)[1] == 2


def test_walk_counts_k24() -> None:
    counts = closed_walk_counts(complete_bipartite(2, 4), 0, 4)
    assert counts[3] == 32
    assert counts == walk_count_oracle(complete_bipartite(2, 4), 0, 4)


def test_walk_counts_validation() -> None:
    with pytest.raises(ValueError):
        closed_walk_counts(path_graph(3), 0, 0)
    with pytest.raises(IndexError):
        closed_walk_counts(path_graph(3), 7, 2)


def test_walk_counts_loop_weights_ignored() -> None:
    bare = path_graph(4)
    weighted = Graph(n=4, edges=bare.edges, loop_weights={0: 99.0})
    assert closed_walk_counts(weighted, 0, 8) == closed_walk_counts(bare, 0, 8)


def test_walk_counts_past_128_bits_match_oracle() -> None:
    # K_30 counts grow like 29^k; (A^k)_{xx} passes 2^128 near k = 27
    n = 30
    dense = Graph(n=n, edges=frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    counts = closed_walk_counts(dense, 0, 90)
    assert counts == walk_count_oracle(dense, 0, 90)
    assert max(counts).bit_length() > 128


def test_walk_counts_past_128_bits_on_slow_growth() -> None:
    # counts here grow by at most about 3.5x per length (2x on the cycle), so
    # they pass 2^128 only after a long run of lengths counted in Python ints
    for g in (cycle_graph(8), complete_bipartite(3, 4)):
        counts = closed_walk_counts(g, 0, 400)
        assert counts == walk_count_oracle(g, 0, 400)
        assert max(counts).bit_length() > 128


def _random_graph_with_degree(seed: int, min_degree: int, k_max: int) -> Graph:
    # a seeded G(n, p) with maximum degree >= min_degree whose counts stay below 2^120 to k_max
    rng = np.random.default_rng(seed)
    while True:
        g = random_graph(rng, n_max=12, allow_loops=False)
        if g.num_edges and g.max_degree() >= min_degree:
            radius = float(np.max(np.abs(np.linalg.eigvalsh(g.adjacency_matrix()))))
            if radius**k_max < 2.0**120:
                return g


def _int64_switch_cases() -> list[tuple[Graph, int]]:
    return [
        (complete_bipartite(10, 10), 38),
        (cycle_graph(24), 80),
        (_random_graph_with_degree(89, 6, 40), 40),
    ]


def test_walk_counts_across_int64_switch_match_oracle() -> None:
    for g, k_max in _int64_switch_cases():
        for x in range(min(g.n, 4)):
            counts = closed_walk_counts(g, x, k_max)
            assert counts == walk_count_oracle(g, x, k_max)
            assert all(type(c) is int for c in counts)
        # the counts pass the int64 guard inside the compared range
        assert g.max_degree() * max(counts) > INT64_MAX


def _oracle_cospectrality(g: Graph, u: int, v: int) -> tuple[float, tuple | None]:
    counts_u = walk_count_oracle(g, u, g.n - 1)
    counts_v = walk_count_oracle(g, v, g.n - 1)
    for k, (cu, cv) in enumerate(zip(counts_u, counts_v), start=1):
        if cu != cv:
            return k - 1, (k, cu, cv)
    return math.inf, None


def test_cospectrality_across_int64_switch_matches_oracle() -> None:
    # each pair is relabelled to hide the closed-form candidates, so it is counted unless it is
    # twins (two vertices on one side of a complete bipartite graph)
    rng = np.random.default_rng(64)
    cases = [g for g, _ in _int64_switch_cases()] + [complete_bipartite(12, 12)]
    for named in cases:
        for pair in [(0, 1), (0, named.n - 1), (1, named.n // 2)]:
            g, u, v = relabelled(named, *pair, rng)
            result = cospectrality(g, u, v)
            order, divergence = _oracle_cospectrality(g, u, v)
            assert result.order == order
            if divergence is None:
                assert result.first_divergence is None
            else:
                got = result.first_divergence
                assert (got.length, got.count_u, got.count_v) == divergence
                assert type(got.count_u) is int and type(got.count_v) is int


def test_cospectrality_path6_endpoints_infinite() -> None:
    result = cospectrality(path_graph(6), 0, 5)
    assert result.infinite
    assert result.first_divergence is None


def test_cospectrality_p4_order_one() -> None:
    result = cospectrality(path_graph(4), 0, 1)
    assert result.order == 1
    assert not result.infinite
    assert result.first_divergence is not None
    assert result.first_divergence.length == 2
    assert (result.first_divergence.count_u, result.first_divergence.count_v) == (1, 2)


def test_cospectrality_k24_part_pair_infinite() -> None:
    assert cospectrality(complete_bipartite(2, 4), 0, 1).infinite


def test_cospectrality_rejects_equal_vertices() -> None:
    with pytest.raises(ValueError):
        cospectrality(path_graph(3), 1, 1)


def test_sign_pattern_p2() -> None:
    # adjacency-model Hamiltonian H = -A: the symmetric eigenvector comes first
    h = hamiltonian_matrix(Adjacency(), path_graph(2))
    pattern = sign_pattern(pair_spectrum(eigendecompose(h), 0, 1))
    assert pattern.signs == (GroupSign.PLUS, GroupSign.MINUS)
    assert pattern.consistent


def test_sign_pattern_p6_endpoints_never_mixed() -> None:
    pattern = sign_pattern(pair_spectrum(_adjacency_dec(path_graph(6)), 0, 5))
    assert pattern.consistent
    assert set(pattern.signs) <= {GroupSign.PLUS, GroupSign.MINUS}


def test_sign_pattern_p4_has_mixed_group() -> None:
    pattern = sign_pattern(pair_spectrum(_adjacency_dec(path_graph(4)), 0, 1))
    assert GroupSign.MIXED in pattern.signs


def test_sign_pattern_null_group() -> None:
    # one edge plus two isolated vertices: the zero eigenspace never touches
    # the edge pair, so its group classifies as NULL for (0, 1)
    g = Graph(n=4, edges=frozenset({(0, 1)}))
    pattern = sign_pattern(pair_spectrum(_adjacency_dec(g), 0, 1))
    assert pattern.signs == (GroupSign.MINUS, GroupSign.NULL, GroupSign.PLUS)


def test_localization_mass_p2() -> None:
    masses = pair_spectrum(_adjacency_dec(path_graph(2)), 0, 1).masses
    assert np.allclose(masses, [1.0, 1.0], atol=1e-12)


def test_localization_mass_concentrates_under_large_loops() -> None:
    dec = eigendecompose(hamiltonian_matrix(LoopPerturbed(0, 5, -143.0), path_graph(6)))
    pair = pair_spectrum(dec, 0, 5)
    masses = pair.masses
    top_two = np.argsort(-np.abs(pair.means))[:2]
    assert masses[top_two].sum() >= 2.0 - 0.05


def test_localization_mass_edgeless() -> None:
    masses = pair_spectrum(_adjacency_dec(Graph(n=3)), 0, 1).masses
    assert len(masses) == 1
    assert masses[0] == pytest.approx(2.0, abs=1e-12)


def test_verify_involution() -> None:
    p6 = path_graph(6)
    assert verify_involution(p6, (5, 4, 3, 2, 1, 0))
    assert verify_involution(p6, tuple(range(6)))
    assert not verify_involution(path_graph(3), (1, 2, 0))  # 3-cycle, not an involution
    assert not verify_involution(p6, (1, 0, 2, 3, 4, 5))  # involution but not automorphism
    with pytest.raises(ValueError):
        verify_involution(p6, (0, 0, 1, 2, 3, 4))


def test_find_involution_p6_reversal() -> None:
    assert find_involution_pairing(path_graph(6), 0, 5) == (5, 4, 3, 2, 1, 0)


def test_find_involution_k24_swaps_the_pair() -> None:
    k24 = complete_bipartite(2, 4)
    sigma = find_involution_pairing(k24, 0, 1)
    assert sigma is not None
    assert sigma[0] == 1 and sigma[1] == 0
    assert verify_involution(k24, sigma)


def test_find_involution_p4_none_for_mismatched_orbit() -> None:
    assert find_involution_pairing(path_graph(4), 0, 1) is None


def test_find_involution_capacity_error() -> None:
    with pytest.raises(InvolutionSearchLimitError):
        find_involution_pairing(path_graph(17), 0, 16)


def test_parse_permutation() -> None:
    assert parse_permutation("5,4,3,2,1,0", 6) == (5, 4, 3, 2, 1, 0)
    with pytest.raises(ValueError):
        parse_permutation("0,1", 3)
    with pytest.raises(ValueError):
        parse_permutation("0,0,1", 3)
    with pytest.raises(ValueError):
        parse_permutation("a,b", 2)


def _projector_diagonals_agree(g: Graph, u: int, v: int) -> bool:
    return all(
        abs(p[u, u] - p[v, v]) <= PROJECTOR_DIAG_TOL
        for p in _adjacency_projectors(g)
    )


def test_walk_cutoff_agrees_with_projector_witness() -> None:
    graphs = [path_graph(n) for n in range(2, 8)]
    graphs += [cycle_graph(n) for n in range(3, 8)]
    graphs += [complete_bipartite(a, b) for a in (1, 2, 3) for b in (1, 2, 3, 4)]
    rng = np.random.default_rng(71)
    graphs += [random_graph(rng, n_max=10, allow_loops=False) for _ in range(40)]
    for g in graphs:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert cospectrality(g, u, v).infinite == _projector_diagonals_agree(g, u, v)


def _per_eigenvector_signs_hold(g: Graph, u: int, v: int) -> bool:
    """Basis-independent form of the per-eigenvector sign property.

    A degeneracy group admits an eigenbasis with psi(u) = +-psi(v) iff its
    projector diagonals at u and v agree; a rank-1 group additionally must
    classify as PLUS, MINUS, or NULL (a single eigenvector has one sign).
    Degenerate groups may mix a plus and a minus direction (cycles do this),
    which the group-level pattern reports as MIXED even though a signed
    eigenbasis still exists.
    """
    dec = _adjacency_dec(g)
    pattern = sign_pattern(pair_spectrum(dec, u, v))
    for p, rank, sign in zip(projector_matrices(dec), dec.group_sizes, pattern.signs):
        if abs(p[u, u] - p[v, v]) > PROJECTOR_DIAG_TOL:
            return False
        if rank == 1 and sign is GroupSign.MIXED:
            return False
    return True


def test_involution_implies_infinite_implies_sign_property() -> None:
    rng = np.random.default_rng(73)
    found = 0
    for _ in range(60):
        g = structured_graph(rng, n_max=10) if rng.random() < 0.6 else random_graph(
            rng, n_max=10, allow_loops=False
        )
        if g.n < 2:
            continue
        u, v = mirror_pair(g, rng)
        sigma = find_involution_pairing(g, u, v)
        result = cospectrality(g, u, v)
        if sigma is not None:
            found += 1
            assert verify_involution(g, sigma)
            assert result.infinite
        if result.infinite:
            assert _per_eigenvector_signs_hold(g, u, v)
            # with a simple relevant spectrum the group-level pattern is clean too
            if all(rank == 1 for rank in _adjacency_dec(g).group_sizes):
                assert sign_pattern(pair_spectrum(_adjacency_dec(g), u, v)).consistent
    assert found >= 10  # the implication chain must not be vacuous


def _result_as_tuple(result) -> tuple:
    divergence = result.first_divergence
    return result.order, None if divergence is None else (divergence.length, divergence.count_u, divergence.count_v)


def test_failed_involution_candidates_fall_back_to_counting(walk_runs) -> None:
    # a candidate that is no automorphism, or an automorphism that does not map u to v, proves
    # nothing: on a relabelling that hides the closed forms the order and divergence are counted
    rng = np.random.default_rng(97)
    non_automorphisms = misses = counted = 0
    for _ in range(60):
        g = structured_graph(rng, n_max=10) if rng.random() < 0.5 else random_graph(
            rng, n_max=10, allow_loops=False
        )
        g, u, v = relabelled(g, *mirror_pair(g, rng), rng)
        oracle = _oracle_cospectrality(g, u, v)
        swap = list(range(g.n))
        swap[u], swap[v] = v, u
        for sigma in (swap, tuple(range(g.n)), tuple(range(g.n - 1, -1, -1))):
            if verify_involution(g, sigma):
                if sigma[u] == v:
                    continue
                misses += 1
            else:
                non_automorphisms += 1
            walk_runs.clear()
            assert _result_as_tuple(cospectrality(g, u, v, involution=sigma)) == oracle
            counted += len(walk_runs)
    assert non_automorphisms >= 20 and misses >= 20 and counted >= 100


def test_verified_involution_proves_the_order_without_counting(monkeypatch) -> None:
    # loop weights do not count walks, so an involution need not preserve them
    g = Graph(n=6, edges=from_edge_list(PATH6_RELABELLED).edges, loop_weights={0: 5.0})
    reversal = (5, 3, 4, 1, 2, 0)
    oracle = _oracle_cospectrality(g, 0, 5)
    assert oracle == (math.inf, None)
    assert _result_as_tuple(cospectrality(g, 0, 5)) == oracle

    def fail(*args, **kwargs):
        raise AssertionError("walks were counted or the adjacency matrix decomposed")

    monkeypatch.setattr(glwalk.cospectral, "_closed_walks", fail)
    monkeypatch.setattr(glwalk.cospectral, "eigendecompose", fail)
    assert cospectrality(g, 0, 5, involution=reversal) == cospectrality(g, 5, 0, involution=reversal)
    assert _result_as_tuple(cospectrality(g, 0, 5, involution=reversal)) == oracle
    # a caller's candidate that fails is skipped and the closed forms are tried
    natural = Graph(n=6, edges=path_graph(6).edges, loop_weights={0: 5.0})
    assert cospectrality(natural, 0, 5, involution=tuple(range(6))).infinite
    with pytest.raises(ValueError):
        cospectrality(g, 0, 5, involution=(5, 3, 4, 1, 2, 2))


def test_cospectrality_is_invariant_under_relabelling(walk_runs) -> None:
    # the order is a graph invariant: the named numbering (often proved by a closed form) and a
    # relabelling that hides the closed forms (counted unless the pair is twins) both give the
    # oracle's counted order and divergence
    rng = np.random.default_rng(1819)
    proved = counted = 0
    for _ in range(60):
        g = structured_graph(rng, n_max=12) if rng.random() < 0.6 else random_graph(
            rng, n_max=10, allow_loops=False
        )
        if g.n < 2:
            continue
        u, v = mirror_pair(g, rng)
        h, a, b = relabelled(g, u, v, rng)
        oracle = _oracle_cospectrality(g, u, v)
        walk_runs.clear()
        assert _result_as_tuple(cospectrality(g, u, v)) == oracle
        proved += not walk_runs
        walk_runs.clear()
        assert _result_as_tuple(cospectrality(h, a, b)) == oracle
        counted += bool(walk_runs)
    assert proved >= 25 and counted >= 35


def test_closed_two_walks_equal_degree() -> None:
    rng = np.random.default_rng(79)
    for _ in range(20):
        g = random_graph(rng, n_max=10, allow_loops=False)
        deg = g.degree_vector()
        for x in range(g.n):
            assert closed_walk_counts(g, x, 2)[1] == int(deg[x])


def test_integer_counts_match_float_powers() -> None:
    rng = np.random.default_rng(83)
    for _ in range(15):
        g = random_graph(rng, n_max=8, allow_loops=False)
        a = g.adjacency_matrix(with_loops=False)
        for x in range(g.n):
            counts = closed_walk_counts(g, x, 12)
            power = np.eye(g.n)
            for k in range(1, 13):
                power = power @ a
                assert counts[k - 1] == round(float(power[x, x]))
