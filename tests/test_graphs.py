from __future__ import annotations

import math

import numpy as np
import pytest

from generators import random_graph
from glwalk import (
    EdgeListError,
    Graph,
    complete_bipartite,
    cycle_graph,
    from_edge_list,
    path_graph,
    to_edge_list,
)


def test_from_edge_list_small_path() -> None:
    g = from_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == {(0, 1), (1, 2)}
    assert not g.loop_weights


def test_from_edge_list_header_only_gives_edgeless_graph() -> None:
    g = from_edge_list("n=4")
    assert g.n == 4
    assert g.num_edges == 0


def test_from_edge_list_duplicate_edge_rejected_with_line() -> None:
    with pytest.raises(EdgeListError) as err:
        from_edge_list("0 1\n0 1")
    assert err.value.line == 2

    with pytest.raises(EdgeListError):
        from_edge_list("0 1\n1 0")


def test_from_edge_list_malformed_line_reports_number() -> None:
    with pytest.raises(EdgeListError) as err:
        from_edge_list("0 1\nnot an edge line at all")
    assert err.value.line == 2


def test_from_edge_list_index_beyond_declared_n() -> None:
    # each index is checked on the line that names it, so the earliest bad line is reported
    for text, line in (("n=2\n0 5", 2), ("n=3\n0 1\nloop 7 1.0", 3), ("n=3\nloop 7 1.0\n0 9", 2)):
        with pytest.raises(EdgeListError, match="declared") as err:
            from_edge_list(text)
        assert err.value.line == line


def test_from_edge_list_comments_blanks_and_loops() -> None:
    text = "# tiny graph\nn=3\n\n0 1\nloop 2 -1.5\n# trailing comment\n"
    g = from_edge_list(text)
    assert g.n == 3
    assert g.edges == {(0, 1)}
    assert dict(g.loop_weights) == {2: -1.5}


def test_from_edge_list_rejects_bad_documents() -> None:
    with pytest.raises(EdgeListError):
        from_edge_list("")
    with pytest.raises(EdgeListError):
        from_edge_list("3 3")
    with pytest.raises(EdgeListError):
        from_edge_list("-1 2")
    with pytest.raises(EdgeListError):
        from_edge_list("loop 0 1.0\nloop 0 2.0")
    with pytest.raises(EdgeListError):
        from_edge_list("loop 0")


def test_path_graph_shapes() -> None:
    p6 = path_graph(6)
    assert p6.num_edges == 5
    assert list(p6.degree_vector()) == [1, 2, 2, 2, 2, 1]

    single = path_graph(1)
    assert single.n == 1 and single.num_edges == 0

    p2 = path_graph(2)
    assert p2.edges == {(0, 1)}

    with pytest.raises(ValueError):
        path_graph(0)


def test_complete_bipartite_shapes() -> None:
    k24 = complete_bipartite(2, 4)
    assert k24.num_edges == 8
    assert list(k24.degree_vector()) == [4, 4, 2, 2, 2, 2]

    assert complete_bipartite(1, 1).edges == {(0, 1)}

    k23 = complete_bipartite(2, 3)
    assert sorted(k23.degree_vector()) == [2, 2, 2, 3, 3]

    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        complete_bipartite(3, 0)


def test_degree_vector_edgeless() -> None:
    assert list(Graph(n=3).degree_vector()) == [0, 0, 0]


def test_distance_examples() -> None:
    p6 = path_graph(6)
    assert p6.distance(0, 5) == 5
    assert p6.distance(0, 0) == 0

    k24 = complete_bipartite(2, 4)
    # the two degree-4 vertices are nonadjacent but share every part-2 neighbor
    assert not k24.has_edge(0, 1)
    assert k24.has_edge(0, 2) and k24.has_edge(1, 2)
    assert k24.distance(0, 1) == 2

    assert Graph(n=2).distance(0, 1) == math.inf

    with pytest.raises(IndexError):
        p6.distance(0, 6)


def test_graph_validation() -> None:
    with pytest.raises(ValueError):
        Graph(n=0)
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(n=2, loop_weights={5: 1.0})


def test_graph_is_immutable() -> None:
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5  # type: ignore[misc]
    with pytest.raises(TypeError):
        g.loop_weights[0] = 1.0  # type: ignore[index]


def test_adjacency_matrix_symmetric_zero_diagonal_before_loops() -> None:
    g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}), loop_weights={1: 2.5})
    bare = g.adjacency_matrix(with_loops=False)
    assert np.array_equal(bare, bare.T)
    assert np.all(np.diag(bare) == 0.0)
    with_loops = g.adjacency_matrix()
    assert with_loops[1, 1] == 2.5


def test_degree_sum_is_twice_edge_count() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_graph(rng)
        assert int(g.degree_vector().sum()) == 2 * g.num_edges


def test_edge_list_round_trip() -> None:
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_graph(rng)
        back = from_edge_list(to_edge_list(g))
        assert back.n == g.n
        assert back.edges == g.edges
        assert dict(back.loop_weights) == dict(g.loop_weights)


def test_distance_is_symmetric() -> None:
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = random_graph(rng, n_max=12)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.distance(u, v) == g.distance(v, u)


def test_path_has_exactly_two_leaves() -> None:
    for n in range(2, 10):
        deg = path_graph(n).degree_vector()
        assert int(np.sum(deg == 1)) == 2


def test_bipartite_degree_multiset() -> None:
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        deg = sorted(complete_bipartite(a, b).degree_vector())
        assert deg == sorted([b] * a + [a] * b)


def test_cycle_graph() -> None:
    c5 = cycle_graph(5)
    assert c5.num_edges == 5
    assert all(d == 2 for d in c5.degree_vector())
    with pytest.raises(ValueError):
        cycle_graph(2)
