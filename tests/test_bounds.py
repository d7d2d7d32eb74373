from __future__ import annotations

import math

import numpy as np
import pytest

from glwalk import (
    DegreeStructureError,
    Generalized,
    Graph,
    ThresholdInput,
    TwoLevelSearch,
    complete_bipartite,
    eigendecompose,
    hamiltonian_matrix,
    k_threshold_two_class,
    pair_spectrum,
    path_graph,
    peak_fidelity,
    q_threshold,
    readout_time_bound,
)


def test_q_threshold_path_endpoints() -> None:
    res = q_threshold(ThresholdInput(0.1, 2, math.inf, 5))
    assert res.q_min == pytest.approx(32.0 * math.sqrt(2.0) / math.sqrt(0.1), abs=1e-9)
    assert res.q_min == pytest.approx(143.108, abs=1e-3)
    assert (res.eps_exponent, res.degree_exponent) == (2.0, 0.5)


def test_q_threshold_k24() -> None:
    res = q_threshold(ThresholdInput(0.1, 4, math.inf, 2))
    assert res.q_min == pytest.approx(128.0 / math.sqrt(0.1), abs=1e-9)
    assert res.q_min == pytest.approx(404.77, abs=1e-2)


def test_q_threshold_finite_cospectrality() -> None:
    # c = d collapses the exponents to (1, d): q_min = 16 * m^(1+d) / eps
    eps, m, d = 0.25, 3, 2
    res = q_threshold(ThresholdInput(eps, m, d, d))
    assert res.eps_exponent == 1.0
    assert res.degree_exponent == float(d)
    assert res.q_min == pytest.approx(16.0 * m ** (1 + d) / eps, rel=1e-12)


def test_threshold_input_validation() -> None:
    with pytest.raises(ValueError):
        ThresholdInput(1.0, 2, math.inf, 5)
    with pytest.raises(ValueError):
        ThresholdInput(0.0, 2, math.inf, 5)
    with pytest.raises(ValueError):
        ThresholdInput(-0.5, 2, math.inf, 5)
    with pytest.raises(ValueError):
        ThresholdInput(0.1, 0, math.inf, 5)
    with pytest.raises(ValueError):
        ThresholdInput(0.1, 2, math.inf, 0)
    with pytest.raises(ValueError):
        ThresholdInput(0.1, 2, 3, 5)  # c < d breaks the hypothesis


def test_infinite_cospectrality_closed_form() -> None:
    rng = np.random.default_rng(89)
    for _ in range(50):
        eps = float(rng.uniform(0.01, 0.99))
        m = int(rng.integers(1, 10))
        d = int(rng.integers(1, 8))
        res = q_threshold(ThresholdInput(eps, m, math.inf, d))
        assert res.q_min == pytest.approx(16.0 * m**1.5 / math.sqrt(eps), rel=1e-12)


def test_q_threshold_monotonicity() -> None:
    rng = np.random.default_rng(97)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        c = float(rng.integers(d, d + 6)) if rng.random() < 0.5 else math.inf
        m = int(rng.integers(1, 8))
        eps_small, eps_big = sorted(rng.uniform(0.01, 0.99, size=2))
        if eps_small == eps_big:
            continue
        low = q_threshold(ThresholdInput(eps_big, m, c, d)).q_min
        high = q_threshold(ThresholdInput(eps_small, m, c, d)).q_min
        assert high >= low  # decreasing in epsilon
        bigger_m = q_threshold(ThresholdInput(eps_big, m + 1, c, d)).q_min
        assert bigger_m > low  # increasing in degree


def test_k_threshold_k24() -> None:
    res = k_threshold_two_class(complete_bipartite(2, 4), 0, 1, 0.1)
    assert res.k_min == pytest.approx(16.0 * 4.0**1.5 / (math.sqrt(0.1) * 2.0), abs=1e-9)
    assert res.k_min == pytest.approx(202.39, abs=1e-2)
    assert res.q_min == pytest.approx(res.k_min * 2.0, rel=1e-12)


def test_k_threshold_path() -> None:
    res = k_threshold_two_class(path_graph(6), 0, 5, 0.1)
    assert res.k_min == pytest.approx(143.108, abs=1e-3)
    assert res.k_min == res.q_min  # |d1 - d2| = 1

    relaxed = k_threshold_two_class(path_graph(6), 0, 5, 0.4)
    assert relaxed.k_min == pytest.approx(32.0 * math.sqrt(2.0) / math.sqrt(0.4), abs=1e-9)
    assert relaxed.k_min == pytest.approx(71.554, abs=1e-3)


def test_k_threshold_structure_errors() -> None:
    with pytest.raises(DegreeStructureError):
        k_threshold_two_class(complete_bipartite(2, 4), 0, 2, 0.1)
    disconnected = Graph(n=4, edges=frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        k_threshold_two_class(disconnected, 0, 2, 0.1)


def test_q_threshold_beyond_float_range_is_infinite() -> None:
    # c = d: q_min = 16 * m^(1+d) / eps, whose power 5e-324 ** -1 raises OverflowError
    res = q_threshold(ThresholdInput(epsilon=5e-324, max_degree=2, cospectrality_order=1, distance=1))
    assert res.q_min == math.inf
    assert res.t_bound == pytest.approx(2.0 * math.pi)
    # finite powers whose product saturates
    res = q_threshold(ThresholdInput(epsilon=1e-300, max_degree=1000, cospectrality_order=5, distance=5))
    assert res.q_min == math.inf
    assert res.t_bound == math.inf
    # two degree classes, cospectrality order = distance = 3
    edges = [(0, 2), (0, 4), (0, 5), (1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (3, 6), (3, 7), (4, 7)]
    g = Graph(n=8, edges=frozenset(edges))
    for epsilon in (5e-324, 1e-306):
        res = k_threshold_two_class(g, 3, 5, epsilon)
        assert (res.q_min, res.k_min, res.t_bound) == (math.inf, math.inf, math.inf)
        assert res.cospectrality_order == 3
    assert k_threshold_two_class(g, 3, 5, 0.1).q_min == pytest.approx(16.0 * 3**4 / 0.1, rel=1e-12)


def test_readout_time_bound() -> None:
    assert readout_time_bound(143.0, 2, 5) == pytest.approx(2.0 * math.pi * 145.0**4, rel=1e-12)
    assert readout_time_bound(143.0, 2, 5) == pytest.approx(2.777e9, rel=1e-3)
    assert readout_time_bound(7.0, 3, 1) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert readout_time_bound(-143.0, 2, 5) == readout_time_bound(143.0, 2, 5)
    # beyond the float range, in the power or in the factor 2*pi
    assert readout_time_bound(1.0, 2, 1000) == math.inf
    assert readout_time_bound(1.7e308, 2, 2) == math.inf
    with pytest.raises(ValueError):
        readout_time_bound(1.0, 2, 0)


def test_threshold_soundness_end_to_end() -> None:
    # at k = ceil(k_min) the guaranteed regime really delivers
    p6 = path_graph(6)
    res = k_threshold_two_class(p6, 0, 5, 0.1)
    k = float(math.ceil(res.k_min))
    dec = eigendecompose(hamiltonian_matrix(Generalized(k), p6))
    peak = peak_fidelity(pair_spectrum(dec, 0, 5), TwoLevelSearch())
    assert peak.fidelity > 0.9
    assert peak.t_star < readout_time_bound(k * 1.0, 2, 5)
