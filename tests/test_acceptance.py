"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Timing assertions measure the computation (not process or
collection overhead); sub-millisecond budgets use a best-of-5 measurement.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from generators import mirror_pair, random_graph, random_model, structured_graph
from glwalk import (
    Adjacency,
    Generalized,
    GroupSign,
    Laplacian,
    SignlessLaplacian,
    TwoLevelSearch,
    complete_bipartite,
    cospectrality,
    eigendecompose,
    evolution_amplitude,
    find_involution_pairing,
    hamiltonian_matrix,
    k_threshold_two_class,
    pair_spectrum,
    path_graph,
    peak_fidelity,
    readout_time_bound,
    reduced_model,
    sign_pattern,
    verify_involution,
)
from glwalk.cli import main as cli_main
from glwalk.cospectral import PROJECTOR_DIAG_TOL
from glwalk.spectral import ORTHONORMALITY_TOL, residual_tolerance
from oracles import projector_matrices, unitary_oracle


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] {outcome}: {description} ({elapsed:.3f}s)")


def _best_of(repeats: int, fn) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _decompose(model, graph):
    return eigendecompose(hamiltonian_matrix(model, graph))


def test_criterion_1_threshold_reproduction(capsys) -> None:
    with criterion(1, "bound on P6 endpoints reproduces k_min ~ 143.108 in < 1 ms"):
        code = cli_main(["bound", "--graph", "path:6", "--u", "0", "--v", "5", "--epsilon", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        k_min = json.loads(out)["k_min"]
        assert 143.0 <= k_min <= 143.2
        assert abs(k_min - 32.0 * math.sqrt(2.0) / math.sqrt(0.1)) <= 0.1

        p6 = path_graph(6)
        k_threshold_two_class(p6, 0, 5, 0.1)  # warm up
        elapsed = _best_of(5, lambda: k_threshold_two_class(p6, 0, 5, 0.1))
        assert elapsed < 1e-3


def test_criterion_2_tuned_walk_guarantee_end_to_end() -> None:
    with criterion(2, "P6 generalized k=143 two-level peak: |U| >= 0.9 below the readout bound"):
        p6 = path_graph(6)
        start = time.perf_counter()
        dec = _decompose(Generalized(143.0), p6)
        peak = peak_fidelity(pair_spectrum(dec, 0, 5), TwoLevelSearch())
        elapsed = time.perf_counter() - start
        assert peak.fidelity >= 0.9
        assert peak.t_star < 2.0 * math.pi * 145.0**4
        assert elapsed < 0.1


def test_criterion_3_standard_models_underperform() -> None:
    with criterion(3, "P6 adjacency/Laplacian/signless grid peaks < k=143 peak probability"):
        start = time.perf_counter()
        p6 = path_graph(6)
        tuned = peak_fidelity(pair_spectrum(_decompose(Generalized(143.0), p6), 0, 5), TwoLevelSearch())
        tuned_probability = tuned.fidelity**2
        times = np.linspace(0.0, 500.0, 500001)  # dt = 1e-3
        for model in (Adjacency(), Laplacian(), SignlessLaplacian()):
            dec = _decompose(model, p6)
            weights = dec.eigenvectors[0] * dec.eigenvectors[5]
            probs = np.abs(np.exp(-1j * np.outer(times, dec.eigenvalues)) @ weights) ** 2
            assert float(probs.max()) < tuned_probability
        assert time.perf_counter() - start < 10.0


def test_criterion_4_loop_weight_reduction_equivalence() -> None:
    with criterion(4, "generalized vs loop-perturbed |U| agree to 1e-9 on P5 and K24"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for g, u, v in ((path_graph(5), 0, 4), (complete_bipartite(2, 4), 0, 1)):
            for _ in range(20):
                k = float(rng.uniform(-10.0, 10.0))
                t = float(rng.uniform(0.1, 20.0))
                full = _decompose(Generalized(k), g)
                reduced = _decompose(reduced_model(g, u, v, k), g)
                diff = abs(
                    abs(evolution_amplitude(pair_spectrum(full, u, v), t))
                    - abs(evolution_amplitude(pair_spectrum(reduced, u, v), t))
                )
                assert diff <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_5_cospectrality_suite() -> None:
    with criterion(5, "exact cospectrality orders and verified involutions"):
        start = time.perf_counter()
        for g, u, v in ((path_graph(6), 0, 5), (complete_bipartite(2, 4), 0, 1)):
            result = cospectrality(g, u, v)
            assert result.infinite
            sigma = find_involution_pairing(g, u, v)
            assert sigma is not None
            assert verify_involution(g, sigma)
            assert sigma[u] == v
        p4 = cospectrality(path_graph(4), 0, 1)
        assert p4.order == 1
        assert p4.first_divergence is not None
        assert p4.first_divergence.length == 2
        assert p4.first_divergence.count_u == 1
        assert p4.first_divergence.count_v == 2
        assert time.perf_counter() - start < 1.0


def test_criterion_6_bipartite_threshold_and_dynamics() -> None:
    with criterion(6, "K24 threshold ~ 202.39 and k=203 dynamics inside the guarantee"):
        start = time.perf_counter()
        k24 = complete_bipartite(2, 4)
        res = k_threshold_two_class(k24, 0, 1, 0.1)
        assert abs(res.k_min - 16.0 * 4.0**1.5 / (math.sqrt(0.1) * 2.0)) <= 0.1
        assert abs(res.k_min - 202.39) <= 0.1

        peak = peak_fidelity(pair_spectrum(_decompose(Generalized(203.0), k24), 0, 1), TwoLevelSearch())
        assert peak.fidelity >= 0.9
        assert peak.t_star < readout_time_bound(203.0 * 2.0, 4, 2)
        assert time.perf_counter() - start < 1.0


def _per_eigenvector_signs_hold(g, u: int, v: int) -> bool:
    # basis-independent reading of the per-eigenvector sign property: equal
    # projector diagonals per group; rank-1 groups must classify PLUS/MINUS/NULL
    dec = eigendecompose(g.adjacency_matrix(with_loops=False))
    pattern = sign_pattern(pair_spectrum(dec, u, v))
    for p, rank, sign in zip(projector_matrices(dec), dec.group_sizes, pattern.signs):
        if abs(p[u, u] - p[v, v]) > PROJECTOR_DIAG_TOL:
            return False
        if rank == 1 and sign is GroupSign.MIXED:
            return False
    return True


def test_criterion_7_property_suites() -> None:
    with criterion(7, "unitarity/phase/sign/oracle/eigen/involution properties on 200 instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        involutions_found = 0
        for trial in range(200):
            structured = trial % 3 == 0
            g = structured_graph(rng) if structured else random_graph(rng, n_max=12)
            model = random_model(rng, g)
            h = hamiltonian_matrix(model, g)
            dec = eigendecompose(h)
            n = g.n
            t = float(rng.uniform(0.1, 20.0))
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))

            # eigendecomposition contracts, scaled by max(1, inf-norm)
            tol = residual_tolerance(h)
            vec, lam = dec.eigenvectors, dec.eigenvalues
            assert float(np.max(np.abs(h @ vec - vec * lam))) <= tol
            assert float(np.max(np.abs(vec.T @ vec - np.eye(n)))) <= ORTHONORMALITY_TOL
            assert float(np.max(np.abs((vec * lam) @ vec.T - h))) <= tol

            # unitarity: outgoing probabilities sum to one
            operator = np.array(
                [[evolution_amplitude(pair_spectrum(dec, a, b), t) for b in range(n)] for a in range(n)]
            )
            assert abs(float(np.sum(np.abs(operator[u]) ** 2)) - 1.0) <= 1e-9

            # global phase and sign invariance of |U|
            c = float(rng.uniform(-5.0, 5.0))
            base = abs(evolution_amplitude(pair_spectrum(dec, u, v), t))
            shifted = abs(
                evolution_amplitude(pair_spectrum(eigendecompose(h + c * np.eye(n)), u, v), t)
            )
            negated = abs(evolution_amplitude(pair_spectrum(eigendecompose(-h), u, v), t))
            assert abs(base - shifted) <= 1e-10
            assert abs(base - negated) <= 1e-10

            # spectral evolution vs the Taylor exponential oracle
            if n <= 10:
                assert float(np.max(np.abs(operator - unitary_oracle(h, t)))) <= 1e-8

            # involution => infinite order => per-eigenvector sign property
            if n >= 2:
                a, b = mirror_pair(g, rng) if structured else (u, v if v != u else (u + 1) % n)
                if a != b:
                    sigma = find_involution_pairing(g, a, b)
                    result = cospectrality(g, a, b)
                    if sigma is not None:
                        involutions_found += 1
                        assert verify_involution(g, sigma)
                        assert result.infinite
                    if result.infinite:
                        assert _per_eigenvector_signs_hold(g, a, b)
        assert involutions_found >= 20
        assert time.perf_counter() - start < 60.0


def test_criterion_8_perfect_transfer_sanity() -> None:
    with criterion(8, "P2 adjacency peak 1.0 at t = pi/2 within 1e-9 in < 1 ms"):
        dec = _decompose(Adjacency(), path_graph(2))
        peak = peak_fidelity(pair_spectrum(dec, 0, 1), TwoLevelSearch())
        assert abs(peak.fidelity - 1.0) <= 1e-9
        assert abs(peak.t_star - math.pi / 2.0) <= 1e-9
        elapsed = _best_of(5, lambda: peak_fidelity(pair_spectrum(dec, 0, 1), TwoLevelSearch()))
        assert elapsed < 1e-3