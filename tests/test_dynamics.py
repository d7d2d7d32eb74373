from __future__ import annotations

import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest

from generators import mirror_pair, random_graph, random_model, structured_graph
from glwalk import (
    Adjacency,
    DegenerateGapError,
    Generalized,
    Graph,
    GridSearch,
    Laplacian,
    LoopPerturbed,
    PeakResult,
    TwoLevelSearch,
    complete_bipartite,
    eigendecompose,
    eigendecompose_stack,
    evolution_amplitude,
    fidelity_curve,
    hamiltonian_matrix,
    hamiltonian_stack,
    pair_spectrum,
    path_graph,
    peak_fidelity,
    sweep_peaks,
    two_level_candidate_time,
)
import glwalk.dynamics
from glwalk.dynamics import CERTIFIED_SHORTFALL, REFINE_RELATIVE_WIDTH, _peaks, _search, _uniform_series
from glwalk.spectral import pair_spectra
from oracles import amplitude_oracle, dense_peak, group_runs, mp_amplitude, unitary_oracle


def _decompose(model, graph):
    return eigendecompose(hamiltonian_matrix(model, graph))


def _pair(model, graph, u, v):
    return pair_spectrum(_decompose(model, graph), u, v)


def _operator(dec, t):
    # exp(-iHt) entry by entry from evolution_amplitude
    return np.array([[evolution_amplitude(pair_spectrum(dec, a, b), t) for b in range(dec.n)] for a in range(dec.n)])


def test_p2_amplitude_is_i_sin_t() -> None:
    pair = _pair(Adjacency(), path_graph(2), 0, 1)
    for t in (0.3, math.pi / 2, 2.0, 5.7):
        amp = evolution_amplitude(pair, t)
        assert cmath.isclose(amp, 1j * math.sin(t), abs_tol=1e-12)
    assert abs(evolution_amplitude(pair, math.pi / 2)) == pytest.approx(1.0, abs=1e-12)


def test_time_zero_is_identity() -> None:
    rng = np.random.default_rng(41)
    g = random_graph(rng, n_max=8)
    dec = _decompose(random_model(rng, g), g)
    for u in range(g.n):
        assert evolution_amplitude(pair_spectrum(dec, u, u), 0.0) == pytest.approx(1.0, abs=1e-12)
        for v in range(g.n):
            if v != u:
                assert abs(evolution_amplitude(pair_spectrum(dec, u, v), 0.0)) <= 1e-12


def test_p3_laplacian_matches_exponential_oracle() -> None:
    p3 = path_graph(3)
    h = hamiltonian_matrix(Laplacian(), p3)
    dec = eigendecompose(h)
    expected = unitary_oracle(h, 1.0)[0, 2]
    assert abs(evolution_amplitude(pair_spectrum(dec, 0, 2), 1.0) - expected) <= 1e-9


def test_transfer_probability_p2() -> None:
    pair = _pair(Adjacency(), path_graph(2), 0, 1)
    assert abs(evolution_amplitude(pair, math.pi / 2)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(evolution_amplitude(pair, math.pi)) ** 2 <= 1e-12


def test_p6_time_sweep_matches_oracle() -> None:
    p6 = path_graph(6)
    h = hamiltonian_matrix(Adjacency(), p6)
    pair = pair_spectrum(eigendecompose(h), 0, 5)
    for t in np.linspace(0.5, 30.0, 12):
        expected = abs(unitary_oracle(h, float(t))[0, 5]) ** 2
        assert abs(evolution_amplitude(pair, float(t))) ** 2 == pytest.approx(expected, abs=1e-9)


def test_fidelity_curve_p2() -> None:
    pair = _pair(Adjacency(), path_graph(2), 0, 1)
    curve = fidelity_curve(pair, math.pi, 3)
    assert np.allclose(curve.times, [0.0, math.pi / 2, math.pi])
    assert np.allclose(curve.probabilities, [0.0, 1.0, 0.0], atol=1e-12)

    endpoints = fidelity_curve(pair, 2.0, 2)
    assert list(endpoints.times) == [0.0, 2.0]

    with pytest.raises(ValueError):
        fidelity_curve(pair, 0.0, 5)
    with pytest.raises(ValueError):
        fidelity_curve(pair, 1.0, 1)


def test_fidelity_curve_covers_two_level_beat() -> None:
    pair = _pair(Generalized(143.0), path_graph(6), 0, 5)
    t_star = two_level_candidate_time(pair)
    curve = fidelity_curve(pair, 2.0 * t_star, 4001)
    assert float(curve.probabilities.max()) >= 0.81


def test_two_level_candidate_p2() -> None:
    assert two_level_candidate_time(_pair(Adjacency(), path_graph(2), 0, 1)) == pytest.approx(math.pi / 2, rel=1e-12)


def test_two_level_candidate_matches_dense_argmax() -> None:
    dec = _decompose(LoopPerturbed(0, 5, -143.0), path_graph(6))
    t_star = two_level_candidate_time(pair_spectrum(dec, 0, 5))
    grid = np.linspace(0.0, 2.0 * t_star, 20001)
    t_best, _ = dense_peak(dec, 0, 5, grid)
    assert abs(t_star - t_best) / t_best <= 0.01


def test_two_level_candidate_near_first_lobe_k24() -> None:
    dec = _decompose(LoopPerturbed(0, 1, 50.0), complete_bipartite(2, 4))
    pair = pair_spectrum(dec, 0, 1)
    t_star = two_level_candidate_time(pair)
    lobe = np.linspace(0.9 * t_star, 1.1 * t_star, 20001)
    t_best, _ = dense_peak(dec, 0, 1, lobe)
    assert abs(t_star - t_best) / t_best <= 0.01
    # the refined search beats every point of a coarse global scan
    peak = peak_fidelity(pair, TwoLevelSearch())
    coarse = np.linspace(0.0, 2.0 * t_star, 101)
    _, coarse_best = dense_peak(dec, 0, 1, coarse)
    assert peak.fidelity >= coarse_best


def test_two_level_degenerate_gap() -> None:
    pair = _pair(Adjacency(), Graph(n=3), 0, 1)
    with pytest.raises(DegenerateGapError):
        two_level_candidate_time(pair)
    with pytest.raises(DegenerateGapError):
        peak_fidelity(pair, TwoLevelSearch())


def test_peak_p2_two_level() -> None:
    peak = peak_fidelity(_pair(Adjacency(), path_graph(2), 0, 1), TwoLevelSearch())
    assert peak.fidelity == pytest.approx(1.0, abs=1e-9)
    assert peak.t_star == pytest.approx(math.pi / 2, abs=1e-9)
    assert peak.method == "two-level"


def test_peak_p6_generalized_143() -> None:
    peak = peak_fidelity(_pair(Generalized(143.0), path_graph(6), 0, 5), TwoLevelSearch())
    assert peak.fidelity >= 0.9
    assert peak.t_star < 2.0 * math.pi * 145.0**4


def test_peak_grid_below_tuned_value() -> None:
    p6 = path_graph(6)
    grid_peak = peak_fidelity(_pair(Adjacency(), p6, 0, 5), GridSearch(200.0, 200000))
    tuned = peak_fidelity(_pair(Generalized(143.0), p6, 0, 5), TwoLevelSearch())
    assert grid_peak.fidelity < tuned.fidelity


def test_peak_result_reevaluates() -> None:
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_graph(rng, n_max=8, allow_loops=False)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        pair = _pair(Adjacency(), g, u, v)
        try:
            peak = peak_fidelity(pair, TwoLevelSearch())
        except DegenerateGapError:
            peak = peak_fidelity(pair, GridSearch(30.0, 3001))
        assert peak.fidelity == pytest.approx(abs(evolution_amplitude(pair, peak.t_star)), abs=1e-12)
        assert peak.method in ("two-level", "grid", "refined")


def test_peak_strategy_validation() -> None:
    pair = _pair(Adjacency(), path_graph(2), 0, 1)
    with pytest.raises(ValueError):
        peak_fidelity(pair, GridSearch(-1.0, 100))
    with pytest.raises(ValueError):
        peak_fidelity(pair, GridSearch(1.0, 2))
    with pytest.raises(ValueError):
        peak_fidelity(pair, TwoLevelSearch(refine_window_fraction=1.5))


def test_unitarity_rows() -> None:
    rng = np.random.default_rng(47)
    for _ in range(50):
        g = random_graph(rng)
        dec = _decompose(random_model(rng, g), g)
        t = float(rng.uniform(0.1, 20.0))
        u = int(rng.integers(0, g.n))
        operator = _operator(dec, t)
        assert float(np.sum(np.abs(operator[u]) ** 2)) == pytest.approx(1.0, abs=1e-9)


def test_amplitude_symmetric_in_endpoints() -> None:
    rng = np.random.default_rng(53)
    for _ in range(25):
        g = random_graph(rng)
        dec = _decompose(random_model(rng, g), g)
        t = float(rng.uniform(0.1, 20.0))
        u, v = (int(x) for x in rng.integers(0, g.n, size=2))
        forward = evolution_amplitude(pair_spectrum(dec, u, v), t)
        backward = evolution_amplitude(pair_spectrum(dec, v, u), t)
        assert abs(forward - backward) <= 1e-12


def test_global_phase_and_sign_invariance() -> None:
    rng = np.random.default_rng(59)
    for _ in range(50):
        g = random_graph(rng)
        h = hamiltonian_matrix(random_model(rng, g), g)
        t = float(rng.uniform(0.1, 20.0))
        u, v = (int(x) for x in rng.integers(0, g.n, size=2))
        base = abs(evolution_amplitude(pair_spectrum(eigendecompose(h), u, v), t))
        c = float(rng.uniform(-5.0, 5.0))
        shifted = abs(evolution_amplitude(pair_spectrum(eigendecompose(h + c * np.eye(g.n)), u, v), t))
        negated = abs(evolution_amplitude(pair_spectrum(eigendecompose(-h), u, v), t))
        assert abs(base - shifted) <= 1e-10
        assert abs(base - negated) <= 1e-10


def test_group_property() -> None:
    rng = np.random.default_rng(61)
    for _ in range(20):
        g = random_graph(rng, n_max=8)
        dec = _decompose(random_model(rng, g), g)
        t1, t2 = (float(x) for x in rng.uniform(0.1, 10.0, size=2))
        composed = _operator(dec, t1) @ _operator(dec, t2)
        direct = _operator(dec, t1 + t2)
        assert float(np.max(np.abs(composed - direct))) <= 1e-8


def test_spectral_evolution_matches_taylor_oracle() -> None:
    rng = np.random.default_rng(67)
    for _ in range(50):
        g = random_graph(rng, n_max=10)
        h = hamiltonian_matrix(random_model(rng, g), g)
        t = float(rng.uniform(0.1, 20.0))
        diff = _operator(eigendecompose(h), t) - unitary_oracle(h, t)
        assert float(np.max(np.abs(diff))) <= 1e-8


def test_amplitude_series_matches_pointwise() -> None:
    dec = _decompose(Adjacency(), path_graph(5))
    times = np.linspace(0.0, 12.0, 7)
    series = amplitude_oracle(dec, times, 0, 4)
    pair = pair_spectrum(dec, 0, 4)
    for t, amp in zip(times, series):
        assert cmath.isclose(amp, evolution_amplitude(pair, float(t)), abs_tol=1e-13)


def _pair_series(dec, u, v, start, stop, samples):
    return _uniform_series(pair_spectrum(dec, u, v), start, stop, samples)


@pytest.mark.parametrize("samples", [2, 3, 7, 100, 101, 1009, 10000])
def test_uniform_series_matches_direct(samples) -> None:
    rng = np.random.default_rng(71 + samples)
    for _ in range(8):
        g = random_graph(rng)
        dec = _decompose(random_model(rng, g), g)
        u, v = (int(x) for x in rng.integers(0, g.n, size=2))
        # keep max|lambda| * t <= 1e3, where both forms round to about 1e-13
        stop = float(rng.uniform(0.1, 1.0)) * 1e3 / max(float(np.max(np.abs(dec.eigenvalues))), 1.0)
        for start in (0.0, float(rng.uniform(0.0, stop))):
            times, series = _pair_series(dec, u, v, start, stop, samples)
            assert np.array_equal(times, np.linspace(start, stop, samples))
            direct = amplitude_oracle(dec, times, u, v)
            assert float(np.max(np.abs(series - direct))) <= 1e-12


def test_uniform_series_within_phase_budget_on_refine_window() -> None:
    # path:6 at k = 143: t* is about 6.6e8, so phases reach about 1e11 rad
    dec = _decompose(Generalized(143.0), path_graph(6))
    t_star = two_level_candidate_time(pair_spectrum(dec, 0, 5))
    lo, hi = 0.5 * t_star, 1.5 * t_star
    times, series = _pair_series(dec, 0, 5, lo, hi, 2000)
    budget = 4.0 * float(np.max(np.abs(dec.eigenvalues))) * hi * np.finfo(float).eps
    assert float(np.max(np.abs(series - amplitude_oracle(dec, times, 0, 5)))) <= budget


@pytest.mark.parametrize(
    "n, search",
    [
        (60, lambda dec: peak_fidelity(pair_spectrum(dec, 0, 59), GridSearch(100.0, 100001))),
        (200, lambda dec: fidelity_curve(pair_spectrum(dec, 0, 199), 100.0, 20000)),
    ],
    ids=["grid-peak-path:60", "fidelity-curve-path:200"],
)
def test_uniform_grid_memory_is_bounded(n, search) -> None:
    # O(sqrt(S)*n + S) working set: a few MB, where S*n complex phases would take 100+ MB
    dec = _decompose(Adjacency(), path_graph(n))
    tracemalloc.start()
    try:
        search(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _strategy_batch(g, models, u, v):
    """Each decomposition with its default search (grid on a degenerate gap) and a grid search."""
    batch = []
    for model in models:
        dec = _decompose(model, g)
        try:
            two_level_candidate_time(pair_spectrum(dec, u, v))
            default = TwoLevelSearch()
        except DegenerateGapError:
            default = GridSearch(20.0, 401)
        batch += [(dec, default), (dec, GridSearch(30.0, 3001))]
    return batch


def test_peak_fidelity_reads_evolution_amplitude() -> None:
    # the reported fidelity is |evolution_amplitude| at the reported time, bit for bit
    rng = np.random.default_rng(73)
    cases = []
    for _ in range(12):
        g = random_graph(rng, n_max=10)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        models = [random_model(rng, g), *(Generalized(float(k)) for k in rng.uniform(-3.0, 3.0, 3))]
        cases.append((_strategy_batch(g, models, u, v), u, v))
    # the paper regime: readout times near 1e9, phases near 1e11 rad
    p6_models = [Generalized(k) for k in (140.0, 142.5, 143.0, 143.2, 144.0)]
    cases.append((_strategy_batch(path_graph(6), p6_models, 0, 5), 0, 5))
    for batch, u, v in cases:
        for dec, strategy in batch:
            pair = pair_spectrum(dec, u, v)
            peak = peak_fidelity(pair, strategy)
            assert peak.fidelity == abs(evolution_amplitude(pair, peak.t_star))


def _reference_groups(dec, u, v):
    # per-group couplings (P_r)_{uv} and mean eigenvalues from np.sum and np.mean,
    # and the top two groups by pair mass
    runs = group_runs(dec)
    vectors = dec.eigenvectors
    masses = np.array([np.sum(vectors[u, run] ** 2) + np.sum(vectors[v, run] ** 2) for run in runs])
    couplings = np.array([np.sum(vectors[u, run] * vectors[v, run]) for run in runs])
    means = [np.mean(dec.eigenvalues[run]) for run in runs]
    first, second = np.argsort(-masses, kind="stable")[:2]
    return couplings, means, first, second


def _reference_candidate(dec, u, v):
    # the two-level candidate from per-group np.sum and np.mean
    _, means, first, second = _reference_groups(dec, u, v)
    return math.pi / float(abs(means[first] - means[second]))


def _reference_certificate(dec, u, v):
    # whether the two-level readout is certified, its floor L = |c_r| + |c_s| - beta and beta
    couplings, _, first, second = _reference_groups(dec, u, v)
    top = abs(couplings[first]) + abs(couplings[second])
    beta = float(np.sum(np.abs(couplings)) - top)
    floor = float(top - beta)
    opposite = couplings[first] * couplings[second] < 0
    return bool(opposite and floor >= 1.0 - CERTIFIED_SHORTFALL), floor, beta


def _readout(dec, u, v):
    # the certified result: |U| at the two-level candidate, read once
    pair = pair_spectrum(dec, u, v)
    t_candidate = two_level_candidate_time(pair)
    return PeakResult(t_candidate, abs(evolution_amplitude(pair, t_candidate)), "two-level")


def _reference_series(dec, u, v, start, stop, samples):
    # the window scan of one matrix with the 2-D product
    times = np.linspace(start, stop, samples)
    width = math.isqrt(samples)
    step = (stop - start) / (samples - 1)
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    offsets = weights * np.exp(-1j * np.outer(np.arange(width) * step, dec.eigenvalues))
    blocks = np.exp(-1j * np.outer(times[::width], dec.eigenvalues))
    return times, (blocks @ offsets.T).ravel()[:samples]


def _reference_window(dec, u, v, start, stop, samples):
    # best sample of the window scan and its neighbors, the refine bracket
    times, amplitudes = _reference_series(dec, u, v, start, stop, samples)
    j = int(np.argmax(np.abs(amplitudes)))
    return float(times[j]), float(times[max(j - 1, 0)]), float(times[min(j + 1, samples - 1)])


def _reference_value(dec, u, v, t):
    # (|U|, U, U', U'') at t, as a search receives it
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    phases = -1j * dec.eigenvalues
    terms = np.exp(phases * t) * weights
    amplitude = evolution_amplitude(pair_spectrum(dec, u, v), t)
    return abs(amplitude), amplitude, complex(np.sum(phases * terms)), complex(np.sum(phases**2 * terms))


@pytest.fixture
def scans(monkeypatch) -> list:
    """The (strategy, t_candidate) of each search glwalk.dynamics runs through _search during the test.

    A certified two-level readout runs no search and scans nothing, so it adds nothing.
    """
    calls = []
    search = glwalk.dynamics._search

    def recorded(strategy, pair, t_candidate, evaluate):
        calls.append((strategy, t_candidate))
        return search(strategy, pair, t_candidate, evaluate)

    monkeypatch.setattr(glwalk.dynamics, "_search", recorded)
    return calls


def _asked(dec, u, v, strategy, value_at):
    # the times dec's search asks evaluate for where it is not certified, in order, as
    # _peaks runs it, with evaluate(t) answered by value_at(t)
    pair = pair_spectrum(dec, u, v)
    t_candidate = two_level_candidate_time(pair) if isinstance(strategy, TwoLevelSearch) else None
    times = []

    def evaluate(t):
        times.append(t)
        return value_at(t)

    _search(strategy, pair, t_candidate, evaluate)
    return times


def _first_ascent_time(dec, value, t, lo, hi):
    # the ascent's first trial from the sample t, if it asks for one: the
    # Newton step on |U|^2 where it is concave, a trust-radius step along the
    # slope elsewhere; none when the step is within the stopping width or the
    # rise it predicts is within one rounding unit
    f, amp, slope, curvature = value
    g = (amp.conjugate() * slope).real
    h = (slope.conjugate() * slope).real + (amp.conjugate() * curvature).real
    spread = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
    radius = min(hi - lo, 0.5 / spread) if spread > 0 else hi - lo
    step = -g / h if h < 0 else math.copysign(radius, g)
    trial = min(hi, max(lo, t + min(radius, max(-radius, step))))
    step, eps = trial - t, float(np.finfo(float).eps)
    tol = REFINE_RELATIVE_WIDTH * max(1.0, abs(lo), abs(hi))
    if abs(step) <= tol or (2 * g + h * step) * step <= (2 * f + eps) * eps:
        return []
    return [trial]


def _stack_cases():
    """(graph, u, v, k values, grid fallback) cases; the grid is taken where a spectrum has one group."""
    rng = np.random.default_rng(83)
    cases = []
    for i in range(12):
        g = random_graph(rng, n_max=10) if i % 2 else structured_graph(rng, n_max=10)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        ks = [float(k) for k in rng.uniform(-3.0, 3.0, 9)]
        cases.append((g, u, v, ks, GridSearch(20.0, 401)))
    # an (n-1)-fold eigenvalue: group sums of more than two terms
    for n in (5, 7):
        complete = Graph(n=n, edges=frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
        cases.append((complete, 0, 1, [float(k) for k in rng.uniform(-3.0, 3.0, 9)], GridSearch(20.0, 401)))
    # the paper regime: readout times near 1e9, phases near 1e11 rad
    cases.append((path_graph(6), 0, 5, [float(k) for k in np.linspace(140.0, 144.0, 9)], GridSearch(20.0, 401)))
    # one eigenvalue group at every k: each member takes the grid
    cases.append((Graph(n=4), 0, 3, [float(k) for k in np.linspace(-1.0, 1.0, 9)], GridSearch(20.0, 5001)))
    # certified, searched and merged-pair rows in one stack: path:6 is searched at k = 30 and 40,
    # certified from 50 on and merged by eigh's grouping at 300 (ROADMAP item 1); on K_{2,8}, 20 is
    # searched and 30 certified
    cases.append((path_graph(6), 0, 5, [30.0, 40.0, 50.0, 60.0, 100.0, 200.0, 300.0], GridSearch(20.0, 401)))
    cases.append((complete_bipartite(2, 8), 0, 1, [20.0, 30.0], GridSearch(20.0, 401)))
    return cases


def test_stacked_stages_equal_single(scans) -> None:
    certified = searched = 0
    for g, u, v, ks, grid in _stack_cases():
        for size in sorted({min(size, len(ks)) for size in (1, 2, 7, len(ks))}):
            models = [Generalized(k) for k in ks[:size]]
            stacked = hamiltonian_stack(models, g)
            decs = eigendecompose_stack(stacked)
            scans.clear()
            peaks = _peaks(pair_spectra(decs, u, v), TwoLevelSearch(), grid)
            scanned, expected = scans[:], []
            for model, h, dec, peak in zip(models, stacked, decs, peaks, strict=True):
                value_at = functools.partial(_reference_value, dec, u, v)
                alone = hamiltonian_matrix(model, g)
                assert np.array_equal(h, alone) and np.array_equal(np.signbit(h), np.signbit(alone))
                single = eigendecompose(alone)
                single_pair = pair_spectrum(single, u, v)
                for a, b in ((dec.eigenvalues, single.eigenvalues), (dec.eigenvectors, single.eigenvectors)):
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
                assert dec.group_sizes == single.group_sizes
                if len(single.group_sizes) > 1:
                    strategy = TwoLevelSearch()
                    t_candidate = _reference_candidate(single, u, v)
                    assert two_level_candidate_time(single_pair) == t_candidate
                    if _reference_certificate(single, u, v)[0]:
                        # a certified readout scans nothing and is |U| at the candidate
                        assert peak == _readout(single, u, v) == peak_fidelity(single_pair, strategy)
                        certified += 1
                        continue
                    window = (t_candidate * 0.5, t_candidate * 1.5, strategy.refine_samples)
                    asked = _asked(single, u, v, strategy, value_at)[:3]
                    assert asked[0] == t_candidate
                    asked = asked[1:]
                else:
                    strategy, t_candidate = grid, None
                    window = (0.0, grid.t_max, grid.samples)
                    asked = _asked(single, u, v, grid, value_at)[:2]
                expected.append((strategy, t_candidate))
                t_sample, lo, hi = _reference_window(single, u, v, *window)
                # the ascent starts from the best sample of the bracket
                first = _first_ascent_time(single, value_at(t_sample), t_sample, lo, hi)
                assert asked == [t_sample, *first]
                assert peak == peak_fidelity(single_pair, strategy)
                searched += 1
            # the stack scans each uncertified row, in order, and no certified one
            assert scanned == expected
    # certified: every member of the paper-regime path:6 and of a path:2 draw (19 each over
    # the four sizes), and 5 of the 13 rows of the mixed stacks
    assert certified >= 43 and searched >= 274


def test_sweep_peaks_equal_peak_fidelity_per_k() -> None:
    # each case's k values make one block
    for g, u, v, ks, grid in _stack_cases():
        for k, peak in zip(ks, sweep_peaks(g, u, v, ks, grid), strict=True):
            dec = _decompose(Generalized(k), g)
            strategy = TwoLevelSearch() if len(dec.group_sizes) > 1 else grid
            assert peak == peak_fidelity(pair_spectrum(dec, u, v), strategy)


def _refine_cases():
    """(decomposition, u, v, strategy): seeded graphs under both strategies, and the paper regime."""
    rng = np.random.default_rng(97)
    for i in range(40):
        g = structured_graph(rng) if i % 2 else random_graph(rng)
        u, v = mirror_pair(g, rng) if i % 2 else (int(x) for x in rng.choice(g.n, size=2, replace=False))
        dec = _decompose(random_model(rng, g), g)
        if len(dec.group_sizes) > 1:
            yield dec, u, v, TwoLevelSearch()
        yield dec, u, v, GridSearch(30.0, 3001)
    # readout times from 3e4 (path:4) to 2.5e9 (path:6 at k = 200), all certified
    for n in (4, 5, 6):
        for k in (143.0, -143.0, 200.0):
            yield _decompose(Generalized(k), path_graph(n)), 0, n - 1, TwoLevelSearch()
    # just short of the certificate (1 - L near 1.2e-3), with bulk oscillations in the bracket
    for k in (40.0, -40.0):
        yield _decompose(Generalized(k), path_graph(6)), 0, 5, TwoLevelSearch()
    yield _decompose(Generalized(20.0), complete_bipartite(2, 8)), 0, 1, TwoLevelSearch()


def _window(dec, u, v, strategy):
    if isinstance(strategy, GridSearch):
        return 0.0, strategy.t_max, strategy.samples
    t_candidate = two_level_candidate_time(pair_spectrum(dec, u, v))
    fraction = strategy.refine_window_fraction
    return t_candidate * (1.0 - fraction), t_candidate * (1.0 + fraction), strategy.refine_samples


def test_refine_contract(scans) -> None:
    eps = float(np.finfo(float).eps)
    stationary = scanned = certified = 0
    for dec, u, v, strategy in _refine_cases():
        pair = pair_spectrum(dec, u, v)
        scans.clear()
        peak = peak_fidelity(pair, strategy)
        if isinstance(strategy, TwoLevelSearch) and _reference_certificate(dec, u, v)[0]:
            # certified: nothing is scanned, and the peak is |U| at the candidate
            assert not scans
            assert peak == _readout(dec, u, v)
            certified += 1
            continue
        t_candidate = two_level_candidate_time(pair) if isinstance(strategy, TwoLevelSearch) else None
        assert scans == [(strategy, t_candidate)]
        t_sample, lo, hi = _reference_window(dec, u, v, *_window(dec, u, v, strategy))
        # the search asks for the candidate, if any, and then the best window sample
        seed = [] if t_candidate is None else [t_candidate]
        value_at = functools.partial(_reference_value, dec, u, v)
        assert _asked(dec, u, v, strategy, value_at)[: len(seed) + 1] == [*seed, t_sample]
        # never below the best window sample
        assert peak.fidelity >= abs(evolution_amplitude(pair, t_sample))
        spread = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
        if spread * (hi - lo) <= math.pi:
            # no bulk oscillation inside the bracket: the ascent reaches its top
            _, best = dense_peak(dec, u, v, np.linspace(lo, hi, 10001))
            assert peak.fidelity >= best - 1e-12
            scanned += 1
        if peak.method != "two-level" and lo < peak.t_star < hi and peak.fidelity > 1e-8:
            # an interior refined point is a maximum of |U|^2: F' = 2g ~ 0 and F'' = 2h < 0,
            # with the Newton distance g/h within the ascent's stopping distance
            f, amp, slope, curvature = _reference_value(dec, u, v, peak.t_star)
            g = (amp.conjugate() * slope).real
            h = abs(slope) ** 2 + (amp.conjugate() * curvature).real
            assert h < 0
            tol = REFINE_RELATIVE_WIDTH * max(1.0, abs(lo), abs(hi))
            assert abs(g / h) <= 2.0 * max(tol, math.sqrt((2.0 * f + eps) * eps / -h))
            stationary += 1
    # the nine paper-regime cases are certified
    assert scanned >= 40 and stationary >= 40 and certified >= 9


def _certified_cases():
    """(graph, u, v, k): path:3-7 endpoints and bipartite:2,b (0, 1), |k| log-uniform on [30, 300], both signs.

    Two return amplitudes (u = v) join them: their top two groups carry couplings of one
    sign and a floor near 1, which the sign condition alone keeps uncertified.
    """
    rng = np.random.default_rng(211)
    pairs = [(path_graph(n), 0, n - 1) for n in range(3, 8)] + [(complete_bipartite(2, b), 0, 1) for b in range(3, 9)]
    pairs += [(path_graph(6), 0, 0), (complete_bipartite(2, 5), 0, 0)]
    for g, u, v in pairs:
        for sign in (1.0, -1.0, 1.0, -1.0):
            yield g, u, v, sign * float(np.exp(rng.uniform(math.log(30.0), math.log(300.0))))


def test_certified_readout_contract(scans) -> None:
    eps = float(np.finfo(float).eps)
    certified = 0
    for g, u, v, k in _certified_cases():
        h = hamiltonian_matrix(Generalized(k), g)
        dec = eigendecompose(h)
        pair = pair_spectrum(dec, u, v)
        scans.clear()
        peak = peak_fidelity(pair, TwoLevelSearch())
        t_star = two_level_candidate_time(pair)
        expected, floor, beta = _reference_certificate(dec, u, v)
        assert scans == ([] if expected else [(TwoLevelSearch(), t_star)])
        if not expected:
            # the search asks for the candidate first
            value_at = functools.partial(_reference_value, dec, u, v)
            assert _asked(dec, u, v, TwoLevelSearch(), value_at)[:1] == [t_star]
            continue
        assert peak.method == "two-level" and peak.t_star == t_star
        assert peak.fidelity == abs(evolution_amplitude(pair, t_star))
        # the 40-digit amplitude lies in the two-level bracket, up to the phase budget
        tol = float(np.abs(dec.eigenvalues).max()) * t_star * eps
        assert floor - tol <= mp_amplitude(h, t_star, u, v) <= floor + 2.0 * beta + tol
        certified += 1
    assert certified >= 30


@pytest.mark.parametrize("n, k", [(7, 143.2), (6, 300.0)])
def test_merged_pair_is_not_certified(scans, n, k) -> None:
    # eigh's grouping merges the pair (ROADMAP item 1), so the top two groups carry no certificate
    dec = _decompose(Generalized(k), path_graph(n))
    pair = pair_spectrum(dec, 0, n - 1)
    peak_fidelity(pair, TwoLevelSearch())
    t_candidate = two_level_candidate_time(pair)
    assert scans == [(TwoLevelSearch(), t_candidate)]
    value_at = functools.partial(_reference_value, dec, 0, n - 1)
    asked = _asked(dec, 0, n - 1, TwoLevelSearch(), value_at)[:2]
    assert asked[0] == t_candidate and len(asked) == 2
    assert not _reference_certificate(dec, 0, n - 1)[0]
