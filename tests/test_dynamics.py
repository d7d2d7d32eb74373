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
    path_graph,
    peak_fidelity,
    sweep_peaks,
    two_level_candidate_time,
)
from glwalk.dynamics import (
    CERTIFIED_SHORTFALL,
    REFINE_RELATIVE_WIDTH,
    SWEEP_BLOCK_ENTRIES,
    _linspace_rows,
    _run_searches,
    _start_searches,
    _uniform_series,
)
from oracles import amplitude_oracle, dense_peak, group_runs, mp_amplitude, unitary_oracle


def _decompose(model, graph):
    return eigendecompose(hamiltonian_matrix(model, graph))


def _operator(dec, t):
    # exp(-iHt) entry by entry from evolution_amplitude
    return np.array([[evolution_amplitude(dec, t, a, b) for b in range(dec.n)] for a in range(dec.n)])


def test_p2_amplitude_is_i_sin_t() -> None:
    dec = _decompose(Adjacency(), path_graph(2))
    for t in (0.3, math.pi / 2, 2.0, 5.7):
        amp = evolution_amplitude(dec, t, 0, 1)
        assert cmath.isclose(amp, 1j * math.sin(t), abs_tol=1e-12)
    assert abs(evolution_amplitude(dec, math.pi / 2, 0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_time_zero_is_identity() -> None:
    rng = np.random.default_rng(41)
    g = random_graph(rng, n_max=8)
    dec = _decompose(random_model(rng, g), g)
    for u in range(g.n):
        assert evolution_amplitude(dec, 0.0, u, u) == pytest.approx(1.0, abs=1e-12)
        for v in range(g.n):
            if v != u:
                assert abs(evolution_amplitude(dec, 0.0, u, v)) <= 1e-12


def test_p3_laplacian_matches_exponential_oracle() -> None:
    p3 = path_graph(3)
    h = hamiltonian_matrix(Laplacian(), p3)
    dec = eigendecompose(h)
    expected = unitary_oracle(h, 1.0)[0, 2]
    assert abs(evolution_amplitude(dec, 1.0, 0, 2) - expected) <= 1e-9


def test_transfer_probability_p2() -> None:
    dec = _decompose(Adjacency(), path_graph(2))
    assert abs(evolution_amplitude(dec, math.pi / 2, 0, 1)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(evolution_amplitude(dec, math.pi, 0, 1)) ** 2 <= 1e-12


def test_p6_time_sweep_matches_oracle() -> None:
    p6 = path_graph(6)
    h = hamiltonian_matrix(Adjacency(), p6)
    dec = eigendecompose(h)
    for t in np.linspace(0.5, 30.0, 12):
        expected = abs(unitary_oracle(h, float(t))[0, 5]) ** 2
        assert abs(evolution_amplitude(dec, float(t), 0, 5)) ** 2 == pytest.approx(expected, abs=1e-9)


def test_fidelity_curve_p2() -> None:
    dec = _decompose(Adjacency(), path_graph(2))
    curve = fidelity_curve(dec, 0, 1, math.pi, 3)
    assert np.allclose(curve.times, [0.0, math.pi / 2, math.pi])
    assert np.allclose(curve.probabilities, [0.0, 1.0, 0.0], atol=1e-12)

    endpoints = fidelity_curve(dec, 0, 1, 2.0, 2)
    assert list(endpoints.times) == [0.0, 2.0]

    with pytest.raises(ValueError):
        fidelity_curve(dec, 0, 1, 0.0, 5)
    with pytest.raises(ValueError):
        fidelity_curve(dec, 0, 1, 1.0, 1)


def test_fidelity_curve_covers_two_level_beat() -> None:
    dec = _decompose(Generalized(143.0), path_graph(6))
    t_star = two_level_candidate_time(dec, 0, 5)
    curve = fidelity_curve(dec, 0, 5, 2.0 * t_star, 4001)
    assert float(curve.probabilities.max()) >= 0.81


def test_two_level_candidate_p2() -> None:
    dec = _decompose(Adjacency(), path_graph(2))
    assert two_level_candidate_time(dec, 0, 1) == pytest.approx(math.pi / 2, rel=1e-12)


def test_two_level_candidate_matches_dense_argmax() -> None:
    dec = _decompose(LoopPerturbed(0, 5, -143.0), path_graph(6))
    t_star = two_level_candidate_time(dec, 0, 5)
    grid = np.linspace(0.0, 2.0 * t_star, 20001)
    t_best, _ = dense_peak(dec, 0, 5, grid)
    assert abs(t_star - t_best) / t_best <= 0.01


def test_two_level_candidate_near_first_lobe_k24() -> None:
    dec = _decompose(LoopPerturbed(0, 1, 50.0), complete_bipartite(2, 4))
    t_star = two_level_candidate_time(dec, 0, 1)
    lobe = np.linspace(0.9 * t_star, 1.1 * t_star, 20001)
    t_best, _ = dense_peak(dec, 0, 1, lobe)
    assert abs(t_star - t_best) / t_best <= 0.01
    # the refined search beats every point of a coarse global scan
    peak = peak_fidelity(dec, 0, 1, TwoLevelSearch())
    coarse = np.linspace(0.0, 2.0 * t_star, 101)
    _, coarse_best = dense_peak(dec, 0, 1, coarse)
    assert peak.fidelity >= coarse_best


def test_two_level_degenerate_gap() -> None:
    dec = _decompose(Adjacency(), Graph(n=3))
    with pytest.raises(DegenerateGapError):
        two_level_candidate_time(dec, 0, 1)
    with pytest.raises(DegenerateGapError):
        peak_fidelity(dec, 0, 1, TwoLevelSearch())


def test_peak_p2_two_level() -> None:
    dec = _decompose(Adjacency(), path_graph(2))
    peak = peak_fidelity(dec, 0, 1, TwoLevelSearch())
    assert peak.fidelity == pytest.approx(1.0, abs=1e-9)
    assert peak.t_star == pytest.approx(math.pi / 2, abs=1e-9)
    assert peak.method == "two-level"


def test_peak_p6_generalized_143() -> None:
    dec = _decompose(Generalized(143.0), path_graph(6))
    peak = peak_fidelity(dec, 0, 5, TwoLevelSearch())
    assert peak.fidelity >= 0.9
    assert peak.t_star < 2.0 * math.pi * 145.0**4


def test_peak_grid_below_tuned_value() -> None:
    p6 = path_graph(6)
    grid_peak = peak_fidelity(_decompose(Adjacency(), p6), 0, 5, GridSearch(200.0, 200000))
    tuned = peak_fidelity(_decompose(Generalized(143.0), p6), 0, 5, TwoLevelSearch())
    assert grid_peak.fidelity < tuned.fidelity


def test_peak_result_reevaluates() -> None:
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_graph(rng, n_max=8, allow_loops=False)
        dec = _decompose(Adjacency(), g)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        try:
            peak = peak_fidelity(dec, u, v, TwoLevelSearch())
        except DegenerateGapError:
            peak = peak_fidelity(dec, u, v, GridSearch(30.0, 3001))
        assert peak.fidelity == pytest.approx(
            abs(evolution_amplitude(dec, peak.t_star, u, v)), abs=1e-12
        )
        assert peak.method in ("two-level", "grid", "refined")


def test_peak_strategy_validation() -> None:
    dec = _decompose(Adjacency(), path_graph(2))
    with pytest.raises(ValueError):
        peak_fidelity(dec, 0, 1, GridSearch(-1.0, 100))
    with pytest.raises(ValueError):
        peak_fidelity(dec, 0, 1, GridSearch(1.0, 2))
    with pytest.raises(ValueError):
        peak_fidelity(dec, 0, 1, TwoLevelSearch(refine_window_fraction=1.5))


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
        forward = evolution_amplitude(dec, t, u, v)
        backward = evolution_amplitude(dec, t, v, u)
        assert abs(forward - backward) <= 1e-12


def test_global_phase_and_sign_invariance() -> None:
    rng = np.random.default_rng(59)
    for _ in range(50):
        g = random_graph(rng)
        h = hamiltonian_matrix(random_model(rng, g), g)
        t = float(rng.uniform(0.1, 20.0))
        u, v = (int(x) for x in rng.integers(0, g.n, size=2))
        base = abs(evolution_amplitude(eigendecompose(h), t, u, v))
        c = float(rng.uniform(-5.0, 5.0))
        shifted = abs(evolution_amplitude(eigendecompose(h + c * np.eye(g.n)), t, u, v))
        negated = abs(evolution_amplitude(eigendecompose(-h), t, u, v))
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
    for t, amp in zip(times, series):
        assert cmath.isclose(amp, evolution_amplitude(dec, float(t), 0, 4), abs_tol=1e-13)


def _pair_series(dec, u, v, start, stop, samples):
    # _uniform_series of a one-row stack
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    times, series = _uniform_series(dec.eigenvalues[None], weights[None], np.array([start]), np.array([stop]), samples)
    return times[0], series[0]


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


def test_linspace_rows_equals_numpy() -> None:
    rng = np.random.default_rng(89)
    starts = [0.0, -3.5, 1e-300, 0.0, 0.0, *rng.uniform(-1e9, 1e9, 20)]
    # a step that underflows to zero (numpy's own branch) in rows 3 and 4
    stops = [1.0, 2.25, 1e-299, 5e-324, 1e-322, *rng.uniform(1e9, 2e9, 20)]
    for samples in (2, 3, 7, 2000, 10007):
        rows = _linspace_rows(np.array(starts), np.array(stops), samples)
        for row, start, stop in zip(rows, starts, stops):
            assert np.array_equal(row, np.linspace(start, stop, samples))
            assert np.array_equal(np.signbit(row), np.signbit(np.linspace(start, stop, samples)))


def test_uniform_series_within_phase_budget_on_refine_window() -> None:
    # path:6 at k = 143: t* is about 6.6e8, so phases reach about 1e11 rad
    dec = _decompose(Generalized(143.0), path_graph(6))
    t_star = two_level_candidate_time(dec, 0, 5)
    lo, hi = 0.5 * t_star, 1.5 * t_star
    times, series = _pair_series(dec, 0, 5, lo, hi, 2000)
    budget = 4.0 * float(np.max(np.abs(dec.eigenvalues))) * hi * np.finfo(float).eps
    assert float(np.max(np.abs(series - amplitude_oracle(dec, times, 0, 5)))) <= budget


@pytest.mark.parametrize(
    "n, search",
    [
        (60, lambda dec: peak_fidelity(dec, 0, 59, GridSearch(100.0, 100001))),
        (200, lambda dec: fidelity_curve(dec, 0, 199, 100.0, 20000)),
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


def _lockstep_batch(g, models, u, v):
    """Each decomposition with its default search (grid on a degenerate gap) and a grid search."""
    batch = []
    for model in models:
        dec = _decompose(model, g)
        try:
            two_level_candidate_time(dec, u, v)
            default = TwoLevelSearch()
        except DegenerateGapError:
            default = GridSearch(20.0, 401)
        batch += [(dec, default), (dec, GridSearch(30.0, 3001))]
    return batch


def test_lockstep_equals_one_search_at_a_time() -> None:
    rng = np.random.default_rng(73)
    cases = []
    for _ in range(12):
        g = random_graph(rng, n_max=10)
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        models = [random_model(rng, g), *(Generalized(float(k)) for k in rng.uniform(-3.0, 3.0, 3))]
        cases.append((_lockstep_batch(g, models, u, v), u, v))
    # the paper regime: readout times near 1e9, phases near 1e11 rad
    p6_models = [Generalized(k) for k in (140.0, 142.5, 143.0, 143.2, 144.0)]
    cases.append((_lockstep_batch(path_graph(6), p6_models, 0, 5), 0, 5))
    for batch, u, v in cases:
        lockstep = _run_searches([_start_searches([dec], u, v, s)[0] for dec, s in batch])
        assert len(lockstep) == len(batch)
        for (dec, strategy), peak in zip(batch, lockstep):
            assert peak == peak_fidelity(dec, u, v, strategy)
            assert peak.fidelity == abs(evolution_amplitude(dec, peak.t_star, u, v))


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
    t_candidate = two_level_candidate_time(dec, u, v)
    return PeakResult(t_candidate, abs(evolution_amplitude(dec, t_candidate, u, v)), "two-level")


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
    amplitude = evolution_amplitude(dec, t, u, v)
    return abs(amplitude), amplitude, complex(np.sum(phases * terms)), complex(np.sum(phases**2 * terms))


def _first_steps(search, count, value_at):
    # the first count times a started search asks for (fewer if it ends),
    # fed value_at(t) for each time t
    *_, steps = search
    times = [next(steps)]
    try:
        while len(times) < count:
            times.append(steps.send(value_at(times[-1])))
    except StopIteration:
        pass
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
    # one eigenvalue group at every k: each member takes the grid, 3 scans to a stack
    cases.append((Graph(n=4), 0, 3, [float(k) for k in np.linspace(-1.0, 1.0, 9)], GridSearch(20.0, 5001)))
    return cases


def test_stacked_stages_equal_single() -> None:
    certified = searched = 0
    for g, u, v, ks, grid in _stack_cases():
        full = max(1, SWEEP_BLOCK_ENTRIES // max(g.n**2, TwoLevelSearch().refine_samples))
        for size in (1, 2, 7, full, full + 1):
            models = [Generalized(k) for k in ks[:size]]
            stacked = hamiltonian_stack(models, g)
            decs = eigendecompose_stack(stacked)
            searches = _start_searches(decs, u, v, TwoLevelSearch(), grid)
            probes = _start_searches(decs, u, v, TwoLevelSearch(), grid)
            peaks = _run_searches(searches)
            for model, h, dec, probe, peak in zip(models, stacked, decs, probes, peaks):
                value_at = functools.partial(_reference_value, dec, u, v)
                alone = hamiltonian_matrix(model, g)
                assert np.array_equal(h, alone) and np.array_equal(np.signbit(h), np.signbit(alone))
                single = eigendecompose(alone)
                for a, b in ((dec.eigenvalues, single.eigenvalues), (dec.eigenvectors, single.eigenvectors)):
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
                assert dec.group_sizes == single.group_sizes
                if len(single.group_sizes) > 1:
                    strategy = TwoLevelSearch()
                    t_candidate = _reference_candidate(single, u, v)
                    assert two_level_candidate_time(single, u, v) == t_candidate
                    if _reference_certificate(single, u, v)[0]:
                        # a certified readout asks for the candidate alone
                        assert _first_steps(probe, 3, value_at) == [t_candidate]
                        assert peak == _readout(single, u, v) == peak_fidelity(single, u, v, strategy)
                        certified += 1
                        continue
                    window = (t_candidate * 0.5, t_candidate * 1.5, strategy.refine_samples)
                    asked = _first_steps(probe, 3, value_at)
                    assert asked[0] == t_candidate
                    asked = asked[1:]
                else:
                    strategy = grid
                    window = (0.0, grid.t_max, grid.samples)
                    asked = _first_steps(probe, 2, value_at)
                t_sample, lo, hi = _reference_window(single, u, v, *window)
                # the ascent starts from the best sample of the bracket
                first = _first_ascent_time(single, value_at(t_sample), t_sample, lo, hi)
                assert asked == [t_sample, *first]
                assert peak == peak_fidelity(single, u, v, strategy)
                searched += 1
            # the stacked window scan row by row; widths 44 and 31 columns
            weights = np.array([dec.eigenvectors[u] * dec.eigenvectors[v] for dec in decs])
            eigenvalues = np.array([dec.eigenvalues for dec in decs])
            starts, stops = np.arange(1.0, size + 1.0), np.arange(1.0, size + 1.0) * 7.3
            for samples in (2000, 1001):
                times, amplitudes = _uniform_series(eigenvalues, weights, starts, stops, samples)
                for i, dec in enumerate(decs):
                    reference = _reference_series(dec, u, v, starts[i], stops[i], samples)
                    assert np.array_equal(times[i], reference[0])
                    assert np.array_equal(amplitudes[i], reference[1])
    # every path:6 member of the paper regime (27 over the five sizes) is certified
    assert certified >= 27 and searched >= 300


def test_sweep_peaks_equal_peak_fidelity_per_k() -> None:
    # 9 k values over n <= 10 make a block of 8 and a block of 1
    for g, u, v, ks, grid in _stack_cases():
        for k, peak in zip(ks, sweep_peaks(g, u, v, ks, grid), strict=True):
            dec = _decompose(Generalized(k), g)
            strategy = TwoLevelSearch() if len(dec.group_sizes) > 1 else grid
            assert peak == peak_fidelity(dec, u, v, strategy)


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
    t_candidate = two_level_candidate_time(dec, u, v)
    fraction = strategy.refine_window_fraction
    return t_candidate * (1.0 - fraction), t_candidate * (1.0 + fraction), strategy.refine_samples


def test_refine_contract() -> None:
    eps = float(np.finfo(float).eps)
    stationary = scanned = certified = 0
    for dec, u, v, strategy in _refine_cases():
        peak = peak_fidelity(dec, u, v, strategy)
        if isinstance(strategy, TwoLevelSearch) and _reference_certificate(dec, u, v)[0]:
            # certified: the candidate is the one time evaluated, and the peak is |U| there
            search = _start_searches([dec], u, v, strategy)[0]
            t_candidate = two_level_candidate_time(dec, u, v)
            assert _first_steps(search, 3, functools.partial(_reference_value, dec, u, v)) == [t_candidate]
            assert peak == _readout(dec, u, v)
            certified += 1
            continue
        t_sample, lo, hi = _reference_window(dec, u, v, *_window(dec, u, v, strategy))
        # never below the best window sample
        assert peak.fidelity >= abs(evolution_amplitude(dec, t_sample, u, v))
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


def test_certified_readout_contract() -> None:
    eps = float(np.finfo(float).eps)
    certified = 0
    for g, u, v, k in _certified_cases():
        h = hamiltonian_matrix(Generalized(k), g)
        dec = eigendecompose(h)
        search = _start_searches([dec], u, v, TwoLevelSearch())[0]
        asked = _first_steps(search, 2, functools.partial(_reference_value, dec, u, v))
        expected, floor, beta = _reference_certificate(dec, u, v)
        assert (len(asked) == 1) == expected
        if not expected:
            continue
        peak = peak_fidelity(dec, u, v, TwoLevelSearch())
        t_star = two_level_candidate_time(dec, u, v)
        assert peak.method == "two-level" and peak.t_star == t_star == asked[0]
        assert peak.fidelity == abs(evolution_amplitude(dec, t_star, u, v))
        # the 40-digit amplitude lies in the two-level bracket, up to the phase budget
        tol = float(np.abs(dec.eigenvalues).max()) * t_star * eps
        assert floor - tol <= mp_amplitude(h, t_star, u, v) <= floor + 2.0 * beta + tol
        certified += 1
    assert certified >= 30


@pytest.mark.parametrize("n, k", [(7, 143.2), (6, 300.0)])
def test_merged_pair_is_not_certified(n, k) -> None:
    # eigh's grouping merges the pair (ROADMAP item 1), so the top two groups carry no certificate
    dec = _decompose(Generalized(k), path_graph(n))
    search = _start_searches([dec], 0, n - 1, TwoLevelSearch())[0]
    assert len(_first_steps(search, 2, functools.partial(_reference_value, dec, 0, n - 1))) == 2
    assert not _reference_certificate(dec, 0, n - 1)[0]
