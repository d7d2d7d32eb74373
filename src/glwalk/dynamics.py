"""Exact spectral time evolution and peak-fidelity search.

All operations take an EigenDecomposition of the Hamiltonian H and evaluate
entries of U(t) = exp(-iHt) from the eigenpairs, so arbitrary times cost
O(n) per entry with no time stepping.

Uniform grids (fidelity curves, grid scans and the two-level refine window)
factor each phase as a block start times an offset within the block, so S
samples cost about 2*sqrt(S)*n complex exponentials and one
sqrt(S) x n x sqrt(S) complex matrix product, with O(sqrt(S)*n + S) memory,
in place of S*n exponentials held at once.

Peak searches are step-wise; a strategy checks its own settings when
built. Starting a search seeds it and scans its sample window, on stacked
arrays for any number of spectra: one group_sums over all of them for the
two-level candidates and one batched window product per stack of scans. A
started search keeps only its phases -i*lambda and weights V[u]*V[v]; its
steps yield each time the golden-section refine needs and receive
|U(t)_{u,v}| there. Started searches run in lockstep: each round evaluates
every pending time with one np.exp over the stacked phases and one
(K,1,n) @ (K,n,1) np.matmul. peak_fidelity is the one-search case;
sweep_peaks starts its searches a block of k values at a time and runs all
of them in one lockstep. The stacked forms keep every result bit-identical
to the search run alone: matmul takes each slice's product with the same
dot as the 2-D product (a (K,n) row-wise product or a sum rounds
differently), every other stacked operation is elementwise or per row, and
reported magnitudes go through Python abs, which np.abs on a complex array
does not always match.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError
from .graphs import Graph
from .hamiltonians import Generalized, hamiltonian_stack
from .spectral import EigenDecomposition, eigendecompose_stack, group_sums

# golden-section refinement stops at this relative bracket width
REFINE_RELATIVE_WIDTH = 1e-12
#: a stack holds at most this many matrix entries or scan samples: a sweep
#: decomposes max(1, SWEEP_BLOCK_ENTRIES // max(n*n, refine samples)) k values
#: at once, and scans of S samples run SWEEP_BLOCK_ENTRIES // S at a time
SWEEP_BLOCK_ENTRIES = 2**14

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FidelityCurve:
    """Sampled transfer probabilities between a vertex pair (hbar = 1 units)."""

    times: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class PeakResult:
    """Best |U(t)_{u,v}| found and the time it was found at.

    fidelity is the amplitude magnitude |U|, not the probability |U|^2.
    method records which search stage produced the returned point.
    """

    t_star: float
    fidelity: float
    method: str


@dataclass(frozen=True)
class GridSearch:
    t_max: float
    samples: int

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.samples < 3:
            raise ValueError("need at least three grid samples")


@dataclass(frozen=True)
class TwoLevelSearch:
    refine_window_fraction: float = 0.5
    refine_samples: int = 2000

    def __post_init__(self):
        if not 0 < self.refine_window_fraction < 1:
            raise ValueError("refine_window_fraction must lie in (0, 1)")
        if self.refine_samples < 3:
            raise ValueError("need at least three refinement samples")


def evolution_amplitude(dec: EigenDecomposition, t: float, u: int, v: int) -> complex:
    """Entry (u, v) of exp(-iHt)."""
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    return complex(np.exp(-1j * dec.eigenvalues * t) @ weights)


def _linspace_rows(start: np.ndarray, stop: np.ndarray, samples: int) -> np.ndarray:
    """Row i is np.linspace(start[i], stop[i], samples), bit for bit.

    The same arithmetic as np.linspace, j*step + start with the last sample
    set to stop, and (j/div)*delta where the step underflows to zero; laid
    out (K, samples) so each operation runs along a row, where np.linspace
    with array endpoints runs K entries at a time.
    """
    delta = stop - start
    step = delta / (samples - 1)
    times = np.arange(samples, dtype=float) * step[:, None]
    flat = step == 0
    if flat.any():
        times[flat] = np.arange(samples, dtype=float) / (samples - 1) * delta[flat, None]
    times += start[:, None]
    times[:, -1] = stop
    return times


def _uniform_series(
    eigenvalues: np.ndarray, weights: np.ndarray, start: np.ndarray, stop: np.ndarray, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row i: times np.linspace(start[i], stop[i], samples) and the amplitudes there.

    eigenvalues and the weights V[u]*V[v] are (K, n) arrays, start and stop
    (K,) arrays. Sample j = J*B + m, with B = isqrt(samples) and step h,
    takes its phase exp(-i*lam*t_j) as exp(-i*lam*t_{J*B}) * exp(-i*lam*m*h);
    the block starts are grid points, and the offset table carries the
    weights. One (K, nb, n) @ (K, n, B) matmul forms every row.
    """
    times = _linspace_rows(start, stop, samples)
    width = math.isqrt(samples)
    step = (stop - start) / (samples - 1)
    shifts = (np.arange(width) * step[:, None])[:, :, None] * eigenvalues[:, None, :]
    offsets = weights[:, None, :] * np.exp(-1j * shifts)
    blocks = np.exp(-1j * (times[:, ::width, None] * eigenvalues[:, None, :]))
    amplitudes = np.matmul(blocks, offsets.transpose(0, 2, 1))
    return times, amplitudes.reshape(len(times), -1)[:, :samples]


def _check_phases(t_max: float, eigenvalues: np.ndarray) -> None:
    # in Python floats: the numpy product would warn as it overflows
    if not math.isfinite(float(np.abs(eigenvalues).max()) * t_max):
        raise ValueError(f"t_max {t_max!r} overflows the phases: max|eigenvalue| * t_max is not finite")


def fidelity_curve(dec: EigenDecomposition, u: int, v: int, t_max: float, samples: int) -> FidelityCurve:
    """Uniform sampling of the transfer probability on [0, t_max], endpoints included."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if samples < 2:
        raise ValueError("need at least two samples")
    _check_phases(t_max, dec.eigenvalues)
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    times, amplitudes = _uniform_series(
        dec.eigenvalues[None], weights[None], np.zeros(1), np.array([t_max]), samples
    )
    times, probabilities = times[0], np.abs(amplitudes[0]) ** 2
    times.setflags(write=False)
    probabilities.setflags(write=False)
    return FidelityCurve(times=times, probabilities=probabilities)


def _two_level_candidates(
    decs: Sequence[EigenDecomposition], eigenvalues: np.ndarray, pairs: np.ndarray
) -> list[float | DegenerateGapError]:
    """two_level_candidate_time of each decomposition, or the error it raises.

    eigenvalues stacks the spectra (K, n) and pairs the rows V[u], V[v]
    (K, 2, n). One group_sums over all K spectra gives every group's pair
    mass (P_r)_{uu} + (P_r)_{vv} and eigenvalue sum.
    """
    sizes = [size for dec in decs for size in dec.group_sizes]
    rows = np.concatenate([(pairs**2).transpose(1, 0, 2), eigenvalues[None]]).reshape(3, -1)
    diag_u, diag_v, sums = group_sums(rows, sizes)
    masses = diag_u + diag_v
    means = (sums / sizes).tolist()
    candidates: list[float | DegenerateGapError] = []
    stop = 0
    for dec in decs:
        start, stop = stop, stop + len(dec.group_sizes)
        if stop - start < 2:
            candidates.append(DegenerateGapError("fewer than two eigenvalue groups; no beat frequency exists"))
            continue
        first, second = (start + np.argsort(-masses[start:stop], kind="stable")[:2]).tolist()
        candidates.append(math.pi / abs(means[first] - means[second]))
    return candidates


def two_level_candidate_time(dec: EigenDecomposition, u: int, v: int) -> float:
    """Half beat period of the two eigenvalue groups most localized on {u, v}.

    When transfer is dominated by two near-(e_u +- e_v)/sqrt(2) eigenvectors,
    |U(t)_{u,v}| first peaks at pi over their eigenvalue gap. Groups split
    only where consecutive eigenvalues differ by more than the grouping
    tolerance, which keeps that gap away from zero; a spectrum with a single
    group has no gap and raises DegenerateGapError, and callers should fall
    back to a grid search.
    """
    pairs = np.array([(dec.eigenvectors[u], dec.eigenvectors[v])])
    candidate = _two_level_candidates([dec], dec.eigenvalues[None], pairs)[0]
    if isinstance(candidate, DegenerateGapError):
        raise candidate
    return candidate


def _golden_max(a: float, b: float):
    # bracketed golden-section maximization; assumes one dominant peak in [a, b];
    # yields each time to evaluate and receives |U| there
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = (yield c), (yield d)
    while (b - a) > REFINE_RELATIVE_WIDTH * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
    t = 0.5 * (a + b)
    return t, (yield t)


def _search_steps(t_candidate: float | None, t_sample: float, bracket_lo: float, bracket_hi: float):
    # peak_fidelity's comparisons in order; yields each time to evaluate,
    # receives |U| there and returns the PeakResult
    if t_candidate is None:
        seed_method = "grid"
        best_t, best_f = 0.0, -1.0
    else:
        seed_method = "two-level"
        best_t, best_f = t_candidate, (yield t_candidate)
    # the reported fidelity is always a pointwise amplitude value
    f_sample = yield t_sample
    if f_sample > best_f:
        best_t, best_f = t_sample, f_sample
        if seed_method == "two-level":
            seed_method = "refined"
    t_refined, f_refined = yield from _golden_max(bracket_lo, bracket_hi)
    method = seed_method
    if f_refined > best_f:
        best_t, best_f = t_refined, f_refined
        method = "refined"
    return PeakResult(t_star=best_t, fidelity=best_f, method=method)


#: a started search: phases -1j * eigenvalues and weights V[u] * V[v], so that
#: |U(t)_{u,v}| is abs(exp(phases * t) @ weights), and the steps generator that
#: yields the times to evaluate
_Search = tuple[np.ndarray, np.ndarray, Generator]


def _scan(
    strategy: GridSearch | TwoLevelSearch, eigenvalues: np.ndarray, weights: np.ndarray, candidates: list
) -> list[Generator]:
    # the steps of each row's search: its window scanned, the best sample
    # and its neighbors picked as in the one-search form
    if isinstance(strategy, TwoLevelSearch):
        samples, t_candidates = strategy.refine_samples, np.array(candidates)
        start = t_candidates * (1.0 - strategy.refine_window_fraction)
        stop = t_candidates * (1.0 + strategy.refine_window_fraction)
    else:
        _check_phases(strategy.t_max, eigenvalues)
        samples, start = strategy.samples, np.zeros(len(candidates))
        stop = np.array([strategy.t_max] * len(candidates))
    times, amplitudes = _uniform_series(eigenvalues, weights, start, stop, samples)
    steps = []
    for i, j in enumerate(np.argmax(np.abs(amplitudes), axis=1).tolist()):
        lo, hi = max(j - 1, 0), min(j + 1, samples - 1)
        steps.append(_search_steps(candidates[i], float(times[i, j]), float(times[i, lo]), float(times[i, hi])))
    return steps


def _start_searches(
    decs: Sequence[EigenDecomposition],
    u: int,
    v: int,
    strategy: GridSearch | TwoLevelSearch,
    fallback: GridSearch | None = None,
) -> list[_Search]:
    """The started search of each decomposition (all of one size), stage by stage on stacked arrays.

    Seeds each search and scans its sample window, so it raises what
    peak_fidelity raises before any time is evaluated. A
    decomposition whose two-level candidate raises DegenerateGapError is
    searched with fallback instead; without a fallback the error propagates.
    Scans of S samples run max(1, SWEEP_BLOCK_ENTRIES // S) decompositions
    at a time. A started search holds O(n) data and no reference to its
    decomposition.
    """
    eigenvalues = np.array([dec.eigenvalues for dec in decs])
    pairs = np.array([(dec.eigenvectors[u], dec.eigenvectors[v]) for dec in decs])
    if isinstance(strategy, TwoLevelSearch):
        candidates = _two_level_candidates(decs, eigenvalues, pairs)
    else:
        candidates = [None] * len(decs)
    members: dict[GridSearch | TwoLevelSearch, list[int]] = {}
    for i, candidate in enumerate(candidates):
        chosen = strategy
        if isinstance(candidate, DegenerateGapError):
            if fallback is None:
                raise candidate
            chosen, candidates[i] = fallback, None
        members.setdefault(chosen, []).append(i)
    weights = pairs[:, 0] * pairs[:, 1]
    phases = -1j * eigenvalues
    searches = [None] * len(decs)
    for chosen, indices in members.items():
        samples = chosen.refine_samples if isinstance(chosen, TwoLevelSearch) else chosen.samples
        chunk = max(1, SWEEP_BLOCK_ENTRIES // samples)
        for lo in range(0, len(indices), chunk):
            stack = indices[lo : lo + chunk]
            # a stack of every decomposition is read in place
            rows = stack if len(stack) < len(decs) else slice(None)
            steps = _scan(chosen, eigenvalues[rows], weights[rows], [candidates[i] for i in stack])
            for i, search_steps in zip(stack, steps):
                searches[i] = (phases[i], weights[i], search_steps)
    return searches


def _run_searches(searches: list[_Search]) -> list[PeakResult]:
    """Run started searches over spectra of one size in lockstep; results in input order.

    Each round evaluates every pending time at once (see the module
    docstring). The last search left is evaluated alone with the same dot,
    which skips the stacking a single search does not need.
    """
    results: list[PeakResult | None] = [None] * len(searches)
    active = list(range(len(searches)))
    times = [next(steps) for _, _, steps in searches]
    phases = weights = None
    while active:
        if len(active) == 1:
            search_phases, search_weights, _ = searches[active[0]]
            values = [np.exp(search_phases * times[0]) @ search_weights]
        else:
            if phases is None or len(phases) != len(active):
                phases = np.stack([searches[i][0] for i in active])
                weights = np.stack([searches[i][1] for i in active]).astype(complex)[:, :, None]
            block = np.exp(phases * np.array(times)[:, None])
            values = np.matmul(block[:, None, :], weights).ravel().tolist()
        still, times = [], []
        for i, value in zip(active, values):
            try:
                times.append(searches[i][2].send(abs(complex(value))))
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
        active = still
    return results


def peak_fidelity(
    dec: EigenDecomposition, u: int, v: int, strategy: GridSearch | TwoLevelSearch
) -> PeakResult:
    """Search for the peak of |U(t)_{u,v}|.

    TwoLevelSearch seeds at the two-level candidate time and refines inside
    t* * (1 +- refine_window_fraction); GridSearch takes the best of a uniform
    scan of [0, t_max] and refines between the neighbors of the best sample.
    """
    return _run_searches(_start_searches([dec], u, v, strategy))[0]


def _sweep_block(graph: Graph, u: int, v: int, ks: Sequence[float], fallback: GridSearch) -> list[_Search]:
    # the started searches of one block of k values; the block's Hamiltonians,
    # decompositions and window arrays are dropped on return
    decs = eigendecompose_stack(hamiltonian_stack([Generalized(k) for k in ks], graph))
    return _start_searches(decs, u, v, TwoLevelSearch(), fallback)


def sweep_peaks(graph: Graph, u: int, v: int, ks: Sequence[float], fallback: GridSearch) -> list[PeakResult]:
    """peak_fidelity under Generalized(k) for each k, with TwoLevelSearch; fallback on a degenerate gap.

    The k values are decomposed and seeded a block at a time, and every k's
    refine then runs in one lockstep. Each result equals peak_fidelity of
    its k alone.
    """
    # a block holds at most SWEEP_BLOCK_ENTRIES matrix entries or window samples
    block = max(1, SWEEP_BLOCK_ENTRIES // max(graph.n**2, TwoLevelSearch().refine_samples))
    blocks = (_sweep_block(graph, u, v, ks[i : i + block], fallback) for i in range(0, len(ks), block))
    return _run_searches([search for searches in blocks for search in searches])
