"""Exact spectral time evolution and peak-fidelity search.

All operations take an EigenDecomposition of the Hamiltonian H and evaluate
entries of U(t) = exp(-iHt) from the eigenpairs, so arbitrary times cost
O(n) per entry with no time stepping.

Uniform grids (fidelity curves, grid scans and the two-level refine window)
factor each phase as a block start times an offset within the block, so S
samples cost about 2*sqrt(S)*n complex exponentials and one
sqrt(S) x n x sqrt(S) complex matrix product, with O(sqrt(S)*n + S) memory,
in place of S*n exponentials held at once. amplitude_series keeps the direct
S*n evaluation for arbitrary times.

Peak searches are step-wise. start_peak_search validates the strategy, seeds
the search and scans its sample window, then keeps only the phases -i*lambda
and the weights V[u]*V[v]; its steps yield each time the golden-section
refine needs and receive |U(t)_{u,v}| there. run_peak_searches drives any
number of started searches in lockstep: each round evaluates every pending
time with one np.exp over the stacked phases and one (K,1,n) @ (K,n,1)
np.matmul. peak_fidelity is the one-search case, and a k sweep runs one
search per k. The form keeps every reported fidelity bit-identical to
abs(evolution_amplitude(...)) at its time: matmul takes each slice's product
with the same dot as the 1-D product (a (K,n) row-wise product or a sum
rounds differently), and magnitudes go through Python abs, which np.abs on
a complex array does not always match.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError
from .spectral import EigenDecomposition, group_eigenvalues, localization_mass

# gap below this fraction of the spectral range counts as degenerate
DEGENERATE_GAP_SCALE = 1e-13
# golden-section refinement stops at this relative bracket width
REFINE_RELATIVE_WIDTH = 1e-12

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


@dataclass(frozen=True)
class TwoLevelSearch:
    refine_window_fraction: float = 0.5
    refine_samples: int = 2000


def evolution_amplitude(dec: EigenDecomposition, t: float, u: int, v: int) -> complex:
    """Entry (u, v) of exp(-iHt)."""
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    return complex(np.exp(-1j * dec.eigenvalues * t) @ weights)


def amplitude_series(dec: EigenDecomposition, times: np.ndarray, u: int, v: int) -> np.ndarray:
    """Vectorized evolution_amplitude over an array of times."""
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    return np.exp(-1j * np.outer(np.asarray(times, dtype=float), dec.eigenvalues)) @ weights


def _uniform_series(
    dec: EigenDecomposition, u: int, v: int, start: float, stop: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Times np.linspace(start, stop, samples) and amplitude_series on them.

    Sample j = J*B + m, with B = isqrt(samples) and step h, takes its phase
    exp(-i*lam*t_j) as exp(-i*lam*t_{J*B}) * exp(-i*lam*m*h); the block starts
    are grid points, and the offset table carries the weights V[u]*V[v].
    """
    times = np.linspace(start, stop, samples)
    width = math.isqrt(samples)
    step = (stop - start) / (samples - 1)
    weights = dec.eigenvectors[u] * dec.eigenvectors[v]
    offsets = weights * np.exp(-1j * np.outer(np.arange(width) * step, dec.eigenvalues))
    blocks = np.exp(-1j * np.outer(times[::width], dec.eigenvalues))
    return times, (blocks @ offsets.T).ravel()[:samples]


def evolution_operator(dec: EigenDecomposition, t: float) -> np.ndarray:
    """Full unitary exp(-iHt)."""
    vectors = dec.eigenvectors
    return (vectors * np.exp(-1j * dec.eigenvalues * t)) @ vectors.T


def transfer_probability(dec: EigenDecomposition, t: float, u: int, v: int) -> float:
    return abs(evolution_amplitude(dec, t, u, v)) ** 2


def fidelity_curve(dec: EigenDecomposition, u: int, v: int, t_max: float, samples: int) -> FidelityCurve:
    """Uniform sampling of the transfer probability on [0, t_max], endpoints included."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if samples < 2:
        raise ValueError("need at least two samples")
    times, amplitudes = _uniform_series(dec, u, v, 0.0, t_max, samples)
    probabilities = np.abs(amplitudes) ** 2
    times.setflags(write=False)
    probabilities.setflags(write=False)
    return FidelityCurve(times=times, probabilities=probabilities)


def two_level_candidate_time(dec: EigenDecomposition, u: int, v: int) -> float:
    """Half beat period of the two eigenvalue groups most localized on {u, v}.

    When transfer is dominated by two near-(e_u +- e_v)/sqrt(2) eigenvectors,
    |U(t)_{u,v}| first peaks at pi over their eigenvalue gap. Raises
    DegenerateGapError when that gap is numerically zero (PST-like degeneracy);
    callers should fall back to a grid search in that case.
    """
    if len(dec.groups) < 2:
        raise DegenerateGapError("fewer than two eigenvalue groups; no beat frequency exists")
    first, second = np.argsort(-localization_mass(dec, u, v), kind="stable")[:2]
    eigenvalues = group_eigenvalues(dec)
    gap = float(abs(eigenvalues[first] - eigenvalues[second]))
    if gap < DEGENERATE_GAP_SCALE * dec.spectral_range:
        raise DegenerateGapError(
            f"top localized groups are degenerate (gap {gap:.3e}); use a grid search"
        )
    return math.pi / gap


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


@dataclass(frozen=True)
class PeakSearch:
    """A started peak search: what it reads of the pair and its pending steps.

    phases holds -1j * eigenvalues and weights V[u] * V[v], so |U(t)_{u,v}|
    is abs(exp(phases * t) @ weights); steps is the generator that yields
    the times to evaluate.
    """

    phases: np.ndarray
    weights: np.ndarray
    steps: Generator


def start_peak_search(
    dec: EigenDecomposition, u: int, v: int, strategy: GridSearch | TwoLevelSearch
) -> PeakSearch:
    """Validate the strategy, seed the search and scan its sample window.

    Raises what peak_fidelity raises (ValueError, DegenerateGapError) before
    any time is evaluated. The window's arrays are dropped here, so a
    started search holds O(n) data and no reference to dec.
    """
    if isinstance(strategy, TwoLevelSearch):
        if not 0 < strategy.refine_window_fraction < 1:
            raise ValueError("refine_window_fraction must lie in (0, 1)")
        if strategy.refine_samples < 3:
            raise ValueError("need at least three refinement samples")
        t_candidate = two_level_candidate_time(dec, u, v)
        grid = (
            t_candidate * (1.0 - strategy.refine_window_fraction),
            t_candidate * (1.0 + strategy.refine_window_fraction),
            strategy.refine_samples,
        )
    else:
        if not 0 < strategy.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {strategy.t_max!r}")
        if strategy.samples < 3:
            raise ValueError("need at least three grid samples")
        t_candidate = None
        grid = (0.0, strategy.t_max, strategy.samples)
    times, amplitudes = _uniform_series(dec, u, v, *grid)
    i = int(np.argmax(np.abs(amplitudes)))
    steps = _search_steps(
        t_candidate,
        float(times[i]),
        float(times[max(i - 1, 0)]),
        float(times[min(i + 1, len(times) - 1)]),
    )
    return PeakSearch(
        phases=-1j * dec.eigenvalues, weights=dec.eigenvectors[u] * dec.eigenvectors[v], steps=steps
    )


def run_peak_searches(searches: list[PeakSearch]) -> list[PeakResult]:
    """Run started searches over spectra of one size in lockstep; results in input order.

    Each round evaluates every pending time at once (see the module
    docstring). The last search left is evaluated alone with the same dot,
    which skips the stacking a single search does not need.
    """
    results: list[PeakResult | None] = [None] * len(searches)
    active = list(range(len(searches)))
    times = [next(search.steps) for search in searches]
    phases = weights = None
    while active:
        if len(active) == 1:
            search = searches[active[0]]
            values = [np.exp(search.phases * times[0]) @ search.weights]
        else:
            if phases is None or len(phases) != len(active):
                phases = np.stack([searches[i].phases for i in active])
                weights = np.stack([searches[i].weights for i in active]).astype(complex)[:, :, None]
            block = np.exp(phases * np.array(times)[:, None])
            values = np.matmul(block[:, None, :], weights).ravel().tolist()
        still, times = [], []
        for i, value in zip(active, values):
            try:
                times.append(searches[i].steps.send(abs(complex(value))))
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
    return run_peak_searches([start_peak_search(dec, u, v, strategy)])[0]
