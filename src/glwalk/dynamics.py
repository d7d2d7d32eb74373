"""Exact spectral time evolution and peak-fidelity search.

All operations take the PairSpectrum of a vertex pair (u, v) in an
eigendecomposition of the Hamiltonian H (spectral.pair_spectrum) and
evaluate U(t)_{u,v} = sum_j w_j * exp(-i*lambda_j*t), w = V[u]*V[v], from
its eigenvalues and weights, so arbitrary times cost O(n) with no time
stepping; no function here reads an eigenvector matrix.

Uniform grids (fidelity curves, grid scans and the two-level refine window)
factor each phase as a block start times an offset within the block, so S
samples cost about 2*sqrt(S)*n complex exponentials and one
sqrt(S) x n x sqrt(S) complex matrix product, with O(sqrt(S)*n + S) memory,
in place of S*n exponentials held at once.

A strategy checks its own settings when built. The peak searches of a
block of spectra (the one spectrum of peak_fidelity, or a block of k values
of sweep_peaks, whose records spectral.pair_spectra builds from one
group_sums) take their two-level candidates and certificates together;
after that each search runs on its own.

The certificate: with U(t) = sum_r c_r * exp(-i*mu_r*t), c_r = (P_r)_{uv},
take the two groups r, s most localized on {u, v}, the bulk weight
beta = sum of |c| over the other groups and the floor
L = |c_r| + |c_s| - beta. Where c_r*c_s < 0, |U| at the two-level
candidate pi/|mu_r - mu_s| lies in [L, L + 2*beta], up to the phase
budget max|lambda|*t*eps, and sup_t |U| <= L + 2*beta <= 1 (the two-level
picture of Kempton, Lippner and Yau, QIC 2017). Where also
L >= 1 - CERTIFIED_SHORTFALL, no search can beat that readout by more than
CERTIFIED_SHORTFALL, so the search is certified: it evaluates the
candidate alone and scans nothing. The certified searches of a block are
read in one array step, one np.exp over their stacked phases and one
(K,1,n) @ (K,n,1) np.matmul.

Every other search scans its window and then calls evaluate(t) for each
point it compares, which returns (|U|, U, U', U'') at t from one np.exp of
the phases -i*lambda, a dot with the weights w for U and one (n,) @ (n,2)
product with -i*lambda*w and -lambda**2*w for U' and U''. The refine is a
safeguarded Newton ascent on |U|^2 from the best window sample, inside the
bracket between that sample's neighbours: a step is kept only where |U|
rises, so the refined fidelity is never below the best sample, and the
trust radius starts at min(bracket width, 1/(2*spread of the spectrum)),
short of the fastest oscillation. Where an uncertified bracket spans many
bulk oscillations, the ascent climbs the one at the sample.

Every result is bit-identical to the search of its spectrum alone, and
its fidelity to |evolution_amplitude| at its time: the readout's matmul
takes each slice's product with the same dot as the 1-D product (a (K,n)
row-wise product or a sum rounds differently), U is not read off the
derivative product, whose gemv rounds differently from that dot, every
other stacked operation is elementwise or per row, and reported
magnitudes go through Python abs, which np.abs on a complex array does
not always match.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError
from .graphs import Graph
from .hamiltonians import Generalized, hamiltonian_stack
from .spectral import PairSpectrum, eigendecompose_stack, pair_spectra

#: the refine's Newton ascent stops once its next step or its trust radius is
#: within REFINE_RELATIVE_WIDTH * max(1, |t|) over the bracket
REFINE_RELATIVE_WIDTH = 1e-12
#: a sweep's Hamiltonian stack holds at most this many matrix entries: it
#: decomposes max(1, SWEEP_BLOCK_ENTRIES // (n*n)) k values at once
SWEEP_BLOCK_ENTRIES = 2**14
#: a TwoLevelSearch whose two-level floor L is at least 1 - CERTIFIED_SHORTFALL
#: reads |U| at its candidate time alone (see the module docstring). That |U|
#: lies in [L, L + 2*beta] and sup_t |U| <= L + 2*beta <= 1, so no search could
#: report more than CERTIFIED_SHORTFALL above it: the readout gives up at most
#: 0.1% of the amplitude and skips the window scan and the ascent
CERTIFIED_SHORTFALL = 1e-3

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FidelityCurve:
    """Sampled transfer probabilities between a vertex pair (hbar = 1 units)."""

    times: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class PeakResult:
    """Best |U(t)_{u,v}| found and the time it was found at.

    fidelity is the amplitude magnitude |U|, not the probability |U|^2.
    method records which search stage produced the returned point: "grid",
    "refined", or "two-level" for the two-level candidate time, which a
    certified search (see TwoLevelSearch) returns as its only evaluation.
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
    """Seed at the two-level candidate time t_c and refine inside t_c * (1 +- refine_window_fraction).

    A search whose spectrum certifies the readout (floor L >= 1 -
    CERTIFIED_SHORTFALL, see the module docstring) returns |U(t_c)|, which
    lies in [L, L + 2*beta] and at most CERTIFIED_SHORTFALL below sup_t |U|,
    and scans nothing; the window settings shape only uncertified searches.
    """

    refine_window_fraction: float = 0.5
    refine_samples: int = 2000

    def __post_init__(self):
        if not 0 < self.refine_window_fraction < 1:
            raise ValueError("refine_window_fraction must lie in (0, 1)")
        if self.refine_samples < 3:
            raise ValueError("need at least three refinement samples")


def evolution_amplitude(pair: PairSpectrum, t: float) -> complex:
    """Entry (u, v) of exp(-iHt) for the pair's decomposition of H."""
    return complex(np.exp(-1j * pair.eigenvalues * t) @ pair.weights)


def _uniform_series(pair: PairSpectrum, start: float, stop: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Times np.linspace(start, stop, samples) and U(t) = sum_j w_j * exp(-i*lambda_j*t) there.

    Sample j = J*B + m, with B = isqrt(samples) and step h, takes its phase
    exp(-i*lam*t_j) as exp(-i*lam*t_{J*B}) * exp(-i*lam*m*h); the block
    starts are grid points, and the offset table carries the weights. One
    (nb, n) @ (n, B) product forms the series.
    """
    times = np.linspace(start, stop, samples)
    width = math.isqrt(samples)
    step = (stop - start) / (samples - 1)
    offsets = pair.weights * np.exp(-1j * np.outer(np.arange(width) * step, pair.eigenvalues))
    blocks = np.exp(-1j * np.outer(times[::width], pair.eigenvalues))
    return times, (blocks @ offsets.T).ravel()[:samples]


def _check_phases(t_max: float, eigenvalues: np.ndarray) -> None:
    # in Python floats: the numpy product would warn as it overflows
    if not math.isfinite(float(np.abs(eigenvalues).max()) * t_max):
        raise ValueError(f"t_max {t_max!r} overflows the phases: max|eigenvalue| * t_max is not finite")


def fidelity_curve(pair: PairSpectrum, t_max: float, samples: int) -> FidelityCurve:
    """Uniform sampling of the transfer probability on [0, t_max], endpoints included."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if samples < 2:
        raise ValueError("need at least two samples")
    _check_phases(t_max, pair.eigenvalues)
    times, amplitudes = _uniform_series(pair, 0.0, t_max, samples)
    probabilities = np.abs(amplitudes) ** 2
    times.setflags(write=False)
    probabilities.setflags(write=False)
    return FidelityCurve(times=times, probabilities=probabilities)


def _two_level_candidates(pairs: Sequence[PairSpectrum]) -> tuple[list[float | DegenerateGapError], list[bool]]:
    """two_level_candidate_time of each pair spectrum, or the error it raises, and whether it is certified.

    A candidate is certified where the top two groups r, s by pair mass have
    c_r * c_s < 0 and the floor L = |c_r| + |c_s| - beta is at least
    1 - CERTIFIED_SHORTFALL, with beta the sum of |c| over the other groups.
    The groups of all the spectra are taken at once: one stable sort ranks
    each spectrum's groups by falling mass, ties in group order.
    """
    counts = np.array([len(pair.means) for pair in pairs])
    starts = np.cumsum(counts) - counts
    masses = np.concatenate([pair.masses for pair in pairs])
    couplings = np.concatenate([pair.couplings for pair in pairs])
    means = np.concatenate([pair.means for pair in pairs])
    order = np.lexsort((-masses, np.repeat(np.arange(len(pairs)), counts)))
    several = counts > 1
    # a spectrum with one group takes it as both r and s: a zero gap and c_r*c_s >= 0
    first, second = order[starts], order[starts + several]
    magnitudes = np.abs(couplings)
    # L = |c_r| + |c_s| - beta = 2 * (|c_r| + |c_s|) - the sum of |c| over the spectrum's groups
    floors = 2.0 * (magnitudes[first] + magnitudes[second]) - np.add.reduceat(magnitudes, starts)
    certified = (couplings[first] * couplings[second] < 0) & (floors >= 1.0 - CERTIFIED_SHORTFALL)
    candidates: list[float | DegenerateGapError] = [
        math.pi / gap if split else DegenerateGapError("fewer than two eigenvalue groups; no beat frequency exists")
        for gap, split in zip(np.abs(means[first] - means[second]).tolist(), several.tolist())
    ]
    return candidates, certified.tolist()


def two_level_candidate_time(pair: PairSpectrum) -> float:
    """Half beat period of the two eigenvalue groups most localized on {u, v}.

    When transfer is dominated by two near-(e_u +- e_v)/sqrt(2) eigenvectors,
    |U(t)_{u,v}| first peaks at pi over their eigenvalue gap. Groups split
    only where consecutive eigenvalues differ by more than the grouping
    tolerance, which keeps that gap away from zero; a spectrum with a single
    group has no gap and raises DegenerateGapError, and callers should fall
    back to a grid search.
    """
    candidate = _two_level_candidates([pair])[0][0]
    if isinstance(candidate, DegenerateGapError):
        raise candidate
    return candidate


def _ascend(evaluate, t: float, value: tuple, lo: float, hi: float, radius: float) -> tuple[float, float]:
    # safeguarded Newton ascent on F = |U|^2 from the evaluated point t inside
    # [lo, hi]; value is (|U|, U, U', U'') at t. With g = Re(conj(U) U') and
    # h = |U'|^2 + Re(conj(U) U''), F' = 2g and F'' = 2h. A step is the Newton
    # step -g/h where h < 0 and the trust radius along g elsewhere, clipped to
    # the radius and the bracket; it is kept only where |U| rises, and
    # otherwise the radius becomes half the rejected step. The ascent stops
    # at a step within REFINE_RELATIVE_WIDTH, or at one whose predicted rise
    # 2*g*s + h*s**2 of F is at most (2|U| + eps) * eps, what moving |U| <= 1
    # by one rounding unit changes F by. Returns the best point and its |U|.
    tol = REFINE_RELATIVE_WIDTH * max(1.0, abs(lo), abs(hi))
    f, g, h = _slope_curvature(value)
    while radius > tol:
        step = -g / h if h < 0 else math.copysign(radius, g)
        trial = min(hi, max(lo, t + min(radius, max(-radius, step))))
        step = trial - t
        if abs(step) <= tol or (2.0 * g + h * step) * step <= (2.0 * f + _EPS) * _EPS:
            break
        value = evaluate(trial)
        if value[0] > f:
            t, (f, g, h) = trial, _slope_curvature(value)
        else:
            radius = 0.5 * abs(step)
    return t, f


def _slope_curvature(value: tuple) -> tuple[float, float, float]:
    # |U| and half the first and second derivatives of |U|^2
    magnitude, u, du, d2u = value
    return magnitude, (u.conjugate() * du).real, (du.conjugate() * du).real + (u.conjugate() * d2u).real


def _evaluator(pair: PairSpectrum):
    # evaluate(t) = (|U|, U, U', U'') at t, from one np.exp of the phases
    phases = -1j * pair.eigenvalues
    derivatives = np.stack([phases * pair.weights, -(pair.eigenvalues**2) * pair.weights], axis=-1)

    def evaluate(t: float) -> tuple:
        block = np.exp(phases * t)
        value = complex(block @ pair.weights)
        slope, curvature = (block @ derivatives).tolist()
        return abs(value), value, slope, curvature

    return evaluate


def _search(
    strategy: GridSearch | TwoLevelSearch, pair: PairSpectrum, t_candidate: float | None, evaluate
) -> PeakResult:
    # one uncertified search, peak_fidelity's comparisons in order: the
    # candidate if any, the best sample of the window scan and the ascent from
    # it inside the bracket between its neighbors, with a trust radius of the
    # smaller of the bracket width and 1/(2*spread). evaluate(t) gives
    # (|U|, U, U', U'') at t
    if t_candidate is None:
        _check_phases(strategy.t_max, pair.eigenvalues)
        samples, start, stop = strategy.samples, 0.0, strategy.t_max
        seed_method, best_t, best_f = "grid", 0.0, -1.0
    else:
        samples = strategy.refine_samples
        start = t_candidate * (1.0 - strategy.refine_window_fraction)
        stop = t_candidate * (1.0 + strategy.refine_window_fraction)
        seed_method, best_t, best_f = "two-level", t_candidate, evaluate(t_candidate)[0]
    times, amplitudes = _uniform_series(pair, start, stop, samples)
    j = int(np.argmax(np.abs(amplitudes)))
    t_sample, lo, hi = float(times[j]), float(times[max(j - 1, 0)]), float(times[min(j + 1, samples - 1)])
    spread = float(pair.eigenvalues[-1] - pair.eigenvalues[0])
    radius = min(hi - lo, 0.5 / spread) if spread > 0 else hi - lo
    # the reported fidelity is always a pointwise amplitude value
    sample = evaluate(t_sample)
    if sample[0] > best_f:
        best_t, best_f = t_sample, sample[0]
        if seed_method == "two-level":
            seed_method = "refined"
    t_refined, f_refined = _ascend(evaluate, t_sample, sample, lo, hi, radius)
    method = seed_method
    if f_refined > best_f:
        best_t, best_f = t_refined, f_refined
        method = "refined"
    return PeakResult(t_star=best_t, fidelity=best_f, method=method)


def _peaks(
    pairs: Sequence[PairSpectrum], strategy: GridSearch | TwoLevelSearch, fallback: GridSearch | None = None
) -> list[PeakResult]:
    """peak_fidelity of each pair spectrum (all of one size), in input order.

    A spectrum whose two-level candidate raises DegenerateGapError is
    searched with fallback instead; without a fallback the error
    propagates. The certified searches are read in one array step, and
    every other one is scanned and refined on its own (see the module
    docstring).
    """
    if isinstance(strategy, TwoLevelSearch):
        candidates, certified = _two_level_candidates(pairs)
    else:
        candidates, certified = [None] * len(pairs), [False] * len(pairs)
    peaks: list[PeakResult | None] = [None] * len(pairs)
    read = [i for i, ok in enumerate(certified) if ok]
    if read:
        phases = -1j * np.array([pairs[i].eigenvalues for i in read])
        blocks = np.exp(phases * np.array([candidates[i] for i in read])[:, None])[:, None, :]
        weights = np.array([pairs[i].weights for i in read], dtype=complex)
        values = np.matmul(blocks, weights[:, :, None]).ravel().tolist()
        for i, value in zip(read, values):
            peaks[i] = PeakResult(t_star=candidates[i], fidelity=abs(value), method="two-level")
    for i, candidate in enumerate(candidates):
        if certified[i]:
            continue
        chosen = strategy
        if isinstance(candidate, DegenerateGapError):
            if fallback is None:
                raise candidate
            chosen, candidate = fallback, None
        peaks[i] = _search(chosen, pairs[i], candidate, _evaluator(pairs[i]))
    return peaks


def peak_fidelity(pair: PairSpectrum, strategy: GridSearch | TwoLevelSearch) -> PeakResult:
    """Search for the peak of |U(t)_{u,v}|.

    TwoLevelSearch seeds at the two-level candidate time and refines inside
    t* * (1 +- refine_window_fraction), or, where the spectrum certifies the
    readout, returns |U| at the candidate alone (method "two-level", within
    [L, L + 2*beta] and CERTIFIED_SHORTFALL of the supremum); GridSearch
    takes the best of a uniform scan of [0, t_max] and refines between the
    neighbors of the best sample.
    """
    return _peaks([pair], strategy)[0]


def sweep_peaks(graph: Graph, u: int, v: int, ks: Sequence[float], fallback: GridSearch) -> list[PeakResult]:
    """peak_fidelity under Generalized(k) for each k, with TwoLevelSearch; fallback on a degenerate gap.

    The k values are taken a block of max(1, SWEEP_BLOCK_ENTRIES // n**2)
    at a time: one Hamiltonian stack, one stacked decomposition and one
    two-level candidate step per block, dropped before the next block is
    built. Certified k values are read at their candidate times and every
    other k is searched on its own; each result equals peak_fidelity of its
    k alone.
    """
    block = max(1, SWEEP_BLOCK_ENTRIES // graph.n**2)
    peaks = []
    for i in range(0, len(ks), block):
        models = [Generalized(k) for k in ks[i : i + block]]
        # passed as temporaries, the block's stack and decompositions are dropped before its searches
        pairs = pair_spectra(eigendecompose_stack(hamiltonian_stack(models, graph)), u, v)
        peaks += _peaks(pairs, TwoLevelSearch(), fallback)
    return peaks
