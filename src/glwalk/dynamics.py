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

GridSearch checks its settings when built. peak_fidelity searches one
spectrum; sweep_peaks builds the records of a block of k values from one
stacked decomposition and one group_sums (spectral.pair_spectra) and runs
that same search on each.

The certificate: with U(t) = sum_r c_r * exp(-i*mu_r*t), c_r = (P_r)_{uv},
take the two groups r, s most localized on {u, v}, the bulk weight
beta = sum of |c| over the other groups and the floor
L = |c_r| + |c_s| - beta. Where c_r*c_s < 0, |U| at the two-level
candidate pi/|mu_r - mu_s| lies in [L, L + 2*beta], up to the phase
budget max|lambda|*t*eps, and sup_t |U| <= L + 2*beta <= 1 (the two-level
picture of Kempton, Lippner and Yau, QIC 2017). Where also
L >= 1 - CERTIFIED_SHORTFALL, no search can beat that readout by more than
CERTIFIED_SHORTFALL, so the search is certified: it reads
evolution_amplitude at the candidate alone and scans nothing.

Every other search scans its window and then calls evaluate(t) for each
point it compares, which returns (|U|, U, U', U'') at t from one np.exp of
the phases -i*lambda, a dot with the weights w for U and one (n,) @ (n,2)
product with -i*lambda*w and -lambda**2*w for U' and U''. The refine is a
safeguarded Newton ascent on |U|^2 from the best window sample, inside the
bracket between that sample's neighbours: a step is kept only where |U|
rises, so the refined fidelity is never below the best sample, and the
trust radius starts at min(bracket width, 1/(2*spread of the spectrum)),
short of the fastest oscillation. Where an uncertified bracket spans many
bulk oscillations, the ascent climbs the one at the sample. U is the same
np.exp and dot as evolution_amplitude, so every reported fidelity is
|evolution_amplitude| at its time.
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
#: an uncertified TwoLevelSearch scans REFINE_SAMPLES points of
#: t_c * (1 +- REFINE_WINDOW_FRACTION) around its candidate time t_c
REFINE_WINDOW_FRACTION = 0.5
REFINE_SAMPLES = 2000
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
    """Seed at the two-level candidate time t_c and refine inside t_c * (1 +- REFINE_WINDOW_FRACTION).

    A search whose spectrum certifies the readout (floor L >= 1 -
    CERTIFIED_SHORTFALL, see the module docstring) returns |U(t_c)|, which
    lies in [L, L + 2*beta] and at most CERTIFIED_SHORTFALL below sup_t |U|,
    and scans nothing; every other search scans REFINE_SAMPLES window points.
    """


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


def _two_level(pair: PairSpectrum) -> tuple[float, bool]:
    """two_level_candidate_time of the pair spectrum and whether its readout is certified.

    The top two groups r, s by pair mass, ties in group order, give the
    candidate; it is certified where c_r * c_s < 0 and the floor
    L = |c_r| + |c_s| - beta is at least 1 - CERTIFIED_SHORTFALL, with beta
    the sum of |c| over the other groups.
    """
    masses, couplings, means = pair.masses.tolist(), pair.couplings.tolist(), pair.means.tolist()
    if len(means) < 2:
        raise DegenerateGapError("fewer than two eigenvalue groups; no beat frequency exists")
    # a stable sort keeps ties in group order
    first, second = sorted(range(len(masses)), key=masses.__getitem__, reverse=True)[:2]
    c_r, c_s = couplings[first], couplings[second]
    # L = |c_r| + |c_s| - beta = 2 * (|c_r| + |c_s|) - the sum of |c| over all groups
    floor = 2.0 * (abs(c_r) + abs(c_s)) - sum(map(abs, couplings))
    certified = c_r * c_s < 0 and floor >= 1.0 - CERTIFIED_SHORTFALL
    return math.pi / abs(means[first] - means[second]), certified


def two_level_candidate_time(pair: PairSpectrum) -> float:
    """Half beat period of the two eigenvalue groups most localized on {u, v}.

    When transfer is dominated by two near-(e_u +- e_v)/sqrt(2) eigenvectors,
    |U(t)_{u,v}| first peaks at pi over their eigenvalue gap. Groups split
    only where consecutive eigenvalues differ by more than the grouping
    tolerance, which keeps that gap away from zero; a spectrum with a single
    group has no gap and raises DegenerateGapError, and callers should fall
    back to a grid search.
    """
    return _two_level(pair)[0]


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
        samples = REFINE_SAMPLES
        start = t_candidate * (1.0 - REFINE_WINDOW_FRACTION)
        stop = t_candidate * (1.0 + REFINE_WINDOW_FRACTION)
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


def peak_fidelity(pair: PairSpectrum, strategy: GridSearch | TwoLevelSearch) -> PeakResult:
    """Search for the peak of |U(t)_{u,v}| in one pair spectrum.

    TwoLevelSearch ranks the spectrum's groups for the two-level candidate
    time t* and, where the spectrum certifies the readout, returns
    |evolution_amplitude| at t* alone (method "two-level", within
    [L, L + 2*beta] and CERTIFIED_SHORTFALL of the supremum); otherwise it
    seeds at t* and refines inside t* * (1 +- REFINE_WINDOW_FRACTION). A
    spectrum with one eigenvalue group raises DegenerateGapError. GridSearch
    takes the best of a uniform scan of [0, t_max] and refines between the
    neighbors of the best sample.
    """
    if isinstance(strategy, GridSearch):
        return _search(strategy, pair, None, _evaluator(pair))
    t_candidate, certified = _two_level(pair)
    if certified:
        return PeakResult(t_star=t_candidate, fidelity=abs(evolution_amplitude(pair, t_candidate)), method="two-level")
    return _search(strategy, pair, t_candidate, _evaluator(pair))


def sweep_peaks(graph: Graph, u: int, v: int, ks: Sequence[float], fallback: GridSearch) -> list[PeakResult]:
    """peak_fidelity under Generalized(k) for each k, with TwoLevelSearch; fallback on a degenerate gap.

    The k values are taken a block of max(1, SWEEP_BLOCK_ENTRIES // n**2)
    at a time: one Hamiltonian stack, one stacked decomposition and one
    pair_spectra per block, dropped before the next block is built. Each
    row then runs peak_fidelity on its own, so each result equals
    peak_fidelity of its k alone.
    """
    block = max(1, SWEEP_BLOCK_ENTRIES // graph.n**2)
    strategy = TwoLevelSearch()
    peaks = []
    for i in range(0, len(ks), block):
        models = [Generalized(k) for k in ks[i : i + block]]
        # passed as temporaries, the block's stack and decompositions are dropped before its searches
        for pair in pair_spectra(eigendecompose_stack(hamiltonian_stack(models, graph)), u, v):
            # strategy by keyword, where bench/tracing.py's peak_fidelity hook reads it
            try:
                peaks.append(peak_fidelity(pair, strategy=strategy))
            except DegenerateGapError:
                peaks.append(peak_fidelity(pair, strategy=fallback))
    return peaks
