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
"""

from __future__ import annotations

import math
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

    u: int
    v: int
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
    return FidelityCurve(u=u, v=v, times=times, probabilities=probabilities)


def two_level_candidate_time(dec: EigenDecomposition, u: int, v: int) -> float:
    """Half beat period of the two eigenvalue groups most localized on {u, v}.

    When transfer is dominated by two near-(e_u +- e_v)/sqrt(2) eigenvectors,
    |U(t)_{u,v}| first peaks at pi over their eigenvalue gap. Raises
    DegenerateGapError when that gap is numerically zero (PST-like degeneracy);
    callers should fall back to a grid search in that case.
    """
    if dec.n < 2 or len(dec.groups) < 2:
        raise DegenerateGapError("fewer than two eigenvalue groups; no beat frequency exists")
    first, second = np.argsort(-localization_mass(dec, u, v), kind="stable")[:2]
    eigenvalues = group_eigenvalues(dec)
    gap = float(abs(eigenvalues[first] - eigenvalues[second]))
    if gap < DEGENERATE_GAP_SCALE * dec.spectral_range:
        raise DegenerateGapError(
            f"top localized groups are degenerate (gap {gap:.3e}); use a grid search"
        )
    return math.pi / gap


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    # bracketed golden-section maximization; assumes one dominant peak in [a, b]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > REFINE_RELATIVE_WIDTH * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def peak_fidelity(
    dec: EigenDecomposition, u: int, v: int, strategy: GridSearch | TwoLevelSearch
) -> PeakResult:
    """Search for the peak of |U(t)_{u,v}|.

    TwoLevelSearch seeds at the two-level candidate time and refines inside
    t* * (1 +- refine_window_fraction); GridSearch takes the best of a uniform
    scan of [0, t_max] and refines between the neighbors of the best sample.
    """

    def magnitude(t: float) -> float:
        return abs(evolution_amplitude(dec, t, u, v))

    if isinstance(strategy, TwoLevelSearch):
        if not 0 < strategy.refine_window_fraction < 1:
            raise ValueError("refine_window_fraction must lie in (0, 1)")
        if strategy.refine_samples < 3:
            raise ValueError("need at least three refinement samples")
        t_candidate = two_level_candidate_time(dec, u, v)
        seed_method = "two-level"
        best_t, best_f = t_candidate, magnitude(t_candidate)
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
        seed_method = "grid"
        grid = (0.0, strategy.t_max, strategy.samples)
        best_t, best_f = 0.0, -1.0

    times, amplitudes = _uniform_series(dec, u, v, *grid)
    i = int(np.argmax(np.abs(amplitudes)))
    # the reported fidelity is always a pointwise evolution_amplitude value
    f_sample = magnitude(float(times[i]))
    if f_sample > best_f:
        best_t, best_f = float(times[i]), f_sample
        if seed_method == "two-level":
            seed_method = "refined"
    bracket_lo = float(times[max(i - 1, 0)])
    bracket_hi = float(times[min(i + 1, len(times) - 1)])
    t_refined, f_refined = _golden_max(magnitude, bracket_lo, bracket_hi)
    method = seed_method
    if f_refined > best_f:
        best_t, best_f = t_refined, f_refined
        method = "refined"
    return PeakResult(t_star=best_t, fidelity=best_f, method=method)
