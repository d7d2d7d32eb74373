"""Exact spectral time evolution and peak-fidelity search.

All operations take an EigenDecomposition of the Hamiltonian H and evaluate
entries of U(t) = exp(-iHt) from the eigenpairs, so arbitrary times cost
O(n) per entry with no time stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError
from .spectral import EigenDecomposition, localization_mass, spectral_projectors

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


def evolution_operator(dec: EigenDecomposition, t: float) -> np.ndarray:
    """Full unitary exp(-iHt)."""
    vectors = dec.eigenvectors
    return (vectors * np.exp(-1j * dec.eigenvalues * t)) @ vectors.T


def transfer_probability(dec: EigenDecomposition, t: float, u: int, v: int) -> float:
    return abs(evolution_amplitude(dec, t, u, v)) ** 2


def fidelity_curve(dec: EigenDecomposition, u: int, v: int, t_max: float, samples: int) -> FidelityCurve:
    """Uniform sampling of the transfer probability on [0, t_max], endpoints included."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, t_max, samples)
    probabilities = np.abs(amplitude_series(dec, times, u, v)) ** 2
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
    projectors = spectral_projectors(dec)
    first, second = np.argsort(-localization_mass(projectors, u, v), kind="stable")[:2]
    gap = abs(projectors[first].eigenvalue - projectors[second].eigenvalue)
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
        lo = t_candidate * (1.0 - strategy.refine_window_fraction)
        hi = t_candidate * (1.0 + strategy.refine_window_fraction)
        times = np.linspace(lo, hi, strategy.refine_samples)
    else:
        if strategy.t_max <= 0:
            raise ValueError("t_max must be positive")
        if strategy.samples < 3:
            raise ValueError("need at least three grid samples")
        seed_method = "grid"
        times = np.linspace(0.0, strategy.t_max, strategy.samples)
        best_t, best_f = 0.0, -1.0

    values = np.abs(amplitude_series(dec, times, u, v))
    i = int(np.argmax(values))
    if values[i] > best_f:
        best_t, best_f = float(times[i]), float(values[i])
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
