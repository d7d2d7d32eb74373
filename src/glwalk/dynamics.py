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
built. Starting a search seeds it and, unless it is certified, scans its
sample window, on stacked arrays for any number of spectra: one group_sums
over all of them for the two-level candidates and certificates and one
batched window product per stack of scans.

The certificate: with U(t) = sum_r c_r * exp(-i*mu_r*t), c_r = (P_r)_{uv},
take the two groups r, s most localized on {u, v}, the bulk weight
beta = sum of |c| over the other groups and the floor
L = |c_r| + |c_s| - beta. Where c_r*c_s < 0, |U| at the two-level
candidate pi/|mu_r - mu_s| lies in [L, L + 2*beta], up to the phase
budget max|lambda|*t*eps, and sup_t |U| <= L + 2*beta <= 1 (the two-level
picture of Kempton, Lippner and Yau, QIC 2017). Where also
L >= 1 - CERTIFIED_SHORTFALL, no search can beat that readout by more than
CERTIFIED_SHORTFALL, so the search is certified: it evaluates the
candidate alone and scans nothing.

Every other search scans its window. A started search keeps only its
phases -i*lambda, weights w = V[u]*V[v] and derivative weights
-i*lambda*w and -lambda**2*w; its steps yield each time to evaluate and
receive (|U|, U, U', U'') there. The refine is a safeguarded Newton ascent
on |U|^2 from the best window sample, inside the bracket between that
sample's neighbours: a step is kept only where |U| rises, so the refined
fidelity is never below the best sample, and the trust radius starts at
min(bracket width, 1/(2*spread of the spectrum)), short of the fastest
oscillation. Where an uncertified bracket spans many bulk oscillations,
the ascent climbs the one at the sample.

Started searches run in lockstep: each round evaluates every pending time
with one np.exp over the stacked phases, one (K,1,n) @ (K,n,1) np.matmul
for U and one (K,1,n) @ (K,n,2) np.matmul for U' and U''. peak_fidelity
is the one-search case; sweep_peaks starts its searches a block of k
values at a time and runs all of them in one lockstep. The stacked forms
keep every result bit-identical to the search run alone: matmul takes
each slice's product with the same dot or gemv as the 2-D product (a
(K,n) row-wise product or a sum rounds differently, and U is not read off
the derivative product, whose gemv rounds differently from the dot that
evolution_amplitude takes), every other stacked operation is elementwise
or per row, and reported magnitudes go through Python abs, which np.abs
on a complex array does not always match.
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

#: the refine's Newton ascent stops once its next step or its trust radius is
#: within REFINE_RELATIVE_WIDTH * max(1, |t|) over the bracket
REFINE_RELATIVE_WIDTH = 1e-12
#: a stack holds at most this many matrix entries or scan samples: a sweep
#: decomposes max(1, SWEEP_BLOCK_ENTRIES // max(n*n, refine samples)) k values
#: at once, and scans of S samples run SWEEP_BLOCK_ENTRIES // S at a time
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
) -> tuple[list[float | DegenerateGapError], list[bool]]:
    """two_level_candidate_time of each decomposition, or the error it raises, and whether it is certified.

    eigenvalues stacks the spectra (K, n) and pairs the rows V[u], V[v]
    (K, 2, n). One group_sums over all K spectra gives every group's pair
    mass (P_r)_{uu} + (P_r)_{vv}, coupling c_r = (P_r)_{uv} and eigenvalue
    sum. A candidate is certified where the top two groups r, s by pair
    mass have c_r * c_s < 0 and the floor L = |c_r| + |c_s| - beta is at
    least 1 - CERTIFIED_SHORTFALL, with beta the sum of |c| over the other
    groups; the floors of all K spectra are taken at once.
    """
    sizes = [size for dec in decs for size in dec.group_sizes]
    rows = np.concatenate(
        [(pairs**2).transpose(1, 0, 2), (pairs[:, 0] * pairs[:, 1])[None], eigenvalues[None]]
    ).reshape(4, -1)
    diag_u, diag_v, couplings, sums = group_sums(rows, sizes)
    masses = diag_u + diag_v
    means = (sums / sizes).tolist()
    candidates: list[float | DegenerateGapError] = []
    starts, tops, stop = [], [], 0
    for dec in decs:
        start, stop = stop, stop + len(dec.group_sizes)
        starts.append(start)
        if stop - start < 2:
            candidates.append(DegenerateGapError("fewer than two eigenvalue groups; no beat frequency exists"))
            tops.append((start, start))
            continue
        first, second = (start + np.argsort(-masses[start:stop], kind="stable")[:2]).tolist()
        candidates.append(math.pi / abs(means[first] - means[second]))
        tops.append((first, second))
    first, second = np.array(tops).T
    magnitudes = np.abs(couplings)
    # L = |c_r| + |c_s| - beta = 2 * (|c_r| + |c_s|) - the sum of |c| over the spectrum's groups
    floors = (2.0 * (magnitudes[first] + magnitudes[second]) - np.add.reduceat(magnitudes, starts)).tolist()
    signs = (couplings[first] * couplings[second]).tolist()
    return candidates, [sign < 0 and floor >= 1.0 - CERTIFIED_SHORTFALL for sign, floor in zip(signs, floors)]


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
    candidate = _two_level_candidates([dec], dec.eigenvalues[None], pairs)[0][0]
    if isinstance(candidate, DegenerateGapError):
        raise candidate
    return candidate


def _ascend(t: float, value: tuple, lo: float, hi: float, radius: float):
    # safeguarded Newton ascent on F = |U|^2 from the evaluated point t inside
    # [lo, hi]; value is (|U|, U, U', U'') at t. With g = Re(conj(U) U') and
    # h = |U'|^2 + Re(conj(U) U''), F' = 2g and F'' = 2h. A step is the Newton
    # step -g/h where h < 0 and the trust radius along g elsewhere, clipped to
    # the radius and the bracket; it is kept only where |U| rises, and
    # otherwise the radius becomes half the rejected step. The ascent stops
    # at a step within REFINE_RELATIVE_WIDTH, or at one whose predicted rise
    # 2*g*s + h*s**2 of F is at most (2|U| + eps) * eps, what moving |U| <= 1
    # by one rounding unit changes F by. Yields each time to evaluate,
    # receives its value and returns the best point and its |U|.
    tol = REFINE_RELATIVE_WIDTH * max(1.0, abs(lo), abs(hi))
    f, g, h = _slope_curvature(value)
    while radius > tol:
        step = -g / h if h < 0 else math.copysign(radius, g)
        trial = min(hi, max(lo, t + min(radius, max(-radius, step))))
        step = trial - t
        if abs(step) <= tol or (2.0 * g + h * step) * step <= (2.0 * f + _EPS) * _EPS:
            break
        value = yield trial
        if value[0] > f:
            t, (f, g, h) = trial, _slope_curvature(value)
        else:
            radius = 0.5 * abs(step)
    return t, f


def _slope_curvature(value: tuple) -> tuple[float, float, float]:
    # |U| and half the first and second derivatives of |U|^2
    magnitude, u, du, d2u = value
    return magnitude, (u.conjugate() * du).real, (du.conjugate() * du).real + (u.conjugate() * d2u).real


def _readout_steps(t_candidate: float):
    # a certified search: the one time to evaluate is the candidate
    return PeakResult(t_star=t_candidate, fidelity=(yield t_candidate)[0], method="two-level")


def _search_steps(
    t_candidate: float | None, t_sample: float, bracket_lo: float, bracket_hi: float, radius: float
):
    # peak_fidelity's comparisons in order; yields each time to evaluate,
    # receives (|U|, U, U', U'') there and returns the PeakResult
    if t_candidate is None:
        seed_method = "grid"
        best_t, best_f = 0.0, -1.0
    else:
        seed_method = "two-level"
        best_t, best_f = t_candidate, (yield t_candidate)[0]
    # the reported fidelity is always a pointwise amplitude value
    sample = yield t_sample
    if sample[0] > best_f:
        best_t, best_f = t_sample, sample[0]
        if seed_method == "two-level":
            seed_method = "refined"
    t_refined, f_refined = yield from _ascend(t_sample, sample, bracket_lo, bracket_hi, radius)
    method = seed_method
    if f_refined > best_f:
        best_t, best_f = t_refined, f_refined
        method = "refined"
    return PeakResult(t_star=best_t, fidelity=best_f, method=method)


#: a started search: phases -1j * eigenvalues, weights V[u] * V[v] and the
#: (n, 2) derivative weights [phases, -eigenvalues**2] * weights, so that
#: U(t)_{u,v} is exp(phases * t) @ weights and (U', U'') is exp(phases * t) @
#: derivative weights, and the steps generator that yields the times to evaluate
_Search = tuple[np.ndarray, np.ndarray, np.ndarray, Generator]


def _scan(
    strategy: GridSearch | TwoLevelSearch, eigenvalues: np.ndarray, weights: np.ndarray, candidates: list
) -> list[Generator]:
    # the steps of each row's search: its window scanned, the best sample
    # and its neighbors picked as in the one-search form; the ascent's trust
    # radius starts at the smaller of the bracket width and 1/(2*spread)
    if isinstance(strategy, TwoLevelSearch):
        samples, t_candidates = strategy.refine_samples, np.array(candidates)
        start = t_candidates * (1.0 - strategy.refine_window_fraction)
        stop = t_candidates * (1.0 + strategy.refine_window_fraction)
    else:
        _check_phases(strategy.t_max, eigenvalues)
        samples, start = strategy.samples, np.zeros(len(candidates))
        stop = np.array([strategy.t_max] * len(candidates))
    times, amplitudes = _uniform_series(eigenvalues, weights, start, stop, samples)
    spreads = (eigenvalues[:, -1] - eigenvalues[:, 0]).tolist()
    steps = []
    for i, j in enumerate(np.argmax(np.abs(amplitudes), axis=1).tolist()):
        lo, hi = float(times[i, max(j - 1, 0)]), float(times[i, min(j + 1, samples - 1)])
        radius = min(hi - lo, 0.5 / spreads[i]) if spreads[i] > 0 else hi - lo
        steps.append(_search_steps(candidates[i], float(times[i, j]), lo, hi, radius))
    return steps


def _start_searches(
    decs: Sequence[EigenDecomposition],
    u: int,
    v: int,
    strategy: GridSearch | TwoLevelSearch,
    fallback: GridSearch | None = None,
) -> list[_Search]:
    """The started search of each decomposition (all of one size), stage by stage on stacked arrays.

    Seeds each search and scans the sample windows of the uncertified
    ones, so it raises what peak_fidelity raises before any time is
    evaluated. A
    decomposition whose two-level candidate raises DegenerateGapError is
    searched with fallback instead; without a fallback the error propagates.
    Scans of S samples run max(1, SWEEP_BLOCK_ENTRIES // S) decompositions
    at a time. A started search holds O(n) data and no reference to its
    decomposition.
    """
    eigenvalues = np.array([dec.eigenvalues for dec in decs])
    pairs = np.array([(dec.eigenvectors[u], dec.eigenvectors[v]) for dec in decs])
    if isinstance(strategy, TwoLevelSearch):
        candidates, certified = _two_level_candidates(decs, eigenvalues, pairs)
    else:
        candidates, certified = [None] * len(decs), [False] * len(decs)
    weights = pairs[:, 0] * pairs[:, 1]
    phases = -1j * eigenvalues
    derivatives = np.stack([phases * weights, -(eigenvalues**2) * weights], axis=-1)
    searches = [None] * len(decs)
    members: dict[GridSearch | TwoLevelSearch, list[int]] = {}
    for i, candidate in enumerate(candidates):
        chosen = strategy
        if isinstance(candidate, DegenerateGapError):
            if fallback is None:
                raise candidate
            chosen, candidates[i] = fallback, None
        elif certified[i]:
            searches[i] = (phases[i], weights[i], derivatives[i], _readout_steps(candidate))
            continue
        members.setdefault(chosen, []).append(i)
    for chosen, indices in members.items():
        samples = chosen.refine_samples if isinstance(chosen, TwoLevelSearch) else chosen.samples
        chunk = max(1, SWEEP_BLOCK_ENTRIES // samples)
        for lo in range(0, len(indices), chunk):
            stack = indices[lo : lo + chunk]
            # a stack of every decomposition is read in place
            rows = stack if len(stack) < len(decs) else slice(None)
            steps = _scan(chosen, eigenvalues[rows], weights[rows], [candidates[i] for i in stack])
            for i, search_steps in zip(stack, steps):
                searches[i] = (phases[i], weights[i], derivatives[i], search_steps)
    return searches


def _run_searches(searches: list[_Search]) -> list[PeakResult]:
    """Run started searches over spectra of one size in lockstep; results in input order.

    Each round evaluates every pending time at once (see the module
    docstring). The last search left is evaluated alone with the same dot
    and product, which skips the stacking a single search does not need.
    """
    results: list[PeakResult | None] = [None] * len(searches)
    active = list(range(len(searches)))
    times = [next(search[-1]) for search in searches]
    phases = weights = derivatives = None
    while active:
        if len(active) == 1:
            search_phases, search_weights, search_derivatives, _ = searches[active[0]]
            block = np.exp(search_phases * times[0])
            values = [block @ search_weights]
            slopes = [(block @ search_derivatives).tolist()]
        else:
            if phases is None or len(phases) != len(active):
                phases = np.stack([searches[i][0] for i in active])
                weights = np.stack([searches[i][1] for i in active]).astype(complex)[:, :, None]
                derivatives = np.stack([searches[i][2] for i in active])
            block = np.exp(phases * np.array(times)[:, None])[:, None, :]
            values = np.matmul(block, weights).ravel().tolist()
            slopes = np.matmul(block, derivatives)[:, 0].tolist()
        still, times = [], []
        for i, value, (slope, curvature) in zip(active, values, slopes):
            value = complex(value)
            try:
                times.append(searches[i][-1].send((abs(value), value, slope, curvature)))
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
    t* * (1 +- refine_window_fraction), or, where the spectrum certifies the
    readout, returns |U| at the candidate alone (method "two-level", within
    [L, L + 2*beta] and CERTIFIED_SHORTFALL of the supremum); GridSearch
    takes the best of a uniform scan of [0, t_max] and refines between the
    neighbors of the best sample.
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
    refine then runs in one lockstep; a k whose spectrum certifies the
    two-level readout is read at its candidate time alone. Each result
    equals peak_fidelity of its k alone.
    """
    # a block holds at most SWEEP_BLOCK_ENTRIES matrix entries or window samples
    block = max(1, SWEEP_BLOCK_ENTRIES // max(graph.n**2, TwoLevelSearch().refine_samples))
    blocks = (_sweep_block(graph, u, v, ks[i : i + block], fallback) for i in range(0, len(ks), block))
    return _run_searches([search for searches in blocks for search in searches])
