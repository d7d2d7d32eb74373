"""Explicit loop-weight thresholds that guarantee high-fidelity transfer.

For a pair at distance d with cospectrality order c >= d on a graph of
maximum degree m, a self-loop weight exceeding

    q_min = 16 * eps^(-1/min(2, c-d+1)) * m^(1 + max(1/2, d/(c-d+1)))

forces the peak transfer fidelity above 1 - eps; the sign of the weight does
not matter (the bound applies to |q|). The accompanying readout time is
bounded by 2*pi*(|q| + m)^(d-1). Infinite cospectrality evaluates the
exponent limits, giving q_min = 16 * m^(3/2) / sqrt(eps).

These bounds are sufficient, not tight; empirical sweeps usually find
smaller working parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .cospectral import cospectrality
from .graphs import Graph
from .hamiltonians import reduced_spec


@dataclass(frozen=True)
class ThresholdInput:
    epsilon: float
    max_degree: int
    cospectrality_order: int | float
    distance: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.max_degree < 1:
            raise ValueError("maximum degree must be a positive integer")
        if self.distance < 1:
            raise ValueError("distance must be a positive integer")
        if self.cospectrality_order < self.distance:
            raise ValueError(
                f"threshold hypothesis needs cospectrality >= distance "
                f"(got {self.cospectrality_order} < {self.distance})"
            )


@dataclass(frozen=True)
class ThresholdResult:
    """q_min bounds |q|; k_min (when degree classes are known) bounds |k|.

    eps_exponent and degree_exponent are the evaluated min(2, c-d+1) and
    max(1/2, d/(c-d+1)) kept for audit, as is the cospectrality order c they
    were evaluated at; t_bound is the readout-time bound evaluated at q_min.
    """

    q_min: float
    k_min: float | None
    t_bound: float
    eps_exponent: float
    degree_exponent: float
    cospectrality_order: int | float


def readout_time_bound(q: float, max_degree: int, distance: int) -> float:
    """Upper bound 2*pi*(|q| + m)^(d-1) on the readout time."""
    if distance < 1:
        raise ValueError("distance must be a positive integer")
    return 2.0 * math.pi * (abs(q) + max_degree) ** (distance - 1)


def q_threshold(inp: ThresholdInput) -> ThresholdResult:
    """Loop-weight magnitude that guarantees peak fidelity above 1 - epsilon."""
    if math.isinf(inp.cospectrality_order):
        eps_exponent, degree_exponent = 2.0, 0.5
    else:
        span = inp.cospectrality_order - inp.distance + 1
        eps_exponent = min(2.0, float(span))
        degree_exponent = max(0.5, inp.distance / span)
    q_min = (
        16.0
        * inp.epsilon ** (-1.0 / eps_exponent)
        * float(inp.max_degree) ** (1.0 + degree_exponent)
    )
    return ThresholdResult(
        q_min=q_min,
        k_min=None,
        t_bound=readout_time_bound(q_min, inp.max_degree, inp.distance),
        eps_exponent=eps_exponent,
        degree_exponent=degree_exponent,
        cospectrality_order=inp.cospectrality_order,
    )


def k_threshold_two_class(graph: Graph, u: int, v: int, epsilon: float) -> ThresholdResult:
    """Generalized-model threshold for a graph with two degree classes.

    The loop-weight reduction maps the degree-scaling coefficient k to the
    effective loop weight q = k*(d1 - d2), so |k| > q_min / |d1 - d2|
    inherits the q_threshold guarantee. Cospectrality and distance are
    computed from the graph.
    """
    _, q_unit = reduced_spec(graph, u, v, 1.0)
    distance = graph.distance(u, v)
    if math.isinf(distance):
        raise ValueError(f"vertices {u} and {v} are disconnected; no threshold applies")
    inp = ThresholdInput(
        epsilon=epsilon,
        max_degree=graph.max_degree(),
        cospectrality_order=cospectrality(graph, u, v).order,
        distance=int(distance),
    )
    base = q_threshold(inp)
    return replace(base, k_min=base.q_min / abs(q_unit))
