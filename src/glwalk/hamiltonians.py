"""Hamiltonian matrices for the walk models built from a graph.

Every model carries the physics sign convention H = -(matrix of the model).
The walk models form one family, generalized -> -(A + k*D); adjacency
(k = 0), signless Laplacian (k = 1) and Laplacian (k = -1) are its members
named in NAMED_K, and the Laplacian is -(A - D) = D - A. The loop-perturbed
model is -(A + q*(E_u + E_v)). Pre-existing loop weights of the graph fold
into the diagonal of A in all models, so a loop-perturbed model on a plain
graph equals the adjacency model on the same graph with those loop weights
attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .errors import DegreeStructureError
from .graphs import Graph

#: members of the generalized family with a name of their own
NAMED_K = {"adjacency": 0.0, "laplacian": -1.0, "signless": 1.0}


@dataclass(frozen=True)
class Generalized:
    """Degree-scaled family A + k*D; k=0 is adjacency, k=1 signless, k=-1 Laplacian."""

    k: float

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise ValueError(f"generalized model parameter k must be finite, got {self.k!r}")


Adjacency = partial(Generalized, NAMED_K["adjacency"])
Laplacian = partial(Generalized, NAMED_K["laplacian"])
SignlessLaplacian = partial(Generalized, NAMED_K["signless"])


@dataclass(frozen=True)
class LoopPerturbed:
    """Adjacency walk with equal self-loop weight q added at the two marked vertices."""

    u: int
    v: int
    q: float

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("loop perturbation needs two distinct vertices")
        if not math.isfinite(self.q):
            raise ValueError(f"loop weight q must be finite, got {self.q!r}")


Model = Union[Generalized, LoopPerturbed]


@dataclass(frozen=True)
class HamiltonianSpec:
    model: Model
    graph: Graph


def hamiltonian_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hamiltonian for the spec's model; exactly symmetric by construction."""
    g = spec.graph
    a = g.adjacency_matrix()
    model = spec.model
    if isinstance(model, Generalized):
        h = -(a + model.k * np.diag(g.degree_vector().astype(float)))
    elif isinstance(model, LoopPerturbed):
        g.check_vertex(model.u)
        g.check_vertex(model.v)
        perturbation = np.zeros_like(a)
        perturbation[model.u, model.u] = model.q
        perturbation[model.v, model.v] = model.q
        h = -(a + perturbation)
    else:
        raise TypeError(f"unknown model {model!r}")
    h.setflags(write=False)
    return h


def reduced_spec(graph: Graph, u: int, v: int, k: float) -> tuple[HamiltonianSpec, float]:
    """Loop-perturbed spec dynamically equivalent to the generalized model.

    Requires exactly two degree classes: deg(u) = deg(v) = d1 and every other
    vertex of degree d2 != d1. Dropping the constant d2 background shifts the
    generator by a multiple of the identity (a global phase), leaving the
    adjacency matrix plus weight q = k*(d1 - d2) self-loops at u and v.
    """
    graph.check_vertex(u)
    graph.check_vertex(v)
    if u == v:
        raise DegreeStructureError("the marked vertices must be distinct")
    deg = graph.degree_vector()
    d1 = int(deg[u])
    if int(deg[v]) != d1:
        raise DegreeStructureError(
            f"vertices {u} and {v} have degrees {d1} and {int(deg[v])}; they must match"
        )
    others = [w for w in range(graph.n) if w != u and w != v]
    if not others:
        raise DegreeStructureError("need at least one vertex outside the marked pair")
    d2 = int(deg[others[0]])
    for w in others:
        if int(deg[w]) != d2:
            raise DegreeStructureError(
                f"vertex {w} has degree {int(deg[w])}, expected background degree {d2}"
            )
    if d1 == d2:
        raise DegreeStructureError(
            f"marked and background degrees coincide ({d1}); no loop-weight reduction exists"
        )
    q = k * (d1 - d2)
    return HamiltonianSpec(LoopPerturbed(u, v, q), graph), q


def parse_model(text: str) -> Model:
    """Parse a CLI/config model name.

    Accepted forms: "adjacency", "laplacian", "signless", "generalized:<k>",
    "loops:<u>,<v>,<q>" (decimal reals, scientific notation accepted).
    """
    t = text.strip()
    if t in NAMED_K:
        return Generalized(NAMED_K[t])
    if t.startswith("generalized:"):
        try:
            k = float(t.removeprefix("generalized:"))
        except ValueError:
            raise ValueError(f"cannot parse generalized model parameter in {text!r}") from None
        return Generalized(k)
    if t.startswith("loops:"):
        parts = t.removeprefix("loops:").split(",")
        if len(parts) != 3:
            raise ValueError(f"loops model needs 'loops:<u>,<v>,<q>', got {text!r}")
        try:
            u, v, q = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"cannot parse loops model parameters in {text!r}") from None
        return LoopPerturbed(u, v, q)
    raise ValueError(f"unknown model {text!r}")


def _real(x: float) -> str:
    # shortest text that parses back to x, without a trailing ".0"
    return repr(float(x)).removesuffix(".0")


def model_name(model: Model) -> str:
    """Inverse of parse_model, used for deterministic reports."""
    if isinstance(model, Generalized):
        for name, k in NAMED_K.items():
            if model.k == k:
                return name
        return f"generalized:{_real(model.k)}"
    if isinstance(model, LoopPerturbed):
        return f"loops:{model.u},{model.v},{_real(model.q)}"
    raise TypeError(f"unknown model {model!r}")
