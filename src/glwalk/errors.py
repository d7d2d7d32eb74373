"""Exception types shared across the package."""

from __future__ import annotations


class GlwalkError(Exception):
    """Base class for library-specific errors."""


class EdgeListError(GlwalkError, ValueError):
    """Malformed or inconsistent edge-list document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegreeStructureError(GlwalkError, ValueError):
    """Graph does not split into the two degree classes the loop-weight reduction needs."""


class ThresholdHypothesisError(GlwalkError, ValueError):
    """Cospectrality order below the pair's distance; no threshold guarantee applies."""

    def __init__(self, order: int, distance: int):
        self.cospectrality_order = order
        super().__init__(
            f"threshold hypothesis needs cospectrality >= distance (got {order} < {distance})"
        )


class ConvergenceError(GlwalkError, RuntimeError):
    """Symmetric eigensolver failed to converge."""


class DegenerateGapError(GlwalkError, RuntimeError):
    """Two-level candidate time is undefined: the spectrum has a single eigenvalue group."""


class CospectralityMismatchError(GlwalkError, RuntimeError):
    """Exact walk counts call a pair cospectral but its projector diagonals differ."""


class InvolutionSearchLimitError(GlwalkError, ValueError):
    """Automorphism search requested on a graph above the supported size."""
