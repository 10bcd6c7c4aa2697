"""Common result type returned by every solver."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import FullColouring


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run.

    ``percent_happy`` is the happy count divided by the vertex count (1.0 for
    the empty graph).  ``provably_optimal`` is only ever True when the solver
    can certify optimality.  ``final_labels`` carries the winning tuple's
    vertex labelling for the beam solver and is None for other solvers.
    """

    algorithm: str
    colouring: FullColouring
    happy: int
    provably_optimal: bool
    time_ms: float
    final_labels: tuple[int, ...] | None = None

    @property
    def percent_happy(self) -> float:
        n = len(self.colouring.colours)
        return self.happy / n if n else 1.0
