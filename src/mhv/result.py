"""Common result type returned by every solver, and the one place it is built."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .graph import FullColouring, Graph, PartialColouring, count_happy


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run.

    ``percent_happy`` is the happy count divided by the vertex count (1.0 for
    the empty graph).  ``provably_optimal`` is only ever True when the solver
    can certify optimality.  ``final_labels`` carries the winning tuple's
    vertex labelling for the beam solver and is None for other solvers.

    Every solver builds its result through ``solve_result``, so the witness
    is checked to extend the input colouring and ``happy`` is its
    ``count_happy``.  ``time_ms`` runs from the solver's start to the end of
    those checks: the whole call for Greedy, Growth and the oracle; for the
    exact DP, everything after ``check_decomposes``; for the beam DP, the
    ``HeuristicSolver.solve`` call, which excludes the set-up in its
    constructor.
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


def solve_result(
    algorithm: str,
    g: Graph,
    colouring: PartialColouring,
    colours: Sequence[int],
    start: float,
    provably_optimal: bool,
    happy: int | None = None,
    final_labels: tuple[int, ...] | None = None,
) -> SolveResult:
    """Check a solver's full ``colours`` and return its result.

    The witness must extend ``colouring``; when the solver passes its own
    ``happy`` count, ``count_happy`` of the witness must agree with it.
    ``start`` is the solver's ``time.perf_counter()`` reading.
    """
    witness = FullColouring(colouring.k, tuple(colours))
    assert witness.extends(colouring), f"{algorithm} witness must extend the input colouring"
    counted = count_happy(g, witness)
    assert happy in (None, counted), f"{algorithm} claims {happy} happy, its witness has {counted}"
    return SolveResult(
        algorithm=algorithm,
        colouring=witness,
        happy=counted,
        provably_optimal=provably_optimal,
        time_ms=(time.perf_counter() - start) * 1000.0,
        final_labels=final_labels,
    )
