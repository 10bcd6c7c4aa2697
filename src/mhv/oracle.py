"""Brute-force exact solver; the ground truth for small instances.

Deliberately unoptimized: it enumerates every extension of the partial
colouring so its correctness is evident by inspection.
"""

from __future__ import annotations

import time
from itertools import product

from .errors import ResourceLimitError
from .graph import Graph, PartialColouring
from .result import SolveResult, solve_result

DEFAULT_CAP = 10_000_000


def brute_force(g: Graph, colouring: PartialColouring, cap: int = DEFAULT_CAP) -> SolveResult:
    """Maximise happy vertices by exhaustive enumeration.

    Refuses to run (ResourceLimitError) when k ** #uncoloured exceeds ``cap``;
    it never silently approximates.  The first optimal extension in counting
    order (uncoloured vertices ascending, colours as mixed-radix digits) is
    returned as witness.
    """
    start = time.perf_counter()
    n = g.n
    k = colouring.k
    base = list(colouring.as_array(n))
    uncoloured = [v for v in range(n) if base[v] == 0]
    total = k ** len(uncoloured)
    if total > cap:
        raise ResourceLimitError(
            f"{k}^{len(uncoloured)} = {total} extensions exceed the cap of {cap}"
        )

    adjacency = g.adjacency
    best = -1
    witness: tuple[int, ...] = ()
    colours = base[:]
    for combo in product(range(1, k + 1), repeat=len(uncoloured)):
        for v, col in zip(uncoloured, combo):
            colours[v] = col
        happy = 0
        for v in range(n):
            cv = colours[v]
            for u in adjacency[v]:
                if colours[u] != cv:
                    break
            else:
                happy += 1
        if happy > best:
            best = happy
            witness = tuple(colours)
    return solve_result("brute-force", g, colouring, witness, start, True, happy=best)
