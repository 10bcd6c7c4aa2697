"""Full-scan reference for ``HeuristicSolver.merge_exact``.

The merge as first written: it walks every vertex to take the union of the
two sides, recomputes the label of every uncoloured vertex against the union
and recounts the labels in a Python loop.  It assumes nothing about where
labels may sit, so it checks the solver's merge, which looks only at the
join's closed neighbourhood N[bag].
"""

from __future__ import annotations

from mhv.heuristic import UNHAPPY, HeuristicSolver, PartialSolution


def reference_merge_exact(
    solver: HeuristicSolver, a: PartialSolution, b: PartialSolution, idx: int
) -> PartialSolution:
    """The merge of ``a`` and ``b``, entries of join node ``idx``."""
    a_colours, a_labels = solver.arrays(a, idx)
    b_colours, b_labels = solver.arrays(b, idx)
    colours = bytearray(a_colours)
    labels = bytearray(a_labels)
    for v in range(solver.n):
        if b_colours[v]:
            if colours[v]:
                if b_labels[v] == UNHAPPY:
                    labels[v] = UNHAPPY
            else:
                colours[v] = b_colours[v]
                labels[v] = b_labels[v]
    for v in range(solver.n):
        if not colours[v]:
            labels[v] = solver._border_label(v, colours)
    totals = [0, 0, 0, 0, 0]
    for lab in labels:
        totals[lab] += 1
    counts = (totals[1], totals[2], totals[3], totals[4])
    return solver.entry(colours, labels, counts, node=idx)
