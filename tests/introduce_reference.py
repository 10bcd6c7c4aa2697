"""Array-first reference for ``HeuristicSolver.handle_introduce`` and ``Beam``.

The introduce handler as first written: per child entry and colour it copies
both arrays, recomputes every uncoloured neighbour's label through
``_border_label`` and offers every emission to the beam, which keeps its order
with ``insort_right`` on the score and counts the worst-score ties in a loop.
It assumes nothing about which neighbour labels can change, so it checks the
solver's introduce, which scores each emission from the label changes of a
watch list and builds arrays only for the entries that survive the node.
"""

from __future__ import annotations

import random
from bisect import insort_right

from mhv.heuristic import (
    ASSUMED_UNHAPPY,
    HAPPY,
    MAYBE_HAPPY,
    UNHAPPY,
    UNKNOWN,
    HeuristicSolver,
    PartialSolution,
)


def _score_key(sol: PartialSolution) -> int:
    return sol.score


class ReferenceBeam:
    """``Beam`` as first written; ``rejected`` counts entries turned down
    without an RNG draw."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list[PartialSolution] = []
        self.rejected = 0

    def insert(self, sol: PartialSolution, rng: random.Random) -> bool:
        entries = self.entries
        if len(entries) < self.capacity:
            insort_right(entries, sol, key=_score_key)
            return True
        worst = entries[0].score
        if sol.score < worst:
            self.rejected += 1
            return False
        ties = 1
        while ties < len(entries) and entries[ties].score == worst:
            ties += 1
        if sol.score == worst:
            pick = rng.randrange(ties + 1)
            if pick == ties:
                return False
            entries.pop(pick)
        else:
            entries.pop(rng.randrange(ties))
        insort_right(entries, sol, key=_score_key)
        return True


def _set_label(labels: bytearray, counts: list[int], v: int, new: int) -> None:
    old = labels[v]
    if old == new:
        return
    if old:
        counts[old - 1] -= 1
    if new:
        counts[new - 1] += 1
    labels[v] = new


def _evidence_colour(solver: HeuristicSolver, v: int, colours: bytes) -> int:
    """The single colour a MAYBE_HAPPY vertex is bound to."""
    for u in solver.adj[v]:
        cu = colours[u] or solver.base[u]
        if cu:
            return cu
    return 0


def _emit(solver, beam, sol, vtx, colour, labels_for_vertex, rng) -> None:
    sol_colours, sol_labels = solver.arrays(sol)
    colours = bytearray(sol_colours)
    colours[vtx] = colour
    labels = bytearray(sol_labels)
    counts = list(sol.counts)
    for u in solver.adj[vtx]:
        if colours[u]:
            if labels[u] == ASSUMED_UNHAPPY and colours[u] != colour:
                _set_label(labels, counts, u, UNHAPPY)
        else:
            refreshed = solver._border_label(u, colours)
            if refreshed != labels[u]:
                _set_label(labels, counts, u, refreshed)
    frozen_colours = bytes(colours)
    for lab in labels_for_vertex:
        out_labels = bytearray(labels)
        out_counts = list(counts)
        _set_label(out_labels, out_counts, vtx, lab)
        beam.insert(solver.entry(frozen_colours, out_labels, out_counts), rng)


def _emit_backup(solver, beam, sol, vtx, colour, rng) -> None:
    colours, sol_labels = solver.arrays(sol)
    labels = bytearray(sol_labels)
    counts = list(sol.counts)
    for u in solver.adj[vtx]:
        if colours[u] and colours[u] != colour and labels[u] == HAPPY:
            _set_label(labels, counts, u, UNHAPPY)
    _emit(solver, beam, solver.entry(colours, labels, counts), vtx, colour, (UNHAPPY,), rng)


def reference_introduce(
    solver: HeuristicSolver, idx: int, child_entries, rng: random.Random
) -> tuple[ReferenceBeam, ReferenceBeam]:
    """The introduce node ``idx`` over ``child_entries``, drawing from ``rng``.

    Returns the beam the handler returns and the main beam (the same object
    unless the backup list was returned).
    """
    vtx = solver.nice.nodes[idx].vertex
    adj_v = solver.adj[vtx]
    base = solver.base
    allowed = (base[vtx],) if base[vtx] else tuple(range(1, solver.k + 1))
    main = ReferenceBeam(solver.config.width)
    backup = ReferenceBeam(solver.config.width)
    for sol in child_entries:
        col_c, lab_c = solver.arrays(sol)
        v_label = lab_c[vtx]
        for i in allowed:
            if v_label == UNKNOWN:
                conflict = any(base[u] and base[u] != i for u in adj_v)
                _emit(solver, main, sol, vtx, i, (UNHAPPY,) if conflict else (HAPPY, ASSUMED_UNHAPPY), rng)
                continue
            blocked = any(col_c[u] and col_c[u] != i and lab_c[u] == HAPPY for u in adj_v)
            if blocked:
                if not main.entries:
                    _emit_backup(solver, backup, sol, vtx, i, rng)
                continue
            if v_label == MAYBE_HAPPY and _evidence_colour(solver, vtx, col_c) == i:
                _emit(solver, main, sol, vtx, i, (HAPPY, ASSUMED_UNHAPPY), rng)
            else:
                _emit(solver, main, sol, vtx, i, (UNHAPPY,), rng)
    return (main if main.entries else backup), main
