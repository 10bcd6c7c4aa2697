"""Array-first reference for ``HeuristicSolver.handle_introduce`` and ``Beam``.

The introduce handler as first written: per child entry and colour it copies
both arrays and recomputes every uncoloured neighbour's label through
``_border_label``.  It assumes nothing about which neighbour labels can
change, so it checks the solver's introduce, which scores each emission from
the label changes of a watch list and builds arrays only for the entries that
survive the node.  It collects its emissions per list and selects once per
list, the backup list first, through ``ReferenceBeam``: the beam's selection
rule in its plainest form, an ``insort_right`` per entry and a cut.
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
    """``Beam``'s rule written out.  ``extend`` places the held entries, then
    each offer, with ``insort_right``, so equal scores stay in that order, and
    keeps the ``capacity`` best.  When the cut splits the run of equal scores
    at the worst kept score, one ``rng.sample`` over the run picks its
    survivors, which keep their run order.  ``dropped`` counts the entries
    left out and ``samples`` the ``rng.sample`` calls."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list[PartialSolution] = []
        self.dropped = 0
        self.samples = 0

    def extend(self, sols, rng: random.Random) -> None:
        pool: list[PartialSolution] = []
        for sol in [*self.entries, *sols]:
            insort_right(pool, sol, key=_score_key)
        if len(pool) <= self.capacity:
            self.entries = pool
            return
        self.dropped += len(pool) - self.capacity
        worst = pool[-self.capacity].score
        above = [sol for sol in pool if sol.score > worst]
        run = [sol for sol in pool if sol.score == worst]
        room = self.capacity - len(above)
        if room < len(run):
            self.samples += 1
            chosen = {id(sol) for sol in rng.sample(run, room)}
            run = [sol for sol in run if id(sol) in chosen]
        self.entries = run + above

    def insert(self, sol: PartialSolution, rng: random.Random) -> bool:
        self.extend([sol], rng)
        return any(held is sol for held in self.entries)


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


def _emit(solver, emitted, sol, idx, vtx, colour, labels_for_vertex) -> None:
    """Emit into ``emitted``, as entries of introduce node ``idx``, ``sol``,
    an entry of its child, with ``vtx`` coloured ``colour``, once per label
    of ``labels_for_vertex``."""
    sol_colours, sol_labels = solver.arrays(sol, solver.nice.nodes[idx].children[0])
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
        emitted.append(solver.entry(frozen_colours, out_labels, out_counts, node=idx))


def _emit_backup(solver, emitted, sol, idx, vtx, colour) -> None:
    child = solver.nice.nodes[idx].children[0]
    colours, sol_labels = solver.arrays(sol, child)
    labels = bytearray(sol_labels)
    counts = list(sol.counts)
    for u in solver.adj[vtx]:
        if colours[u] and colours[u] != colour and labels[u] == HAPPY:
            _set_label(labels, counts, u, UNHAPPY)
    demoted = solver.entry(colours, labels, counts, node=child)
    _emit(solver, emitted, demoted, idx, vtx, colour, (UNHAPPY,))


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
    main_emitted: list[PartialSolution] = []
    backup_emitted: list[PartialSolution] = []
    child = solver.nice.nodes[idx].children[0]
    for sol in child_entries:
        col_c, lab_c = solver.arrays(sol, child)
        v_label = lab_c[vtx]
        for i in allowed:
            if v_label == UNKNOWN:
                conflict = any(base[u] and base[u] != i for u in adj_v)
                labs = (UNHAPPY,) if conflict else (HAPPY, ASSUMED_UNHAPPY)
                _emit(solver, main_emitted, sol, idx, vtx, i, labs)
                continue
            blocked = any(col_c[u] and col_c[u] != i and lab_c[u] == HAPPY for u in adj_v)
            if blocked:
                if not main_emitted:
                    _emit_backup(solver, backup_emitted, sol, idx, vtx, i)
                continue
            if v_label == MAYBE_HAPPY and _evidence_colour(solver, vtx, col_c) == i:
                _emit(solver, main_emitted, sol, idx, vtx, i, (HAPPY, ASSUMED_UNHAPPY))
            else:
                _emit(solver, main_emitted, sol, idx, vtx, i, (UNHAPPY,))
    backup = ReferenceBeam(solver.config.width)
    backup.extend(backup_emitted, rng)
    main = ReferenceBeam(solver.config.width)
    main.extend(main_emitted, rng)
    return (main if main.entries else backup), main
