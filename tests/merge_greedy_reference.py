"""Array-based reference for the ``greedy_match`` join merge.

The merge as first written over packed entries: it decodes every N[bag] lane
of both sides into arrays indexed by lane, decides the bag and relabels the
ring on those arrays, and packs every lane again.  It checks the solver's
merge, which reads and writes the packed state lane by lane.  Both draw from
``solver.rng`` in the same order, so a caller can compare the RNG state after
each.
"""

from __future__ import annotations

from mhv.heuristic import (
    ASSUMED_UNHAPPY,
    FAR_UNHAPPY,
    HAPPY,
    MAYBE_HAPPY,
    UNHAPPY,
    UNKNOWN,
    HeuristicSolver,
    PartialSolution,
)


def _unpack(solver: HeuristicSolver, sol: PartialSolution) -> tuple[bytearray, bytearray]:
    """An entry's colours and labels, each an array indexed by lane (a lane
    is below n)."""
    colours, labels = bytearray(solver.n), bytearray(solver.n)
    state, cb, lw = sol.state, solver._cb, solver._lw
    low = (1 << cb) - 1
    for lane in sol.layout.values():
        bits = state >> lw * lane
        colours[lane] = bits & low
        labels[lane] = bits >> cb & 7
    return colours, labels


def _ring_label(colours: bytearray, near: tuple[int, ...], evidence: int) -> int:
    """The label of an uncoloured ring vertex from the colours by lane of its
    neighbours in N[bag] and its evidence colour."""
    first = 0
    for j in near:
        c = colours[j]
        if c:
            if not first:
                first = c
            elif c != first:
                return UNHAPPY
    if not first:
        return UNKNOWN
    return MAYBE_HAPPY if evidence in (0, first) else UNHAPPY


def reference_merge_greedy(
    solver: HeuristicSolver,
    a: PartialSolution,
    b: PartialSolution,
    bag: tuple[int, ...],
    ring: dict[int, tuple[tuple[int, ...], int]],
    layout: dict[int, int],
) -> PartialSolution:
    index = layout
    colours, labels = bytearray(solver.n), bytearray(solver.n)
    a_col, a_lab = _unpack(solver, a)
    b_col, b_lab = _unpack(solver, b)
    for i in ring:
        if a_col[i]:
            colours[i] = a_col[i]
            labels[i] = a_lab[i]
        elif b_col[i]:
            colours[i] = b_col[i]
            labels[i] = b_lab[i]
    # Bag lanes in the order of ``bag``, which the adoption and the RNG
    # draws follow.
    order = [index[v] for v in bag]
    vertex_at = dict(zip(order, bag))
    matched = set()
    for i in order:
        if a_col[i] == b_col[i]:
            colours[i] = a_col[i]
            matched.add(i)

    adj = solver.adj
    base = solver.base

    def consistent(i: int) -> bool:
        cv = colours[i]
        for u in adj[vertex_at[i]]:
            cu = colours[index[u]]
            if cu:
                if cu != cv:
                    return False
            elif base[u] and base[u] != cv:
                return False
        return True

    def adopt(i: int, lab: int) -> None:
        labels[i] = lab
        if lab in (HAPPY, ASSUMED_UNHAPPY):
            for u in adj[vertex_at[i]]:
                j = index[u]
                if j not in ring and colours[j] == 0:
                    colours[j] = colours[i]

    changed = True
    while changed:
        changed = False
        for i in order:
            if colours[i] == 0 or labels[i] != UNKNOWN:
                continue
            offered = {a_lab[i], b_lab[i]} if i in matched else {HAPPY}
            if HAPPY in offered and consistent(i):
                adopt(i, HAPPY)
            elif ASSUMED_UNHAPPY in offered and consistent(i):
                adopt(i, ASSUMED_UNHAPPY)
            else:
                labels[i] = UNHAPPY
            changed = True
    # Vertices in components of the bag untouched by any label choice.
    for i in order:
        if colours[i] == 0:
            colours[i] = a_col[i] if solver.rng.random() < 0.5 else b_col[i]
    for i in order:
        if labels[i] == UNKNOWN:
            labels[i] = HAPPY if consistent(i) else UNHAPPY
    # Ring labels must reflect the possibly re-decided bag colours; away
    # from N[bag] nothing a vertex sees has changed, and a clash there
    # stays, marked FAR_UNHAPPY.
    for i, (near, evidence) in ring.items():
        cv = colours[i]
        if not cv:
            labels[i] = _ring_label(colours, near, evidence)
        elif labels[i] != FAR_UNHAPPY:
            conflict = any(colours[j] not in (0, cv) for j in near)
            labels[i] = UNHAPPY if conflict else HAPPY
    cb, lw = solver._cb, solver._lw
    state = 0
    for i in index.values():
        state |= (colours[i] | labels[i] << cb) << lw * i
    return solver._merged(state, a, b)
