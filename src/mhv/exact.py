"""Exact dynamic program over a nice tree decomposition.

The standard table DP: table states pair a bag colouring with a
happy/assumed-unhappy designation per bag vertex; values are the best number
of happy vertices in the processed subgraph outside the assumed-unhappy set.
States that admit no consistent completion are never stored (all recurrences
map missing states to missing states).  A vertex is designated happy in a
colour only if its precoloured neighbours agree on that colour
(``precoloured_evidence``), so a conflict with a precoloured neighbour is
cut when the vertex is introduced, whether that neighbour is in the bag or
not.

State encoding: a state is one int.  Every vertex holds one lane of
``(2k+1).bit_length()`` bits for the whole solve, given by the
decomposition's lane pass over the bags (``NiceTreeDecomposition.lanes``,
the pass that lays out the beam DP's entries): vertices that share a bag
hold different lanes.  A bag vertex's lane holds its code ``colour << 1 |
designated_happy``, and every other lane is zero.  So an introduce ORs the
vertex's code into its lane, a forget clears that lane with a mask, and a
join's designated-happy bits are bit 0 of the bag's lanes.  Ties go to the
state inserted first: a table's order is its child's order.

Memory: the tables run through ``NiceTreeDecomposition.walk``, so a child's
table is dropped once its parent's is built.  Alive at any time are only the
tables of open subtrees, the forget back-pointers that the traceback reads,
and the root table.  The state cap counts the states of every table built,
freed or not, a leaf's single empty state included.
"""

from __future__ import annotations

import time

from .errors import ResourceLimitError
from .graph import Graph, PartialColouring, precoloured_evidence
from .result import SolveResult, solve_result
from .treedec import NiceTreeDecomposition, NodeKind, check_decomposes

DEFAULT_STATE_CAP = 2_000_000


def solve_exact(
    g: Graph,
    colouring: PartialColouring,
    nice: NiceTreeDecomposition,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SolveResult:
    """Optimal extension of the partial colouring via the table DP.

    Aborts with ResourceLimitError, naming the node, when the total number
    of states built exceeds ``state_cap``.  The returned colouring extends
    the input and its happy count is the proven optimum.
    """
    check_decomposes(g, nice)
    start = time.perf_counter()
    base = colouring.as_array(g.n)
    evidence = precoloured_evidence(g, colouring)
    k = colouring.k
    adjacency, nodes = g.adjacency, nice.nodes
    width = (2 * k + 1).bit_length()
    lane = (1 << width) - 1
    # Per vertex the shift of its lane.
    at = [width * index for index in nice.lanes([(v,) for v in range(g.n)])[0]]

    forget_pred = {}

    def forget(idx, child_table):
        keep = ~(lane << at[nodes[idx].vertex])
        table, pred = {}, {}
        for key, val in child_table.items():
            nk = key & keep
            if val > table.get(nk, -1):
                table[nk] = val
                pred[nk] = key
        forget_pred[idx] = pred
        return table

    def plan_for(pattern, shifts, allowed, ev, low):
        # (code in the vertex's lane, value gain) pairs, in recurrence order.
        seen = happy = 0  # bit c: a neighbour (designated happy) has colour c
        for s in shifts:
            code = pattern >> s & lane
            seen |= 1 << (code >> 1)
            if code & 1:
                happy |= 1 << (code >> 1)
        plan = []
        for colour in allowed:
            # A happy neighbour of another colour rules out both designations,
            # any neighbour of another colour, in the bag or precoloured, the
            # happy one.
            if not happy & ~(1 << colour):
                plan.append((colour << 1 << low, 0))
                if ev in (0, colour) and not seen & ~(1 << colour):
                    plan.append(((colour << 1 | 1) << low, 1))
        return plan

    def introduce(idx, child_table):
        node = nodes[idx]
        vertex = node.vertex
        shifts = [at[u] for u in adjacency[vertex] if u in node.bag]
        nbr_mask = sum(lane << s for s in shifts)
        allowed = (base[vertex],) if base[vertex] else range(1, k + 1)
        ev = evidence[vertex]
        plans, table = {}, {}
        for key, val in child_table.items():
            # The vertex's lane is zero in the child's key.
            pattern = key & nbr_mask
            plan = plans.get(pattern)
            if plan is None:
                plan = plans[pattern] = plan_for(pattern, shifts, allowed, ev, at[vertex])
            for code, gain in plan:
                table[key | code] = val + gain
        return table

    def join(idx, t1, t2):
        # Both children count the designated-happy bag vertices (bit 0 of
        # each bag lane), so they are taken off once.
        designated = sum(1 << at[v] for v in nodes[idx].bag)
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        table = {}
        for key, v1 in t1.items():
            v2 = t2.get(key)
            if v2 is not None:
                table[key] = v1 + v2 - (key & designated).bit_count()
        return table

    handlers = {
        NodeKind.LEAF: lambda idx: {0: 0},
        NodeKind.INTRODUCE: introduce,
        NodeKind.FORGET: forget,
        NodeKind.JOIN: join,
    }
    total_states = 0
    for idx, table in nice.walk(handlers):
        total_states += len(table)
        if total_states > state_cap:
            raise ResourceLimitError(
                f"exact DP exceeded the state cap ({total_states} > {state_cap} states) "
                f"at node {idx} ({nodes[idx].kind.name.lower()}, bag of {len(nodes[idx].bag)})"
            )
    # The root bag is empty (``validate_nice``) and the all-assumed-unhappy
    # state survives every recurrence, so the last table, the root's, holds
    # key 0 alone.
    assert table.keys() == {0}, "exact DP produced no feasible state"
    best_val = table[0]

    # Each vertex is forgotten once, below the empty root: read its colour
    # from the forget's child key.  Joins hand their key to their children,
    # an introduce clears its vertex's lane, and leaves have none.
    colours = bytearray(base)
    stack = [(nice.root, 0)]
    while stack:
        idx, key = stack.pop()
        node = nodes[idx]
        if node.kind == NodeKind.FORGET:
            key = forget_pred[idx][key]
            col = (key >> at[node.vertex] & lane) >> 1
            assert colours[node.vertex] in (0, col), "inconsistent reconstruction"
            colours[node.vertex] = col
        elif node.kind == NodeKind.INTRODUCE:
            key &= ~(lane << at[node.vertex])
        stack.extend((c, key) for c in node.children)

    return solve_result("exact-dp", g, colouring, colours, start, True, happy=best_val)
