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

State encoding: bags are kept sorted and a state is one int.  Lane p, of
``(2k+1).bit_length()`` bits, holds bag position p's code ``colour << 1 |
designated_happy``, lane 0 the most significant.  Every code fits its lane
and a table's states have one lane per bag vertex, so int order is the order
of the code tuples.

Memory: the tables run through ``NiceTreeDecomposition.walk``, so a child's
table is dropped once its parent's is built.  Alive at any time are only the
tables of open subtrees, the forget back-pointers that the traceback reads,
and the root table.  The state cap counts the states of every table built,
freed or not, a leaf's single empty state included.
"""

from __future__ import annotations

import time

from .errors import InputError, ResourceLimitError
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
    bags = [tuple(sorted(node.bag)) for node in nodes]
    width = (2 * k + 1).bit_length()
    lane = (1 << width) - 1

    forget_pred = {}

    def forget(idx, child_table):
        child_bag = bags[nodes[idx].children[0]]
        low = width * (len(child_bag) - 1 - child_bag.index(nodes[idx].vertex))
        high, low_mask = low + width, (1 << low) - 1
        table, pred = {}, {}
        for key, val in child_table.items():
            nk = (key >> high << low) | (key & low_mask)
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
        vertex, bag = nodes[idx].vertex, bags[idx]
        low = width * (len(bag) - 1 - bag.index(vertex))
        high, low_mask = low + width, (1 << low) - 1
        nbrs = set(adjacency[vertex])
        shifts = [width * (len(bag) - 1 - p) for p, u in enumerate(bag) if u in nbrs]
        nbr_mask = sum(lane << s for s in shifts)
        allowed = (base[vertex],) if base[vertex] else range(1, k + 1)
        ev = evidence[vertex]
        plans, table = {}, {}
        for key, val in child_table.items():
            # The child's lanes, spread around an empty lane for the vertex.
            spread = (key >> low << high) | (key & low_mask)
            pattern = spread & nbr_mask
            plan = plans.get(pattern)
            if plan is None:
                plan = plans[pattern] = plan_for(pattern, shifts, allowed, ev, low)
            for code, gain in plan:
                table[spread | code] = val + gain
        return table

    def join(idx, t1, t2):
        # Both children count the designated-happy bag vertices (bit 0 of
        # each lane), so they are taken off once.
        designated = ((1 << width * len(bags[idx])) - 1) // lane
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
                f"at node {idx} ({nodes[idx].kind.name.lower()}, bag of {len(bags[idx])})"
            )
        if idx == nice.root:
            root_table = table

    if not root_table:
        # Cannot happen for a valid instance: the all-assumed-unhappy state
        # survives every recurrence.
        raise InputError("exact DP produced no feasible state")
    best_key = max(root_table, key=lambda s: (root_table[s], s))
    best_val = root_table[best_key]

    colours = bytearray(base)
    stack = [(nice.root, best_key)]
    while stack:
        idx, key = stack.pop()
        bag = bags[idx]
        codes = key
        for v in reversed(bag):
            col = (codes & lane) >> 1
            codes >>= width
            assert colours[v] in (0, col), "inconsistent reconstruction"
            colours[v] = col
        # Joins hand their key to their children, leaves have none.
        node = nodes[idx]
        if node.kind == NodeKind.FORGET:
            key = forget_pred[idx][key]
        elif node.kind == NodeKind.INTRODUCE:
            low = width * (len(bag) - 1 - bag.index(node.vertex))
            key = (key >> low + width << low) | (key & ((1 << low) - 1))
        stack.extend((c, key) for c in node.children)

    return solve_result("exact-dp", g, colouring, colours, start, True, happy=best_val)
