"""Exact dynamic program over a nice tree decomposition.

Every bag is read with the anchors added, one precoloured vertex per colour,
so each bag meets every colour class.  Anchors stay in every bag, so a node
that introduces or forgets one hands its child's table on.  Table states
pair a bag colouring with a happy/assumed-unhappy designation per bag
vertex; values are the best number of happy vertices in the processed
subgraph outside the assumed-unhappy set.  States that admit no consistent
completion are never stored (all recurrences map missing states to missing
states).

State encoding: bags are kept sorted and a state is one int.  Lane p, of
``(2k+1).bit_length()`` bits, holds bag position p's code ``colour << 1 |
designated_happy``, lane 0 the most significant.  Every code fits its lane
and a table's states have one lane per bag vertex, so int order is the order
of the code tuples.

Memory: the tables run through ``NiceTreeDecomposition.walk``, so a child's
table is dropped once its parent's is built.  Alive at any time are only the
tables of open subtrees, the forget back-pointers that the traceback reads,
and the root table.  The state cap counts the states of every table built,
freed or not.  A leaf's bag is empty, so all leaves share one table over the
anchors; it is built once and counted at every leaf.
"""

from __future__ import annotations

import time

from .errors import InputError, ResourceLimitError
from .graph import Graph, PartialColouring
from .result import SolveResult, solve_result
from .treedec import NiceTreeDecomposition, NodeKind, check_decomposes

DEFAULT_STATE_CAP = 2_000_000


def _anchors(colouring: PartialColouring) -> frozenset[int]:
    """The lowest-numbered precoloured vertex of each colour.

    Raises InputError when some colour class is empty; the exact algorithm
    needs an anchor per colour.
    """
    anchors: dict[int, int] = {}
    for v in sorted(colouring.assignment):
        anchors.setdefault(colouring.assignment[v], v)
    missing = [c for c in range(1, colouring.k + 1) if c not in anchors]
    if missing:
        raise InputError(
            "exact solver needs every colour used by the initial colouring; "
            f"missing colour(s) {missing}"
        )
    return frozenset(anchors.values())


def solve_exact(
    g: Graph,
    colouring: PartialColouring,
    nice: NiceTreeDecomposition,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SolveResult:
    """Optimal extension of the partial colouring via the table DP.

    Aborts with ResourceLimitError, naming the node, when the total number
    of states built exceeds ``state_cap``; a node that introduces or forgets
    an anchor builds none.  The returned colouring extends the input and its
    happy count is the proven optimum.
    """
    check_decomposes(g, nice)
    start = time.perf_counter()
    base = colouring.as_array(g.n)
    anchors = _anchors(colouring)
    k = colouring.k
    adjacency, nodes = g.adjacency, nice.nodes
    bags = [tuple(sorted(node.bag | anchors)) for node in nodes]
    width = (2 * k + 1).bit_length()
    lane = (1 << width) - 1

    def over_cap(total, idx):
        return ResourceLimitError(
            f"exact DP exceeded the state cap ({total} > {state_cap} states) "
            f"at node {idx} ({nodes[idx].kind.name.lower()}, bag of {len(bags[idx])})"
        )

    # Every leaf's bag is the anchor set, so all leaves share one table.  An
    # anchor may be designated happy when no anchor next to it has another
    # colour.
    s_star = sorted(anchors)
    leaf_key, leaf_flags = 0, []
    for p, v in enumerate(s_star):
        shift = width * (len(s_star) - 1 - p)
        leaf_key |= base[v] << 1 << shift
        if all(base[u] == base[v] for u in adjacency[v] if u in anchors):
            leaf_flags.append(1 << shift)
    leaf_table = None

    def leaf(idx):
        # The cap is checked before the table is first built; the walk below
        # counts its states at every leaf.
        nonlocal leaf_table
        total = total_states + (1 << len(leaf_flags))
        if total > state_cap:
            raise over_cap(total, idx)
        if leaf_table is None:
            leaf_table = {leaf_key: 0}
            for flag in leaf_flags:
                leaf_table = {
                    s | f: val + d for s, val in leaf_table.items() for f, d in ((0, 0), (flag, 1))
                }
        return leaf_table

    forget_pred = {}

    def forget(idx, child_table):
        if nodes[idx].vertex in anchors:
            return child_table
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

    def plan_for(pattern, shifts, allowed, low):
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
            # any neighbour of another colour the happy one.
            if not happy & ~(1 << colour):
                plan.append((colour << 1 << low, 0))
                if not seen & ~(1 << colour):
                    plan.append(((colour << 1 | 1) << low, 1))
        return plan

    def introduce(idx, child_table):
        vertex, bag = nodes[idx].vertex, bags[idx]
        if vertex in anchors:
            return child_table
        low = width * (len(bag) - 1 - bag.index(vertex))
        high, low_mask = low + width, (1 << low) - 1
        nbrs = set(adjacency[vertex])
        shifts = [width * (len(bag) - 1 - p) for p, u in enumerate(bag) if u in nbrs]
        nbr_mask = sum(lane << s for s in shifts)
        allowed = (base[vertex],) if base[vertex] else range(1, k + 1)
        plans, table = {}, {}
        for key, val in child_table.items():
            # The child's lanes, spread around an empty lane for the vertex.
            spread = (key >> low << high) | (key & low_mask)
            plan = plans.get(spread & nbr_mask)
            if plan is None:
                plan = plans[spread & nbr_mask] = plan_for(spread & nbr_mask, shifts, allowed, low)
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
        NodeKind.LEAF: leaf,
        NodeKind.INTRODUCE: introduce,
        NodeKind.FORGET: forget,
        NodeKind.JOIN: join,
    }
    total_states = 0
    for idx, table in nice.walk(handlers):
        # A node that introduces or forgets an anchor hands its child's table
        # on and builds no state.
        if nodes[idx].vertex not in anchors:
            total_states += len(table)
            if total_states > state_cap:
                raise over_cap(total_states, idx)
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
        # Joins and the nodes that move an anchor hand their key to their
        # children, leaves have none.
        node = nodes[idx]
        if node.vertex in anchors:
            pass
        elif node.kind == NodeKind.FORGET:
            key = forget_pred[idx][key]
        elif node.kind == NodeKind.INTRODUCE:
            low = width * (len(bag) - 1 - bag.index(node.vertex))
            key = (key >> low + width << low) | (key & ((1 << low) - 1))
        stack.extend((c, key) for c in node.children)

    return solve_result("exact-dp", g, colouring, colours, start, True, happy=best_val)

