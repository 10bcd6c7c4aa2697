"""Exact dynamic program over an augmented nice tree decomposition.

Every bag is extended with one precoloured vertex per colour, so each bag
meets every colour class.  Table states pair a bag colouring with a
happy/assumed-unhappy designation per bag vertex; values are the best number
of happy vertices in the processed subgraph outside the assumed-unhappy set.
States that admit no consistent completion are never stored (all recurrences
map missing states to missing states).

State encoding: bags are kept sorted and a state is one int.  Lane p, of
``(2k+1).bit_length()`` bits, holds bag position p's code ``colour << 1 |
designated_happy``, lane 0 the most significant.  Every code fits its lane
and a table's states have one lane per bag vertex, so int order is the order
of the code tuples.

Memory: the tables run through ``NiceTreeDecomposition.walk``, so a child's
table is dropped once its parent's is built.  Alive at any time are only the
tables of open subtrees, the forget back-pointers that the traceback reads,
and the root table.  The state cap counts the states of every table built,
freed or not; a PASS node hands its child's table on and builds none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum

from .errors import InputError, ResourceLimitError
from .graph import FullColouring, Graph, PartialColouring, count_happy
from .result import SolveResult
from .treedec import NiceTreeDecomposition, check_decomposes

DEFAULT_STATE_CAP = 2_000_000


class AugKind(IntEnum):
    LEAF = 0
    INTRODUCE = 1
    FORGET = 2
    JOIN = 3
    PASS = 4  # introduce/forget of an anchor vertex degenerates to a copy


@dataclass(frozen=True)
class SStarAugmentedTd:
    """Nice decomposition with the per-colour anchor set added to every bag.

    Anchor vertices are never introduced or forgotten; the nodes where the
    base decomposition moved one of them become PASS nodes.  Tree shape and
    node indexing match the base decomposition.
    """

    s_star: tuple[int, ...]
    kinds: tuple[AugKind, ...]
    bags: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1


def build_sstar_td(
    g: Graph, colouring: PartialColouring, nice: NiceTreeDecomposition
) -> SStarAugmentedTd:
    """Pick the lowest-numbered precoloured vertex of each colour and add the
    set to every bag.

    Raises InputError when some colour class is empty; the exact algorithm
    needs an anchor per colour.
    """
    anchors: dict[int, int] = {}
    for v in sorted(colouring.assignment):
        col = colouring.assignment[v]
        if col not in anchors:
            anchors[col] = v
    missing = [c for c in range(1, colouring.k + 1) if c not in anchors]
    if missing:
        raise InputError(
            "exact solver needs every colour used by the initial colouring; "
            f"missing colour(s) {missing}"
        )
    s_star = tuple(anchors[c] for c in range(1, colouring.k + 1))
    s_set = frozenset(s_star)

    # AugKind repeats NodeKind's values.  Leaves and joins move no vertex, so
    # only an introduce or forget can become PASS; the rest keep their kind.
    kinds = tuple(
        AugKind.PASS if node.vertex in s_set else AugKind(node.kind) for node in nice.nodes
    )
    bags = tuple(tuple(sorted(node.bag | s_set)) for node in nice.nodes)
    return SStarAugmentedTd(s_star, kinds, bags)


def solve_exact(
    g: Graph,
    colouring: PartialColouring,
    nice: NiceTreeDecomposition,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SolveResult:
    """Optimal extension of the partial colouring via the table DP.

    Aborts with ResourceLimitError, naming the node, when the total number
    of states built exceeds ``state_cap``; a PASS node builds none.  The
    returned colouring extends the input and its happy count is the proven
    optimum.
    """
    check_decomposes(g, nice)
    start = time.perf_counter()
    aug = build_sstar_td(g, colouring, nice)
    k = colouring.k
    base = colouring.as_array(g.n)
    adjacency, nodes, bags = g.adjacency, nice.nodes, aug.bags
    width = (2 * k + 1).bit_length()
    lane = (1 << width) - 1

    def over_cap(total, idx):
        return ResourceLimitError(
            f"exact DP exceeded the state cap ({total} > {state_cap} states) "
            f"at node {idx} ({aug.kinds[idx].name.lower()}, bag of {len(bags[idx])})"
        )

    def leaf(idx):
        # An anchor may be designated happy when no anchor next to it has
        # another colour.  The cap is checked before the table is built.
        bag = bags[idx]
        bag_set, key, flags = set(bag), 0, []
        for p, v in enumerate(bag):
            shift = width * (len(bag) - 1 - p)
            key |= base[v] << 1 << shift
            if all(base[u] == base[v] for u in adjacency[v] if u in bag_set):
                flags.append(1 << shift)
        total = total_states + (1 << len(flags))
        if total > state_cap:
            raise over_cap(total, idx)
        table = {key: 0}
        for flag in flags:
            table = {s | f: val + d for s, val in table.items() for f, d in ((0, 0), (flag, 1))}
        return table

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
        AugKind.LEAF: leaf,
        AugKind.PASS: lambda idx, table: table,
        AugKind.INTRODUCE: introduce,
        AugKind.FORGET: forget,
        AugKind.JOIN: join,
    }
    total_states = 0
    for idx, table in nice.walk(handlers, aug.kinds):
        # A PASS node hands its child's table on and builds no state.
        if aug.kinds[idx] != AugKind.PASS:
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
        # PASS and JOIN nodes hand their key to their children, leaves have none.
        if aug.kinds[idx] == AugKind.FORGET:
            key = forget_pred[idx][key]
        elif aug.kinds[idx] == AugKind.INTRODUCE:
            low = width * (len(bag) - 1 - bag.index(nodes[idx].vertex))
            key = (key >> low + width << low) | (key & ((1 << low) - 1))
        stack.extend((c, key) for c in nodes[idx].children)

    witness = FullColouring(k, tuple(colours))
    happy = count_happy(g, witness)
    assert happy == best_val, "witness happy count must match the table optimum"
    assert witness.extends(colouring)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SolveResult(
        algorithm="exact-dp",
        colouring=witness,
        happy=best_val,
        provably_optimal=True,
        time_ms=elapsed,
    )

