"""Tuple-state reference for ``mhv.exact.solve_exact``.

The exact table DP as first written: a state is a tuple with one code per
sorted-bag position, ``code = colour << 1 | designated_happy``.  A forget
slices the tuple, an introduce builds two new tuples per colour and a join
sums the designations code by code.  It writes out its own rule that a
vertex is designated happy only in a colour all its precoloured neighbours
have, and runs its own post-order loop, so it shares no DP code with
``mhv.exact.solve_exact``, which packs a state into one int, plans each
introduce per neighbour pattern and reads ``precoloured_evidence``.
"""

from __future__ import annotations

import time

from mhv.errors import InputError, ResourceLimitError
from mhv.exact import DEFAULT_STATE_CAP
from mhv.graph import FullColouring, Graph, PartialColouring, count_happy
from mhv.result import SolveResult
from mhv.treedec import NiceTreeDecomposition, check_decomposes


def reference_solve_exact(
    g: Graph,
    colouring: PartialColouring,
    nice: NiceTreeDecomposition,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[SolveResult, int]:
    """Optimal extension of the partial colouring via the tuple-state table DP,
    and the number of states it built.

    Aborts with ResourceLimitError, naming the node, when the total number
    of states built exceeds ``state_cap``.  The returned colouring extends
    the input and its happy count is the proven optimum.
    """
    check_decomposes(g, nice)
    start = time.perf_counter()
    k = colouring.k
    base = colouring.as_array(g.n)
    adjacency = g.adjacency
    nodes = nice.nodes
    bags = [tuple(sorted(node.bag)) for node in nodes]
    kinds = [node.kind.name.lower() for node in nodes]

    forget_pred: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    tables: dict[int, dict[tuple[int, ...], int]] = {}
    total_states = 0
    for idx, node in enumerate(nodes):
        below = [tables.pop(c) for c in node.children]
        kind = kinds[idx]
        if kind == "leaf":
            table = {(): 0}
        elif kind == "introduce":
            table = _introduce_table(adjacency, base, k, bags[idx], node.vertex, below[0])
        elif kind == "forget":
            pos = bags[node.children[0]].index(node.vertex)
            table, forget_pred[idx] = _forget_table(pos, below[0])
        else:
            table = _join_table(*below)
        tables[idx] = table
        total_states += len(table)
        if total_states > state_cap:
            raise ResourceLimitError(
                f"exact DP exceeded the state cap ({total_states} > {state_cap} states) "
                f"at node {idx} ({kind}, bag of {len(bags[idx])})"
            )
    root_table = tables[nice.root]

    if not root_table:
        # Cannot happen for a valid instance: the all-assumed-unhappy state
        # survives every recurrence.
        raise InputError("exact DP produced no feasible state")
    best_key = max(root_table, key=lambda s: (root_table[s], s))
    best_val = root_table[best_key]

    colours = bytearray(base)
    stack: list[tuple[int, tuple[int, ...]]] = [(nice.root, best_key)]
    while stack:
        idx, key = stack.pop()
        bag = bags[idx]
        for pos, v in enumerate(bag):
            col = key[pos] >> 1
            assert colours[v] in (0, col), "inconsistent reconstruction"
            colours[v] = col
        kind = kinds[idx]
        children = nodes[idx].children
        if kind == "leaf":
            continue
        if kind == "join":
            for c in children:
                stack.append((c, key))
        elif kind == "introduce":
            vertex = nodes[idx].vertex
            assert vertex is not None
            pos = bag.index(vertex)
            stack.append((children[0], key[:pos] + key[pos + 1 :]))
        else:
            stack.append((children[0], forget_pred[idx][key]))

    witness = FullColouring(k, tuple(colours))
    happy = count_happy(g, witness)
    assert happy == best_val, "witness happy count must match the table optimum"
    assert witness.extends(colouring)
    elapsed = (time.perf_counter() - start) * 1000.0
    result = SolveResult(
        algorithm="exact-dp",
        colouring=witness,
        happy=best_val,
        provably_optimal=True,
        time_ms=elapsed,
    )
    return result, total_states


def _forget_table(
    pos: int, child_table: dict[tuple[int, ...], int]
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], tuple[int, ...]]]:
    """Drop the code at ``pos``, keeping the first best child state of each
    result and pointing back to it."""
    table: dict[tuple[int, ...], int] = {}
    pred: dict[tuple[int, ...], tuple[int, ...]] = {}
    for key, val in child_table.items():
        nk = key[:pos] + key[pos + 1 :]
        if val > table.get(nk, -1):
            table[nk] = val
            pred[nk] = key
    return table, pred


def _join_table(
    t1: dict[tuple[int, ...], int], t2: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    """Pair the states both children hold; bag vertices designated happy are
    counted by both, so once is taken off."""
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    table: dict[tuple[int, ...], int] = {}
    for key, v1 in t1.items():
        v2 = t2.get(key)
        if v2 is not None:
            designated = sum(code & 1 for code in key)
            table[key] = v1 + v2 - designated
    return table


def _introduce_table(
    adjacency: tuple[tuple[int, ...], ...],
    base: bytes,
    k: int,
    bag: tuple[int, ...],
    vertex: int | None,
    child_table: dict[tuple[int, ...], int],
) -> dict[tuple[int, ...], int]:
    assert vertex is not None
    pos = bag.index(vertex)
    # The child's bag is this one without the introduced vertex.
    child_index = {v: i for i, v in enumerate(bag[:pos] + bag[pos + 1 :])}
    nbr_pos = [child_index[u] for u in adjacency[vertex] if u in child_index]
    allowed = (base[vertex],) if base[vertex] else tuple(range(1, k + 1))
    # Happy in colour i needs every precoloured neighbour, in the bag or not,
    # to have colour i.
    precoloured = {base[u] for u in adjacency[vertex] if base[u]}

    table: dict[tuple[int, ...], int] = {}
    for key, val in child_table.items():
        for i in allowed:
            conflict_coloured = False
            conflict_happy = False
            for q in nbr_pos:
                code = key[q]
                if code >> 1 != i:
                    conflict_coloured = True
                    if code & 1:
                        conflict_happy = True
                        break
            if conflict_happy:
                # A happy neighbour of a different colour rules out every
                # designation of the introduced vertex.
                continue
            prefix, suffix = key[:pos], key[pos:]
            table[prefix + (i << 1,) + suffix] = val
            if not conflict_coloured and precoloured <= {i}:
                table[prefix + ((i << 1) | 1,) + suffix] = val + 1
    return table
