"""Tuple-state reference for ``mhv.exact.solve_exact``.

The exact table DP as first written: a state is a tuple with one code per
sorted-bag position, ``code = colour << 1 | designated_happy``.  A forget
slices the tuple, an introduce builds two new tuples per colour and a join
sums the designations code by code.  Its handlers and traceback share no
code with the package's, so it checks ``mhv.exact.solve_exact``, which packs
a state into one int and plans each introduce per neighbour pattern.
It still enumerates a leaf's designations before comparing anything with
the state cap, so keep its caps to small anchor sets.
"""

from __future__ import annotations

import time
from itertools import product

from mhv.errors import InputError, ResourceLimitError
from mhv.exact import DEFAULT_STATE_CAP, AugKind, build_sstar_td
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
    of states built exceeds ``state_cap``; a PASS node builds none.  The
    returned colouring extends the input and its happy count is the proven
    optimum.
    """
    check_decomposes(g, nice)
    start = time.perf_counter()
    aug = build_sstar_td(g, colouring, nice)
    k = colouring.k
    base = colouring.as_array(g.n)
    adjacency = g.adjacency
    nodes = nice.nodes

    forget_pred: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}

    def forget(idx: int, child_table: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
        vertex = nodes[idx].vertex
        assert vertex is not None
        pos = aug.bags[nodes[idx].children[0]].index(vertex)
        table: dict[tuple[int, ...], int] = {}
        pred: dict[tuple[int, ...], tuple[int, ...]] = {}
        for key, val in child_table.items():
            nk = key[:pos] + key[pos + 1 :]
            if val > table.get(nk, -1):
                table[nk] = val
                pred[nk] = key
        forget_pred[idx] = pred
        return table

    handlers = {
        AugKind.LEAF: lambda idx: _leaf_table(adjacency, base, aug.bags[idx]),
        AugKind.PASS: lambda idx, child_table: child_table,
        AugKind.INTRODUCE: lambda idx, child_table: _introduce_table(
            adjacency, base, k, aug.bags[idx], nodes[idx].vertex, child_table
        ),
        AugKind.FORGET: forget,
        AugKind.JOIN: lambda idx, t1, t2: _join_table(t1, t2),
    }
    total_states = 0
    for idx, table in nice.walk(handlers, aug.kinds):
        # A PASS node hands its child's table on and builds no state.
        if aug.kinds[idx] != AugKind.PASS:
            total_states += len(table)
            if total_states > state_cap:
                raise ResourceLimitError(
                    f"exact DP exceeded the state cap ({total_states} > {state_cap} states) "
                    f"at node {idx} ({aug.kinds[idx].name.lower()}, bag of {len(aug.bags[idx])})"
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
    stack: list[tuple[int, tuple[int, ...]]] = [(nice.root, best_key)]
    while stack:
        idx, key = stack.pop()
        bag = aug.bags[idx]
        for pos, v in enumerate(bag):
            col = key[pos] >> 1
            assert colours[v] in (0, col), "inconsistent reconstruction"
            colours[v] = col
        kind = aug.kinds[idx]
        children = nodes[idx].children
        if kind == AugKind.LEAF:
            continue
        if kind in (AugKind.PASS, AugKind.JOIN):
            for c in children:
                stack.append((c, key))
        elif kind == AugKind.INTRODUCE:
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


def _leaf_table(
    adjacency: tuple[tuple[int, ...], ...], base: bytes, bag: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Enumerate designations over the anchor set.

    A designated-happy anchor must already be happy within the subgraph the
    anchors induce; the value counts the happy anchors not assumed unhappy.
    """
    bag_set = set(bag)
    happy_here: list[bool] = []
    for v in bag:
        cv = base[v]
        happy_here.append(
            all(base[u] == cv for u in adjacency[v] if u in bag_set)
        )
    table: dict[tuple[int, ...], int] = {}
    for flags in product((0, 1), repeat=len(bag)):
        if any(f and not h for f, h in zip(flags, happy_here)):
            continue
        key = tuple((base[v] << 1) | f for v, f in zip(bag, flags))
        table[key] = sum(flags)
    return table


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
            if not conflict_coloured:
                table[prefix + ((i << 1) | 1,) + suffix] = val + 1
    return table
