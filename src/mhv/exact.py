"""Exact dynamic program over an augmented nice tree decomposition.

Every bag is extended with one precoloured vertex per colour, so each bag
meets every colour class.  Table states pair a bag colouring with a
happy/assumed-unhappy designation per bag vertex; values are the best number
of happy vertices in the processed subgraph outside the assumed-unhappy set.
States that admit no consistent completion are never stored (all recurrences
map missing states to missing states).

State encoding: bags are kept sorted and a state is a tuple with one code per
bag position, ``code = colour << 1 | designated_happy``.

Memory: the tables run through ``NiceTreeDecomposition.walk``, so a child's
table is dropped once its parent's is built.  Alive at any time are only the
tables of open subtrees, the forget back-pointers that the traceback reads,
and the root table.  The state cap counts the states of every table built,
freed or not; a PASS node builds none, since it hands its child's table on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from itertools import product

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
    return SolveResult(
        algorithm="exact-dp",
        colouring=witness,
        happy=best_val,
        provably_optimal=True,
        time_ms=elapsed,
    )


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
