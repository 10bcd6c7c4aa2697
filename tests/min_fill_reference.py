"""Full-rescan reference for ``mhv.treedec.min_fill_decompose``.

Min-fill as first written: at every elimination it recomputes the fill-in of
every live vertex by testing each pair of its neighbours.  It keeps no counts
between eliminations, so it checks ``mhv.treedec.min_fill_decompose``, which
keeps each vertex's triangle count and updates it by deltas.
"""

from __future__ import annotations

import random

from mhv.graph import Graph
from mhv.treedec import TreeDecomposition


def reference_min_fill_decompose(g: Graph, seed: int = 0) -> TreeDecomposition:
    """Build a decomposition from a greedy minimum fill-in elimination ordering.

    Ties are broken by minimum degree, then by a seed-determined random pick.
    Disconnected graphs get one decomposition per component, joined through an
    empty connector bag.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition(0, (frozenset(),), frozenset())
    rng = random.Random(seed)
    nb: list[set[int]] = [set(g.adjacency[v]) for v in range(n)]
    alive = set(range(n))
    bags: list[frozenset[int]] = []
    bag_of: dict[int, int] = {}
    elim_pos: dict[int, int] = {}
    elim_nb: dict[int, frozenset[int]] = {}
    order: list[int] = []

    while alive:
        best_key: tuple[int, int] | None = None
        candidates: list[int] = []
        for v in sorted(alive):
            nbv = nb[v]
            fill = 0
            nbl = sorted(nbv)
            for i, a in enumerate(nbl):
                nba = nb[a]
                for c in nbl[i + 1 :]:
                    if c not in nba:
                        fill += 1
            key = (fill, len(nbv))
            if best_key is None or key < best_key:
                best_key = key
                candidates = [v]
            elif key == best_key:
                candidates.append(v)
        v = candidates[0] if len(candidates) == 1 else candidates[rng.randrange(len(candidates))]

        neighbours = nb[v]
        bag_of[v] = len(bags)
        bags.append(frozenset(neighbours | {v}))
        elim_nb[v] = frozenset(neighbours)
        elim_pos[v] = len(order)
        order.append(v)
        nbl = sorted(neighbours)
        for i, a in enumerate(nbl):
            for c in nbl[i + 1 :]:
                if c not in nb[a]:
                    nb[a].add(c)
                    nb[c].add(a)
        for u in neighbours:
            nb[u].discard(v)
        alive.remove(v)

    edges: set[tuple[int, int]] = set()
    roots: list[int] = []
    for v in order:
        remaining = elim_nb[v]
        if remaining:
            parent_vertex = min(remaining, key=lambda u: elim_pos[u])
            a, b = sorted((bag_of[v], bag_of[parent_vertex]))
            edges.add((a, b))
        else:
            roots.append(bag_of[v])
    if len(roots) > 1:
        connector = len(bags)
        bags.append(frozenset())
        for r in roots:
            edges.add((min(r, connector), max(r, connector)))
    return TreeDecomposition(n, tuple(bags), frozenset(edges))
