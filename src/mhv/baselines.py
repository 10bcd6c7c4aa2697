"""Greedy-MHV and Growth-MHV constructive baselines.

Greedy-MHV tries the k monochromatic completions and keeps the best.
Growth-MHV grows the colouring guided by a seven-way vertex labelling,
always serving the most promising label class first.
"""

from __future__ import annotations

import heapq
import random
import time
from enum import IntEnum

from .graph import FullColouring, Graph, PartialColouring, count_happy
from .result import SolveResult, solve_result


def greedy_mhv(g: Graph, colouring: PartialColouring) -> SolveResult:
    """Best of the k completions that give all uncoloured vertices one colour.

    Ties between colours break towards the lowest colour index.
    """
    start = time.perf_counter()
    n = g.n
    base = colouring.as_array(n)
    best_happy = -1
    best_colour = 1
    for i in range(1, colouring.k + 1):
        filled = FullColouring(colouring.k, tuple(c if c else i for c in base))
        happy = count_happy(g, filled)
        if happy > best_happy:
            best_happy = happy
            best_colour = i
    witness = [c if c else best_colour for c in base]
    return solve_result("greedy-mhv", g, colouring, witness, start, False, happy=best_happy)


class GrowthLabel(IntEnum):
    """Vertex classes steering Growth-MHV.

    Coloured vertices are HAPPY, UNHAPPY or GROWING (consistent so far but
    with uncoloured neighbours).  Uncoloured vertices are NEXT_TO_GROWING,
    CAN_BE_HAPPY, CANNOT_BE_HAPPY or FREE (no coloured neighbour).
    """

    HAPPY = 0
    UNHAPPY = 1
    GROWING = 2
    NEXT_TO_GROWING = 3
    CAN_BE_HAPPY = 4
    CANNOT_BE_HAPPY = 5
    FREE = 6


def compute_growth_labels(g: Graph, colouring: PartialColouring) -> tuple[GrowthLabel, ...]:
    """Label every vertex from scratch for a given partial colouring."""
    colours = list(colouring.as_array(g.n))
    labels: list[GrowthLabel] = [GrowthLabel.FREE] * g.n
    for v in range(g.n):
        if colours[v]:
            labels[v] = _coloured_label(g, colours, v)
    for v in range(g.n):
        if not colours[v]:
            labels[v] = _uncoloured_label(g, colours, labels, v)
    return tuple(labels)


def _coloured_label(g: Graph, colours: list[int], v: int) -> GrowthLabel:
    cv = colours[v]
    has_uncoloured = False
    for u in g.adjacency[v]:
        cu = colours[u]
        if cu == 0:
            has_uncoloured = True
        elif cu != cv:
            return GrowthLabel.UNHAPPY
    return GrowthLabel.GROWING if has_uncoloured else GrowthLabel.HAPPY


def _uncoloured_label(
    g: Graph, colours: list[int], labels: list[GrowthLabel], v: int
) -> GrowthLabel:
    unhappy_colours: set[int] = set()
    has_coloured = False
    for u in g.adjacency[v]:
        if not colours[u]:
            continue
        has_coloured = True
        if labels[u] == GrowthLabel.GROWING:
            return GrowthLabel.NEXT_TO_GROWING
        if labels[u] == GrowthLabel.UNHAPPY:
            unhappy_colours.add(colours[u])
    if not has_coloured:
        return GrowthLabel.FREE
    if len(unhappy_colours) >= 2:
        return GrowthLabel.CANNOT_BE_HAPPY
    return GrowthLabel.CAN_BE_HAPPY


# The classes ``GrowthRun.step`` picks a vertex from, each with its heap.
_PICKED = (
    GrowthLabel.GROWING,
    GrowthLabel.CAN_BE_HAPPY,
    GrowthLabel.CANNOT_BE_HAPPY,
    GrowthLabel.FREE,
)


class GrowthRun:
    """Stepwise Growth-MHV execution; exposed so tests can audit each step.

    ``labels`` is kept current after every step by relabelling only the two
    hops around what the step coloured, which is as far as a label can
    change (``_relabel_around`` says why).  Each class that ``step`` picks
    from keeps a heap of ``(-degree, vertex)`` keys, so a pick costs
    O(log n) amortised instead of a scan of every vertex: a vertex is pushed
    whenever its label changes to that class, and an entry whose vertex has
    since left the class is dropped when it reaches the top.  A run on
    bounded degrees then costs O(n log n).
    """

    def __init__(self, g: Graph, colouring: PartialColouring, seed: int = 0) -> None:
        self.g = g
        self.k = colouring.k
        self.rng = random.Random(seed)
        self.colours = list(colouring.as_array(g.n))
        self.labels: list[GrowthLabel] = list(compute_growth_labels(g, colouring))
        self.uncoloured = sum(1 for c in self.colours if c == 0)
        self.iterations = 0
        self._heaps: dict[GrowthLabel, list[tuple[int, int]]] = {
            label: [] for label in _PICKED
        }
        for v, label in enumerate(self.labels):
            if label in self._heaps:
                self._heaps[label].append((-g.degrees[v], v))
        for heap in self._heaps.values():
            heapq.heapify(heap)

    @property
    def done(self) -> bool:
        return self.uncoloured == 0

    def _pick(self, wanted: GrowthLabel) -> int | None:
        """The vertex labelled ``wanted`` of highest degree, lowest id first."""
        heap, labels = self._heaps[wanted], self.labels
        while heap and labels[heap[0][1]] != wanted:
            heapq.heappop(heap)
        return heap[0][1] if heap else None

    def step(self) -> None:
        """Colour at least one vertex following the label priority cascade."""
        assert not self.done
        for label in _PICKED:
            centre = self._pick(label)
            if centre is not None:
                break
        else:
            raise AssertionError("an uncoloured vertex must carry some label")
        colours, adjacency = self.colours, self.g.adjacency[centre]
        # The colour comes from the centre, from an UNHAPPY neighbour or from
        # the RNG; every class but GROWING colours the centre itself, and
        # GROWING and CAN_BE_HAPPY also colour its uncoloured neighbours.
        if label is GrowthLabel.GROWING:
            cv = colours[centre]
        elif label is GrowthLabel.FREE:
            cv = self.rng.randint(1, self.k)
        else:
            cv = next(colours[u] for u in adjacency if self.labels[u] == GrowthLabel.UNHAPPY)
        newly: list[int] = []
        if label is not GrowthLabel.GROWING:
            colours[centre] = cv
            newly.append(centre)
        if label is GrowthLabel.GROWING or label is GrowthLabel.CAN_BE_HAPPY:
            for u in adjacency:
                if colours[u] == 0:
                    colours[u] = cv
                    newly.append(u)
        self.uncoloured -= len(newly)
        self.iterations += 1
        assert self.iterations <= self.g.n, "growth must colour something every iteration"
        self._relabel_around(newly + [centre])

    def _relabel_around(self, sources: list[int]) -> None:
        """Bring ``labels`` up to date after the vertices in ``sources`` (the
        newly coloured ones and the centre) were handled.

        A coloured label reads only the colours of its neighbours, so it can
        change only within one hop of a newly coloured vertex.  An uncoloured
        label reads the colours of its neighbours and the labels of its
        coloured neighbours, so it can change only within two hops.  Coloured
        labels are recomputed first, since uncoloured ones read them.
        """
        g, colours, labels = self.g, self.colours, self.labels
        near = set(sources)
        for v in sources:
            near.update(g.adjacency[v])
        region = set(near)
        for v in near:
            region.update(g.adjacency[v])
        changed = []
        for v in near:
            if colours[v]:
                label = _coloured_label(g, colours, v)
                if label != labels[v]:
                    labels[v] = label
                    changed.append(v)
        for v in region:
            if not colours[v]:
                label = _uncoloured_label(g, colours, labels, v)
                if label != labels[v]:
                    labels[v] = label
                    changed.append(v)
        for v in changed:
            heap = self._heaps.get(labels[v])
            if heap is not None:
                heapq.heappush(heap, (-g.degrees[v], v))


def growth_mhv(g: Graph, colouring: PartialColouring, seed: int = 0) -> SolveResult:
    """Run Growth-MHV to completion.

    Candidate ties break by degree (highest first), then by vertex id.  FREE
    vertices take a seeded random colour, which also serves disconnected
    graphs.
    """
    start = time.perf_counter()
    run = GrowthRun(g, colouring, seed=seed)
    while not run.done:
        run.step()
    return solve_result("growth-mhv", g, colouring, run.colours, start, False)
