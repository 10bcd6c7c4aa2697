"""Beam-bounded dynamic program over a nice tree decomposition.

Partial solutions are built bottom-up.  At every decomposition node a list of
at most ``width`` candidates survives, ranked by a weighted count of vertex
labels; with a large enough width the procedure degenerates into the exact
bounded-treewidth algorithm and the solver reports the result as provably
optimal.  Each node picks its survivors in one selection (``Beam.extend``):
its candidates are sorted stably by score and the ``width`` best are kept.
Only when the cut splits a run of equal scores does the RNG pick, by one
``rng.sample``, which entries of that run stay.

A partial solution stands for a colouring of the processed subgraph and a
label per vertex:

* HAPPY           coloured and committed to end happy
* UNHAPPY         coloured with a conflicting neighbour, or uncoloured but
                  already impossible to make happy
* MAYBE_HAPPY     uncoloured, adjacent to the partial solution, and all
                  colour evidence around it agrees
* ASSUMED_UNHAPPY coloured bag vertex without conflicts that the state
                  nevertheless writes off as unhappy
* UNKNOWN         untouched by the partial solution

Labels of uncoloured vertices are a pure function of the colouring (committed
colours plus precoloured neighbours).  The merges recompute them through
``_border_label``.  The introduce handler instead applies a delta rule to the
introduced vertex's neighbours: colouring it can only turn an UNKNOWN
neighbour MAYBE_HAPPY or UNHAPPY, a MAYBE_HAPPY neighbour bound to another
colour UNHAPPY, and a coloured ASSUMED_UNHAPPY neighbour of another colour
UNHAPPY.  The rule rests on two premises that ``check_invariants`` asserts:
committed colours only grow and extend the input, and every stored label
equals ``_border_label``.  The introduce works in three phases.  One scan of
the neighbours per child solution scores the changes: as if every neighbour
whose label can change turned UNHAPPY, plus per colour a correction for the
ones that agree with it.  The emissions are collected by score alone, each
pointing at its child solution, colour and watched neighbours, and selected
from once per list.  Last, a finished entry is built for each offer that
survives the node, its arrays once per (child solution, colour) for both
labels.

An entry stores only what can still change: the colours and labels of its
node's closed neighbourhood N[bag] (its ``Layout``), its four label counts
over all vertices, its score, and the number of its newest forget record.
The solver keeps the records in one table of ints: a (vertex, colour) per
vertex that leaves N[bag], and a pair of older records per join, so that
entries built from one child entry share its records.  A node's layout keeps its child's order
while N[bag] stays the same set, so most nodes carry a child's arrays over as
they are; it is worked out when the node is handled and let go of once its
parent has used it.  Everything else is settled: a forgotten vertex's colour
is fixed, and once no bag vertex is its neighbour its label is a function of
the colouring, HAPPY exactly when no neighbour has another colour.  A forget
asserts that premise, under ``check_invariants``, for each vertex it drops.
A coloured ring vertex with a conflicting neighbour that has left N[bag] is
labelled FAR_UNHAPPY, which counts as UNHAPPY, so that a merge knows of that
conflict without the records.  ``solve`` rebuilds the colouring from the best
root entry's records, by an iterative walk, and derives the final labels
from it.

The solver owns the entry format.  Entries are made from full arrays by
``HeuristicSolver.entry``, laid out on a given node or over every vertex,
and read as full arrays, rebuilt the same way, by ``HeuristicSolver.arrays``.
Only the node handlers and their join helpers touch an entry's own arrays;
a handler reads entries laid out on its children's layouts, the join
helpers read any layout that lists N[bag].

The joins rest on one fact of table DP over nice decompositions: a forgotten
vertex has had all its neighbours introduced.  So at every node an uncoloured
vertex with a label other than UNKNOWN is a neighbour of the bag, and the
coloured territories of a join's two children meet only on the bag.  Two
solutions of the two children can therefore differ in what they say about a
vertex only inside N[bag], which both store.  A merge works on N[bag] alone;
its counts are each side's counts away from N[bag] plus those of the merged
labels.  Per join node the solver indexes the inner list by match key
once and computes the bag-only distance weights at most once.  Distances are
computed only for an outer solution without an exact partner while the main
list is empty, the one case that uses the nearest partner.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .beam import (
    ASSUMED_UNHAPPY,
    FAR_UNHAPPY,
    HAPPY,
    MAYBE_HAPPY,
    UNHAPPY,
    UNKNOWN,
    Beam,
    Label,
    LabelWeights,
    Layout,
    PartialSolution,
    entry_rank,
    evaluate,
    label_counts,
)
from .errors import InputError
from .graph import FullColouring, Graph, PartialColouring, count_happy
from .result import SolveResult
from .treedec import NiceTreeDecomposition, NodeKind, check_decomposes


# Byte value -> that one byte.
_BYTE = tuple(bytes((i,)) for i in range(256))

# Label -> the label ``HeuristicSolver.arrays`` reads out.
_PUBLIC = bytes(UNHAPPY if lab == FAR_UNHAPPY else lab for lab in range(256))

# Label -> the designation a join matches on: HAPPY, or UNHAPPY for the rest.
_DESIGNATION = bytes(HAPPY if lab == HAPPY else UNHAPPY for lab in range(256))


# Join loop choice -> whether the first child's list is the outer loop.
_FIRST_IS_OUTER = {
    "random": lambda rng, first, second: rng.random() < 0.5,
    "larger_list": lambda rng, first, second: len(first) >= len(second),
    "smaller_list": lambda rng, first, second: len(first) <= len(second),
}


# Neighbour tests of the distance weightings, given the neighbour, the bag and
# the outer solution's colour and label of the neighbour.
def _external(u: int, bag_set: frozenset[int], colour: int, label: int) -> bool:
    return u not in bag_set


def _in_border(u: int, bag_set: frozenset[int], colour: int, label: int) -> bool:
    return colour == 0 and label != UNKNOWN


def _nonborder_external(u: int, bag_set: frozenset[int], colour: int, label: int) -> bool:
    return u not in bag_set and not _in_border(u, bag_set, colour, label)


# Distance weighting -> (neighbour test, capped at 1).  A bag vertex weighs
# the number of its neighbours that pass the test, at most 1 when capped;
# "all_ones" has no test and weighs 1.
_DISTANCE_RULES = {
    "all_ones": (None, True),
    "has_external_neighbour": (_external, True),
    "has_border_neighbour": (_in_border, True),
    "has_nonborder_external_neighbour": (_nonborder_external, True),
    "count_external_neighbours": (_external, False),
    "count_border_neighbours": (_in_border, False),
    "count_nonborder_external_neighbours": (_nonborder_external, False),
}

JOIN_LOOP_CHOICES = tuple(_FIRST_IS_OUTER)
DISTANCE_WEIGHTINGS = tuple(_DISTANCE_RULES)
MERGE_METHODS = ("copy_bag", "greedy_match")
# Weightings that depend on the bag alone, not on the outer solution's border.
BAG_ONLY_WEIGHTINGS = frozenset(
    name for name, (test, _) in _DISTANCE_RULES.items() if test in (None, _external)
)


@dataclass(frozen=True)
class HeuristicConfig:
    """Tuned defaults; every field is a CLI flag on the ``solve`` subcommand."""

    width: int = 67
    weights: LabelWeights = field(default_factory=LabelWeights)
    join_loop_choice: str = "smaller_list"
    join_distance_weighting: str = "count_external_neighbours"
    join_merge_method: str = "copy_bag"
    seed: int = 0
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise InputError("beam width must be at least 1")
        if self.join_loop_choice not in JOIN_LOOP_CHOICES:
            raise InputError(f"unknown join loop choice {self.join_loop_choice!r}")
        if self.join_distance_weighting not in DISTANCE_WEIGHTINGS:
            raise InputError(f"unknown distance weighting {self.join_distance_weighting!r}")
        if self.join_merge_method not in MERGE_METHODS:
            raise InputError(f"unknown merge method {self.join_merge_method!r}")


def exactness_width_bound(k: int, width: int) -> int:
    """Beam width above which the solver is guaranteed exact: (2k)^(width+1)."""
    if k < 1:
        raise InputError("k must be at least 1")
    if width < 0:
        raise InputError("decomposition width must be non-negative")
    return (2 * k) ** (width + 1)


_EMPTY = Layout(())


def _key_getter(positions: Sequence[int], size: int) -> Callable[[bytes], Any]:
    """A function of the colours followed by the labels of a layout of
    ``size`` vertices: the values at ``positions``, colours first."""
    if not positions:
        return lambda both: ()
    return itemgetter(*positions, *(size + i for i in positions))


def _union_counts(
    a: PartialSolution, b: PartialSolution, labels: bytearray
) -> tuple[int, int, int, int]:
    """The counts of a join's merge of ``a`` and ``b`` whose N[bag] labels
    are ``labels``: each side's counts away from N[bag], where the two sides
    never overlap, plus the merged labels' own."""
    ta, tb, tn = label_counts(a.labels), label_counts(b.labels), label_counts(labels)
    return (
        a.counts[0] + b.counts[0] - ta[0] - tb[0] + tn[0],
        a.counts[1] + b.counts[1] - ta[1] - tb[1] + tn[1],
        a.counts[2] + b.counts[2] - ta[2] - tb[2] + tn[2],
        a.counts[3] + b.counts[3] - ta[3] - tb[3] + tn[3],
    )


def _dropper(src: Layout, dst: Layout) -> Callable[[bytes], bytes]:
    """A function that lays an array over ``src`` out over ``dst``, which
    lists some of ``src``'s vertices in the same order: a few C-level
    slices, joined."""
    index = dst.index
    runs = []
    start = None
    for i, v in enumerate(src.vertices):
        if v in index:
            if start is None:
                start = i
        elif start is not None:
            runs.append(slice(start, i))
            start = None
    if start is not None:
        runs.append(slice(start, len(src.vertices)))
    if not runs:
        return lambda array: b""
    if len(runs) == 1:
        run = runs[0]
        return lambda array: array[run]
    take = itemgetter(*runs)
    return lambda array: b"".join(take(array))


def _relayer(src: Layout, dst: Layout) -> Callable[[PartialSolution], PartialSolution]:
    """A function that lays an entry over ``src`` out over ``dst``, which
    lists the same vertices in another order: one C-level gather per
    array."""
    if src is dst:
        return lambda sol: sol
    positions = [src.index[v] for v in dst.vertices]
    if len(positions) < 2:
        gather: Callable[[bytes], bytes] = lambda array: bytes(array[i] for i in positions)
    else:
        take = itemgetter(*positions)
        gather = lambda array: bytes(take(array))  # noqa: E731
    return lambda sol: PartialSolution(
        gather(sol.colours), gather(sol.labels), sol.counts, sol.score, dst, sol.forgotten
    )


class HeuristicSolver:
    """State for one solve: instance, decomposition, configuration, RNG."""

    def __init__(
        self,
        g: Graph,
        colouring: PartialColouring,
        nice: NiceTreeDecomposition,
        config: HeuristicConfig | None = None,
    ) -> None:
        check_decomposes(g, nice)
        self.g = g
        self.n = g.n
        self.k = colouring.k
        self.colouring = colouring
        self.base = colouring.as_array(g.n)
        self.adj = g.adjacency
        self.nice = nice
        self.config = config or HeuristicConfig()
        self.weights = self.config.weights
        w = self.weights
        # The score weight of each label, indexed by label.
        self._label_weight = (0, w.happy, w.unhappy, w.maybe_happy, w.assumed_unhappy)
        self.rng = random.Random(self.config.seed)
        self.all_below_capacity = True
        self._colours = tuple(range(1, self.k + 1))
        # Per node, its entries' layout while its parent is still to come.
        self._layouts: list[Layout | None] = [None] * len(nice.nodes)
        # Forget records, three ints each: (vertex, colour, older record) per
        # vertex that leaves N[bag], and (-1, one side's newest, the other's)
        # per join; -1 ends a chain.
        self._records: list[int] = []
        self._everything: Layout | None = None
        # The last pairing, ring table and bag positions the join helpers
        # worked out, with what they were worked out for.
        self._pairing_for: tuple = (None, None, None, None)
        self._ring_for: tuple = (None, None, None)
        self._bag_at_for: tuple = (None, None, None)
        # Per vertex, the colour its precoloured neighbours agree on: 0 for
        # none, -1 when they disagree.
        self._evidence = tuple(
            -1 if len(seen) > 1 else max(seen, default=0)
            for seen in ({self.base[u] for u in self.adj[v]} - {0} for v in range(self.n))
        )

    # -- entry format -----------------------------------------------------

    def entry(
        self,
        colours: Iterable[int],
        labels: Iterable[int],
        counts: Sequence[int] | None = None,
        node: int | None = None,
    ) -> PartialSolution:
        """A beam entry made from full arrays, scored from its four label
        counts, which are counted from ``labels`` if not given.  It is laid
        out on node ``node``'s layout, its other coloured vertices taken as
        forgotten, or over every vertex if no node is given.  A node handler
        reads only entries laid out on its children's layouts; the join
        helpers and ``arrays`` read any."""
        colours, labels = bytes(colours), bytes(labels)
        counts_t = label_counts(labels) if counts is None else tuple(counts)
        if node is None:
            layout = self._everything
            if layout is None:
                layout = self._everything = Layout(tuple(range(self.n)))
        else:
            layout = self.node_layout(node)
        forgotten = -1
        for v, c in enumerate(colours):
            if c and v not in layout.index:
                forgotten = self._record(v, c, forgotten)
        vertices = layout.vertices
        return PartialSolution(
            bytes(colours[v] for v in vertices),
            bytes(labels[v] for v in vertices),
            counts_t,
            evaluate(self.weights, counts_t),
            layout,
            forgotten,
        )

    def arrays(self, sol: PartialSolution) -> tuple[bytes, bytes]:
        """An entry's colours and labels over all vertices, rebuilt by
        traceback (see the module docstring)."""
        colours = self._colouring(sol)
        labels = self._settled_labels(colours)
        for v, lab in zip(sol.layout.vertices, sol.labels.translate(_PUBLIC)):
            labels[v] = lab
        return bytes(colours), bytes(labels)

    def node_layout(self, idx: int) -> Layout:
        """The layout of node ``idx``'s entries: N[bag] in its child's order,
        so that an entry keeps its arrays as they are while N[bag] stays the
        same set.  An introduce appends the vertex and its neighbours that
        are new to N[bag]; a forget drops each vertex that no longer touches
        the bag; a join takes its first child's layout.  Worked out from the
        nearest known layout below, iteratively; a handler lets go of its
        children's layouts once it has used them."""
        layouts = self._layouts
        if layouts[idx] is not None:
            return layouts[idx]
        nodes = self.nice.nodes
        path = []
        j = idx
        while layouts[j] is None:
            path.append(j)
            if not nodes[j].children:
                break
            j = nodes[j].children[0]
        for j in reversed(path):
            layouts[j] = self._derived_layout(j)
        return layouts[idx]

    def _derived_layout(self, idx: int) -> Layout:
        """Node ``idx``'s layout from its first child's (see ``node_layout``)."""
        node = self.nice.nodes[idx]
        if node.kind == NodeKind.LEAF:
            return _EMPTY
        child = self._layouts[node.children[0]]
        if node.kind == NodeKind.JOIN:
            return child
        vertices, at = child.vertices, child.index
        v = node.vertex
        adj = self.adj
        if node.kind == NodeKind.INTRODUCE:
            new = [u for u in adj[v] if u not in at]
            if v not in at:
                new.insert(0, v)
            if not new:
                return child
            at = at.copy()
            at.update(zip(new, range(len(vertices), len(vertices) + len(new))))
            return Layout(vertices + tuple(new), at)
        inside = node.bag
        gone = {x for x in adj[v] if x not in inside and inside.isdisjoint(adj[x])}
        if inside.isdisjoint(adj[v]):
            gone.add(v)
        if not gone:
            return child
        return Layout(tuple(filterfalse(gone.__contains__, vertices)))

    def _record(self, vertex: int, colour: int, older: int) -> int:
        """A new forget record; its number."""
        records = self._records
        at = len(records)
        records += (vertex, colour, older)
        return at

    def _joined(self, a: PartialSolution, b: PartialSolution) -> int:
        """The forget records of a join's two sides, which never share a
        vertex."""
        if a.forgotten < 0 or b.forgotten < 0:
            return max(a.forgotten, b.forgotten)
        return self._record(-1, a.forgotten, b.forgotten)

    def _colouring(self, sol: PartialSolution) -> bytearray:
        """The colouring of the subtree below ``sol``: its layout's coloured
        vertices and its forget records, by an iterative walk."""
        colours = bytearray(self.n)
        records = self._records
        stack = [sol.forgotten]
        while stack:
            at = stack.pop()
            while at >= 0:
                v, c, at = records[at : at + 3]
                if v < 0:
                    stack.append(c)
                else:
                    colours[v] = c
        for v, c in zip(sol.layout.vertices, sol.colours):
            if c:
                colours[v] = c
        return colours

    def _settled_labels(self, colours: bytes | bytearray) -> bytearray:
        """Per coloured vertex HAPPY exactly when no neighbour has another
        colour, else UNHAPPY; UNKNOWN for uncoloured ones."""
        labels = bytearray(self.n)
        adj = self.adj
        for v, cv in enumerate(colours):
            if cv:
                labels[v] = HAPPY
                for u in adj[v]:
                    if colours[u] and colours[u] != cv:
                        labels[v] = UNHAPPY
                        break
        return labels

    def _border_label(self, v: int, colours: bytes | bytearray) -> int:
        """Label of an uncoloured vertex given committed colours over all
        vertices.

        UNKNOWN without a committed neighbour; otherwise MAYBE_HAPPY when the
        committed and precoloured neighbour colours agree on one colour, and
        UNHAPPY when they clash.
        """
        first = 0
        conflict = False
        committed = False
        base = self.base
        for u in self.adj[v]:
            cu = colours[u]
            if cu:
                committed = True
            else:
                cu = base[u]
                if not cu:
                    continue
            if first == 0:
                first = cu
            elif cu != first:
                conflict = True
                if committed:
                    return UNHAPPY
        if not committed:
            return UNKNOWN
        return UNHAPPY if conflict else MAYBE_HAPPY

    def _ring(
        self, layout: Layout, bag_set: frozenset[int]
    ) -> tuple[tuple[int, int, tuple, frozenset[int]], ...]:
        """Per vertex of ``layout`` outside ``bag_set``: its position, the
        vertex, its neighbours in the layout as (position, input colour), and
        the input colours of its other neighbours.  The last table is kept."""
        held_layout, held_bag, ring = self._ring_for
        if held_layout is layout and held_bag is bag_set:
            return ring
        base, index = self.base, layout.index
        ring = tuple(
            (
                i,
                v,
                tuple((index[u], base[u]) for u in self.adj[v] if u in index),
                frozenset(base[u] for u in self.adj[v] if u not in index) - {0},
            )
            for i, v in enumerate(layout.vertices)
            if v not in bag_set
        )
        self._ring_for = (layout, bag_set, ring)
        return ring

    @staticmethod
    def _ring_label(colours: bytearray, near: tuple, far: frozenset[int]) -> int:
        """``_border_label`` of an uncoloured ring vertex, from ``_ring``'s
        view of its neighbours: UNKNOWN without a committed one, UNHAPPY
        when the committed and input colours around it differ, else
        MAYBE_HAPPY."""
        first = 0
        clash = False
        committed = False
        for j, b in near:
            c = colours[j]
            if c:
                committed = True
            elif b:
                c = b
            else:
                continue
            if not first:
                first = c
            elif c != first:
                clash = True
                if committed:
                    return UNHAPPY
        if not committed:
            return UNKNOWN
        if clash or far - {first}:
            return UNHAPPY
        return MAYBE_HAPPY

    # -- node handlers ----------------------------------------------------

    def handle_leaf(self, idx: int) -> Beam:
        """The unique empty partial solution: nothing coloured, all UNKNOWN."""
        beam = Beam(self.config.width)
        beam.insert(PartialSolution(b"", b"", (0, 0, 0, 0), 0, self.node_layout(idx)), self.rng)
        return beam

    def handle_introduce(self, idx: int, child_beam: Beam) -> Beam:
        """Colour the introduced vertex every way consistent with the input.

        Per child solution and colour the branch structure is: an untouched
        vertex becomes UNHAPPY on a precoloured conflict and otherwise both
        HAPPY and ASSUMED_UNHAPPY; a committed happy neighbour of a different
        colour blocks the tuple entirely (a backup that demotes such
        neighbours to UNHAPPY is built only while the main list is empty); a
        MAYBE_HAPPY vertex matching its evidence colour becomes HAPPY and
        ASSUMED_UNHAPPY; anything else becomes UNHAPPY.

        Colouring the vertex relabels only its neighbours, by a delta rule: a
        coloured ASSUMED_UNHAPPY neighbour (in the backup also a HAPPY one) of
        another colour becomes UNHAPPY; an UNKNOWN neighbour becomes
        MAYBE_HAPPY when its precoloured neighbours agree with the colour and
        UNHAPPY otherwise; a MAYBE_HAPPY neighbour bound to another colour
        becomes UNHAPPY.  It rests on two premises that ``_verify`` asserts:
        committed colours only grow and extend the input, so an uncoloured
        label can only move as stated, and every stored label equals
        ``_border_label``.

        The handler runs in three phases.  One scan of the neighbours per
        child solution collects those whose label can change (its watch list)
        and scores the change twice over: as if every one turned UNHAPPY, and
        per colour the correction for those that agree with it (slot 0 for
        those that agree with any).  Neighbours outside the child's N[bag]
        are UNKNOWN in every child solution, so their share is taken once per
        node.  Every emission's score is then a sum of three terms and one
        label weight, equal to ``evaluate`` of its counts.  The emissions are
        collected in order as (score, (group, label)) offers, the two labels
        of one colour sharing one group.  Each list is then one
        ``Beam.extend`` selection, the backup list first: the ``width`` best
        offers survive, and only a cut through equal scores draws from the
        RNG.  Last, ``_materialise`` builds a finished entry for each offer
        that survives in the returned list.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        adj = self.adj
        adj_v = adj[vtx]
        evidence = self._evidence
        child = node.children[0]
        index = self.node_layout(idx).index
        held = self.node_layout(child).index
        child_bag = self.nice.nodes[child].bag
        # Every committed neighbour of an uncoloured vertex lies in the child
        # bag, and every child-bag vertex is coloured.  So a MAYBE_HAPPY vertex
        # without precoloured neighbours is bound to the colour of any one of
        # its child-bag neighbours: its anchor, by position in the child.
        anchor = {
            x: held[u] for x in (vtx, *adj_v) if not evidence[x] for u in adj[x] if u in child_bag
        }
        base_v = self.base[vtx]
        allowed = (base_v,) if base_v else self._colours
        weight = self._label_weight
        w_happy, w_unhappy, w_maybe, w_assumed = weight[1:]
        slots = self.k + 1
        # Neighbours by (vertex, position in the child, position here), and the
        # watch entries, drop and agreement of those the child does not store.
        stored = [(u, held[u], index[u]) for u in adj_v if u in held]
        fresh_watch = []
        fresh_drop = 0
        fresh_agree = [0] * slots
        for u in adj_v:
            if u not in held:
                ev = evidence[u]
                fresh_watch.append((index[u], UNKNOWN, MAYBE_HAPPY, ev))
                fresh_drop += w_unhappy
                if ev >= 0:
                    fresh_agree[ev] += w_maybe - w_unhappy
        v_held = held.get(vtx)
        # (score, (group, label)) offers; a group's last slot takes its arrays.
        main_offers: list[tuple[int, tuple[list, int]]] = []
        backup_offers: list[tuple[int, tuple[list, int]]] = []
        for sol in child_beam:
            col_c = sol.colours
            lab_c = sol.labels
            # The child entry and, once an offer of it survives, its arrays
            # padded to the node's layout; shared by its groups.
            shared = [sol, None]
            # Neighbours whose label can change, as (position here, label,
            # label on agreement, the colour agreed with or 0 for any); the
            # coloured HAPPY ones change only in the backup.
            watch: list[tuple[int, int, int, int]] = fresh_watch.copy()
            happy: list[tuple[int, int, int, int]] = []
            # The score change if every watched neighbour turned UNHAPPY, and
            # per colour what agreeing with it gives back.
            drop = fresh_drop
            agree = fresh_agree.copy()
            for u, i, p in stored:
                cu = col_c[i]
                lu = lab_c[i]
                if cu:
                    if lu == HAPPY:
                        happy.append((p, lu, lu, cu))
                    elif lu == ASSUMED_UNHAPPY:
                        watch.append((p, lu, lu, cu))
                        drop += w_unhappy - w_assumed
                        agree[cu] += w_assumed - w_unhappy
                elif lu == UNKNOWN:
                    ev = evidence[u]
                    watch.append((p, lu, MAYBE_HAPPY, ev))
                    drop += w_unhappy
                    if ev >= 0:
                        agree[ev] += w_maybe - w_unhappy
                elif lu == MAYBE_HAPPY:
                    bound_u = evidence[u] or col_c[anchor[u]]
                    watch.append((p, lu, lu, bound_u))
                    drop += w_unhappy - w_maybe
                    agree[bound_u] += w_maybe - w_unhappy
            happy_colours = {entry[3] for entry in happy} if happy else None
            v_label = UNKNOWN if v_held is None else lab_c[v_held]
            # The colour a MAYBE_HAPPY vertex is bound to; 0 matches none.
            bound = (evidence[vtx] or col_c[anchor[vtx]]) if v_label == MAYBE_HAPPY else 0
            # The score with every watched neighbour UNHAPPY, those agreeing
            # with any colour restored, and the vertex's own label removed.
            floor = sol.score + drop + agree[0] - weight[v_label]
            for i in allowed:
                if v_label == UNKNOWN:
                    conflict = evidence[vtx] not in (0, i)
                    labs = (UNHAPPY,) if conflict else (HAPPY, ASSUMED_UNHAPPY)
                elif happy_colours and happy_colours != {i}:
                    if not main_offers:
                        # The happy neighbours of another colour turn UNHAPPY.
                        score = floor + agree[i] + w_unhappy + sum(
                            w_unhappy - w_happy for entry in happy if entry[3] != i
                        )
                        group = [shared, i, watch + happy, None]
                        backup_offers.append((score, (group, UNHAPPY)))
                    continue
                elif bound == i:
                    labs = (HAPPY, ASSUMED_UNHAPPY)
                else:
                    labs = (UNHAPPY,)
                at_colour = floor + agree[i]
                group = [shared, i, watch, None]
                for lab in labs:
                    main_offers.append((at_colour + weight[lab], (group, lab)))
        backup = Beam(self.config.width)
        if backup_offers:
            backup.extend(backup_offers, self.rng)
        main = Beam(self.config.width)
        main.extend(main_offers, self.rng)
        beam = self._materialise(main if main_offers else backup, idx)
        self._layouts[child] = None
        return beam

    def _materialise(self, beam: Beam, idx: int) -> Beam:
        """Replace each (group, label) offer in introduce node ``idx``'s
        result by its finished entry.  Each group's colours and relabelled
        neighbours are built once, for whichever of its labels survived.
        The node's layout is its child's with the vertices new to N[bag]
        appended, so a child's arrays carry over as they are, padded."""
        node = self.nice.nodes[idx]
        vtx = node.vertex
        layout = self.node_layout(idx)
        pad = bytes(len(layout.vertices) - len(self.node_layout(node.children[0]).vertices))
        at = layout.index[vtx]
        entries = []
        for (group, lab), score in zip(beam.entries, beam.scores):
            shared, colour, watch, made = group
            if made is None:
                sol, padded = shared
                if padded is None:
                    # The child's arrays padded, once per child entry.
                    padded = shared[1] = (bytearray(sol.colours + pad), sol.labels + pad)
                base_colours, base_labels = padded
                base_colours[at] = colour
                coloured = bytes(base_colours)
                relabelled = bytearray(base_labels)
                # Label totals indexed by label; slot 0 (UNKNOWN) is not scored.
                tally = [0, *sol.counts]
                for p, old, agreed, agrees_with in watch:
                    new = agreed if agrees_with == colour or not agrees_with else UNHAPPY
                    if new != old:
                        relabelled[p] = new
                        tally[old] -= 1
                        tally[new] += 1
                tally[base_labels[at]] -= 1
                made = group[3] = (coloured, relabelled, tally, sol.forgotten)
            colours, labels, tally, forgotten = made
            labels[at] = lab
            tally[lab] += 1
            counts = (tally[1], tally[2], tally[3], tally[4])
            tally[lab] -= 1
            entries.append(
                PartialSolution(colours, bytes(labels), counts, score, layout, forgotten)
            )
        beam.entries = entries
        return beam

    def handle_forget(self, idx: int, child_beam: Beam) -> Beam:
        """Settle the forgotten vertex and deduplicate on the smaller bag.

        An ASSUMED_UNHAPPY vertex is promoted to HAPPY: all its neighbours
        are now committed and none conflicts, so it ends happy whatever
        happens above.  Solutions agreeing on bag colours and labels collapse
        to the best-scoring representative, keyed and ranked before any is
        built.  While N[bag] stays the same set a survivor is its child entry
        itself, relabelled if promoted.  A vertex that leaves N[bag] is
        settled: its colour goes to a forget record and its label, a
        function of the colouring, is dropped.  A coloured ring vertex next
        to one that leaves with another colour is marked FAR_UNHAPPY, so that
        a merge above knows of the conflict without the vertex that caused
        it.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        child = node.children[0]
        layout = self.node_layout(idx)
        child_layout = self.node_layout(child)
        held = child_layout.index
        p = held[vtx]
        # The colours and labels of the bag without the forgotten vertex.
        key_of = _key_getter([held[v] for v in sorted(node.bag)], len(child_layout.vertices))
        weights = self.weights
        # Key -> (rank, child entry, counts, promoted).
        groups: dict[tuple, tuple[tuple[int, int], PartialSolution, tuple, bool]] = {}
        for sol in child_beam:
            col = sol.colours
            lab = sol.labels
            promoted = lab[p] == ASSUMED_UNHAPPY
            if promoted:
                happy, unhappy, maybe, assumed = sol.counts
                counts = (happy + 1, unhappy, maybe, assumed - 1)
                rank = (evaluate(weights, counts), counts[0])
            else:
                counts = sol.counts
                rank = (sol.score, counts[0])
            key = key_of(col + lab)
            held_group = groups.get(key)
            # The happy count breaks score ties; equal weights for happy and
            # unhappy labels would otherwise let a worse completion shadow a
            # better one while the optimality flag stays set.
            if held_group is None or rank > held_group[0]:
                groups[key] = (rank, sol, counts, promoted)
        beam = Beam(self.config.width)
        beam.extend([(group[0][0], group) for group in groups.values()], self.rng)
        index = layout.index
        # The vertices that leave N[bag], with their positions in the child.
        gone = []
        if layout is not child_layout:
            gone = [(u, i) for i, u in enumerate(child_layout.vertices) if u not in index]
        # The forgotten vertex stays in the ring while a bag vertex is its
        # neighbour.
        at = index.get(vtx)
        entries = []
        if not gone:
            for (_, sol, counts, promoted), score in zip(beam.entries, beam.scores):
                if promoted:
                    labels = sol.labels[:at] + _BYTE[HAPPY] + sol.labels[at + 1 :]
                    sol = PartialSolution(
                        sol.colours, labels, counts, score, layout, sol.forgotten
                    )
                entries.append(sol)
            beam.entries = entries
            self._layouts[child] = None
            return beam
        drop = _dropper(child_layout, layout)
        # (its position in the child, here, and the leaving neighbour's in the
        # child) per ring vertex next to one that leaves.
        marks = [(held[v], index[v], i) for u, i in gone for v in self.adj[u] if v in index]
        check = self.config.check_invariants
        records = self._records
        for (_, sol, counts, promoted), score in zip(beam.entries, beam.scores):
            if check:
                self._check_settled(sol, [u for u, _ in gone], vtx if promoted else -1)
            colours = sol.colours
            labels = drop(sol.labels)
            if promoted and at is not None:
                labels = labels[:at] + _BYTE[HAPPY] + labels[at + 1 :]
            for i, j, k in marks:
                if colours[i] != colours[k]:
                    labels = labels[:j] + _BYTE[FAR_UNHAPPY] + labels[j + 1 :]
            # The colours of the vertices that leave are settled: record them.
            forgotten = sol.forgotten
            for u, i in gone:
                newest = len(records)
                records += (u, colours[i], forgotten)
                forgotten = newest
            entries.append(PartialSolution(drop(colours), labels, counts, score, layout, forgotten))
        beam.entries = entries
        self._layouts[child] = None
        return beam

    def handle_join(self, idx: int, first: Beam, second: Beam) -> Beam:
        """Pair up solutions of the two children.

        Exact bag matches merge losslessly; while no exact merge has happened
        yet, each unmatched outer solution is heuristically merged with its
        nearest inner solution into a backup list, returned only if the main
        list ends empty.  The returned list is the one offered to the node's
        beam, in one selection.

        Both children lay out the same vertices, each in its own order; the
        node takes its first child's layout.  Keys read each entry in its
        own layout and an exact merge reads the second child's side through
        a position map.  Only the nearest-partner search and the heuristic
        merges lay entries out on the other child's layout.
        """
        node = self.nice.nodes[idx]
        bag_set = node.bag
        bag = tuple(sorted(bag_set))
        layout = self.node_layout(idx)
        second_layout = self.node_layout(node.children[1])
        first_is_outer = _FIRST_IS_OUTER[self.config.join_loop_choice](self.rng, first, second)
        outer, inner = (first, second) if first_is_outer else (second, first)
        outer_layout, inner_layout = layout, second_layout
        if not first_is_outer:
            outer_layout, inner_layout = inner_layout, outer_layout
        # Match key: bag colours plus happiness designation.  UNHAPPY and
        # ASSUMED_UNHAPPY both designate an unhappy vertex and are
        # interchangeable across the two sides of a join; treating them as
        # distinct would miss combinations the exact recurrence includes.
        inner_key = _key_getter(
            [inner_layout.index[v] for v in bag], len(inner_layout.vertices)
        )
        outer_key = _key_getter(
            [outer_layout.index[v] for v in bag], len(outer_layout.vertices)
        )
        # Index the inner list best-first so each key maps to its best-scoring
        # partner; with every valid tuple present this realizes the exact
        # join's maximisation.  Happy count orders ties.
        inner_entries = sorted(inner.entries, key=entry_rank, reverse=True)
        partners: dict[tuple, PartialSolution] = {}
        for inner_sol in inner_entries:
            key = inner_key(inner_sol.colours + inner_sol.labels.translate(_DESIGNATION))
            partners.setdefault(key, inner_sol)
        # Entries of the second child laid out on the node, by identity.
        aligned: dict[int, PartialSolution] = {}
        exact: list[tuple[int, PartialSolution]] = []
        backup: list[tuple[int, PartialSolution]] = []
        weights: tuple[int, ...] | None = None
        candidates: list[PartialSolution] | None = None
        per_outer = self.config.join_distance_weighting not in BAG_ONLY_WEIGHTINGS
        for outer_sol in outer:
            key = outer_key(outer_sol.colours + outer_sol.labels.translate(_DESIGNATION))
            partner = partners.get(key)
            if partner is not None:
                # The union does not depend on the order of its sides; the
                # first child's side first gives it the node's layout.
                pair = (outer_sol, partner) if first_is_outer else (partner, outer_sol)
                merged = self.merge_exact(*pair, bag_set)
                exact.append((merged.score, merged))
            elif not exact:
                if weights is None or per_outer:
                    weights = self.distance_weights(bag, outer_sol)
                if candidates is None:
                    # The inner list laid out as the outer side, so that each
                    # distance reads both sides at the same positions.
                    candidates = list(map(_relayer(inner_layout, outer_layout), inner_entries))
                    second_on_node = _relayer(second_layout, layout)
                # The first nearest in best-first order.
                nearest = inner_entries[
                    min(
                        range(len(candidates)),
                        key=lambda t: self.tuple_distance(bag, outer_sol, candidates[t], weights),
                    )
                ]
                # Both on the node's layout, the outer side first.
                pair = [outer_sol, nearest]
                side = 1 if first_is_outer else 0
                made = aligned.get(id(pair[side]))
                if made is None:
                    made = aligned[id(pair[side])] = second_on_node(pair[side])
                pair[side] = made
                for merged in self.merge_heuristic(*pair, bag, bag_set):
                    backup.append((merged.score, merged))
        # One selection, of the list the node returns.
        beam = Beam(self.config.width)
        beam.extend(exact or backup, self.rng)
        for child in node.children:
            self._layouts[child] = None
        return beam

    # -- join helpers -----------------------------------------------------

    def _bag_at(self, layout: Layout, bag: tuple[int, ...]) -> tuple[int, ...]:
        """The positions of ``bag``'s vertices in ``layout``; the last ones
        asked for are kept."""
        held_layout, held_bag, at = self._bag_at_for
        if held_layout is not layout or held_bag is not bag:
            at = tuple(map(layout.index.__getitem__, bag))
            self._bag_at_for = (layout, bag, at)
        return at

    def tuple_distance(
        self,
        bag: tuple[int, ...],
        a: PartialSolution,
        b: PartialSolution,
        weights: tuple[int, ...] | None = None,
    ) -> int:
        """Weighted disagreement between two solutions on the bag, laid out
        on one layout.

        Each bag vertex contributes its weight once for a colour mismatch and
        once for a label mismatch.  Border-based weights are taken with
        respect to the first solution; ``weights``, when given, must be
        ``distance_weights(bag, a)``.
        """
        if weights is None:
            weights = self.distance_weights(bag, a)
        a_col, a_lab, b_col, b_lab = a.colours, a.labels, b.colours, b.labels
        held = self._bag_at_for
        at = held[2] if held[0] is a.layout and held[1] is bag else self._bag_at(a.layout, bag)
        total = 0
        for w, i in zip(weights, at):
            total += w * ((a_col[i] != b_col[i]) + (a_lab[i] != b_lab[i]))
        return total

    def distance_weights(self, bag: tuple[int, ...], outer: PartialSolution) -> tuple[int, ...]:
        """The weight of each bag vertex in ``tuple_distance``, in bag order.

        Only the border modes read ``outer``; the modes in
        ``BAG_ONLY_WEIGHTINGS`` give the same weights for every solution.
        """
        test, capped = _DISTANCE_RULES[self.config.join_distance_weighting]
        if test is None:
            return (1,) * len(bag)
        bag_set = frozenset(bag)
        index = outer.layout.index
        colours, labels = outer.colours, outer.labels
        weights = []
        for v in bag:
            count = 0
            for u in self.adj[v]:
                i = index[u]
                count += test(u, bag_set, colours[i], labels[i])
            weights.append(min(count, 1) if capped else count)
        return tuple(weights)

    def merge_exact(
        self, a: PartialSolution, b: PartialSolution, bag_set: frozenset[int]
    ) -> PartialSolution:
        """Union two solutions of a join's children that agree on the bag's
        colours and designations, laid out as ``a``.

        Colours and settled labels come from each side's own territory.  The
        territories meet only on the bag, and an uncoloured vertex with a
        label is a neighbour of the bag (the premise in the module
        docstring), so only N[bag] is looked at.  On the bag an UNHAPPY label
        on either side wins over ASSUMED_UNHAPPY: the conflict that justified
        it persists in the union.  On the ring a vertex coloured on one side
        keeps that side's colour and label; an uncoloured one has committed
        neighbours only in the bag, whose colours both sides share, so both
        sides already give it the label the union does.
        """
        held_a, held_b, held_bag, pairing = self._pairing_for
        if held_a is not a.layout or held_b is not b.layout or held_bag is not bag_set:
            pairing = self._pairing(a.layout, b.layout, bag_set)
            self._pairing_for = (a.layout, b.layout, bag_set, pairing)
        b_colours, b_labels = b.colours, b.labels
        colours = bytearray(a.colours)
        labels = bytearray(a.labels)
        # Label totals moved off a's labels, indexed by label.
        moved = [0, 0, 0, 0, 0, 0]
        bag_pairs, ring_pairs = pairing
        for i, j in bag_pairs:
            if b_labels[j] == UNHAPPY and labels[i] != UNHAPPY:
                moved[labels[i]] -= 1
                moved[UNHAPPY] += 1
                labels[i] = UNHAPPY
        for i, j in ring_pairs:
            c = b_colours[j]
            if c and not colours[i]:
                colours[i] = c
                new = b_labels[j]
                moved[labels[i]] -= 1
                moved[new] += 1
                labels[i] = new
        # a's counts, b's away from N[bag], and the moves on N[bag].
        ca, cb, count = a.counts, b.counts, b_labels.count
        counts = (
            ca[0] + cb[0] - count(HAPPY) + moved[HAPPY],
            ca[1] + cb[1] - count(UNHAPPY) - count(FAR_UNHAPPY)
            + moved[UNHAPPY] + moved[FAR_UNHAPPY],
            ca[2] + cb[2] - count(MAYBE_HAPPY) + moved[MAYBE_HAPPY],
            ca[3] + cb[3] - count(ASSUMED_UNHAPPY) + moved[ASSUMED_UNHAPPY],
        )
        w = self._label_weight
        score = w[1] * counts[0] + w[2] * counts[1] + w[3] * counts[2] + w[4] * counts[3]
        older_a, older_b = a.forgotten, b.forgotten
        if older_a < 0 or older_b < 0:
            forgotten = max(older_a, older_b)
        else:
            forgotten = self._record(-1, older_a, older_b)
        return PartialSolution(bytes(colours), bytes(labels), counts, score, a.layout, forgotten)

    @staticmethod
    def _pairing(
        a_layout: Layout, b_layout: Layout, bag_set: frozenset[int]
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """Per vertex of ``a_layout`` in ``bag_set``, then per other vertex:
        its position there and in ``b_layout``, which lists them all."""
        index = b_layout.index
        pairs = [(i, index[v]) for i, v in enumerate(a_layout.vertices)]
        bag_at = set(map(a_layout.index.__getitem__, bag_set))
        return (
            tuple(pair for pair in pairs if pair[0] in bag_at),
            tuple(pair for pair in pairs if pair[0] not in bag_at),
        )

    def merge_heuristic(
        self,
        outer: PartialSolution,
        inner: PartialSolution,
        bag: tuple[int, ...],
        bag_set: frozenset[int],
    ) -> list[PartialSolution]:
        """Force two non-matching solutions, laid out on one layout, together.

        ``copy_bag`` keeps one side's bag decisions wholesale and produces a
        solution per role assignment; ``greedy_match`` keeps whatever the two
        sides agree on and fills the rest, producing one solution.
        """
        if self.config.join_merge_method == "copy_bag":
            return [
                self._merge_copy(outer, inner, bag_set),
                self._merge_copy(inner, outer, bag_set),
            ]
        return [self._merge_greedy(outer, inner, bag, bag_set)]

    def _merge_copy(
        self, primary: PartialSolution, secondary: PartialSolution, bag_set: frozenset[int]
    ) -> PartialSolution:
        layout = primary.layout
        vertices, ring = layout.vertices, self._ring(layout, bag_set)
        colours = bytearray(primary.colours)
        labels = bytearray(primary.labels)
        s_colours = secondary.colours
        s_labels = secondary.labels
        # Secondary's territory off the bag moves over.  Away from N[bag] its
        # colours and labels stay as they are: every neighbour there moves
        # with it.
        moved = [r for r in ring if s_colours[r[0]] and not colours[r[0]]]
        for i, _, _, _ in moved:
            colours[i] = s_colours[i]
            labels[i] = s_labels[i]
        # The only possible clashes run between the bag (primary's decisions)
        # and the moved vertices; settle both endpoints of each clash.  A
        # clash away from N[bag] stays, marked FAR_UNHAPPY.
        for i, _, near, _ in moved:
            cv = colours[i]
            conflict = False
            for j, _ in near:
                cu = colours[j]
                if cu and cu != cv:
                    conflict = True
                    if vertices[j] in bag_set and labels[j] in (HAPPY, ASSUMED_UNHAPPY):
                        labels[j] = UNHAPPY
            if labels[i] != FAR_UNHAPPY:
                labels[i] = UNHAPPY if conflict else HAPPY
        for i, _, near, far in ring:
            if not colours[i]:
                labels[i] = self._ring_label(colours, near, far)
        counts = _union_counts(primary, secondary, labels)
        return PartialSolution(
            bytes(colours),
            bytes(labels),
            counts,
            evaluate(self.weights, counts),
            layout,
            self._joined(primary, secondary),
        )

    def _merge_greedy(
        self,
        a: PartialSolution,
        b: PartialSolution,
        bag: tuple[int, ...],
        bag_set: frozenset[int],
    ) -> PartialSolution:
        layout = a.layout
        size = len(layout.vertices)
        vertices, index, ring = layout.vertices, layout.index, self._ring(layout, bag_set)
        colours = bytearray(size)
        labels = bytearray(size)
        a_col, a_lab, b_col, b_lab = a.colours, a.labels, b.colours, b.labels
        for i, _, _, _ in ring:
            if a_col[i]:
                colours[i] = a_col[i]
                labels[i] = a_lab[i]
            elif b_col[i]:
                colours[i] = b_col[i]
                labels[i] = b_lab[i]
        # Bag positions in the order of ``bag``, which the adoption and the
        # RNG draws follow.
        order = [index[v] for v in bag]
        matched = set()
        for i in order:
            if a_col[i] == b_col[i]:
                colours[i] = a_col[i]
                matched.add(i)

        adj = self.adj
        base = self.base

        def consistent(i: int) -> bool:
            cv = colours[i]
            for u in adj[vertices[i]]:
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
                for u in adj[vertices[i]]:
                    j = index[u]
                    if u in bag_set and colours[j] == 0:
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
                colours[i] = a_col[i] if self.rng.random() < 0.5 else b_col[i]
        for i in order:
            if labels[i] == UNKNOWN:
                labels[i] = HAPPY if consistent(i) else UNHAPPY
        # Ring labels must reflect the possibly re-decided bag colours; away
        # from N[bag] nothing a vertex sees has changed, and a clash there
        # stays, marked FAR_UNHAPPY.
        for i, _, near, far in ring:
            cv = colours[i]
            if not cv:
                labels[i] = self._ring_label(colours, near, far)
            elif labels[i] != FAR_UNHAPPY:
                conflict = any(colours[j] not in (0, cv) for j, _ in near)
                labels[i] = UNHAPPY if conflict else HAPPY
        counts = _union_counts(a, b, labels)
        return PartialSolution(
            bytes(colours),
            bytes(labels),
            counts,
            evaluate(self.weights, counts),
            layout,
            self._joined(a, b),
        )

    # -- full solve ---------------------------------------------------------

    def beams(self) -> Iterator[tuple[int, Beam]]:
        """Run the DP bottom-up, yielding the surviving beam at every node."""
        # Looked up per call, so that handlers patched on the class are seen.
        handlers = {
            NodeKind.LEAF: self.handle_leaf,
            NodeKind.INTRODUCE: self.handle_introduce,
            NodeKind.FORGET: self.handle_forget,
            NodeKind.JOIN: self.handle_join,
        }
        if self.config.check_invariants:
            # The vertices of the bags below each node, walked alongside.
            covers = self.nice.walk(dict.fromkeys(NodeKind, self._covered))
        for idx, beam in self.nice.walk(handlers):
            if self.config.check_invariants:
                self._verify(idx, beam, next(covers)[1])
            if beam.at_capacity:
                self.all_below_capacity = False
            yield idx, beam

    def solve(self) -> SolveResult:
        start = time.perf_counter()
        for _, root_beam in self.beams():
            pass  # the root comes last
        assert len(root_beam)
        best = max(root_beam.entries, key=entry_rank)
        # The root's bag and ring are empty: every label is a settled one.
        colours, labels = self.arrays(best)
        full = FullColouring(self.k, tuple(colours))
        happy = count_happy(self.g, full)
        assert happy == best.counts[0], "root happy count must equal the HAPPY label count"
        assert full.extends(self.colouring)
        elapsed = (time.perf_counter() - start) * 1000.0
        return SolveResult(
            algorithm="heuristic-dp",
            colouring=full,
            happy=happy,
            provably_optimal=self.all_below_capacity,
            time_ms=elapsed,
            final_labels=tuple(labels),
        )

    # -- debug verification -------------------------------------------------

    def _covered(self, idx: int, *below: frozenset[int]) -> frozenset[int]:
        """The vertices of the bags in the subtree of node ``idx``."""
        return self.nice.nodes[idx].bag.union(*below)

    def _check_settled(self, sol: PartialSolution, gone: list[int], promoted: int) -> None:
        """Assert the premise the traceback rests on for each vertex a forget
        drops from ``sol``: its label is HAPPY exactly when no neighbour has
        another colour.  ``promoted`` is the forgotten vertex if its label
        turns from ASSUMED_UNHAPPY to HAPPY, else -1."""
        colours = self._colouring(sol)
        index = sol.layout.index
        for u in gone:
            stored = HAPPY if u == promoted else sol.labels[index[u]]
            clash = any(colours[w] != colours[u] for w in self.adj[u])
            assert stored == (UNHAPPY if clash else HAPPY) or (clash and stored == FAR_UNHAPPY), (
                f"vertex {u} leaves N[bag] labelled {stored}, its colouring says otherwise"
            )

    def _verify(self, idx: int, beam: Beam, covered: frozenset[int]) -> None:
        node = self.nice.nodes[idx]
        bag_set = node.bag
        layout = self.node_layout(idx)
        near_bag = {u for v in bag_set for u in self.adj[v]}
        base = self.base
        assert len(beam) <= self.config.width
        assert set(layout.vertices) == bag_set | near_bag, f"node {idx}: layout is not N[bag]"
        for sol in beam:
            assert isinstance(sol, PartialSolution), f"node {idx}: unbuilt entry"
            # Laid out on the node, or over every vertex when made from arrays.
            laid = sol.layout
            assert laid is self._everything or laid.vertices == layout.vertices, (
                f"node {idx}: foreign layout"
            )
            colours, labels = sol.colours, sol.labels
            assert type(colours) is type(labels) is bytes, f"node {idx}: entry without bytes"
            assert len(colours) == len(labels) == len(laid.vertices)
            full_colours, full_labels = self.arrays(sol)
            assert label_counts(full_labels) == sol.counts, f"node {idx}: counts differ from labels"
            assert evaluate(self.weights, sol.counts) == sol.score
            # FAR_UNHAPPY marks exactly the coloured ring vertices with a
            # conflicting neighbour outside the layout.
            for v, cv, lab in zip(laid.vertices, colours, labels):
                far_clash = cv and any(
                    full_colours[u] != cv for u in self.adj[v] if u not in laid.index
                )
                assert (lab == FAR_UNHAPPY) == bool(far_clash), (
                    f"node {idx}: vertex {v} labelled {lab}, conflict away from N[bag] {far_clash}"
                )
            coloured = {v for v in range(self.n) if full_colours[v]}
            assert coloured == covered, f"node {idx}: colour domain mismatch"
            for v in range(self.n):
                cv = full_colours[v]
                lab = full_labels[v]
                if cv:
                    assert base[v] in (0, cv), "partial solution must extend the input"
                    assert lab in (HAPPY, UNHAPPY, ASSUMED_UNHAPPY)
                    if lab == ASSUMED_UNHAPPY:
                        assert v in bag_set
                    if lab != UNHAPPY:
                        for u in self.adj[v]:
                            cu = full_colours[u] or base[u]
                            assert cu in (0, cv), (
                                f"{Label(lab).name} vertex {v} has a conflicting neighbour"
                            )
                else:
                    # The premise the joins rely on (module docstring).
                    assert lab == UNKNOWN or v in near_bag, (
                        f"node {idx}: uncoloured vertex {v} is labelled "
                        f"{Label(lab).name} but lies outside N(bag)"
                    )
                    assert lab == self._border_label(v, full_colours)
        # Entries in ascending score order, mirrored by ``scores``.
        assert [sol.score for sol in beam] == beam.scores == sorted(beam.scores)


def solve_heuristic(
    g: Graph,
    colouring: PartialColouring,
    nice: NiceTreeDecomposition,
    config: HeuristicConfig | None = None,
) -> SolveResult:
    """Run the beam DP; see HeuristicConfig for the tuned defaults."""
    return HeuristicSolver(g, colouring, nice, config).solve()
