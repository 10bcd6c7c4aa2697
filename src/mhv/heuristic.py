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
colours plus precoloured neighbours).  A ``greedy_match`` merge, which
re-decides bag colours, recomputes them from the merged state
(``_ring_label``).  The introduce handler instead applies a delta rule to
the introduced vertex's neighbours: colouring it can only turn an UNKNOWN
neighbour MAYBE_HAPPY or UNHAPPY, a MAYBE_HAPPY neighbour bound to another
colour UNHAPPY, and a coloured ASSUMED_UNHAPPY neighbour of another colour
UNHAPPY.  The rule rests on two
premises that ``check_invariants`` asserts: committed colours only grow and
extend the input, and every stored label equals ``_border_label``.  The
introduce works out what colouring the vertex changes once per colour and
distinct pattern of the lanes it reads: one XOR over the state and one
change of the counts and score.  It selects from the emissions by score
alone and builds only the survivors, each as its child's state XOR the
change.

An entry stores only what can still change: the colours and labels of its
node's closed neighbourhood N[bag] packed into one int, its four label counts
over all vertices, its score, and the number of its newest forget record.
Every vertex has one lane for the whole solve, ``k.bit_length()`` colour bits
and then 3 label bits, read from one lane table, ``HeuristicSolver._lanes``.
An entry does not say which vertices it stores; its node does
(``node_layout``), so every reader of an entry is given its node, and a lane
outside the node's N[bag] is zero.  The decomposition's lane pass
(``NiceTreeDecomposition.lanes``, with each vertex reaching its closed
neighbourhood) builds the table: each vertex gets the lowest lane free where
it enters N[bag], so vertices that share an N[bag] never share a lane;
``solve_exact`` runs the same pass over the bags alone.
So the vertices an introduce adds to N[bag] find their lanes zero, that is
uncoloured and UNKNOWN; a forget clears the lanes of those that leave; and a
join's two children hold its bag in the same lanes, so that its keys and
merges are masks of the state.  The solver keeps the records in one table of
ints: a (vertex, colour) per vertex that leaves N[bag], and a pair of older
records per join, so that entries built from one child entry share its
records.  Everything else is settled: a forgotten vertex's colour is fixed,
and once no bag vertex is its neighbour its label is a function of the
colouring, HAPPY exactly when no neighbour has another colour.  A forget
asserts that premise, under ``check_invariants``, for each vertex it drops.
A coloured ring vertex with a conflicting neighbour that has left N[bag] is
labelled FAR_UNHAPPY, which counts as UNHAPPY, so that a merge knows of that
conflict without the records.  ``solve`` rebuilds the colouring from the best
root entry's records, by an iterative walk, and derives the final labels
from it.

The solver owns the entry format.  Entries are made from full arrays on a
given node by ``HeuristicSolver.entry`` and read as full arrays, rebuilt the
same way, by ``HeuristicSolver.arrays``.  Only the node handlers and their
join helpers touch an entry's state.

The joins rest on one fact of table DP over nice decompositions: a forgotten
vertex has had all its neighbours introduced.  So at every node an uncoloured
vertex with a label other than UNKNOWN is a neighbour of the bag, and the
coloured territories of a join's two children meet only on the bag.  Two
solutions of the two children can therefore differ in what they say about a
vertex only inside N[bag], which both store.  A merge works on N[bag] alone,
in the packed states: it takes each side's territory by one lane mask and
visits only the lanes it decides or relabels.  Its counts are each side's
counts away from N[bag] plus those of the merged labels.  Per join node the
solver indexes the inner list by match key once and makes every exact merge
first.  Heuristic backups, each outer solution merged with its nearest inner
one, are built only when no outer solution has an exact partner, the one
case whose list the node returns; otherwise they would be thrown away.  Then
the join's bag fixes its table of the ring, N[bag] without the bag, and the
first outer solution its distance masks: every entry of one child colours
the same vertices, and an uncoloured neighbour of a bag vertex is never
UNKNOWN, so every distance weighting is fixed per side of the join.  The
exception is
``greedy_match``, whose merges draw from the RNG: it still builds, and drops,
the backups of the outer solutions before the first with an exact partner,
because the order of draws is part of the behaviour.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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
    PartialSolution,
    entry_rank,
    evaluate,
    label_counts,
)
from .errors import InputError
from .graph import Graph, PartialColouring, precoloured_evidence
from .result import SolveResult, solve_result
from .treedec import NiceTreeDecomposition, NodeKind, check_decomposes


# Join loop choice -> whether the first child's list is the outer loop.
_FIRST_IS_OUTER = {
    "random": lambda rng, first, second: rng.random() < 0.5,
    "larger_list": lambda rng, first, second: len(first) >= len(second),
    "smaller_list": lambda rng, first, second: len(first) <= len(second),
}


# Neighbour tests of the distance weightings, given whether the neighbour is
# in the bag and whether the outer solution colours it.  An uncoloured
# neighbour of a bag vertex is on the border: the bag vertex is coloured.
def _external(in_bag: bool, coloured: bool) -> bool:
    return not in_bag


def _in_border(in_bag: bool, coloured: bool) -> bool:
    return not coloured


def _nonborder_external(in_bag: bool, coloured: bool) -> bool:
    return not in_bag and coloured


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


# A join's ring table: per lane off the bag, its neighbours' lanes and evidence colour.
_Ring = dict[int, tuple[tuple[int, ...], int]]


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
        # A lane's colour bits and width; bit 0, the colour bits and the
        # label bits of every lane an entry can have (one per vertex at most).
        self._cb = self.k.bit_length()
        self._lw = self._cb + 3
        self._ones = ((1 << self._lw * max(self.n, 1)) - 1) // ((1 << self._lw) - 1)
        self._colour_field = self._ones * ((1 << self._cb) - 1)
        self._label_field = self._ones * 7
        self._lanes, self._moved = nice.lanes([(v, *a) for v, a in enumerate(self.adj)])
        # Forget records, three ints each: (vertex, colour, older record) per
        # vertex that leaves N[bag], and (-1, one side's newest, the other's)
        # per join; -1 ends a chain.
        self._records: list[int] = []
        self._evidence = precoloured_evidence(g, colouring)

    # -- entry format -----------------------------------------------------

    def entry(
        self,
        colours: Iterable[int],
        labels: Iterable[int],
        counts: Sequence[int] | None = None,
        *,
        node: int,
    ) -> PartialSolution:
        """A beam entry of node ``node`` made from full arrays, scored from
        its four label counts, which are counted from ``labels`` if not
        given; its coloured vertices outside the node's N[bag] are taken as
        forgotten."""
        colours, labels = bytes(colours), bytes(labels)
        counts_t = label_counts(labels) if counts is None else tuple(counts)
        layout = self.node_layout(node)
        forgotten = -1
        for v, c in enumerate(colours):
            if c and v not in layout:
                forgotten = self._record(v, c, forgotten)
        cb, lw = self._cb, self._lw
        state = 0
        for v, lane in layout.items():
            state |= (colours[v] | labels[v] << cb) << lw * lane
        return PartialSolution(state, counts_t, evaluate(self.weights, counts_t), forgotten)

    def arrays(self, sol: PartialSolution, idx: int) -> tuple[bytes, bytes]:
        """The colours and labels over all vertices of ``sol``, an entry of
        node ``idx``, rebuilt by traceback (see the module docstring)."""
        colours = self._colouring(sol, idx)
        labels = self._settled_labels(colours)
        for v, _, lab in self._read(sol, idx):
            labels[v] = UNHAPPY if lab == FAR_UNHAPPY else lab
        return bytes(colours), bytes(labels)

    def _read(self, sol: PartialSolution, idx: int) -> Iterator[tuple[int, int, int]]:
        """(vertex, colour, label) per vertex that ``sol``, an entry of node
        ``idx``, stores."""
        state, cb, lw = sol.state, self._cb, self._lw
        low = (1 << cb) - 1
        for v, lane in self.node_layout(idx).items():
            bits = state >> lw * lane
            yield v, bits & low, bits >> cb & 7

    def _state_counts(self, state: int) -> tuple[int, int, int, int]:
        """The four scored label counts over the lanes of ``state``, by
        popcount: HAPPY 001, UNHAPPY 010 and FAR_UNHAPPY 101, MAYBE_HAPPY 011
        and ASSUMED_UNHAPPY 100."""
        labels, ones = state >> self._cb, self._ones
        l0, l1, l2 = labels & ones, labels >> 1 & ones, labels >> 2 & ones
        return (
            (l0 & ~(l1 | l2)).bit_count(),
            (l1 & ~l0 | l0 & l2).bit_count(),
            (l0 & l1).bit_count(),
            (l2 & ~l0).bit_count(),
        )

    def _coloured(self, state: int) -> int:
        """Bit 0 of each lane of ``state`` whose colour is not 0."""
        colours = state & self._colour_field
        folded = colours
        for shift in range(1, self._cb):
            folded |= colours >> shift
        return folded & self._ones

    def node_layout(self, idx: int) -> dict[int, int]:
        """What node ``idx``'s entries store: each vertex of N[bag] mapped to
        its lane."""
        lanes, adj = self._lanes, self.adj
        return {u: lanes[u] for v in self.nice.nodes[idx].bag for u in (v, *adj[v])}

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

    def _colouring(self, sol: PartialSolution, idx: int) -> bytearray:
        """The colouring of the subtree below ``sol``, an entry of node
        ``idx``: its coloured vertices of N[bag] and its forget records, by
        an iterative walk."""
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
        for v, c, _ in self._read(sol, idx):
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

    def _ring(self, bag: frozenset[int]) -> _Ring:
        """The ring table of a join whose bag is ``bag``."""
        lanes, adj, evidence = self._lanes, self.adj, self._evidence
        stored = bag.union(*(adj[v] for v in bag))
        return {
            lanes[v]: (tuple(lanes[u] for u in adj[v] if u in stored), evidence[v])
            for v in stored - bag
        }

    def _ring_label(self, state: int, near: tuple[int, ...], evidence: int) -> int:
        """``_border_label`` of an uncoloured ring vertex, from the colours
        in ``state`` of its neighbours' lanes ``near`` in N[bag], which hold
        all its committed ones, and its evidence colour: UNKNOWN without a
        committed neighbour, MAYBE_HAPPY when the committed colours and the
        evidence are one colour, else UNHAPPY."""
        lw, low = self._lw, (1 << self._cb) - 1
        first = 0
        for j in near:
            c = state >> lw * j & low
            if c:
                if not first:
                    first = c
                elif c != first:
                    return UNHAPPY
        if not first:
            return UNKNOWN
        return MAYBE_HAPPY if evidence in (0, first) else UNHAPPY

    # -- node handlers ----------------------------------------------------

    def handle_leaf(self, idx: int) -> Beam:
        """The unique empty partial solution: nothing coloured, all UNKNOWN."""
        beam = Beam(self.config.width)
        beam.insert(PartialSolution(0, (0, 0, 0, 0), 0), self.rng)
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

        The handler runs in three phases.  All it reads of a child solution
        is one pattern, its state masked to the lanes of the vertex, of its
        neighbours that the child stores and of their anchors.  Once per
        distinct pattern it collects the neighbours whose label can change
        (the watch list) and works out, per colour, their new labels as one
        XOR over the state and one change of the four counts, for each label
        the vertex can take.  Neighbours the child does not store are UNKNOWN
        in every child solution, so their share is worked out once per node.
        The emissions are collected in order as (score, (child solution,
        change)) offers, the score ``evaluate`` of the changed counts.  Each
        list is then one ``Beam.extend`` selection, the backup list first:
        the ``width`` best offers survive, and only a cut through equal
        scores draws from the RNG.  Last, ``_materialise`` builds a finished
        entry for each offer that survives in the returned list.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        adj, evidence, lanes = self.adj, self._evidence, self._lanes
        child_bag = self.nice.nodes[node.children[0]].bag
        fresh = self._moved[idx]
        cb, lw = self._cb, self._lw
        low, full = (1 << cb) - 1, (1 << lw) - 1
        weight = self._label_weight

        # Every committed neighbour of an uncoloured vertex lies in the child
        # bag, and every child-bag vertex is coloured.  So a MAYBE_HAPPY vertex
        # without precoloured neighbours is bound to the colour of any one of
        # its child-bag neighbours: its anchor, here the shift of its lane.
        def anchor(x: int) -> int:
            for u in adj[x]:
                if u in child_bag:
                    return lw * lanes[u]
            return -1

        v_shift = lw * lanes[vtx]
        v_labels = v_shift + cb
        ev_v = evidence[vtx]
        v_anchor = -1 if ev_v or vtx in fresh else anchor(vtx)
        mask = full << v_shift
        if v_anchor >= 0:
            mask |= low << v_anchor
        # Stored neighbours as (lane shift, evidence, anchor shift or -1).
        stored = []
        fresh_watch = []
        for u in adj[vtx]:
            if u in fresh:
                fresh_watch.append((lw * lanes[u] + cb, evidence[u]))
                continue
            shift = lw * lanes[u]
            at = -1 if evidence[u] else anchor(u)
            stored.append((shift, evidence[u], at))
            mask |= full << shift
            if at >= 0:
                mask |= low << at
        allowed = (self.base[vtx],) if self.base[vtx] else self._colours
        # Per colour, the XOR, score change and label totals (indexed by
        # label) of the neighbours the child does not store.
        fresh_share = {}
        for i in allowed:
            xor, score, tally = 0, 0, [0, 0, 0, 0, 0]
            for ls, ev in fresh_watch:
                new = MAYBE_HAPPY if ev == i or not ev else UNHAPPY
                xor |= new << ls
                score += weight[new]
                tally[new] += 1
            fresh_share[i] = xor, score, tally

        def plan(pattern: int) -> tuple[list, bool]:
            """The emissions of a child solution with this pattern, in order,
            as (score change, (XOR, count change), whether a backup), and
            whether there is a backup among them."""
            # Neighbours whose label can change, as (label shift, label, label
            # on agreement, the colour agreed with or 0 for any); the coloured
            # HAPPY ones change only in the backup.
            watch = []
            happy = []
            for shift, ev, at in stored:
                bits = pattern >> shift
                cu = bits & low
                lu = bits >> cb & 7
                if cu:
                    if lu == HAPPY:
                        happy.append((shift + cb, lu, lu, cu))
                    elif lu == ASSUMED_UNHAPPY:
                        watch.append((shift + cb, lu, lu, cu))
                elif lu == UNKNOWN:
                    watch.append((shift + cb, lu, MAYBE_HAPPY, ev))
                elif lu == MAYBE_HAPPY:
                    watch.append((shift + cb, lu, lu, ev or pattern >> at & low))
            v_label = pattern >> v_labels & 7
            # The colour a MAYBE_HAPPY vertex is bound to; 0 matches none.
            bound = (ev_v or pattern >> v_anchor & low) if v_label == MAYBE_HAPPY else 0
            happy_colours = {entry[3] for entry in happy}
            emissions, backups = [], False
            for i in allowed:
                changing, backup = watch, False
                if v_label == UNKNOWN:
                    labs = (UNHAPPY,) if ev_v not in (0, i) else (HAPPY, ASSUMED_UNHAPPY)
                elif happy_colours and (len(happy_colours) > 1 or i not in happy_colours):
                    # The backup: the happy neighbours of another colour turn
                    # UNHAPPY.
                    changing, labs, backup = watch + happy, (UNHAPPY,), True
                    backups = True
                elif bound == i:
                    labs = (HAPPY, ASSUMED_UNHAPPY)
                else:
                    labs = (UNHAPPY,)
                xor, score, tally = fresh_share[i]
                tally = tally.copy()
                for ls, old, agreed, agrees_with in changing:
                    new = agreed if agrees_with == i or not agrees_with else UNHAPPY
                    if new != old:
                        xor ^= (old ^ new) << ls
                        score += weight[new] - weight[old]
                        tally[old] -= 1
                        tally[new] += 1
                # The vertex's lane: its colour in, its old label out.
                tally[v_label] -= 1
                score -= weight[v_label]
                xor ^= (i | v_label << cb) << v_shift
                for lab in labs:
                    tally[lab] += 1
                    change = (xor ^ lab << v_labels, (tally[1], tally[2], tally[3], tally[4]))
                    emissions.append((score + weight[lab], change, backup))
                    tally[lab] -= 1
            return emissions, backups

        plans: dict[int, tuple[list, bool]] = {}
        main_offers: list[tuple[int, tuple]] = []
        backup_offers: list[tuple[int, tuple]] = []
        for sol in child_beam:
            pattern = sol.state & mask
            made = plans.get(pattern)
            if made is None:
                made = plans[pattern] = plan(pattern)
            emissions, backups = made
            score = sol.score
            if not backups:
                main_offers += [(score + d, (sol, change)) for d, change, _ in emissions]
                continue
            for d, change, backup in emissions:
                if not backup:
                    main_offers.append((score + d, (sol, change)))
                elif not main_offers:
                    backup_offers.append((score + d, (sol, change)))
        backup = Beam(self.config.width)
        if backup_offers:
            backup.extend(backup_offers, self.rng)
        main = Beam(self.config.width)
        main.extend(main_offers, self.rng)
        return self._materialise(main if main_offers else backup)

    def _materialise(self, beam: Beam) -> Beam:
        """Replace each (child solution, change) offer in an introduce's
        result by its finished entry: the child's state XOR the change's, its
        counts plus the change's.  A vertex new to N[bag] has a zero lane in
        the child, so no child state needs padding."""
        entries = []
        for (sol, (xor, change)), score in zip(beam.entries, beam.scores):
            c = sol.counts
            counts = (c[0] + change[0], c[1] + change[1], c[2] + change[2], c[3] + change[3])
            entries.append(PartialSolution(sol.state ^ xor, counts, score, sol.forgotten))
        beam.entries = entries
        return beam

    def handle_forget(self, idx: int, child_beam: Beam) -> Beam:
        """Settle the forgotten vertex and deduplicate on the smaller bag.

        An ASSUMED_UNHAPPY vertex is promoted to HAPPY: all its neighbours
        are now committed and none conflicts, so it ends happy whatever
        happens above.  Solutions agreeing on bag colours and labels, their
        state masked to the bag's lanes, collapse to the best-scoring
        representative, keyed and ranked before any is built.  While N[bag]
        stays the same set a survivor is its child entry itself, relabelled
        if promoted.  A vertex that leaves N[bag] is settled: its colour goes
        to a forget record and its lane, whose label is a function of the
        colouring, is cleared.  A coloured ring vertex next to one that
        leaves with another colour is marked FAR_UNHAPPY, so that a merge
        above knows of the conflict without the vertex that caused it.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        lanes, cb, lw = self._lanes, self._cb, self._lw
        low, full = (1 << cb) - 1, (1 << lw) - 1
        # The lanes of the bag without the forgotten vertex.
        key_mask = 0
        for v in node.bag:
            key_mask |= full << lw * lanes[v]
        v_label = lw * lanes[vtx] + cb
        weights = self.weights
        # Key -> (rank, child entry, counts, promoted).
        groups: dict[int, tuple[tuple[int, int], PartialSolution, tuple, bool]] = {}
        for sol in child_beam:
            state = sol.state
            promoted = state >> v_label & 7 == ASSUMED_UNHAPPY
            if promoted:
                happy, unhappy, maybe, assumed = sol.counts
                counts = (happy + 1, unhappy, maybe, assumed - 1)
                rank = (evaluate(weights, counts), counts[0])
            else:
                counts = sol.counts
                rank = (sol.score, counts[0])
            key = state & key_mask
            held_group = groups.get(key)
            # The happy count breaks score ties; equal weights for happy and
            # unhappy labels would otherwise let a worse completion shadow a
            # better one while the optimality flag stays set.
            if held_group is None or rank > held_group[0]:
                groups[key] = (rank, sol, counts, promoted)
        beam = Beam(self.config.width)
        beam.extend([(group[0][0], group) for group in groups.values()], self.rng)
        promote = (ASSUMED_UNHAPPY ^ HAPPY) << v_label
        # The vertices that leave N[bag].  The forgotten vertex stays in the
        # ring while a bag vertex is its neighbour.
        gone = self._moved[idx]
        entries = []
        if not gone:
            for (_, sol, counts, promoted), score in zip(beam.entries, beam.scores):
                if promoted:
                    sol = PartialSolution(sol.state ^ promote, counts, score, sol.forgotten)
                entries.append(sol)
            beam.entries = entries
            return beam
        if vtx in gone:
            promote = 0
        kept = ~sum(full << lw * lanes[u] for u in gone)
        leaving = [(u, lw * lanes[u]) for u in gone]
        # (the label shift of a ring vertex next to one that leaves, the
        # colour shifts of both).
        bag, adj = node.bag, self.adj
        marks = [
            (lw * lanes[v] + cb, lw * lanes[v], at)
            for u, at in leaving
            for v in adj[u]
            if v in bag or not bag.isdisjoint(adj[v])
        ]
        check = self.config.check_invariants
        records = self._records
        for (_, sol, counts, promoted), score in zip(beam.entries, beam.scores):
            if check:
                self._check_settled(sol, node.children[0], list(gone), vtx if promoted else -1)
            state = sol.state
            settled = state & kept
            if promoted:
                settled ^= promote
            for label_at, at, other in marks:
                if state >> at & low != state >> other & low:
                    settled = settled & ~(7 << label_at) | FAR_UNHAPPY << label_at
            # The colours of the vertices that leave are settled: record them.
            forgotten = sol.forgotten
            for u, at in leaving:
                newest = len(records)
                records += (u, state >> at & low, forgotten)
                forgotten = newest
            entries.append(PartialSolution(settled, counts, score, forgotten))
        beam.entries = entries
        return beam

    def handle_join(self, idx: int, first: Beam, second: Beam) -> Beam:
        """Pair up solutions of the two children.

        Exact bag matches merge losslessly, all of them first.  Only if none
        exists is each outer solution heuristically merged with its nearest
        inner solution into a backup list, which the node then returns: a
        backup built beside an exact merge would be thrown away.  But
        ``greedy_match`` merges draw from the RNG, so that merge method still
        builds the backups of the outer solutions before the first with an
        exact partner, for their draws, and drops them.  The returned list is
        the one offered to the node's beam, in one selection.

        Both children store the node's N[bag], in the same lanes, so an
        entry of either is an entry of the node.  ``merge_exact`` gives the
        same union in either order, so the outer solution goes first.  The
        first outer solution without a partner fixes the distance masks, and
        the bag the ring table (module docstring).
        """
        node = self.nice.nodes[idx]
        bag = tuple(sorted(node.bag))
        first_is_outer = _FIRST_IS_OUTER[self.config.join_loop_choice](self.rng, first, second)
        outer, inner = (first, second) if first_is_outer else (second, first)
        # Match key: bag colours plus happiness designation, label bit 0 of a
        # bag lane (whose label is HAPPY, UNHAPPY or ASSUMED_UNHAPPY).  UNHAPPY
        # and ASSUMED_UNHAPPY both designate an unhappy vertex and are
        # interchangeable across the two sides of a join; treating them as
        # distinct would miss combinations the exact recurrence includes.
        cb, lw, lanes = self._cb, self._lw, self._lanes
        key_lane = (1 << cb) - 1 | 1 << cb
        key_mask = 0
        for v in bag:
            key_mask |= key_lane << lw * lanes[v]
        # Index the inner list best-first so each key maps to its best-scoring
        # partner; with every valid tuple present this realizes the exact
        # join's maximisation.  Happy count orders ties.
        inner_entries = sorted(inner.entries, key=entry_rank, reverse=True)
        partners: dict[int, PartialSolution] = {}
        for inner_sol in inner_entries:
            partners.setdefault(inner_sol.state & key_mask, inner_sol)
        exact: list[tuple[int, PartialSolution]] = []
        # The outer solutions before the first with an exact partner: all of
        # them when none has one.
        unmatched: list[PartialSolution] = []
        for outer_sol in outer:
            partner = partners.get(outer_sol.state & key_mask)
            if partner is not None:
                merged = self.merge_exact(outer_sol, partner)
                exact.append((merged.score, merged))
            elif not exact:
                unmatched.append(outer_sol)
        backup: list[tuple[int, PartialSolution]] = []
        # ``greedy_match`` backups are made even beside an exact merge, for
        # their RNG draws.
        if unmatched and (not exact or self.config.join_merge_method == "greedy_match"):
            masks = self.distance_masks(bag, unmatched[0])
            ring = self._ring(node.bag)
            for outer_sol in unmatched:
                # The first nearest in best-first order.
                nearest = min(inner_entries, key=lambda sol: self.tuple_distance(outer_sol, sol, masks))
                for merged in self.merge_heuristic(outer_sol, nearest, bag, ring):
                    backup.append((merged.score, merged))
        # One selection, of the list the node returns.
        beam = Beam(self.config.width)
        beam.extend(exact or backup, self.rng)
        return beam

    # -- join helpers -----------------------------------------------------

    def tuple_distance(
        self, a: PartialSolution, b: PartialSolution, masks: tuple[tuple[int, int], ...]
    ) -> int:
        """Weighted disagreement between two solutions on the bag, whose
        lanes they share; ``masks`` is ``distance_masks(bag, a)``.

        Each bag vertex contributes its weight once for a colour mismatch and
        once for a label mismatch.  The states' XOR is folded to a
        colour-differs bit (bit 0) and a label-differs bit (bit 1) per lane,
        and each distinct weight counts its lanes' bits by popcount.
        """
        diff = a.state ^ b.state
        labels = diff >> self._cb & self._label_field
        differs = self._coloured(diff) | ((labels | labels >> 1 | labels >> 2) & self._ones) << 1
        total = 0
        for w, mask in masks:
            total += w * (differs & mask).bit_count()
        return total

    def distance_masks(
        self, bag: tuple[int, ...], outer: PartialSolution
    ) -> tuple[tuple[int, int], ...]:
        """Per distinct non-zero weight of ``distance_weights(bag, outer)``,
        the weight and bits 0 and 1 of its bag vertices' lanes."""
        by_weight: dict[int, int] = {}
        lanes = self._lanes
        for w, v in zip(self.distance_weights(bag, outer), bag):
            if w:
                by_weight[w] = by_weight.get(w, 0) | 3 << self._lw * lanes[v]
        return tuple(by_weight.items())

    def distance_weights(self, bag: tuple[int, ...], outer: PartialSolution) -> tuple[int, ...]:
        """The weight of each bag vertex in ``tuple_distance``, in bag order.

        A neighbour's test reads only whether it is in the bag and whether
        ``outer`` colours it, so all entries of one join child give the same
        weights.
        """
        test, capped = _DISTANCE_RULES[self.config.join_distance_weighting]
        if test is None:
            return (1,) * len(bag)
        bag_set = frozenset(bag)
        lanes = self._lanes
        coloured, lw = self._coloured(outer.state), self._lw
        weights = []
        for v in bag:
            count = 0
            for u in self.adj[v]:
                count += test(u in bag_set, bool(coloured >> lw * lanes[u] & 1))
            weights.append(min(count, 1) if capped else count)
        return tuple(weights)

    def merge_exact(self, a: PartialSolution, b: PartialSolution) -> PartialSolution:
        """Union two solutions of a join's children that agree on the bag's
        colours and designations.

        Colours and settled labels come from each side's own territory.  The
        territories meet only on the bag, and an uncoloured vertex with a
        label is a neighbour of the bag (the premise in the module
        docstring), so only N[bag] is looked at, and the bag's lanes are the
        ones both sides colour.  There an UNHAPPY label on b's side wins over
        ASSUMED_UNHAPPY: the conflict that justified it persists in the
        union.  On the ring a vertex coloured only on b's side takes b's lane;
        an uncoloured one has committed neighbours only in the bag, whose
        colours both sides share, so both sides already give it the label the
        union does.  The counts are a's plus b's, less b's on the lanes it
        keeps and a's on the lanes it gives up, popcounted.
        """
        sa, sb = a.state, b.state
        a_coloured, b_coloured = self._coloured(sa), self._coloured(sb)
        cb = self._cb
        taken = (sa ^ sb) & (b_coloured & ~a_coloured) * ((1 << self._lw) - 1)
        # Bag lanes whose label bit 1 (UNHAPPY) only b has: a's 100 to 010.
        fix = (sb & ~sa) >> cb + 1 & a_coloured & b_coloured
        state = sa ^ taken ^ (fix * 6) << cb
        dropped = self._state_counts(sb ^ taken)
        fixed = fix.bit_count()
        ca, cb_ = a.counts, b.counts
        counts = (
            ca[0] + cb_[0] - dropped[0],
            ca[1] + cb_[1] - dropped[1] + fixed,
            ca[2] + cb_[2] - dropped[2],
            ca[3] + cb_[3] - dropped[3] - fixed,
        )
        w = self._label_weight
        score = w[1] * counts[0] + w[2] * counts[1] + w[3] * counts[2] + w[4] * counts[3]
        return PartialSolution(state, counts, score, self._joined(a, b))

    def merge_heuristic(
        self,
        outer: PartialSolution,
        inner: PartialSolution,
        bag: tuple[int, ...],
        ring: _Ring,
    ) -> list[PartialSolution]:
        """Force two non-matching solutions of a join's children together;
        ``ring`` is the join's ring table.

        ``copy_bag`` keeps one side's bag decisions wholesale and produces a
        solution per role assignment; ``greedy_match`` keeps whatever the two
        sides agree on and fills the rest, producing one solution.
        """
        if self.config.join_merge_method == "copy_bag":
            return [
                self._merge_copy(outer, inner, ring),
                self._merge_copy(inner, outer, ring),
            ]
        return [self._merge_greedy(outer, inner, bag, ring)]

    def _merged(self, state: int, a: PartialSolution, b: PartialSolution) -> PartialSolution:
        """The entry of a join's heuristic merge of ``a`` and ``b`` whose
        N[bag] is ``state``.  Its counts are each side's counts
        away from N[bag], where the two sides never overlap, plus those of
        ``state``."""
        ta, tb, tn = self._state_counts(a.state), self._state_counts(b.state), self._state_counts(state)
        ca, cb = a.counts, b.counts
        counts = (
            ca[0] + cb[0] - ta[0] - tb[0] + tn[0],
            ca[1] + cb[1] - ta[1] - tb[1] + tn[1],
            ca[2] + cb[2] - ta[2] - tb[2] + tn[2],
            ca[3] + cb[3] - ta[3] - tb[3] + tn[3],
        )
        return PartialSolution(state, counts, evaluate(self.weights, counts), self._joined(a, b))

    def _merge_copy(self, primary: PartialSolution, secondary: PartialSolution, ring: _Ring) -> PartialSolution:
        cb, lw = self._cb, self._lw
        low = (1 << cb) - 1
        p, s = primary.state, secondary.state
        # Secondary's territory off the bag, the lanes only it colours, moves
        # over.  Away from N[bag] its colours and labels stay as they are:
        # every neighbour there moves with it.  An uncoloured ring vertex has
        # committed neighbours only in the bag, whose colours are primary's,
        # so its label stands.
        moved = self._coloured(s) & ~self._coloured(p)
        state = p ^ (p ^ s) & moved * ((1 << lw) - 1)
        # The only possible clashes run between the bag (primary's decisions)
        # and the moved vertices; settle both endpoints of each clash.  A
        # clash away from N[bag] stays, marked FAR_UNHAPPY.
        while moved:
            at = (moved & -moved).bit_length() - 1
            moved &= moved - 1
            cv = state >> at & low
            conflict = False
            for j in ring[at // lw][0]:
                cu = state >> lw * j & low
                if cu and cu != cv:
                    conflict = True
                    label = state >> lw * j + cb & 7
                    # A lane of N[bag] off the ring is a bag lane.
                    if j not in ring and label in (HAPPY, ASSUMED_UNHAPPY):
                        state ^= (label ^ UNHAPPY) << lw * j + cb
            label = state >> at + cb & 7
            if label != FAR_UNHAPPY:
                state ^= (label ^ (UNHAPPY if conflict else HAPPY)) << at + cb
        return self._merged(state, primary, secondary)

    def _merge_greedy(
        self, a: PartialSolution, b: PartialSolution, bag: tuple[int, ...], ring: _Ring
    ) -> PartialSolution:
        cb, lw = self._cb, self._lw
        low, full = (1 << cb) - 1, (1 << lw) - 1
        sa, sb, lanes = a.state, b.state, self._lanes
        adj, base = self.adj, self.base
        # Bag lanes, as (shift, vertex), in the order of ``bag``, which the
        # adoption and the RNG draws follow.
        order = [(lw * lanes[v], v) for v in bag]
        bag_set = set(bag)
        bag_lanes = sum(full << at for at, _ in order)
        # The ring lanes as ``_merge_copy`` takes them; the bag lanes cleared
        # but for the colours both sides give.
        moved = self._coloured(sb) & ~self._coloured(sa)
        agreed = bag_lanes & ~(self._coloured(sa ^ sb) * full)
        state = (sa ^ (sa ^ sb) & moved * full) & ~bag_lanes | sa & agreed & self._colour_field

        def consistent(at: int, v: int) -> bool:
            cv = state >> at & low
            for u in adj[v]:
                cu = state >> lw * lanes[u] & low
                if cu:
                    if cu != cv:
                        return False
                elif base[u] and base[u] != cv:
                    return False
            return True

        changed = True
        while changed:
            changed = False
            for at, v in order:
                cv = state >> at & low
                if not cv or state >> at + cb & 7:
                    continue
                offered = (sa >> at + cb & 7, sb >> at + cb & 7) if agreed >> at & 1 else (HAPPY,)
                if HAPPY in offered and consistent(at, v):
                    label = HAPPY
                elif ASSUMED_UNHAPPY in offered and consistent(at, v):
                    label = ASSUMED_UNHAPPY
                else:
                    label = UNHAPPY
                state |= label << at + cb
                if label != UNHAPPY:
                    # Its uncoloured bag neighbours adopt its colour.
                    for u in adj[v]:
                        if u in bag_set:
                            s = lw * lanes[u]
                            if not state >> s & low:
                                state |= cv << s
                changed = True
        # Vertices in components of the bag untouched by any label choice.
        for at, _ in order:
            if not state >> at & low:
                state |= ((sa if self.rng.random() < 0.5 else sb) >> at & low) << at
        for at, v in order:
            if not state >> at + cb & 7:
                state |= (HAPPY if consistent(at, v) else UNHAPPY) << at + cb
        # Ring labels must reflect the re-decided bag colours.  A ring lane
        # comes from one side (b where it moved, else a), and its neighbours
        # off the bag are coloured on that side alone, if at all, since
        # vertices forgotten below different children are never adjacent.
        # So its label can change only next to a bag lane whose merged
        # colour differs from that side's.  Away from N[bag] nothing a vertex
        # sees has changed, and a clash there stays, marked FAR_UNHAPPY.
        off_a = self._coloured(state ^ sa) & bag_lanes
        off_b = self._coloured(state ^ sb) & bag_lanes
        stale = set()
        for at, v in order:
            if (off_a | off_b) >> at & 1:
                for u in adj[v]:
                    lane = lanes[u]
                    if lane in ring and (off_b if moved >> lw * lane & 1 else off_a) >> at & 1:
                        stale.add(lane)
        for lane in stale:
            near, evidence = ring[lane]
            at = lw * lane
            cv = state >> at & low
            old = state >> at + cb & 7
            if not cv:
                label = self._ring_label(state, near, evidence)
            elif old == FAR_UNHAPPY:
                continue
            else:
                conflict = any(state >> lw * j & low not in (0, cv) for j in near)
                label = UNHAPPY if conflict else HAPPY
            state ^= (old ^ label) << at + cb
        return self._merged(state, a, b)

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
        for root, root_beam in self.beams():
            pass  # the root comes last
        best = max(root_beam.entries, key=entry_rank)
        # The root's bag and ring are empty: every label is a settled one.
        colours, labels = self.arrays(best, root)
        return solve_result(
            "heuristic-dp", self.g, self.colouring, colours, start, self.all_below_capacity,
            happy=best.counts[0], final_labels=tuple(labels),
        )

    # -- debug verification -------------------------------------------------

    def _covered(self, idx: int, *below: frozenset[int]) -> frozenset[int]:
        """The vertices of the bags in the subtree of node ``idx``."""
        return self.nice.nodes[idx].bag.union(*below)

    def _check_settled(self, sol: PartialSolution, child: int, gone: list[int], promoted: int) -> None:
        """Assert the premise the traceback rests on for each vertex a forget
        drops from ``sol``, an entry of node ``child``: its label is HAPPY
        exactly when no neighbour has another colour.  ``promoted`` is the
        forgotten vertex if its label turns from ASSUMED_UNHAPPY to HAPPY,
        else -1."""
        colours = self._colouring(sol, child)
        for u in gone:
            stored = HAPPY if u == promoted else sol.state >> self._lw * self._lanes[u] + self._cb & 7
            clash = any(colours[w] != colours[u] for w in self.adj[u])
            assert stored == (UNHAPPY if clash else HAPPY) or (clash and stored == FAR_UNHAPPY), (
                f"vertex {u} leaves N[bag] labelled {stored}, its colouring says otherwise"
            )

    def _verify(self, idx: int, beam: Beam, covered: frozenset[int]) -> None:
        node = self.nice.nodes[idx]
        bag_set = node.bag
        layout = self.node_layout(idx)
        base = self.base
        assert len(beam) <= self.config.width
        lanes = sum(((1 << self._lw) - 1) << self._lw * lane for lane in layout.values())
        for sol in beam:
            assert isinstance(sol, PartialSolution), f"node {idx}: unbuilt entry"
            assert type(sol.state) is int and not sol.state & ~lanes, f"node {idx}: stray lanes"
            full_colours, full_labels = self.arrays(sol, idx)
            assert label_counts(full_labels) == sol.counts, f"node {idx}: counts differ from labels"
            assert evaluate(self.weights, sol.counts) == sol.score
            # FAR_UNHAPPY marks exactly the coloured ring vertices with a
            # conflicting neighbour outside N[bag].
            for v, cv, lab in self._read(sol, idx):
                far_clash = cv and any(
                    full_colours[u] != cv for u in self.adj[v] if u not in layout
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
                    # The premise the joins rely on (module docstring): off
                    # N[bag], where no label is stored, no neighbour is coloured.
                    border = self._border_label(v, full_colours)
                    assert border == UNKNOWN or v in layout, (
                        f"node {idx}: uncoloured vertex {v} would be labelled "
                        f"{Label(border).name} but lies outside N(bag)"
                    )
                    assert lab == border
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
