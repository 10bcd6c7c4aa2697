"""Beam-bounded dynamic program over a nice tree decomposition.

Partial solutions are built bottom-up.  At every decomposition node a list of
at most ``width`` candidates survives, ranked by a weighted count of vertex
labels; with a large enough width the procedure degenerates into the exact
bounded-treewidth algorithm and the solver reports the result as provably
optimal.  Each node picks its survivors in one selection (``Beam.extend``):
its candidates are sorted stably by score and the ``width`` best are kept.
Only when the cut splits a run of equal scores does the RNG pick, by one
``rng.sample``, which entries of that run stay.

Each partial solution stores the colouring of the processed subgraph and a
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

The solver owns the entry format.  Entries are made from full arrays by
``HeuristicSolver.entry`` and read by ``HeuristicSolver.arrays``; only the node
handlers and their join helpers touch an entry's arrays directly.

The joins rest on one fact of table DP over nice decompositions: a forgotten
vertex has had all its neighbours introduced.  So at every node an uncoloured
vertex with a label other than UNKNOWN is a neighbour of the bag, and the
coloured territories of a join's two children meet only on the bag
(``check_invariants`` asserts the first).  Two solutions of the two children
can therefore differ in what they say about a vertex only inside the closed
neighbourhood N[bag].  Per join node the solver indexes the inner list by
match key once and computes the bag-only distance weights at most once;
N(bag) is computed once per distinct bag.  Each exact merge is then a
whole-array OR plus Python-level work on N[bag] alone.  Distances are
computed only for an outer solution without an exact partner while the main
list is empty, the one case that uses the nearest partner.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from .errors import InputError
from .graph import FullColouring, Graph, PartialColouring, count_happy
from .result import SolveResult
from .treedec import NiceTreeDecomposition, NodeKind, check_decomposes


class Label(IntEnum):
    UNKNOWN = 0
    HAPPY = 1
    UNHAPPY = 2
    MAYBE_HAPPY = 3
    ASSUMED_UNHAPPY = 4


UNKNOWN = Label.UNKNOWN
HAPPY = Label.HAPPY
UNHAPPY = Label.UNHAPPY
MAYBE_HAPPY = Label.MAYBE_HAPPY
ASSUMED_UNHAPPY = Label.ASSUMED_UNHAPPY


@dataclass(frozen=True)
class LabelWeights:
    """Score weights per label; the UNKNOWN weight is fixed at zero.

    Defaults are the tuned values.  The domains and orderings mirror the
    tuning search space: happy-side weights cannot drop below unhappy-side
    ones.
    """

    happy: int = 15
    unhappy: int = -9
    maybe_happy: int = 4
    assumed_unhappy: int = -8

    def __post_init__(self) -> None:
        if not -5 <= self.happy <= 20 or not -5 <= self.maybe_happy <= 20:
            raise InputError("happy and maybe_happy weights must lie in [-5, 20]")
        if not -10 <= self.unhappy <= 10 or not -10 <= self.assumed_unhappy <= 10:
            raise InputError("unhappy and assumed_unhappy weights must lie in [-10, 10]")
        if self.happy < self.maybe_happy or self.happy < self.assumed_unhappy:
            raise InputError("happy weight must dominate both potential labels")
        if self.unhappy > self.maybe_happy or self.unhappy > self.assumed_unhappy:
            raise InputError("unhappy weight must not exceed either potential label")


# Join loop choice -> whether the first child's list is the outer loop.
_FIRST_IS_OUTER = {
    "random": lambda rng, first, second: rng.random() < 0.5,
    "larger_list": lambda rng, first, second: len(first) >= len(second),
    "smaller_list": lambda rng, first, second: len(first) <= len(second),
}


def _external(u: int, bag_set: set[int], sol: PartialSolution) -> bool:
    return u not in bag_set


def _in_border(u: int, bag_set: set[int], sol: PartialSolution) -> bool:
    return sol.colours[u] == 0 and sol.labels[u] != UNKNOWN


def _nonborder_external(u: int, bag_set: set[int], sol: PartialSolution) -> bool:
    return u not in bag_set and not _in_border(u, bag_set, sol)


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


class PartialSolution:
    """One beam entry.

    ``colours`` and ``labels`` are byte strings over all vertices (0 means
    uncoloured / UNKNOWN); ``counts`` holds the totals for the four scored
    labels in enum order.  At the node that holds it, the coloured vertices
    are exactly those of the bags below, and every uncoloured vertex whose
    label is not UNKNOWN is a neighbour of the node's bag.
    """

    __slots__ = ("colours", "labels", "counts", "score")

    def __init__(
        self,
        colours: bytes,
        labels: bytes,
        counts: tuple[int, int, int, int],
        score: int,
    ) -> None:
        self.colours = colours
        self.labels = labels
        self.counts = counts
        self.score = score

    def __repr__(self) -> str:
        return f"PartialSolution(score={self.score}, counts={self.counts})"


def _rank(sol: PartialSolution) -> tuple[int, int]:
    """The order of entries by score, the happy count breaking ties."""
    return sol.score, sol.counts[0]


# The score of a (score, entry) offer.
_score_of = itemgetter(0)


def evaluate(weights: LabelWeights, counts: tuple[int, int, int, int]) -> int:
    """Weighted label-count score of a partial solution."""
    return (
        weights.happy * counts[0]
        + weights.unhappy * counts[1]
        + weights.maybe_happy * counts[2]
        + weights.assumed_unhappy * counts[3]
    )


class Beam:
    """Score-sorted list capped at ``capacity`` entries.

    The one rule lives in ``extend``, a selection: the held entries and the
    offers, held first, are sorted stably by score and the ``capacity`` best
    are kept, in ascending score order with equal scores in that pool order.
    Only when the cut splits a run of equal scores is there an RNG draw: one
    ``rng.sample`` picks which entries of the run stay.  ``scores`` mirrors
    ``entries``.  Entries are ``PartialSolution``s, except inside an
    introduce, whose beams hold (group, label) pairs until it materialises.
    """

    __slots__ = ("capacity", "entries", "scores")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise InputError("beam capacity must be at least 1")
        self.capacity = capacity
        self.entries: list[Any] = []
        self.scores: list[int] = []

    def insert(self, sol: PartialSolution, rng: random.Random) -> bool:
        """Offer one entry; return whether it is held afterwards."""
        self.extend(((sol.score, sol),), rng)
        return sol in self.entries

    def extend(self, offers: Iterable[tuple[int, Any]], rng: random.Random) -> None:
        """Keep the ``capacity`` best of the held entries and the offered
        (score, entry) pairs, by one selection (see the class docstring)."""
        pool = list(zip(self.scores, self.entries))
        pool += offers
        pool.sort(key=_score_of)
        scores = [score for score, _ in pool]
        cut = len(pool) - self.capacity
        if cut > 0:
            worst = scores[cut]
            lo = bisect_left(scores, worst, 0, cut)
            if lo < cut:
                # The cut splits the run [lo, hi) of the worst kept score.
                hi = bisect_right(scores, worst, cut)
                picked = sorted(rng.sample(range(lo, hi), hi - cut))
                pool[cut:hi] = [pool[i] for i in picked]
            del pool[:cut], scores[:cut]
        self.scores = scores
        self.entries = [entry for _, entry in pool]

    @property
    def at_capacity(self) -> bool:
        return len(self.entries) >= self.capacity

    def best(self) -> PartialSolution:
        return self.entries[-1]

    def __iter__(self) -> Iterator[PartialSolution]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


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
        self._bags = tuple(tuple(sorted(node.bag)) for node in nice.nodes)
        self._bag_sets = tuple(frozenset(b) for b in self._bags)
        self._rings: dict[frozenset[int], tuple[int, ...]] = {}
        # Per vertex, the colour its precoloured neighbours agree on: 0 for
        # none, -1 when they disagree.
        self._evidence = tuple(
            -1 if len(seen) > 1 else max(seen, default=0)
            for seen in ({self.base[u] for u in self.adj[v]} - {0} for v in range(self.n))
        )

    # -- label bookkeeping ------------------------------------------------

    def entry(
        self, colours: Iterable[int], labels: Iterable[int], counts: Sequence[int] | None = None
    ) -> PartialSolution:
        """A beam entry over full arrays, stored as bytes and scored from its
        four label counts, which are recounted from ``labels`` if not given."""
        labels = bytes(labels)
        counts_t = self._recount(labels) if counts is None else tuple(counts)
        return PartialSolution(bytes(colours), labels, counts_t, evaluate(self.weights, counts_t))

    def arrays(self, sol: PartialSolution) -> tuple[bytes, bytes]:
        """An entry's colours and labels over all vertices."""
        return sol.colours, sol.labels

    def _border_label(self, v: int, colours: bytes | bytearray) -> int:
        """Label of an uncoloured vertex given committed colours.

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

    @staticmethod
    def _recount(labels: bytes | bytearray) -> tuple[int, int, int, int]:
        return (
            labels.count(HAPPY),
            labels.count(UNHAPPY),
            labels.count(MAYBE_HAPPY),
            labels.count(ASSUMED_UNHAPPY),
        )

    def _ring(self, bag_set: frozenset[int]) -> tuple[int, ...]:
        """N(bag) minus the bag, looked up once per distinct bag of a solve."""
        ring = self._rings.get(bag_set)
        if ring is None:
            adj = self.adj
            ring = tuple(sorted({u for v in bag_set for u in adj[v]} - bag_set))
            self._rings[bag_set] = ring
        return ring

    def _bag_key(self, bag: tuple[int, ...], sol: PartialSolution) -> bytes:
        colours = sol.colours
        labels = sol.labels
        return bytes([colours[v] for v in bag] + [labels[v] for v in bag])

    def _match_key(self, bag: tuple[int, ...], sol: PartialSolution) -> bytes:
        """Join matching key: colours plus happiness designation.

        UNHAPPY and ASSUMED_UNHAPPY both designate an unhappy vertex and are
        interchangeable across the two sides of a join; treating them as
        distinct would miss combinations the exact recurrence includes.
        """
        colours = sol.colours
        labels = sol.labels
        return bytes(
            [colours[v] for v in bag]
            + [HAPPY if labels[v] == HAPPY else UNHAPPY for v in bag]
        )

    # -- node handlers ----------------------------------------------------

    def handle_leaf(self, idx: int) -> Beam:
        """The unique empty partial solution: nothing coloured, all UNKNOWN."""
        beam = Beam(self.config.width)
        empty = PartialSolution(bytes(self.n), bytes(self.n), (0, 0, 0, 0), 0)
        beam.insert(empty, self.rng)
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
        those that agree with any).  Every emission's score is then a sum of
        three terms and one label weight, equal to ``evaluate`` of its counts.
        The emissions are collected in order as (score, (group, label))
        offers, the two labels of one colour sharing one group.  Each list is
        then one ``Beam.extend`` selection, the backup list first: the
        ``width`` best offers survive, and only a cut through equal scores
        draws from the RNG.  Last, ``_materialise`` builds a finished entry
        for each offer that survives in the returned list.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        adj = self.adj
        adj_v = adj[vtx]
        evidence = self._evidence
        # Every committed neighbour of an uncoloured vertex lies in the child
        # bag, and every child-bag vertex is coloured.  So a MAYBE_HAPPY vertex
        # without precoloured neighbours is bound to the colour of any one of
        # its child-bag neighbours: its anchor.
        child_bag = self._bag_sets[node.children[0]]
        anchor = {
            x: u for x in (vtx, *adj_v) if not evidence[x] for u in adj[x] if u in child_bag
        }
        base_v = self.base[vtx]
        allowed = (base_v,) if base_v else tuple(range(1, self.k + 1))
        weight = self._label_weight
        w_happy, w_unhappy, w_maybe, w_assumed = weight[1:]
        slots = self.k + 1
        # (score, (group, label)) offers; a group's last slot takes its arrays.
        main_offers: list[tuple[int, tuple[list, int]]] = []
        backup_offers: list[tuple[int, tuple[list, int]]] = []
        for sol in child_beam:
            col_c = sol.colours
            lab_c = sol.labels
            # Neighbours whose label can change, as (vertex, label, label on
            # agreement, the colour agreed with or 0 for any); the coloured
            # HAPPY ones change only in the backup.
            watch: list[tuple[int, int, int, int]] = []
            happy: list[tuple[int, int, int, int]] = []
            # The score change if every watched neighbour turned UNHAPPY, and
            # per colour what agreeing with it gives back.
            drop = 0
            agree = [0] * slots
            for u in adj_v:
                cu = col_c[u]
                lu = lab_c[u]
                if cu:
                    if lu == HAPPY:
                        happy.append((u, lu, lu, cu))
                    elif lu == ASSUMED_UNHAPPY:
                        watch.append((u, lu, lu, cu))
                        drop += w_unhappy - w_assumed
                        agree[cu] += w_assumed - w_unhappy
                elif lu == UNKNOWN:
                    ev = evidence[u]
                    watch.append((u, lu, MAYBE_HAPPY, ev))
                    drop += w_unhappy
                    if ev >= 0:
                        agree[ev] += w_maybe - w_unhappy
                elif lu == MAYBE_HAPPY:
                    bound_u = evidence[u] or col_c[anchor[u]]
                    watch.append((u, lu, lu, bound_u))
                    drop += w_unhappy - w_maybe
                    agree[bound_u] += w_maybe - w_unhappy
            happy_colours = {entry[3] for entry in happy} if happy else None
            v_label = lab_c[vtx]
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
                        backup_offers.append((score, ([sol, i, watch + happy, None], UNHAPPY)))
                    continue
                elif bound == i:
                    labs = (HAPPY, ASSUMED_UNHAPPY)
                else:
                    labs = (UNHAPPY,)
                at_colour = floor + agree[i]
                group = [sol, i, watch, None]
                for lab in labs:
                    main_offers.append((at_colour + weight[lab], (group, lab)))
        backup = Beam(self.config.width)
        backup.extend(backup_offers, self.rng)
        main = Beam(self.config.width)
        main.extend(main_offers, self.rng)
        return self._materialise(main if main_offers else backup, vtx)

    def _materialise(self, beam: Beam, vtx: int) -> Beam:
        """Replace each (group, label) offer in an introduce's result by its
        finished entry.  Each group's colours and relabelled neighbours are
        built once, for whichever of its labels survived."""
        entries = []
        for (group, lab), score in zip(beam.entries, beam.scores):
            sol, colour, watch, made = group
            if made is None:
                coloured = bytearray(sol.colours)
                coloured[vtx] = colour
                relabelled = bytearray(sol.labels)
                # Label totals indexed by label; slot 0 (UNKNOWN) is not scored.
                tally = [0, *sol.counts]
                for u, old, agreed, agrees_with in watch:
                    new = agreed if agrees_with == colour or not agrees_with else UNHAPPY
                    if new != old:
                        relabelled[u] = new
                        tally[old] -= 1
                        tally[new] += 1
                tally[sol.labels[vtx]] -= 1
                made = group[3] = (bytes(coloured), relabelled, tally)
            colours, labels, tally = made
            labels[vtx] = lab
            tally[lab] += 1
            entries.append(PartialSolution(colours, bytes(labels), tuple(tally[1:]), score))
            tally[lab] -= 1
        beam.entries = entries
        return beam

    def handle_forget(self, idx: int, child_beam: Beam) -> Beam:
        """Settle the forgotten vertex and deduplicate on the smaller bag.

        An ASSUMED_UNHAPPY vertex is promoted to HAPPY: all its neighbours
        are now committed and none conflicts, so it ends happy whatever
        happens above.  Solutions agreeing on bag colours and labels collapse
        to the best-scoring representative.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        bag = self._bags[idx]
        groups: dict[bytes, PartialSolution] = {}
        for sol in child_beam:
            if sol.labels[vtx] == ASSUMED_UNHAPPY:
                labels = bytearray(sol.labels)
                labels[vtx] = HAPPY
                happy, unhappy, maybe, assumed = sol.counts
                sol = self.entry(sol.colours, labels, (happy + 1, unhappy, maybe, assumed - 1))
            key = self._bag_key(bag, sol)
            held = groups.get(key)
            # The happy count breaks score ties; equal weights for happy and
            # unhappy labels would otherwise let a worse completion shadow a
            # better one while the optimality flag stays set.
            if held is None or _rank(sol) > _rank(held):
                groups[key] = sol
        beam = Beam(self.config.width)
        beam.extend([(sol.score, sol) for sol in groups.values()], self.rng)
        return beam

    def handle_join(self, idx: int, first: Beam, second: Beam) -> Beam:
        """Pair up solutions of the two children.

        Exact bag matches merge losslessly; while no exact merge has happened
        yet, each unmatched outer solution is heuristically merged with its
        nearest inner solution into a backup list, returned only if the main
        list ends empty.  The returned list is the one offered to the node's
        beam, in one selection.
        """
        bag = self._bags[idx]
        bag_set = self._bag_sets[idx]
        first_is_outer = _FIRST_IS_OUTER[self.config.join_loop_choice](self.rng, first, second)
        outer, inner = (first, second) if first_is_outer else (second, first)
        # Index the inner list best-first so each key maps to its best-scoring
        # partner; with every valid tuple present this realizes the exact
        # join's maximisation.  Happy count orders ties.
        inner_entries = sorted(inner.entries, key=_rank, reverse=True)
        partners: dict[bytes, PartialSolution] = {}
        for inner_sol in inner_entries:
            partners.setdefault(self._match_key(bag, inner_sol), inner_sol)
        exact: list[tuple[int, PartialSolution]] = []
        backup: list[tuple[int, PartialSolution]] = []
        weights: tuple[int, ...] | None = None
        per_outer = self.config.join_distance_weighting not in BAG_ONLY_WEIGHTINGS
        for outer_sol in outer:
            partner = partners.get(self._match_key(bag, outer_sol))
            if partner is not None:
                merged = self.merge_exact(outer_sol, partner, bag_set)
                exact.append((merged.score, merged))
            elif not exact:
                if weights is None or per_outer:
                    weights = self.distance_weights(bag, outer_sol)
                # The first nearest in best-first order.
                nearest = min(
                    inner_entries,
                    key=lambda s: self.tuple_distance(bag, outer_sol, s, weights),
                )
                for merged in self.merge_heuristic(outer_sol, nearest, bag, bag_set):
                    backup.append((merged.score, merged))
        # One selection, of the list the node returns.
        beam = Beam(self.config.width)
        beam.extend(exact or backup, self.rng)
        return beam

    # -- join helpers -----------------------------------------------------

    def tuple_distance(
        self,
        bag: tuple[int, ...],
        a: PartialSolution,
        b: PartialSolution,
        weights: tuple[int, ...] | None = None,
    ) -> int:
        """Weighted disagreement between two solutions on the bag.

        Each bag vertex contributes its weight once for a colour mismatch and
        once for a label mismatch.  Border-based weights are taken with
        respect to the first solution; ``weights``, when given, must be
        ``distance_weights(bag, a)``.
        """
        if weights is None:
            weights = self.distance_weights(bag, a)
        a_col, a_lab, b_col, b_lab = a.colours, a.labels, b.colours, b.labels
        total = 0
        for v, w in zip(bag, weights):
            total += w * ((a_col[v] != b_col[v]) + (a_lab[v] != b_lab[v]))
        return total

    def distance_weights(self, bag: tuple[int, ...], outer: PartialSolution) -> tuple[int, ...]:
        """The weight of each bag vertex in ``tuple_distance``, in bag order.

        Only the border modes read ``outer``; the modes in
        ``BAG_ONLY_WEIGHTINGS`` give the same weights for every solution.
        """
        mode = self.config.join_distance_weighting
        bag_set = set(bag)
        return tuple(self._distance_weight(mode, v, bag_set, outer) for v in bag)

    def _distance_weight(
        self, mode: str, v: int, bag_set: set[int], outer: PartialSolution
    ) -> int:
        test, capped = _DISTANCE_RULES[mode]
        if test is None:
            return 1
        count = sum(1 for u in self.adj[v] if test(u, bag_set, outer))
        return min(count, 1) if capped else count

    def merge_exact(
        self, a: PartialSolution, b: PartialSolution, bag_set: frozenset[int]
    ) -> PartialSolution:
        """Union two solutions of a join's children that agree on the bag's
        colours and designations.

        Colours and settled labels come from each side's own territory.  The
        territories meet only on the bag, and an uncoloured vertex with a
        label is a neighbour of the bag (the premise in the module
        docstring), so outside N[bag] at most one side has a non-zero colour
        or label and the union is a bytewise OR of the two arrays.  Only
        N[bag] is looked at vertex by vertex.  On the bag an UNHAPPY label on
        either side wins over ASSUMED_UNHAPPY: the conflict that justified it
        persists in the union.  On the rest of N[bag] a vertex coloured on
        one side keeps that side's label; an uncoloured one has committed
        neighbours only in the bag, whose colours both sides share, so both
        sides already give it the label the union does.
        """
        n = self.n
        colours = _or_bytes(a.colours, b.colours, n)
        labels = bytearray(_or_bytes(a.labels, b.labels, n))
        a_colours, a_labels = a.colours, a.labels
        b_colours, b_labels = b.colours, b.labels
        for v in bag_set:
            labels[v] = UNHAPPY if b_labels[v] == UNHAPPY else a_labels[v]
        for v in self._ring(bag_set):
            if a_colours[v]:
                labels[v] = a_labels[v]
            elif b_colours[v]:
                labels[v] = b_labels[v]
        return self.entry(colours, labels)

    def merge_heuristic(
        self,
        outer: PartialSolution,
        inner: PartialSolution,
        bag: tuple[int, ...],
        bag_set: frozenset[int],
    ) -> list[PartialSolution]:
        """Force two non-matching solutions together.

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
        colours = bytearray(primary.colours)
        labels = bytearray(primary.labels)
        p_colours = primary.colours
        s_colours = secondary.colours
        s_labels = secondary.labels
        moved: list[int] = []
        for v in range(self.n):
            if s_colours[v] and not p_colours[v]:
                colours[v] = s_colours[v]
                labels[v] = s_labels[v]
                moved.append(v)
        # The only possible clashes run between the bag (primary's decisions)
        # and the moved vertices; settle both endpoints of each clash.
        for v in moved:
            cv = colours[v]
            conflict = False
            for u in self.adj[v]:
                cu = colours[u]
                if cu and cu != cv:
                    conflict = True
                    if u in bag_set and labels[u] in (HAPPY, ASSUMED_UNHAPPY):
                        labels[u] = UNHAPPY
            labels[v] = UNHAPPY if conflict else HAPPY
        # Uncoloured vertices outside N[bag] stay UNKNOWN.
        for v in self._ring(bag_set):
            if not colours[v]:
                labels[v] = self._border_label(v, colours)
        return self.entry(colours, labels)

    def _merge_greedy(
        self,
        a: PartialSolution,
        b: PartialSolution,
        bag: tuple[int, ...],
        bag_set: frozenset[int],
    ) -> PartialSolution:
        n = self.n
        colours = bytearray(n)
        labels = bytearray(n)
        a_col, a_lab, b_col, b_lab = a.colours, a.labels, b.colours, b.labels
        for v in range(n):
            if v in bag_set:
                continue
            if a_col[v]:
                colours[v] = a_col[v]
                labels[v] = a_lab[v]
            elif b_col[v]:
                colours[v] = b_col[v]
                labels[v] = b_lab[v]
        matched = set()
        for v in bag:
            if a_col[v] == b_col[v]:
                colours[v] = a_col[v]
                matched.add(v)

        base = self.base

        def consistent(v: int) -> bool:
            cv = colours[v]
            for u in self.adj[v]:
                cu = colours[u]
                if cu:
                    if cu != cv:
                        return False
                elif base[u] and base[u] != cv:
                    return False
            return True

        def adopt(v: int, lab: int) -> None:
            labels[v] = lab
            if lab in (HAPPY, ASSUMED_UNHAPPY):
                for u in self.adj[v]:
                    if u in bag_set and colours[u] == 0:
                        colours[u] = colours[v]

        changed = True
        while changed:
            changed = False
            for v in bag:
                if colours[v] == 0 or labels[v] != UNKNOWN:
                    continue
                offered = {a_lab[v], b_lab[v]} if v in matched else {HAPPY}
                if HAPPY in offered and consistent(v):
                    adopt(v, HAPPY)
                elif ASSUMED_UNHAPPY in offered and consistent(v):
                    adopt(v, ASSUMED_UNHAPPY)
                else:
                    labels[v] = UNHAPPY
                changed = True
        # Vertices in components of the bag untouched by any label choice.
        for v in bag:
            if colours[v] == 0:
                colours[v] = a_col[v] if self.rng.random() < 0.5 else b_col[v]
        for v in bag:
            if labels[v] == UNKNOWN:
                labels[v] = HAPPY if consistent(v) else UNHAPPY
        # Interior labels must reflect the possibly re-decided bag colours.
        for v in range(n):
            if colours[v] and v not in bag_set:
                cv = colours[v]
                conflict = any(colours[u] and colours[u] != cv for u in self.adj[v])
                labels[v] = UNHAPPY if conflict else HAPPY
        # Uncoloured vertices outside N[bag] stay UNKNOWN.
        for v in self._ring(bag_set):
            if not colours[v]:
                labels[v] = self._border_label(v, colours)
        return self.entry(colours, labels)

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
        best = max(root_beam.entries, key=_rank)
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
        return self._bag_sets[idx].union(*below)

    def _verify(self, idx: int, beam: Beam, covered: frozenset[int]) -> None:
        bag_set = self._bag_sets[idx]
        near_bag = {u for v in bag_set for u in self.adj[v]}
        base = self.base
        assert len(beam) <= self.config.width
        for sol in beam:
            assert isinstance(sol, PartialSolution), f"node {idx}: unbuilt entry"
            colours, labels = self.arrays(sol)
            assert type(colours) is type(labels) is bytes, f"node {idx}: entry without bytes"
            assert len(colours) == len(labels) == self.n
            assert self._recount(labels) == sol.counts
            assert evaluate(self.weights, sol.counts) == sol.score
            coloured = {v for v in range(self.n) if colours[v]}
            assert coloured == covered, f"node {idx}: colour domain mismatch"
            for v in range(self.n):
                cv = colours[v]
                lab = labels[v]
                if cv:
                    assert base[v] in (0, cv), "partial solution must extend the input"
                    assert lab in (HAPPY, UNHAPPY, ASSUMED_UNHAPPY)
                    if lab == ASSUMED_UNHAPPY:
                        assert v in bag_set
                    if lab != UNHAPPY:
                        for u in self.adj[v]:
                            cu = colours[u] or base[u]
                            assert cu in (0, cv), (
                                f"{Label(lab).name} vertex {v} has a conflicting neighbour"
                            )
                else:
                    # The premise the joins rely on (module docstring).
                    assert lab == UNKNOWN or v in near_bag, (
                        f"node {idx}: uncoloured vertex {v} is labelled "
                        f"{Label(lab).name} but lies outside N(bag)"
                    )
                    assert lab == self._border_label(v, colours)
        # Entries in ascending score order, mirrored by ``scores``.
        assert [sol.score for sol in beam] == beam.scores == sorted(beam.scores)


def _or_bytes(x: bytes, y: bytes, n: int) -> bytes:
    """Bytewise OR of two length-n byte strings, in one C-level pass each way."""
    return (int.from_bytes(x, "little") | int.from_bytes(y, "little")).to_bytes(n, "little")


def solve_heuristic(
    g: Graph,
    colouring: PartialColouring,
    nice: NiceTreeDecomposition,
    config: HeuristicConfig | None = None,
) -> SolveResult:
    """Run the beam DP; see HeuristicConfig for the tuned defaults."""
    return HeuristicSolver(g, colouring, nice, config).solve()
