"""Beam-bounded dynamic program over a nice tree decomposition.

Partial solutions are built bottom-up.  At every decomposition node a list of
at most ``width`` candidates survives, ranked by a weighted count of vertex
labels; with a large enough width the procedure degenerates into the exact
bounded-treewidth algorithm and the solver reports the result as provably
optimal.

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
colours plus precoloured neighbours), which every handler recomputes locally
through ``_border_label``.

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
from bisect import insort_right
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator

from .errors import InputError
from .graph import FullColouring, Graph, PartialColouring, count_happy
from .result import SolveResult
from .treedec import NiceTreeDecomposition, NodeKind


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


JOIN_LOOP_CHOICES = ("random", "larger_list", "smaller_list")
DISTANCE_WEIGHTINGS = (
    "all_ones",
    "has_external_neighbour",
    "has_border_neighbour",
    "has_nonborder_external_neighbour",
    "count_external_neighbours",
    "count_border_neighbours",
    "count_nonborder_external_neighbours",
)
MERGE_METHODS = ("copy_bag", "greedy_match")
# Weightings that depend on the bag alone, not on the outer solution's border.
BAG_ONLY_WEIGHTINGS = frozenset(
    ("all_ones", "has_external_neighbour", "count_external_neighbours")
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


def evaluate(weights: LabelWeights, counts: tuple[int, int, int, int]) -> int:
    """Weighted label-count score of a partial solution."""
    return (
        weights.happy * counts[0]
        + weights.unhappy * counts[1]
        + weights.maybe_happy * counts[2]
        + weights.assumed_unhappy * counts[3]
    )


def _score_key(sol: PartialSolution) -> int:
    return sol.score


class Beam:
    """Score-sorted list capped at ``capacity`` entries.

    Kept in ascending score order; entries with equal score stay in insertion
    order.  On overflow one entry with the worst score is discarded uniformly
    at random among the worst (the incoming entry included).
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise InputError("beam capacity must be at least 1")
        self.capacity = capacity
        self.entries: list[PartialSolution] = []

    def insert(self, sol: PartialSolution, rng: random.Random) -> bool:
        entries = self.entries
        if len(entries) < self.capacity:
            insort_right(entries, sol, key=_score_key)
            return True
        worst = entries[0].score
        if sol.score < worst:
            return False
        ties = 1
        while ties < len(entries) and entries[ties].score == worst:
            ties += 1
        if sol.score == worst:
            pick = rng.randrange(ties + 1)
            if pick == ties:
                return False
            entries.pop(pick)
        else:
            entries.pop(rng.randrange(ties))
        insort_right(entries, sol, key=_score_key)
        return True

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
        if nice.n != g.n:
            raise InputError("decomposition does not match the graph")
        self.g = g
        self.n = g.n
        self.k = colouring.k
        self.colouring = colouring
        self.base = colouring.as_array(g.n)
        self.adj = g.adjacency
        self.nice = nice
        self.config = config or HeuristicConfig()
        self.weights = self.config.weights
        self.rng = random.Random(self.config.seed)
        self.all_below_capacity = True
        self._bags = tuple(tuple(sorted(node.bag)) for node in nice.nodes)
        self._bag_sets = tuple(frozenset(b) for b in self._bags)
        self._rings: dict[frozenset[int], tuple[int, ...]] = {}

    # -- label bookkeeping ------------------------------------------------

    def _score(self, counts: tuple[int, int, int, int]) -> int:
        w = self.weights
        return (
            w.happy * counts[0]
            + w.unhappy * counts[1]
            + w.maybe_happy * counts[2]
            + w.assumed_unhappy * counts[3]
        )

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

    def _evidence_colour(self, v: int, colours: bytes) -> int:
        """The single colour a MAYBE_HAPPY vertex is bound to."""
        base = self.base
        for u in self.adj[v]:
            cu = colours[u] or base[u]
            if cu:
                return cu
        return 0

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

    @staticmethod
    def _set_label(labels: bytearray, counts: list[int], v: int, new: int) -> None:
        old = labels[v]
        if old == new:
            return
        if old:
            counts[old - 1] -= 1
        if new:
            counts[new - 1] += 1
        labels[v] = new

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
        colour blocks the tuple entirely (a demoting backup is built only
        while the main list is empty); a MAYBE_HAPPY vertex matching its
        evidence colour becomes HAPPY and ASSUMED_UNHAPPY; anything else
        becomes UNHAPPY.  Neighbour labels are recomputed after each emission.
        """
        node = self.nice.nodes[idx]
        vtx = node.vertex
        assert vtx is not None
        adj_v = self.adj[vtx]
        base = self.base
        allowed = (base[vtx],) if base[vtx] else tuple(range(1, self.k + 1))
        main = Beam(self.config.width)
        backup = Beam(self.config.width)
        for sol in child_beam:
            col_c = sol.colours
            lab_c = sol.labels
            v_label = lab_c[vtx]
            for i in allowed:
                if v_label == UNKNOWN:
                    conflict = False
                    for u in adj_v:
                        b = base[u]
                        if b and b != i:
                            conflict = True
                            break
                    if conflict:
                        self._emit(main, sol, vtx, i, (UNHAPPY,))
                    else:
                        self._emit(main, sol, vtx, i, (HAPPY, ASSUMED_UNHAPPY))
                    continue
                blocked = False
                for u in adj_v:
                    cu = col_c[u]
                    if cu and cu != i and lab_c[u] == HAPPY:
                        blocked = True
                        break
                if blocked:
                    if not len(main):
                        self._emit_backup(backup, sol, vtx, i)
                    continue
                if v_label == MAYBE_HAPPY and self._evidence_colour(vtx, col_c) == i:
                    self._emit(main, sol, vtx, i, (HAPPY, ASSUMED_UNHAPPY))
                else:
                    self._emit(main, sol, vtx, i, (UNHAPPY,))
        return main if len(main) else backup

    def _emit(
        self,
        beam: Beam,
        sol: PartialSolution,
        vtx: int,
        colour: int,
        labels_for_vertex: tuple[int, ...],
    ) -> None:
        colours = bytearray(sol.colours)
        colours[vtx] = colour
        labels = bytearray(sol.labels)
        counts = list(sol.counts)
        for u in self.adj[vtx]:
            if colours[u]:
                if labels[u] == ASSUMED_UNHAPPY and colours[u] != colour:
                    self._set_label(labels, counts, u, UNHAPPY)
            else:
                refreshed = self._border_label(u, colours)
                if refreshed != labels[u]:
                    self._set_label(labels, counts, u, refreshed)
        frozen_colours = bytes(colours)
        for lab in labels_for_vertex:
            out_labels = bytearray(labels)
            out_counts = list(counts)
            self._set_label(out_labels, out_counts, vtx, lab)
            counts_t = (out_counts[0], out_counts[1], out_counts[2], out_counts[3])
            beam.insert(
                PartialSolution(frozen_colours, bytes(out_labels), counts_t, self._score(counts_t)),
                self.rng,
            )

    def _emit_backup(self, beam: Beam, sol: PartialSolution, vtx: int, colour: int) -> None:
        """Force the introduction by demoting conflicting happy neighbours."""
        colours = bytearray(sol.colours)
        colours[vtx] = colour
        labels = bytearray(sol.labels)
        counts = list(sol.counts)
        for u in self.adj[vtx]:
            if colours[u] and colours[u] != colour and labels[u] == HAPPY:
                self._set_label(labels, counts, u, UNHAPPY)
        for u in self.adj[vtx]:
            if colours[u]:
                if labels[u] == ASSUMED_UNHAPPY and colours[u] != colour:
                    self._set_label(labels, counts, u, UNHAPPY)
            else:
                refreshed = self._border_label(u, colours)
                if refreshed != labels[u]:
                    self._set_label(labels, counts, u, refreshed)
        self._set_label(labels, counts, vtx, UNHAPPY)
        counts_t = (counts[0], counts[1], counts[2], counts[3])
        beam.insert(
            PartialSolution(bytes(colours), bytes(labels), counts_t, self._score(counts_t)),
            self.rng,
        )

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
                counts = list(sol.counts)
                self._set_label(labels, counts, vtx, HAPPY)
                counts_t = (counts[0], counts[1], counts[2], counts[3])
                sol = PartialSolution(sol.colours, bytes(labels), counts_t, self._score(counts_t))
            key = self._bag_key(bag, sol)
            held = groups.get(key)
            # The happy count breaks score ties; equal weights for happy and
            # unhappy labels would otherwise let a worse completion shadow a
            # better one while the optimality flag stays set.
            if held is None or (sol.score, sol.counts[0]) > (held.score, held.counts[0]):
                groups[key] = sol
        beam = Beam(self.config.width)
        for sol in groups.values():
            beam.insert(sol, self.rng)
        return beam

    def handle_join(self, idx: int, first: Beam, second: Beam) -> Beam:
        """Pair up solutions of the two children.

        Exact bag matches merge losslessly; while no exact merge has happened
        yet, each unmatched outer solution is heuristically merged with its
        nearest inner solution into a backup list, returned only if the main
        list ends empty.
        """
        bag = self._bags[idx]
        bag_set = self._bag_sets[idx]
        choice = self.config.join_loop_choice
        if choice == "random":
            outer, inner = (first, second) if self.rng.random() < 0.5 else (second, first)
        elif choice == "larger_list":
            outer, inner = (first, second) if len(first) >= len(second) else (second, first)
        else:
            outer, inner = (first, second) if len(first) <= len(second) else (second, first)
        # Index the inner list best-first so each key maps to its best-scoring
        # partner; with every valid tuple present this realizes the exact
        # join's maximisation.  Happy count orders ties.
        inner_entries = sorted(
            inner.entries, key=lambda s: (s.score, s.counts[0]), reverse=True
        )
        partners: dict[bytes, PartialSolution] = {}
        for inner_sol in inner_entries:
            partners.setdefault(self._match_key(bag, inner_sol), inner_sol)
        main = Beam(self.config.width)
        backup = Beam(self.config.width)
        weights: tuple[int, ...] | None = None
        per_outer = self.config.join_distance_weighting not in BAG_ONLY_WEIGHTINGS
        for outer_sol in outer:
            partner = partners.get(self._match_key(bag, outer_sol))
            if partner is not None:
                main.insert(self.merge_exact(outer_sol, partner, bag_set), self.rng)
            elif not len(main):
                if weights is None or per_outer:
                    weights = self.distance_weights(bag, outer_sol)
                # The first nearest in best-first order.
                nearest = min(
                    inner_entries,
                    key=lambda s: self.tuple_distance(bag, outer_sol, s, weights),
                )
                for merged in self.merge_heuristic(outer_sol, nearest, bag, bag_set):
                    backup.insert(merged, self.rng)
        return main if len(main) else backup

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
        if mode == "all_ones":
            return 1
        adj_v = self.adj[v]
        if mode == "has_external_neighbour":
            return 1 if any(u not in bag_set for u in adj_v) else 0
        if mode == "count_external_neighbours":
            return sum(1 for u in adj_v if u not in bag_set)
        if mode == "has_border_neighbour":
            return 1 if any(self._in_border(u, outer) for u in adj_v) else 0
        if mode == "count_border_neighbours":
            return sum(1 for u in adj_v if self._in_border(u, outer))
        if mode == "has_nonborder_external_neighbour":
            return 1 if any(u not in bag_set and not self._in_border(u, outer) for u in adj_v) else 0
        return sum(1 for u in adj_v if u not in bag_set and not self._in_border(u, outer))

    @staticmethod
    def _in_border(u: int, sol: PartialSolution) -> bool:
        return sol.colours[u] == 0 and sol.labels[u] != UNKNOWN

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
        counts = self._recount(labels)
        return PartialSolution(colours, bytes(labels), counts, self._score(counts))

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
        counts = self._recount(labels)
        return PartialSolution(bytes(colours), bytes(labels), counts, self._score(counts))

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
        counts = self._recount(labels)
        return PartialSolution(bytes(colours), bytes(labels), counts, self._score(counts))

    # -- full solve ---------------------------------------------------------

    def beams(self) -> Iterator[tuple[int, Beam]]:
        """Run the DP bottom-up, yielding the surviving beam at every node."""
        store: dict[int, Beam] = {}
        unions: dict[int, frozenset[int]] = {}
        for idx in self.nice.post_order():
            node = self.nice.nodes[idx]
            if node.kind == NodeKind.LEAF:
                beam = self.handle_leaf(idx)
            elif node.kind == NodeKind.INTRODUCE:
                beam = self.handle_introduce(idx, store.pop(node.children[0]))
            elif node.kind == NodeKind.FORGET:
                beam = self.handle_forget(idx, store.pop(node.children[0]))
            else:
                c1, c2 = node.children
                beam = self.handle_join(idx, store.pop(c1), store.pop(c2))
            if self.config.check_invariants:
                covered = node.bag.union(*(unions.pop(c) for c in node.children)) if node.children else node.bag
                unions[idx] = frozenset(covered)
                self._verify(idx, beam, unions[idx])
            if len(beam) >= self.config.width:
                self.all_below_capacity = False
            store[idx] = beam
            yield idx, beam

    def solve(self) -> SolveResult:
        start = time.perf_counter()
        root_beam: Beam | None = None
        for _, beam in self.beams():
            root_beam = beam
        assert root_beam is not None and len(root_beam)
        top_score = root_beam.entries[-1].score
        top_happy = max(
            s.counts[0] for s in root_beam.entries if s.score == top_score
        )
        best = next(
            s
            for s in root_beam.entries
            if s.score == top_score and s.counts[0] == top_happy
        )
        full = FullColouring(self.k, tuple(best.colours))
        happy = count_happy(self.g, full)
        assert happy == best.counts[0], "root happy count must equal the HAPPY label count"
        assert full.extends(self.colouring)
        elapsed = (time.perf_counter() - start) * 1000.0
        return SolveResult(
            algorithm="heuristic-dp",
            colouring=full,
            happy=happy,
            percent_happy=happy / self.n if self.n else 1.0,
            provably_optimal=self.all_below_capacity,
            time_ms=elapsed,
            final_labels=tuple(best.labels),
        )

    # -- debug verification -------------------------------------------------

    def _verify(self, idx: int, beam: Beam, covered: frozenset[int]) -> None:
        bag_set = self._bag_sets[idx]
        near_bag = {u for v in bag_set for u in self.adj[v]}
        base = self.base
        previous_score: int | None = None
        assert len(beam) <= self.config.width
        for sol in beam:
            assert previous_score is None or sol.score >= previous_score
            previous_score = sol.score
            assert self._recount(sol.labels) == sol.counts
            assert self._score(sol.counts) == sol.score
            coloured = {v for v in range(self.n) if sol.colours[v]}
            assert coloured == covered, f"node {idx}: colour domain mismatch"
            for v in range(self.n):
                cv = sol.colours[v]
                lab = sol.labels[v]
                if cv:
                    assert base[v] in (0, cv), "partial solution must extend the input"
                    assert lab in (HAPPY, UNHAPPY, ASSUMED_UNHAPPY)
                    if lab == ASSUMED_UNHAPPY:
                        assert v in bag_set
                    if lab != UNHAPPY:
                        for u in self.adj[v]:
                            cu = sol.colours[u] or base[u]
                            assert cu in (0, cv), (
                                f"{Label(lab).name} vertex {v} has a conflicting neighbour"
                            )
                else:
                    # The premise the joins rely on (module docstring).
                    assert lab == UNKNOWN or v in near_bag, (
                        f"node {idx}: uncoloured vertex {v} is labelled "
                        f"{Label(lab).name} but lies outside N(bag)"
                    )
                    assert lab == self._border_label(v, sol.colours)


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
