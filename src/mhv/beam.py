"""The beam DP's entries, their scores, and the beam that holds them.

A beam entry (``PartialSolution``) stands for a colouring of the processed
subgraph and a label per vertex; ``mhv.heuristic`` says what it stores and
builds every entry.  This module holds the label values, the score weights,
the entry, and ``Beam``, the score-sorted list a node keeps its entries in.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from typing import Any, Iterable, Iterator

from .errors import InputError


class Label(IntEnum):
    UNKNOWN = 0
    HAPPY = 1
    UNHAPPY = 2
    MAYBE_HAPPY = 3
    ASSUMED_UNHAPPY = 4


# The labels as plain ints: the DP compares labels and indexes by them in its
# innermost loops, and CPython's fast paths for both skip int subclasses.
UNKNOWN, HAPPY, UNHAPPY, MAYBE_HAPPY, ASSUMED_UNHAPPY = map(int, Label)

# A coloured ring vertex's label when it has a conflicting neighbour outside
# N[bag]; it counts, and reads out, as UNHAPPY (see ``HeuristicSolver.handle_forget``).
FAR_UNHAPPY = 5

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


class PartialSolution:
    """One beam entry.

    ``state`` packs the colours and labels of the vertices the entry stores,
    its node's N[bag], into one int, a vertex's at the bits of its lane (see
    ``mhv.heuristic``); a zero lane means uncoloured / UNKNOWN.  The entry
    does not name its vertices or their lanes: its node and the solver's one
    lane table do, so reading an entry needs its node.
    ``counts`` holds the totals over all vertices for the four scored labels
    in enum order.  ``forgotten`` is the newest of the solver's forget
    records, which hold the colours of the coloured vertices outside N[bag],
    -1 for none.  At the node that holds it, the coloured vertices are
    exactly those of the bags below.
    """

    __slots__ = ("state", "counts", "score", "forgotten")

    def __init__(
        self,
        state: int,
        counts: tuple[int, int, int, int],
        score: int,
        forgotten: int = -1,
    ) -> None:
        self.state = state
        self.counts = counts
        self.score = score
        self.forgotten = forgotten

    def __repr__(self) -> str:
        return f"PartialSolution(score={self.score}, counts={self.counts})"


def entry_rank(sol: PartialSolution) -> tuple[int, int]:
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


def label_counts(labels: bytes | bytearray) -> tuple[int, int, int, int]:
    """The four scored label counts of ``labels``, in enum order."""
    return (
        labels.count(HAPPY),
        labels.count(UNHAPPY) + labels.count(FAR_UNHAPPY),
        labels.count(MAYBE_HAPPY),
        labels.count(ASSUMED_UNHAPPY),
    )


class Beam:
    """Score-sorted list capped at ``capacity`` entries.

    The one rule lives in ``extend``, a selection: the held entries and the
    offers, held first, are sorted stably by score and the ``capacity`` best
    are kept, in ascending score order with equal scores in that pool order.
    Only when the cut splits a run of equal scores is there an RNG draw: one
    ``rng.sample`` picks which entries of the run stay.  ``scores`` mirrors
    ``entries``.  Entries are ``PartialSolution``s, except inside an
    introduce or a forget, whose beams hold offers until it builds the
    survivors.
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
