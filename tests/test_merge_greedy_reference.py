"""The packed ``greedy_match`` merge against the array-based reference, on
every heuristic merge of a few seeded solves, RNG state included."""

import random

import pytest

from mhv.harness import generate, hardest_regime
from mhv.heuristic import JOIN_LOOP_CHOICES, HeuristicConfig, HeuristicSolver
from mhv.treedec import make_nice, min_fill_decompose

from corpus import fuzz_instances, tree_instance
from merge_greedy_reference import reference_merge_greedy


class _CheckedSolver(HeuristicSolver):
    """Compares every heuristic merge with the reference before using it:
    the entry, and the RNG state the two leave behind from one start."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.merges = 0

    def merge_heuristic(self, outer, inner, bag, ring):
        start = self.rng.getstate()
        (got,) = super().merge_heuristic(outer, inner, bag, ring)
        after = self.rng.getstate()
        self.rng.setstate(start)
        want = reference_merge_greedy(self, outer, inner, bag, ring, outer.layout)
        assert self.rng.getstate() == after
        assert (*self.arrays(got), got.counts, got.score) == (
            *self.arrays(want),
            want.counts,
            want.score,
        )
        self.merges += 1
        return [got]


def _instances():
    rng = random.Random(505)
    yield "tree-n40", tree_instance(rng, 40)
    yield "tree-n25-q0.4", tree_instance(rng, 25, q=0.4)
    yield "hard-n30", generate(hardest_regime(30, 3, seed=23))
    yield "hard-n40-k4", generate(hardest_regime(40, 4, seed=24))
    for i, inst in enumerate(fuzz_instances(4, seed=506, n_lo=10, n_hi=14, p_lo=0.15, p_hi=0.3)):
        yield f"fuzz-{i}", inst


@pytest.mark.parametrize("loop", JOIN_LOOP_CHOICES)
@pytest.mark.parametrize(
    "name,inst", [pytest.param(name, inst, id=name) for name, inst in _instances()]
)
def test_merge_greedy_matches_array_reference(name, inst, loop):
    g, col = inst.graph, inst.colouring
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    merges = 0
    for width, seed in ((1, 0), (4, 5)):
        config = HeuristicConfig(
            width=width,
            join_loop_choice=loop,
            join_merge_method="greedy_match",
            seed=seed,
            check_invariants=True,
        )
        solver = _CheckedSolver(g, col, nice, config)
        solver.solve()
        merges += solver.merges
    assert merges > 0, f"{name}: no heuristic merge exercised"
