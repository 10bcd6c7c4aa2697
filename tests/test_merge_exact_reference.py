"""The N[bag] exact merge against the full-scan reference, and against itself
with its sides swapped, on every exact join of a few seeded solves."""

import random

import pytest

from mhv.harness import generate, hardest_regime
from mhv.heuristic import HeuristicConfig, HeuristicSolver
from mhv.treedec import make_nice, min_fill_decompose

from corpus import fuzz_instances, tree_instance
from merge_exact_reference import reference_merge_exact


class _CheckedSolver(HeuristicSolver):
    """Compares every exact merge with the reference before using it, and
    with the merge of its sides swapped: the join may hand them in either
    order.  ``join`` is the join node being handled."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.merges = 0
        self.join = -1

    def handle_join(self, idx, first, second):
        self.join = idx
        return super().handle_join(idx, first, second)

    def merge_exact(self, a, b):
        idx = self.join
        got = super().merge_exact(a, b)
        want = reference_merge_exact(self, a, b, idx)
        assert (*self.arrays(got, idx), got.counts, got.score) == (
            *self.arrays(want, idx),
            want.counts,
            want.score,
        )
        swapped = super().merge_exact(b, a)
        assert (got.state, *self.arrays(got, idx), got.counts, got.score) == (
            swapped.state,
            *self.arrays(swapped, idx),
            swapped.counts,
            swapped.score,
        )
        self.merges += 1
        return got


def _instances():
    rng = random.Random(404)
    yield "tree-n40", tree_instance(rng, 40)
    yield "tree-n25-q0.4", tree_instance(rng, 25, q=0.4)
    yield "hard-n30", generate(hardest_regime(30, 3, seed=22))
    for i, inst in enumerate(fuzz_instances(4, seed=405, n_lo=10, n_hi=14, p_lo=0.15, p_hi=0.3)):
        yield f"fuzz-{i}", inst


CONFIGS = (
    HeuristicConfig(width=67, check_invariants=True),
    HeuristicConfig(
        width=4,
        join_loop_choice="random",
        join_distance_weighting="count_border_neighbours",
        join_merge_method="greedy_match",
        seed=3,
        check_invariants=True,
    ),
    HeuristicConfig(width=1, join_loop_choice="larger_list", check_invariants=True),
)


@pytest.mark.parametrize(
    "name,inst", [pytest.param(name, inst, id=name) for name, inst in _instances()]
)
def test_merge_exact_matches_full_scan_reference(name, inst):
    g, col = inst.graph, inst.colouring
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    merges = 0
    for config in CONFIGS:
        solver = _CheckedSolver(g, col, nice, config)
        solver.solve()
        merges += solver.merges
    assert merges > 0, f"{name}: no exact merge exercised"
