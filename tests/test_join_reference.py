"""The join that builds heuristic backups only when no outer solution has an
exact partner against the prefix-loop reference, node by node: each node's
entries, in order, and the RNG state after it.

Only joins tell the two solvers apart, so instances whose decomposition has
no join node are left out.
"""

from functools import cache

import pytest

from mhv.heuristic import HeuristicConfig, HeuristicSolver
from mhv.treedec import NodeKind, make_nice, min_fill_decompose

from corpus import acceptance_corpus
from join_reference import PrefixJoinSolver
from make_golden import COVER, FULL, HARDEST, INSTANCES


class _Counted:
    """Counts the heuristic merges a solve makes."""

    merges = 0

    def merge_heuristic(self, *args):
        self.merges += 1
        return super().merge_heuristic(*args)


class _Solver(_Counted, HeuristicSolver):
    pass


class _Reference(_Counted, PrefixJoinSolver):
    pass


def _acceptance():
    # Decomposed as the acceptance criteria decompose them.
    pairs = [
        (inst, make_nice(min_fill_decompose(inst.graph, seed=i), inst.graph))
        for i, inst in enumerate(acceptance_corpus())
    ]
    return [(inst, nice) for inst, nice in pairs if any(n.kind == NodeKind.JOIN for n in nice.nodes)]


def _hardest(name):
    inst = INSTANCES[name]()
    return [(inst, make_nice(min_fill_decompose(inst.graph, seed=0), inst.graph))]


@cache
def _pairs(name):
    return _acceptance() if name == "acceptance" else _hardest(name)


def _entries(beam):
    return [(sol.state, sol.counts, sol.score) for sol in beam]


def _walk_both(inst, nice, config):
    """Run both solvers node by node; return their heuristic merge counts."""
    g, col = inst.graph, inst.colouring
    got, want = _Solver(g, col, nice, config), _Reference(g, col, nice, config)
    for (idx, got_beam), (want_idx, want_beam) in zip(got.beams(), want.beams(), strict=True):
        assert idx == want_idx
        assert _entries(got_beam) == _entries(want_beam), f"node {idx}"
        assert got.rng.getstate() == want.rng.getstate(), f"node {idx}: RNG draws differ"
    return got.merges, want.merges


def _check(name, width, loop, dist, merge):
    config = HeuristicConfig(
        width=width, join_loop_choice=loop, join_distance_weighting=dist, join_merge_method=merge
    )
    got = want = 0
    for inst, nice in _pairs(name):
        made, made_by_reference = _walk_both(inst, nice, config)
        got += made
        want += made_by_reference
    if merge == "greedy_match":
        # Every backup of the unmatched prefix is made, for its draws.
        assert got == want
    else:
        assert got <= want
    return got, want


CASES = [
    pytest.param(name, width, *combo, id=f"{name}-W{width}-{'-'.join(combo)}")
    for name in ("acceptance", *HARDEST)
    for width in (1, 4)
    for combo in FULL
] + [
    pytest.param(name, 67, *combo, id=f"{name}-W67-{'-'.join(combo)}")
    for name in ("acceptance", *HARDEST)
    for combo in COVER
]


@pytest.mark.parametrize("name,width,loop,dist,merge", CASES)
def test_join_matches_prefix_loop_reference(name, width, loop, dist, merge):
    _check(name, width, loop, dist, merge)


@pytest.mark.parametrize("name", ["acceptance", *HARDEST])
def test_join_reference_exercises_dropped_backups(name):
    """Under the default knobs the reference throws backups away that the
    solver never builds, so the skipped path is compared too."""
    default = HeuristicConfig()
    got, want = _check(
        name, 4, default.join_loop_choice, default.join_distance_weighting, default.join_merge_method
    )
    assert got < want
