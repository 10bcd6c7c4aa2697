"""The packed-int exact DP against the tuple-state reference: the same
colouring, happy count and state total on seeded instances.

The totals are compared through the state cap: at ``total - 1`` both DPs
must fail at their last table, and at ``total // 2`` at the same node with
the same count, which also checks the running total node by node.
"""

import random

import pytest

from mhv.errors import ResourceLimitError
from mhv.exact import solve_exact
from mhv.graph import PartialColouring, floor_fraction
from mhv.harness import generate, hardest_regime, random_tree
from mhv.treedec import make_nice, min_fill_decompose

from corpus import fuzz_instances
from exact_tuple_reference import reference_solve_exact


def _cap_message(solve, g, col, nice, cap):
    with pytest.raises(ResourceLimitError) as err:
        solve(g, col, nice, state_cap=cap)
    return str(err.value)


def _assert_same(g, col, nice):
    ref, total = reference_solve_exact(g, col, nice)
    got = solve_exact(g, col, nice)
    assert got.colouring == ref.colouring
    assert got.happy == ref.happy
    for cap in (total - 1, total // 2):
        want = _cap_message(reference_solve_exact, g, col, nice, cap)
        assert _cap_message(solve_exact, g, col, nice, cap) == want


def _nice_for(g, seed=0):
    return make_nice(min_fill_decompose(g, seed=seed), g)


# k = 1 gives 2-bit lanes, k = 2 and 3 3-bit lanes, k = 5 4-bit lanes and
# k = 9 5-bit lanes.
_FUZZ = {
    "fuzz-619-k1": lambda: fuzz_instances(60, seed=619, ks=(1,)),
    "fuzz-607-k2-k3": lambda: fuzz_instances(150, seed=607),
    "fuzz-613-k5-k9": lambda: fuzz_instances(40, seed=613, ks=(5, 9), n_lo=9, n_hi=12),
}


@pytest.mark.parametrize("corpus", sorted(_FUZZ))
def test_packed_dp_matches_the_tuple_reference_on_fuzz(corpus):
    for i, inst in enumerate(_FUZZ[corpus]()):
        _assert_same(inst.graph, inst.colouring, _nice_for(inst.graph, seed=i))


def test_fuzz_covers_every_lane_width():
    ks = {inst.colouring.k for make in _FUZZ.values() for inst in make()}
    assert ks == {1, 2, 3, 5, 9}
    assert {(2 * k + 1).bit_length() for k in ks} == {2, 3, 4, 5}


def _tree_colouring(n, seed, k=3):
    """q = 0.1 precolouring drawn the way ``mhv.harness.generate`` draws one."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    assignment = {perm[i]: i + 1 for i in range(k)}
    for j in range(k, floor_fraction(0.1, n)):
        assignment[perm[j]] = rng.randrange(1, k + 1)
    return PartialColouring(k, assignment)


@pytest.mark.parametrize("n, seed", [(120, 701), (190, 702), (250, 703), (310, 704)])
def test_packed_dp_matches_the_tuple_reference_on_trees(n, seed):
    g = random_tree(n, seed=seed)
    _assert_same(g, _tree_colouring(n, seed), _nice_for(g))


def test_packed_dp_matches_the_tuple_reference_on_the_hardest_regime():
    inst = generate(hardest_regime(30, 3, seed=30))
    _assert_same(inst.graph, inst.colouring, _nice_for(inst.graph))
