"""Greedy-MHV and Growth-MHV behaviour."""

import random

from mhv.baselines import (
    GrowthLabel,
    GrowthRun,
    compute_growth_labels,
    greedy_mhv,
    growth_mhv,
)
from mhv.graph import Graph, PartialColouring, count_happy
from mhv.oracle import brute_force

from corpus import fuzz_instances


def test_greedy_star_example():
    # Star K_{1,3}: centre uncoloured, leaves coloured 1, 1, 2.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    col = PartialColouring(2, {1: 1, 2: 1, 3: 2})
    result = greedy_mhv(g, col)
    assert result.happy == 2
    assert result.colouring.colours[0] == 1


def test_greedy_edgeless_empty_colouring():
    g = Graph(5)
    result = greedy_mhv(g, PartialColouring(3))
    assert result.happy == 5


def test_greedy_ties_prefer_lowest_colour():
    g = Graph(2)
    result = greedy_mhv(g, PartialColouring(3))
    assert set(result.colouring.colours) == {1}


def test_greedy_reported_count_matches_colouring():
    for inst in fuzz_instances(30, seed=211):
        result = greedy_mhv(inst.graph, inst.colouring)
        assert count_happy(inst.graph, result.colouring) == result.happy
        assert result.colouring.extends(inst.colouring)


def test_greedy_approximation_bound():
    for inst in fuzz_instances(60, seed=223):
        opt = brute_force(inst.graph, inst.colouring).happy
        got = greedy_mhv(inst.graph, inst.colouring).happy
        assert got * inst.colouring.k >= opt


def test_growth_labels_coloured_cases():
    g = Graph(3, [(0, 1), (1, 2)])
    labels = compute_growth_labels(g, PartialColouring(2, {0: 1, 1: 1, 2: 1}))
    assert labels[0] == GrowthLabel.HAPPY
    labels = compute_growth_labels(g, PartialColouring(2, {0: 1, 1: 2}))
    assert labels[0] == GrowthLabel.UNHAPPY
    assert labels[1] == GrowthLabel.UNHAPPY
    labels = compute_growth_labels(g, PartialColouring(2, {0: 1}))
    assert labels[0] == GrowthLabel.GROWING


def test_growth_labels_uncoloured_cases():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # No coloured neighbours at all.
    labels = compute_growth_labels(g, PartialColouring(2, {1: 1}))
    # Vertex 1 is coloured with uncoloured neighbour 0: GROWING; 0 is next to it.
    assert labels[1] == GrowthLabel.GROWING
    assert labels[0] == GrowthLabel.NEXT_TO_GROWING
    assert labels[2] == GrowthLabel.FREE
    assert labels[3] == GrowthLabel.FREE


def test_growth_labels_cannot_become_happy():
    # Two differently coloured unhappy neighbours around an uncoloured vertex.
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)])
    col = PartialColouring(2, {1: 1, 2: 2})
    labels = compute_growth_labels(g, col)
    assert labels[1] == GrowthLabel.UNHAPPY
    assert labels[2] == GrowthLabel.UNHAPPY
    assert labels[0] == GrowthLabel.CANNOT_BE_HAPPY
    assert labels[3] == GrowthLabel.CANNOT_BE_HAPPY


def test_growth_labels_can_become_happy():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    col = PartialColouring(2, {0: 1, 1: 1})
    labels = compute_growth_labels(g, col)
    assert labels[0] == GrowthLabel.UNHAPPY or labels[0] == GrowthLabel.GROWING
    # 2 sees unhappy... both 0 and 1 are GROWING here (consistent, uncoloured nbr)
    assert labels[2] == GrowthLabel.NEXT_TO_GROWING


def test_growth_single_colour_path():
    g = Graph(3, [(0, 1), (1, 2)])
    result = growth_mhv(g, PartialColouring(1, {0: 1}))
    assert result.happy == 3
    assert result.colouring.colours == (1, 1, 1)


def test_growth_fully_precoloured_is_identity():
    g = Graph(3, [(0, 1), (1, 2)])
    col = PartialColouring(2, {0: 1, 1: 2, 2: 2})
    result = growth_mhv(g, col)
    assert result.colouring.colours == (1, 2, 2)
    assert result.happy == count_happy(g, result.colouring)


def test_growth_total_extension_and_terminal_labels():
    for inst in fuzz_instances(40, seed=307, n_hi=12):
        result = growth_mhv(inst.graph, inst.colouring, seed=5)
        assert result.colouring.extends(inst.colouring)
        assert all(1 <= c <= inst.colouring.k for c in result.colouring.colours)
        final = compute_growth_labels(
            inst.graph,
            PartialColouring(
                inst.colouring.k,
                {v: c for v, c in enumerate(result.colouring.colours)},
            ),
        )
        assert all(l in (GrowthLabel.HAPPY, GrowthLabel.UNHAPPY) for l in final)


def test_growth_incremental_labels_match_scratch():
    """The distance-limited relabelling agrees with a full recomputation."""
    rng = random.Random(401)
    for inst in fuzz_instances(25, seed=409, n_hi=14):
        run = GrowthRun(inst.graph, inst.colouring, seed=rng.randrange(100))
        steps = 0
        while not run.done:
            run.step()
            steps += 1
            scratch = compute_growth_labels(
                inst.graph,
                PartialColouring(
                    inst.colouring.k,
                    {v: c for v, c in enumerate(run.colours) if c},
                ),
            )
            assert tuple(run.labels) == scratch, f"divergence after step {steps}"
        assert steps <= inst.graph.n


def test_growth_handles_disconnected_graphs():
    g = Graph(6, [(0, 1), (2, 3)])
    col = PartialColouring(2, {0: 1})
    result = growth_mhv(g, col, seed=3)
    assert all(1 <= c <= 2 for c in result.colouring.colours)

