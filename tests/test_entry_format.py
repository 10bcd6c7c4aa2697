"""The beam DP's packed entry format: one int per entry, a lane per stored
vertex of ``k.bit_length()`` colour bits and 3 label bits."""

import random

import pytest

from mhv.graph import Graph, PartialColouring
from mhv.heuristic import (
    DISTANCE_WEIGHTINGS,
    FAR_UNHAPPY,
    UNHAPPY,
    HeuristicConfig,
    HeuristicSolver,
)
from mhv.treedec import make_nice, min_fill_decompose

KS = (1, 2, 3, 5, 9)


def _solver(k, seed, **config):
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    g = Graph(n, edges)
    colouring = PartialColouring(k, {v: rng.randint(1, k) for v in rng.sample(range(n), 2)})
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    return HeuristicSolver(g, colouring, nice, HeuristicConfig(**config)), rng


def _arrays(rng, n, k):
    colours = [rng.randint(0, k) for _ in range(n)]
    labels = [rng.randint(0, FAR_UNHAPPY) for _ in range(n)]
    return colours, labels


@pytest.mark.parametrize("k", KS)
def test_entry_arrays_round_trip(k):
    """Over every vertex, colours come back as given and labels too, but for
    FAR_UNHAPPY, which reads out as UNHAPPY; on a node, so do the colours and
    the labels of the vertices its layout stores."""
    for seed in range(25):
        solver, rng = _solver(k, seed)
        n = solver.n
        colours, labels = _arrays(rng, n, k)
        public = bytes(UNHAPPY if lab == FAR_UNHAPPY else lab for lab in labels)
        assert solver.arrays(solver.entry(colours, labels)) == (bytes(colours), public)
        idx = rng.randrange(len(solver.nice.nodes))
        got_colours, got_labels = solver.arrays(solver.entry(colours, labels, node=idx))
        assert got_colours == bytes(colours)
        for v in solver.node_layout(idx):
            assert got_labels[v] == public[v]


def _reference_distance(solver, bag, a, b, weights):
    """The distance as a loop over the bag's lanes."""
    lanes_a = {v: (colour, label) for v, colour, label in solver._read(a)}
    lanes_b = {v: (colour, label) for v, colour, label in solver._read(b)}
    total = 0
    for w, v in zip(weights, bag):
        (ca, la), (cb, lb) = lanes_a[v], lanes_b[v]
        total += w * ((ca != cb) + (la != lb))
    return total


@pytest.mark.parametrize("weighting", DISTANCE_WEIGHTINGS)
@pytest.mark.parametrize("k", KS)
def test_distance_masks_match_a_lane_loop(k, weighting):
    """On random pairs, mostly alike so that few lanes differ, the masked
    distance equals the loop over the bag's lanes."""
    for seed in range(20):
        solver, rng = _solver(k, seed, join_distance_weighting=weighting)
        n = solver.n
        colours, labels = _arrays(rng, n, k)
        other_colours, other_labels = list(colours), list(labels)
        for v in rng.sample(range(n), rng.randint(0, n)):
            other_colours[v] = rng.randint(0, k)
            other_labels[v] = rng.randint(0, FAR_UNHAPPY)
        a = solver.entry(colours, labels)
        b = solver.entry(other_colours, other_labels)
        bag = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        want = _reference_distance(solver, bag, a, b, solver.distance_weights(bag, a))
        assert solver.tuple_distance(a, b, solver.distance_masks(bag, a)) == want
