"""What the beam DP's final answer rests on, checked on the pinned instances.

``solve`` rebuilds the colouring from the best entry's forget records and
derives the final labels from it, so the labels must be a function of the
colouring alone; debug mode must check every node of every pinned instance; and entries
must store no more than the closed neighbourhood N[bag] of their node.
"""

import random
import sys
from dataclasses import replace

import pytest

from mhv.exact import solve_exact
from mhv.graph import Graph, PartialColouring
from mhv.harness import generate, hardest_regime
from mhv.heuristic import HAPPY, UNHAPPY, HeuristicConfig, HeuristicSolver, solve_heuristic
from mhv.treedec import make_nice, min_fill_decompose

from corpus import tree_instance
from make_golden import INSTANCES, heuristic_configs


def _nice(inst):
    return make_nice(min_fill_decompose(inst.graph, seed=0), inst.graph)


def _recomputed_labels(g, colours):
    """HAPPY exactly where no neighbour has another colour."""
    return tuple(
        HAPPY if all(colours[u] == colours[v] for u in g.adjacency[v]) else UNHAPPY
        for v in range(g.n)
    )


@pytest.mark.parametrize("name", ["tree-n60", "hard-n30"])
def test_final_labels_are_a_function_of_the_colouring(name):
    inst = INSTANCES[name]()
    g, col = inst.graph, inst.colouring
    nice = _nice(inst)
    for case, config in heuristic_configs(name):
        result = solve_heuristic(g, col, nice, config)
        assert result.final_labels == _recomputed_labels(g, result.colouring.colours), case


DEBUG_CONFIGS = {
    "default": HeuristicConfig(check_invariants=True),
    "greedy-border-random-W4": HeuristicConfig(
        width=4,
        join_loop_choice="random",
        join_distance_weighting="count_border_neighbours",
        join_merge_method="greedy_match",
        check_invariants=True,
    ),
}


@pytest.mark.parametrize("config", sorted(DEBUG_CONFIGS))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_instances_hold_every_invariant(name, config):
    """Every node of every pinned instance passes ``_verify``, and debug mode
    does not change the answer."""
    inst = INSTANCES[name]()
    g, col = inst.graph, inst.colouring
    nice = _nice(inst)
    checked = solve_heuristic(g, col, nice, DEBUG_CONFIGS[config])
    plain = solve_heuristic(g, col, nice, replace(DEBUG_CONFIGS[config], check_invariants=False))
    assert (checked.happy, checked.colouring, checked.final_labels) == (
        plain.happy,
        plain.colouring,
        plain.final_labels,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: tree_instance(random.Random(400), 400),
        lambda: generate(hardest_regime(40, 3, seed=40)),
    ],
    ids=["tree-n400", "hard-n40"],
)
def test_entries_store_only_the_closed_neighbourhood_of_the_bag(make):
    inst = make()
    g = inst.graph
    solver = HeuristicSolver(g, inst.colouring, _nice(inst))
    lane = (1 << solver._lw) - 1
    checked = 0
    for idx, beam in solver.beams():
        bag = solver.nice.nodes[idx].bag
        near = len(bag.union(*(g.adjacency[v] for v in bag)))
        for sol in beam:
            # At most |N[bag]| lanes, no two vertices in one, no bit outside.
            lanes = list(sol.layout.values())
            held = sum(lane << solver._lw * at for at in lanes)
            assert len(set(lanes)) == len(lanes) <= near, f"node {idx}"
            assert not sol.state & ~held, f"node {idx}"
            checked += 1
    assert checked > 0


def test_long_path_is_rebuilt_without_recursion():
    """A path's nice decomposition is more than twice as deep as the
    default recursion limit, so a recursive traceback would fail here."""
    n = 1500
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    rng = random.Random(1500)
    col = PartialColouring(3, {v: i % 3 + 1 for i, v in enumerate(rng.sample(range(n), 150))})
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    depth = []
    for node in nice.nodes:
        depth.append(1 + max((depth[c] for c in node.children), default=0))
    assert depth[nice.root] > 2 * sys.getrecursionlimit()
    result = solve_heuristic(g, col, nice)
    exact = solve_exact(g, col, nice)
    assert result.provably_optimal
    assert result.happy == exact.happy
    assert result.colouring.extends(col)
    assert result.final_labels == _recomputed_labels(g, result.colouring.colours)
