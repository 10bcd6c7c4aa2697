"""With an unbounded beam the DP reproduces the exact recurrences.

The reference implementation in plain_dp_reference computes the bag-level
tables directly from the recurrences (introduce pruning, forget maximisation,
join combination) on the same plain nice decomposition.  Running the beam
solver with happy-count scoring (weights 1/0/0/0) and a beam far above the
state count, the per-node beams must reproduce those tables: grouped by bag
colouring and happiness designation, the best happy count per group equals
the reference value.

The solver prunes a little earlier than the recurrences: a designation that
commits a vertex to happiness while an unprocessed neighbour is already
precoloured differently is dead on arrival, and the solver never builds it,
while the reference table keeps it until the conflicting neighbour is
introduced.  Those reference-only states are exactly the ones the comparison
tolerates.
"""

import random

from mhv.heuristic import HAPPY, HeuristicConfig, HeuristicSolver, LabelWeights
from mhv.oracle import brute_force
from mhv.treedec import NodeKind, make_nice, min_fill_decompose

from corpus import fuzz_instances
from plain_dp_reference import reference_tables

HAPPY_COUNT_WEIGHTS = LabelWeights(1, 0, 0, 0)


def _beam_groups(solver, idx, bag, beam):
    groups = {}
    for sol in beam:
        colours, labels = solver.arrays(sol, idx)
        key = tuple((colours[v] << 1) | (1 if labels[v] == HAPPY else 0) for v in bag)
        held = groups.get(key, -1)
        if sol.counts[0] > held:
            groups[key] = sol.counts[0]
    return groups


def _doomed(state, bag, subtree_vertices, g, base):
    """A designated-happy bag vertex with a conflicting precoloured
    neighbour outside the processed subgraph can never deliver."""
    for pos, v in enumerate(bag):
        code = state[pos]
        if not code & 1:
            continue
        colour = code >> 1
        for u in g.adjacency[v]:
            if u not in subtree_vertices and base[u] and base[u] != colour:
                return True
    return False


def test_unbounded_beam_matches_reference_tables():
    rng = random.Random(1009)
    joins_seen = 0
    forgets_seen = 0
    for index, inst in enumerate(
        fuzz_instances(40, seed=1013, n_lo=4, n_hi=8, p_lo=0.2, p_hi=0.5)
    ):
        g, colouring = inst.graph, inst.colouring
        base = colouring.as_array(g.n)
        nice = make_nice(min_fill_decompose(g, seed=index), g)
        tables, bags = reference_tables(g, colouring, nice)
        solver = HeuristicSolver(
            g,
            colouring,
            nice,
            HeuristicConfig(width=10**6, weights=HAPPY_COUNT_WEIGHTS, seed=index),
        )
        subtree: list[set[int]] = [set() for _ in nice.nodes]
        for idx, beam in solver.beams():
            node = nice.nodes[idx]
            verts = set(node.bag)
            for c in node.children:
                verts |= subtree[c]
            subtree[idx] = verts
            assert len(beam) < solver.config.width

            bag = bags[idx]
            groups = _beam_groups(solver, idx, bag, beam)
            reference = tables[idx]
            for state, best_happy in groups.items():
                assert state in reference, f"node {idx}: unexpected state {state}"
                assert best_happy == reference[state], (
                    f"instance {index} node {idx} {node.kind.name}: "
                    f"state {state} has {best_happy}, reference {reference[state]}"
                )
            for state in reference:
                if state not in groups:
                    assert _doomed(state, bag, subtree[idx], g, base), (
                        f"instance {index} node {idx}: viable state {state} missing"
                    )
            if node.kind == NodeKind.JOIN:
                joins_seen += 1
            elif node.kind == NodeKind.FORGET:
                forgets_seen += 1

        root_groups = _beam_groups(solver, nice.root, (), beam)
        optimum = brute_force(g, colouring).happy
        assert root_groups[()] == tables[nice.root][()] == optimum
    assert joins_seen >= 10, "corpus must exercise join nodes"
    assert forgets_seen >= 40


def test_reference_optimum_agrees_with_oracle():
    for index, inst in enumerate(fuzz_instances(60, seed=1019, n_hi=8)):
        nice = make_nice(min_fill_decompose(inst.graph, seed=index), inst.graph)
        tables, _ = reference_tables(inst.graph, inst.colouring, nice)
        assert tables[nice.root][()] == brute_force(inst.graph, inst.colouring).happy
