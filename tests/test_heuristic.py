"""Beam DP handlers, merges, distances and the solver surface."""

import random

import pytest

from mhv.errors import InputError
from mhv.graph import Graph, PartialColouring, count_happy, is_happy
from mhv.harness import generate, hardest_regime
from mhv.heuristic import (
    ASSUMED_UNHAPPY,
    DISTANCE_WEIGHTINGS,
    FAR_UNHAPPY,
    HAPPY,
    MAYBE_HAPPY,
    UNHAPPY,
    UNKNOWN,
    Beam,
    HeuristicConfig,
    HeuristicSolver,
    LabelWeights,
    PartialSolution,
    evaluate,
    exactness_width_bound,
    solve_heuristic,
)
from mhv.oracle import brute_force
from mhv.treedec import NodeKind, make_nice, min_fill_decompose

from corpus import fuzz_instances, tree_instance

TUNED = LabelWeights(15, -9, 4, -8)


def _solver(g, colouring, **config_kwargs):
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    return HeuristicSolver(g, colouring, nice, HeuristicConfig(**config_kwargs))


def _introduce_idx(solver, vertex):
    return next(
        i
        for i, node in enumerate(solver.nice.nodes)
        if node.kind == NodeKind.INTRODUCE and node.vertex == vertex
    )


def _bag_node(solver, *bag):
    """The first node whose bag is ``bag``."""
    return next(i for i, node in enumerate(solver.nice.nodes) if node.bag == frozenset(bag))


def _states(solver, beam, idx, v):
    """The (colour, label) pairs the entries of ``beam``, node ``idx``'s,
    give vertex ``v``."""
    return {(colours[v], labels[v]) for colours, labels in (solver.arrays(sol, idx) for sol in beam)}


def _derived_counts(solver, sol, idx):
    """The label counts of ``sol``, an entry of node ``idx``, as the solver
    derives them from its arrays."""
    return solver.entry(*solver.arrays(sol, idx), node=idx).counts


# -- evaluation ------------------------------------------------------------


def test_evaluate_zero_counts():
    assert evaluate(TUNED, (0, 0, 0, 0)) == 0


def test_evaluate_tuned_example():
    assert evaluate(TUNED, (2, 1, 3, 0)) == 33


def test_evaluate_linearity_in_happy_count():
    base = evaluate(TUNED, (4, 2, 1, 1))
    assert evaluate(TUNED, (5, 2, 1, 1)) - base == TUNED.happy


def test_weight_domains_enforced():
    with pytest.raises(InputError):
        LabelWeights(happy=25)
    with pytest.raises(InputError):
        LabelWeights(unhappy=-11)
    with pytest.raises(InputError):
        LabelWeights(happy=1, maybe_happy=5)
    with pytest.raises(InputError):
        LabelWeights(unhappy=5, assumed_unhappy=0)


def test_config_validation():
    with pytest.raises(InputError):
        HeuristicConfig(width=0)
    with pytest.raises(InputError):
        HeuristicConfig(join_loop_choice="sideways")
    with pytest.raises(InputError):
        HeuristicConfig(join_distance_weighting="nope")
    with pytest.raises(InputError):
        HeuristicConfig(join_merge_method="nope")


def test_exactness_width_bound_values():
    assert exactness_width_bound(3, 1) == 36
    assert exactness_width_bound(1, 0) == 2
    assert exactness_width_bound(3, 4) == 7776
    with pytest.raises(InputError):
        exactness_width_bound(0, 1)


# -- leaf ------------------------------------------------------------------


def test_handle_leaf_single_empty_solution():
    g = Graph(3, [(0, 1)])
    solver = _solver(g, PartialColouring(2), width=5)
    beam = solver.handle_leaf(0)
    assert len(beam) == 1
    assert not beam.at_capacity
    sol = beam.best()
    assert sol.score == 0
    assert sol.counts == (0, 0, 0, 0)
    colours, labels = solver.arrays(sol, 0)
    assert set(colours) == {0}
    assert set(labels) == {UNKNOWN}


# -- introduce --------------------------------------------------------------


def test_introduce_isolated_vertex_all_colour_label_pairs():
    g = Graph(1)
    solver = _solver(g, PartialColouring(2), width=67)
    idx = _introduce_idx(solver, 0)
    beam = solver.handle_introduce(idx, solver.handle_leaf(0))
    states = _states(solver, beam, idx, 0)
    assert states == {(1, HAPPY), (1, ASSUMED_UNHAPPY), (2, HAPPY), (2, ASSUMED_UNHAPPY)}


def test_introduce_precoloured_vertex_restricted_to_its_colour():
    g = Graph(1)
    solver = _solver(g, PartialColouring(2, {0: 1}), width=67)
    idx = _introduce_idx(solver, 0)
    beam = solver.handle_introduce(idx, solver.handle_leaf(0))
    states = _states(solver, beam, idx, 0)
    assert states == {(1, HAPPY), (1, ASSUMED_UNHAPPY)}


def test_introduce_with_conflicting_precoloured_neighbours_is_unhappy():
    # 0 is adjacent to vertices precoloured 1 and 2; any colour conflicts.
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(g, PartialColouring(2, {1: 1, 2: 2}), width=67)
    idx = _introduce_idx(solver, 0)
    beam = solver.handle_introduce(idx, solver.handle_leaf(0))
    assert _states(solver, beam, idx, 0) == {(1, UNHAPPY), (2, UNHAPPY)}


def test_introduce_backup_demotes_conflicting_happy_neighbours():
    from mhv.treedec import TreeDecomposition

    g = Graph(3, [(0, 2), (1, 2)])
    # One bag, so that 2 is introduced onto the bag {0, 1}.
    td = TreeDecomposition(3, (frozenset({0, 1, 2}),), frozenset())
    solver = HeuristicSolver(g, PartialColouring(2), make_nice(td, g), HeuristicConfig(width=67))
    idx = _introduce_idx(solver, 2)
    # Child state: 0 and 1 committed to different colours, both designated happy.
    child = Beam(67)
    child_idx = solver.nice.nodes[idx].children[0]
    child.insert(solver.entry([1, 2, 0], [HAPPY, HAPPY, UNHAPPY], node=child_idx), solver.rng)
    beam = solver.handle_introduce(idx, child)
    assert len(beam) == 2  # one backup per colour
    for colours, labels in (solver.arrays(sol, idx) for sol in beam):
        assert labels[2] == UNHAPPY
        demoted = [v for v in (0, 1) if labels[v] == UNHAPPY]
        kept = [v for v in (0, 1) if labels[v] == HAPPY]
        assert len(demoted) == 1 and len(kept) == 1
        assert colours[kept[0]] == colours[2]


class _SurvivorSolver(HeuristicSolver):
    """Checks that each introduce builds exactly the entries it returns;
    ``built`` collects the entries made since the introduce began."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.built: list[PartialSolution] = []
        self.introduces = 0

    def handle_introduce(self, idx, child_beam):
        self.built.clear()
        beam = super().handle_introduce(idx, child_beam)
        same = set(map(id, self.built)) == set(map(id, beam))
        assert same and len(self.built) == len(beam), (
            f"node {idx}: built {len(self.built)} entries, returned {len(beam)}"
        )
        self.introduces += 1
        return beam


@pytest.mark.parametrize(
    "make, width",
    [
        (lambda: generate(hardest_regime(34, 3, seed=34)), 4),
        (lambda: generate(hardest_regime(34, 3, seed=34)), 67),
        (lambda: tree_instance(random.Random(80), 80), 67),
    ],
    ids=["hard-n34-W4", "hard-n34-W67", "tree-n80-W67"],
)
def test_introduce_builds_arrays_only_for_survivors(make, width, monkeypatch):
    """Every introduce builds arrays for exactly the entries it returns."""
    inst = make()
    g, col = inst.graph, inst.colouring
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    config = HeuristicConfig(width=width, check_invariants=True)
    solver = _SurvivorSolver(g, col, nice, config)

    class Recorded(PartialSolution):
        __slots__ = ()

        def __init__(self, *args) -> None:
            super().__init__(*args)
            solver.built.append(self)

    monkeypatch.setattr("mhv.heuristic.PartialSolution", Recorded)
    solver.solve()
    assert solver.introduces == sum(1 for node in nice.nodes if node.kind == NodeKind.INTRODUCE)


def test_verify_rejects_an_unbuilt_introduce_entry(monkeypatch):
    """An introduce offer that leaves its node without arrays fails loudly."""
    g = Graph(3, [(0, 1), (1, 2)])
    solver = _solver(g, PartialColouring(2, {0: 1}), width=4, check_invariants=True)
    monkeypatch.setattr(solver, "_materialise", lambda beam: beam)
    with pytest.raises(AssertionError, match="unbuilt entry"):
        solver.solve()


def test_introduce_maybe_happy_matching_colour_offers_happy():
    # Path 0-1; introduce 1 after 0 is committed.
    g = Graph(2, [(0, 1)])
    solver = _solver(g, PartialColouring(2), width=67)
    idx = _introduce_idx(solver, 1)
    child = Beam(67)
    child_idx = solver.nice.nodes[idx].children[0]
    child.insert(solver.entry([1, 0], [ASSUMED_UNHAPPY, MAYBE_HAPPY], node=child_idx), solver.rng)
    beam = solver.handle_introduce(idx, child)
    states = _states(solver, beam, idx, 1)
    assert (1, HAPPY) in states
    assert (1, ASSUMED_UNHAPPY) in states
    assert (2, UNHAPPY) in states
    # Colouring 1 differently demotes the consistent neighbour.
    mismatch = next(
        labels for colours, labels in (solver.arrays(sol, idx) for sol in beam) if colours[1] == 2
    )
    assert mismatch[0] == UNHAPPY


def test_naive_count_trap_instance():
    """A branch with an early happy vertex must not shadow the branch whose
    potential (MAYBE_HAPPY) vertices carry the eventual optimum.

    Triangle 0-1-2 with a pendant 3 on 2; vertex 3 is precoloured 1 and
    vertex 0 precoloured 2.  Colouring 2 with colour 1 makes the pendant
    happy immediately but strands the triangle; colouring the triangle 2
    yields the optimum of two happy vertices.
    """
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    colouring = PartialColouring(2, {3: 1, 0: 2})
    assert brute_force(g, colouring).happy == 2

    from mhv.treedec import TreeDecomposition

    td = TreeDecomposition(
        4, (frozenset({0, 1, 2}), frozenset({2, 3})), frozenset({(0, 1)})
    )
    nice = make_nice(td, g)
    solver = HeuristicSolver(g, colouring, nice, HeuristicConfig(width=67, weights=TUNED))
    idx = _introduce_idx(solver, 0)
    target = None
    for node_idx, beam in solver.beams():
        if node_idx == idx:
            target = list(beam)
    assert target is not None
    best = max(target, key=lambda s: s.score)
    best_colours, best_labels = solver.arrays(best, idx)
    # The winner colours the triangle side and leans on potential happiness.
    assert best_colours[2] == 2
    assert best_labels[0] == HAPPY
    assert best.counts[2] >= 1, "the winning branch counts a MAYBE_HAPPY vertex"
    pendant_branch = [s for s in target if solver.arrays(s, idx)[0][2] == 1]
    assert pendant_branch, "the trap branch is still represented"
    assert all(s.score < best.score for s in pendant_branch)

    result = solve_heuristic(g, colouring, solver.nice, HeuristicConfig(width=67))
    assert result.happy == 2 and result.provably_optimal


# -- forget ------------------------------------------------------------------


def test_forget_keeps_best_of_equal_bag_states():
    g = Graph(2, [(0, 1)])
    solver = _solver(g, PartialColouring(2), width=67)
    forget_idx = next(
        i for i, node in enumerate(solver.nice.nodes) if node.kind == NodeKind.FORGET
    )
    vtx = solver.nice.nodes[forget_idx].vertex
    child_idx = solver.nice.nodes[forget_idx].children[0]
    # Two solutions agreeing on the remaining bag vertex (colour 1, HAPPY)
    # but with different scores for the forgotten one.
    strong = solver.entry([1, 1], [HAPPY, HAPPY], node=child_idx)
    weak_labels = [HAPPY, HAPPY]
    weak_colours = [1, 1]
    weak_colours[vtx] = 2
    weak_labels[vtx] = UNHAPPY
    weak = solver.entry(weak_colours, weak_labels, node=child_idx)
    child = Beam(67)
    child.insert(weak, solver.rng)
    child.insert(strong, solver.rng)
    beam = solver.handle_forget(forget_idx, child)
    assert len(beam) == 1
    assert beam.best().score == max(strong.score, weak.score)


def test_forget_promotes_assumed_unhappy():
    g = Graph(2, [(0, 1)])
    solver = _solver(g, PartialColouring(2), width=67, weights=TUNED)
    forget_idx = next(
        i for i, node in enumerate(solver.nice.nodes) if node.kind == NodeKind.FORGET
    )
    vtx = solver.nice.nodes[forget_idx].vertex
    labels = [HAPPY, HAPPY]
    labels[vtx] = ASSUMED_UNHAPPY
    child = Beam(67)
    sol = solver.entry([1, 1], labels, node=solver.nice.nodes[forget_idx].children[0])
    child.insert(sol, solver.rng)
    before = sol.score
    beam = solver.handle_forget(forget_idx, child)
    after = beam.best()
    assert solver.arrays(after, forget_idx)[1][vtx] == HAPPY
    assert after.counts == (2, 0, 0, 0)
    assert after.score - before == TUNED.happy - TUNED.assumed_unhappy


def _dropping_forget(solver):
    """A forget node whose N[bag] lacks a vertex of its child's that has a
    neighbour left in it: (node, child, leaving vertex, neighbour)."""
    for idx, node in enumerate(solver.nice.nodes):
        if node.kind != NodeKind.FORGET:
            continue
        child = node.children[0]
        kept = set(solver.node_layout(idx))
        for u in sorted(set(solver.node_layout(child)) - kept):
            for v in sorted(solver.adj[u]):
                if v in kept:
                    return idx, child, u, v
    raise AssertionError("no forget drops a vertex next to the ring")


def test_forget_checks_each_leaving_label_against_the_colouring():
    """Debug mode compares the label of every vertex leaving N[bag] with the
    label its colouring gives it, the premise of the traceback."""
    g = Graph(5, [(i, i + 1) for i in range(4)])
    solver = _solver(g, PartialColouring(2), width=8, check_invariants=True)
    idx, child, u, v = _dropping_forget(solver)
    colours = [2] * 5
    colours[u] = 1
    # u has a neighbour of another colour, so UNHAPPY is its label.
    for label, fails in ((UNHAPPY, False), (HAPPY, True)):
        labels = [UNHAPPY] * 5
        labels[u] = label
        beam = Beam(8)
        beam.insert(solver.entry(colours, labels, node=child), solver.rng)
        if fails:
            with pytest.raises(AssertionError, match=r"leaves N\[bag\]"):
                solver.handle_forget(idx, beam)
        else:
            solver.handle_forget(idx, beam)


def test_forget_marks_a_conflict_that_leaves_n_bag():
    """A ring vertex whose conflicting neighbour leaves N[bag] keeps that
    conflict as FAR_UNHAPPY, read out as UNHAPPY; without the conflict its
    label stays."""
    g = Graph(5, [(i, i + 1) for i in range(4)])
    solver = _solver(g, PartialColouring(2), width=8)
    idx, child, u, v = _dropping_forget(solver)
    for colour_u, expected in ((2, HAPPY), (1, FAR_UNHAPPY)):
        colours = [2] * 5
        colours[u] = colour_u
        beam = Beam(8)
        beam.insert(solver.entry(colours, [HAPPY] * 5, node=child), solver.rng)
        sol = solver.handle_forget(idx, beam).best()
        assert {u: lab for u, _, lab in solver._read(sol, idx)}[v] == expected
        assert solver.arrays(sol, idx)[1][v] == (UNHAPPY if expected == FAR_UNHAPPY else HAPPY)


# -- distance ----------------------------------------------------------------


def _distance_fixture():
    # 0-1 in the bag; 2 hangs off 1; 3 isolated.  Entries of the node whose
    # bag is {0, 1}, which store 0, 1 and 2.
    g = Graph(4, [(0, 1), (1, 2)])
    solver = _solver(g, PartialColouring(2), width=8)
    idx = _bag_node(solver, 0, 1)
    a = solver.entry([1, 1, 1, 0], [ASSUMED_UNHAPPY, HAPPY, HAPPY, UNKNOWN], node=idx)
    b = solver.entry([1, 2, 2, 0], [ASSUMED_UNHAPPY, HAPPY, HAPPY, UNKNOWN], node=idx)
    return solver, idx, a, b


def test_distance_identical_is_zero():
    solver, _, a, _ = _distance_fixture()
    assert solver.tuple_distance(a, a, solver.distance_masks((0, 1), a)) == 0


def test_distance_all_ones_counts_colour_and_label():
    solver, idx, a, b = _distance_fixture()
    solver = HeuristicSolver(
        solver.g,
        PartialColouring(2),
        solver.nice,
        HeuristicConfig(width=8, join_distance_weighting="all_ones"),
    )
    # vertex 1 differs in colour only; labels agree.
    assert solver.tuple_distance(a, b, solver.distance_masks((0, 1), a)) == 1
    c = solver.entry(solver.arrays(b, idx)[0], [ASSUMED_UNHAPPY, UNHAPPY, HAPPY, UNKNOWN], node=idx)
    assert solver.tuple_distance(a, c, solver.distance_masks((0, 1), a)) == 2


def test_distance_blind_when_no_external_neighbour():
    solver, idx, a, b = _distance_fixture()
    solver = HeuristicSolver(
        solver.g,
        PartialColouring(2),
        solver.nice,
        HeuristicConfig(width=8, join_distance_weighting="has_external_neighbour"),
    )
    # Vertex 0 has no neighbour outside the bag {0, 1}: weight 0.
    c = solver.entry([2, 1, 1, 0], [UNHAPPY, HAPPY, HAPPY, UNKNOWN], node=idx)
    assert solver.tuple_distance(a, c, solver.distance_masks((0, 1), a)) == 0
    # Vertex 1 has external neighbour 2: weight 1 per differing dimension.
    assert solver.tuple_distance(a, b, solver.distance_masks((0, 1), a)) == 1


# -- merges -------------------------------------------------------------------


def _merge_fixture():
    """Two entries of a node whose bag is {3, 4}, a join's: N[bag] is
    {3, 4, 5, 7}, and 6 and 8 are coloured below it."""
    edges = [(3, 4), (3, 5), (5, 6), (4, 7), (7, 8), (0, 1), (1, 2)]
    g = Graph(9, edges)
    solver = _solver(g, PartialColouring(2), width=16)
    idx = _bag_node(solver, 3, 4)
    outer = solver.entry(
        [0, 0, 0, 1, 2, 1, 1, 0, 0],
        [UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, HAPPY, HAPPY, MAYBE_HAPPY, UNKNOWN],
        node=idx,
    )
    inner = solver.entry(
        [0, 0, 0, 1, 2, 0, 0, 2, 2],
        [UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, MAYBE_HAPPY, UNKNOWN, HAPPY, HAPPY],
        node=idx,
    )
    return solver, idx, outer, inner


def test_merge_exact_two_sided():
    solver, idx, outer, inner = _merge_fixture()
    merged = solver.merge_exact(outer, inner)
    colours, labels = solver.arrays(merged, idx)
    assert colours == bytes([0, 0, 0, 1, 2, 1, 1, 2, 2])
    assert labels[0] == UNKNOWN
    assert labels[1] == UNKNOWN
    assert labels[2] == UNKNOWN
    assert merged.counts == (4, 2, 0, 0)
    assert merged.counts == _derived_counts(solver, merged, idx)
    assert merged.score == evaluate(solver.weights, merged.counts)


def test_merge_exact_with_bag_only_inner_keeps_outer_counts():
    solver, idx, outer, _ = _merge_fixture()
    bag_only = solver.entry(
        [0, 0, 0, 1, 2, 0, 0, 0, 0],
        [UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, MAYBE_HAPPY, UNKNOWN, MAYBE_HAPPY, UNKNOWN],
        node=idx,
    )
    merged = solver.merge_exact(outer, bag_only)
    assert solver.arrays(merged, idx)[0] == solver.arrays(outer, idx)[0]
    assert merged.counts == outer.counts


def test_merge_exact_unhappy_dominates_assumed_unhappy():
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(g, PartialColouring(2), width=8)
    # Bag = {0}; side a saw a conflict with its interior 1, side b did not.
    idx = _bag_node(solver, 0)
    a = solver.entry([1, 2, 0], [UNHAPPY, UNHAPPY, MAYBE_HAPPY], node=idx)
    b = solver.entry([1, 0, 1], [ASSUMED_UNHAPPY, MAYBE_HAPPY, HAPPY], node=idx)
    merged = solver.merge_exact(b, a)
    assert solver.arrays(merged, idx)[1][0] == UNHAPPY
    merged2 = solver.merge_exact(a, b)
    assert solver.arrays(merged2, idx)[1][0] == UNHAPPY


def test_merge_copy_flips_conflicting_labels():
    """Copying bag decisions from one side can invalidate the other side's
    settled labels; the pasted vertex next to a differently coloured bag
    vertex must end up UNHAPPY."""
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(
        g, PartialColouring(2), width=8,
    )
    # Bag {0}: outer colours it 1 with interior 1 happy; inner colours it 2
    # with interior 2 happy.
    idx = _bag_node(solver, 0)
    outer = solver.entry([1, 1, 0], [ASSUMED_UNHAPPY, HAPPY, MAYBE_HAPPY], node=idx)
    inner = solver.entry([2, 0, 2], [ASSUMED_UNHAPPY, MAYBE_HAPPY, HAPPY], node=idx)
    merged = solver._merge_copy(outer, inner, solver._ring(frozenset({0})))
    colours, labels = solver.arrays(merged, idx)
    assert colours == bytes([1, 1, 2])
    assert labels[1] == HAPPY
    assert labels[2] == UNHAPPY  # flipped: neighbour 0 is colour 1
    assert labels[0] == UNHAPPY  # bag vertex now has a conflict too
    assert merged.counts == _derived_counts(solver, merged, idx)


def test_merge_copy_upgrades_vanished_conflicts():
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(g, PartialColouring(2), width=8)
    idx = _bag_node(solver, 0)
    outer = solver.entry([2, 2, 0], [ASSUMED_UNHAPPY, HAPPY, MAYBE_HAPPY], node=idx)
    # Inner committed 0 to colour 1, so its interior 2 (colour 2) was unhappy.
    inner = solver.entry([1, 0, 2], [ASSUMED_UNHAPPY, MAYBE_HAPPY, UNHAPPY], node=idx)
    merged = solver._merge_copy(outer, inner, solver._ring(frozenset({0})))
    # With the outer's bag colour the conflict is gone: 2 is genuinely happy.
    colours, labels = solver.arrays(merged, idx)
    assert colours == bytes([2, 2, 2])
    assert labels[2] == HAPPY


def test_merge_methods_degenerate_to_exact_on_identical_bags():
    solver, idx, outer, inner = _merge_fixture()
    ring = solver._ring(frozenset({3, 4}))
    exact = solver.merge_exact(outer, inner)
    copy1 = solver._merge_copy(outer, inner, ring)
    copy2 = solver._merge_copy(inner, outer, ring)
    greedy = solver._merge_greedy(outer, inner, (3, 4), ring)
    for merged in (copy1, copy2, greedy):
        assert solver.arrays(merged, idx)[0] == solver.arrays(exact, idx)[0]
        assert merged.counts == exact.counts


def test_merge_greedy_invariants_on_mismatched_tuples():
    solver, idx, outer, inner = _merge_fixture()
    flipped = solver.entry(
        bytes([0, 0, 0, 2, 1, 0, 0, 1, 1]),
        bytes([UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, MAYBE_HAPPY, UNKNOWN, HAPPY, HAPPY]),
        node=idx,
    )
    merged = solver._merge_greedy(outer, flipped, (3, 4), solver._ring(frozenset({3, 4})))
    assert merged.counts == _derived_counts(solver, merged, idx)
    colours, labels = solver.arrays(merged, idx)
    for v in range(9):
        if labels[v] == HAPPY:
            cv = colours[v]
            for u in solver.adj[v]:
                assert colours[u] in (0, cv)


def _labelled(solver, colours, idx):
    """An entry of node ``idx`` with the given colours, HAPPY coloured
    vertices and, on N[bag], the border labels the colouring implies."""
    border = bytes(colours)
    stored = solver.node_layout(idx)
    labels = [
        HAPPY if c else solver._border_label(v, border) if v in stored else UNKNOWN
        for v, c in enumerate(colours)
    ]
    return solver.entry(colours, labels, node=idx)


def test_verify_enforces_labels_only_next_to_the_bag():
    """The merges skip every vertex outside N[bag]; ``_verify`` must reject a
    state in which a coloured vertex away from the bag gives a label to an
    uncoloured vertex outside N[bag], which the entry does not store."""
    g = Graph(7, [(i, i + 1) for i in range(6)])
    solver = _solver(g, PartialColouring(2), width=8)
    idx = next(
        i for i, node in enumerate(solver.nice.nodes) if node.bag and max(node.bag) <= 2
    )
    bag = solver.nice.nodes[idx].bag
    colours = [1 if v in bag else 0 for v in range(7)]
    valid = Beam(8)
    valid.insert(_labelled(solver, colours, idx), solver.rng)
    solver._verify(idx, valid, frozenset(bag))

    # Vertex 5 coloured as if forgotten below: 4 and 6 become MAYBE_HAPPY.
    colours[5] = 1
    broken = Beam(8)
    broken.insert(_labelled(solver, colours, idx), solver.rng)
    with pytest.raises(AssertionError, match=r"outside N\(bag\)"):
        solver._verify(idx, broken, frozenset(bag) | {5})


# -- join ---------------------------------------------------------------------


def _join_solver():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({1, 3}))
    from mhv.treedec import TreeDecomposition

    td = TreeDecomposition(4, bags, frozenset({(0, 1), (0, 2)}))
    nice = make_nice(td, g)
    solver = HeuristicSolver(g, PartialColouring(2), nice, HeuristicConfig(width=67))
    join_idx = next(
        i for i, node in enumerate(solver.nice.nodes) if node.kind == NodeKind.JOIN
    )
    return solver, join_idx


def test_join_with_bag_only_side_preserves_other_side():
    solver, join_idx = _join_solver()
    beams = {}
    for idx, beam in solver.beams():
        beams[idx] = beam
        if idx == join_idx:
            break
    node = solver.nice.nodes[join_idx]
    left = beams[node.children[0]]
    bag = sorted(node.bag)
    crafted = Beam(67)
    for sol_colours, sol_labels in (solver.arrays(sol, node.children[0]) for sol in left):
        colours = bytearray(solver.n)
        labels = bytearray(solver.n)
        for v in bag:
            colours[v] = sol_colours[v]
            labels[v] = sol_labels[v]
        for v in range(solver.n):
            if not colours[v]:
                labels[v] = solver._border_label(v, colours)
        crafted.insert(solver.entry(colours, labels, node=node.children[1]), solver.rng)
    out = solver.handle_join(join_idx, left, crafted)
    assert len(out) == len(left)
    assert sorted(s.counts for s in out) == sorted(s.counts for s in left)


def test_join_mismatch_only_lists_use_backup():
    solver, join_idx = _join_solver()
    first, second = solver.nice.nodes[join_idx].children
    a = solver.entry(
        [1, 1, 1, 0],
        [HAPPY, ASSUMED_UNHAPPY, HAPPY, MAYBE_HAPPY],
        node=first,
    )
    b = solver.entry(
        [2, 2, 0, 2],
        [HAPPY, ASSUMED_UNHAPPY, MAYBE_HAPPY, HAPPY],
        node=second,
    )
    left = Beam(67)
    left.insert(a, solver.rng)
    right = Beam(67)
    right.insert(b, solver.rng)
    out = solver.handle_join(join_idx, left, right)
    assert len(out) == 2  # copy_bag yields both role assignments
    for sol in out:
        assert sol.counts == _derived_counts(solver, sol, join_idx)


def test_join_builds_backups_only_without_an_exact_merge(monkeypatch):
    """Under the default knobs a join that makes an exact merge computes no
    distance and makes no heuristic merge.  One that makes none works out its
    distance masks once and, per outer entry, searches the nearest inner
    entry (one ``tuple_distance`` per inner entry) and makes one
    ``merge_heuristic`` call, two ``copy_bag`` entries.  Calls are counted by
    patching the class, as perfbench's tracer does."""
    calls = dict.fromkeys(
        ("merge_exact", "distance_masks", "tuple_distance", "merge_heuristic", "_merge_copy"), 0
    )
    for name in calls:
        def counted(self, *args, name=name, original=getattr(HeuristicSolver, name)):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(HeuristicSolver, name, counted)
    joins = []
    handle_join = HeuristicSolver.handle_join

    def counted_join(self, idx, first, second):
        before = dict(calls)
        beam = handle_join(self, idx, first, second)
        # The smaller list is the outer one by default.
        sizes = sorted((len(first), len(second)))
        joins.append((*sizes, {name: calls[name] - before[name] for name in calls}))
        return beam

    monkeypatch.setattr(HeuristicSolver, "handle_join", counted_join)
    for seed in (61, 62):
        inst = generate(hardest_regime(30, 3, seed=seed))
        _solver(inst.graph, inst.colouring, width=4).solve()
    matched = unmatched = 0
    for outer, inner, made in joins:
        if made["merge_exact"]:
            matched += 1
            assert made["distance_masks"] == made["tuple_distance"] == 0
            assert made["merge_heuristic"] == made["_merge_copy"] == 0
        else:
            unmatched += 1
            assert made["distance_masks"] == 1
            assert made["tuple_distance"] == outer * inner
            assert made["merge_heuristic"] == outer
            assert made["_merge_copy"] == 2 * outer
    assert matched and unmatched


class _JoinPremiseSolver(HeuristicSolver):
    """Checks at every join the two premises that let the join work out its
    tables once, and counts the ``distance_weights`` calls of the join."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.joins = self.ring_lanes = self.weight_calls = self.most_weight_calls = 0

    def distance_weights(self, bag, outer):
        self.weight_calls += 1
        return super().distance_weights(bag, outer)

    def handle_join(self, idx, first, second):
        node = self.nice.nodes[idx]
        bag = tuple(sorted(node.bag))
        ring = self._ring(node.bag)
        for side in (first, second):
            # The weights are fixed per side of the join.
            weights = {HeuristicSolver.distance_weights(self, bag, sol) for sol in side}
            assert len(weights) == 1, f"node {idx}: one side gives weights {weights}"
            for sol in side:
                colours = self.arrays(sol, idx)[0]
                for v, lane in self.node_layout(idx).items():
                    if lane in ring and not colours[v]:
                        want = self._border_label(v, colours)
                        assert self._ring_label(sol.state, *ring[lane]) == want, f"node {idx}: {v}"
                        self.ring_lanes += 1
        self.joins += 1
        self.weight_calls = 0
        beam = super().handle_join(idx, first, second)
        self.most_weight_calls = max(self.most_weight_calls, self.weight_calls)
        return beam


@pytest.mark.parametrize("weighting", DISTANCE_WEIGHTINGS)
def test_join_tables_rest_on_premises_that_hold(weighting):
    """Under every distance weighting, every entry of one join child gives
    the same distance weights, ``_ring_label`` agrees with ``_border_label``
    on every uncoloured ring vertex, and a join works out its weights at most
    once."""
    rng = random.Random(2020)
    instances = [tree_instance(rng, 30, q=0.3)]
    instances += fuzz_instances(3, seed=2021, n_lo=10, n_hi=14, p_lo=0.15, p_hi=0.35)
    config = HeuristicConfig(
        width=4,
        join_distance_weighting=weighting,
        join_merge_method="greedy_match",
        check_invariants=True,
    )
    joins = ring_lanes = 0
    for inst in instances:
        nice = make_nice(min_fill_decompose(inst.graph, seed=0), inst.graph)
        solver = _JoinPremiseSolver(inst.graph, inst.colouring, nice, config)
        solver.solve()
        assert solver.most_weight_calls <= 1
        joins += solver.joins
        ring_lanes += solver.ring_lanes
    assert joins and ring_lanes


# -- beam ---------------------------------------------------------------------


def test_beam_never_exceeds_capacity_and_orders_by_score():
    rng = random.Random(5)
    beam = Beam(5)
    for i in range(50):
        counts = (i % 7, 0, 0, 0)
        sol = PartialSolution(0, counts, counts[0])
        beam.insert(sol, rng)
        scores = [s.score for s in beam]
        assert scores == sorted(scores)
        assert len(beam) <= 5
    assert beam.at_capacity
    assert beam.best().score == 6


def test_beam_discards_strictly_worst_newcomer():
    rng = random.Random(9)
    beam = Beam(2)
    beam.insert(PartialSolution(0, (5, 0, 0, 0), 5), rng)
    beam.insert(PartialSolution(0, (7, 0, 0, 0), 7), rng)
    assert not beam.insert(PartialSolution(0, (1, 0, 0, 0), 1), rng)
    assert [s.score for s in beam] == [5, 7]


def test_beam_eviction_among_worst_is_seeded_random():
    seen = set()
    for seed in range(30):
        rng = random.Random(seed)
        beam = Beam(2)
        sols = [PartialSolution(0, (0, 0, 0, 0), 3) for _ in range(3)]
        for sol in sols:  # first, second, newcomer
            beam.insert(sol, rng)
        seen.add(tuple(map(sols.index, beam)))
    assert len(seen) > 1  # different victims across seeds


def test_beam_equal_scores_keep_insertion_order():
    rng = random.Random(1)
    beam = Beam(10)
    sols = [PartialSolution(0, (0, 0, 0, 0), 4) for _ in range(4)]
    for sol in sols:
        beam.insert(sol, rng)
    assert list(beam) == sols


# Properties of the selection rule, over tie-heavy random scores and several
# ``extend`` calls per beam.  Each entry's happy count is its offer number, and
# the held entries were offered before any new offer, so insertion order (held
# entries first) can be read back from the beam.

SELECTION_CAPACITIES = [1, 2, 3, 4, 5, 67]


class _SampleCountingRandom(random.Random):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.samples = 0

    def sample(self, *args, **kwargs):
        self.samples += 1
        return super().sample(*args, **kwargs)


def _selection_calls(capacity, seed):
    """Yield (beam, rng, offers) for a few successive ``extend`` calls on one
    beam; the caller makes each call."""
    draw = random.Random(seed)
    rng = _SampleCountingRandom(seed)
    beam = Beam(capacity)
    spread = draw.choice((0, 1, 3, 10))
    made = 0
    for _ in range(draw.randint(1, 6)):
        offers = []
        for _ in range(draw.randint(0, 2 * capacity + 5)):
            score = draw.randint(-spread, spread)
            offers.append((score, PartialSolution(0, (made, 0, 0, 0), score)))
            made += 1
        yield beam, rng, offers


def _check_each_selection(capacity, check):
    """Run ``check(beam, rng, held, offers, state, samples)`` after every
    call, with the beam's (score, entry) pairs, the RNG state and the sample
    count as they were before it."""
    for seed in range(40):
        for beam, rng, offers in _selection_calls(capacity, seed):
            held = list(zip(beam.scores, beam.entries))
            state, samples = rng.getstate(), rng.samples
            beam.extend(offers, rng)
            check(beam, rng, held, offers, state, samples)


@pytest.mark.parametrize("capacity", SELECTION_CAPACITIES)
def test_selection_keeps_the_top_scores(capacity):
    def check(beam, rng, held, offers, state, samples):
        pooled = sorted(score for score, _ in held + offers)
        assert beam.scores == pooled[-capacity:]
        assert [sol.score for sol in beam] == beam.scores
        # Every entry above the worst kept score survives.
        if beam.scores:
            kept = {id(sol) for sol in beam}
            assert all(id(sol) in kept for score, sol in held + offers if score > beam.scores[0])

    _check_each_selection(capacity, check)


@pytest.mark.parametrize("capacity", SELECTION_CAPACITIES)
def test_selection_draws_once_exactly_when_the_cut_splits_a_tie(capacity):
    splits = 0

    def check(beam, rng, held, offers, state, samples):
        nonlocal splits
        ranked = sorted(score for score, _ in held + offers)
        cut = len(ranked) - capacity
        if not (cut > 0 and ranked[cut - 1] == ranked[cut]):
            assert rng.getstate() == state and rng.samples == samples
            return
        splits += 1
        assert rng.samples == samples + 1
        # That one sample picks the kept entries of the run at the cut, and
        # makes no other draw.
        worst = ranked[cut]
        twin = random.Random()
        twin.setstate(state)
        twin.sample(range(ranked.count(worst)), beam.scores.count(worst))
        assert rng.getstate() == twin.getstate()

    _check_each_selection(capacity, check)
    assert splits > 0


@pytest.mark.parametrize("capacity", SELECTION_CAPACITIES)
def test_selection_keeps_equal_scores_in_insertion_order(capacity):
    def check(beam, rng, held, offers, state, samples):
        order = [(sol.score, sol.counts[0]) for sol in beam]
        assert order == sorted(order)

    _check_each_selection(capacity, check)


@pytest.mark.parametrize("capacity", SELECTION_CAPACITIES)
def test_empty_extend_is_a_no_op(capacity):
    for seed in range(20):
        for beam, rng, offers in _selection_calls(capacity, seed):
            entries, scores = list(beam.entries), list(beam.scores)
            state, samples = rng.getstate(), rng.samples
            beam.extend([], rng)
            assert beam.entries == entries and beam.scores == scores
            assert rng.getstate() == state and rng.samples == samples
            beam.extend(offers, rng)


# -- solver surface ------------------------------------------------------------


def test_solver_deterministic_for_fixed_seed():
    inst = fuzz_instances(1, seed=901, n_lo=8, n_hi=9, p_lo=0.3, p_hi=0.5)[0]
    nice = make_nice(min_fill_decompose(inst.graph, seed=0), inst.graph)
    config = HeuristicConfig(width=4, seed=11, join_loop_choice="random")
    r1 = solve_heuristic(inst.graph, inst.colouring, nice, config)
    r2 = solve_heuristic(inst.graph, inst.colouring, nice, config)
    assert r1.colouring == r2.colouring
    assert r1.happy == r2.happy
    assert r1.provably_optimal == r2.provably_optimal


def test_solver_output_extends_input_and_counts_match():
    for inst in fuzz_instances(25, seed=907):
        nice = make_nice(min_fill_decompose(inst.graph, seed=1), inst.graph)
        result = solve_heuristic(
            inst.graph, inst.colouring, nice, HeuristicConfig(width=8, seed=2)
        )
        assert result.colouring.extends(inst.colouring)
        assert count_happy(inst.graph, result.colouring) == result.happy
        assert result.final_labels is not None
        for v in range(inst.graph.n):
            expected = HAPPY if is_happy(inst.graph, result.colouring, v) else UNHAPPY
            assert result.final_labels[v] == expected


def test_solver_never_beats_oracle():
    for inst in fuzz_instances(30, seed=911):
        nice = make_nice(min_fill_decompose(inst.graph, seed=3), inst.graph)
        opt = brute_force(inst.graph, inst.colouring).happy
        for width in (1, 3, 67):
            result = solve_heuristic(
                inst.graph, inst.colouring, nice, HeuristicConfig(width=width, seed=4)
            )
            assert result.happy <= opt
            if result.provably_optimal:
                assert result.happy == opt


def test_fully_precoloured_instance():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    colouring = PartialColouring(2, {0: 1, 1: 1, 2: 2, 3: 2})
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    result = solve_heuristic(g, colouring, nice)
    assert result.colouring.colours == (1, 1, 2, 2)
    assert result.happy == 2
    assert result.provably_optimal


def test_tree_with_recommended_width_is_exact():
    from corpus import tree_instance

    rng = random.Random(919)
    for _ in range(15):
        inst = tree_instance(rng, rng.randint(3, 10), k=3)
        nice = make_nice(min_fill_decompose(inst.graph, seed=0), inst.graph)
        assert nice.width == 1
        result = solve_heuristic(
            inst.graph, inst.colouring, nice, HeuristicConfig(width=36, seed=0)
        )
        assert result.provably_optimal
        assert result.happy == brute_force(inst.graph, inst.colouring).happy
