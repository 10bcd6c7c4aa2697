"""Beam DP handlers, merges, distances and the solver surface."""

import random

import pytest

from mhv.errors import InputError
from mhv.graph import Graph, PartialColouring, count_happy, is_happy
from mhv.heuristic import (
    ASSUMED_UNHAPPY,
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

from corpus import fuzz_instances

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


def _sol(solver, colours, labels):
    counts = solver._recount(bytes(labels))
    return PartialSolution(bytes(colours), bytes(labels), counts, solver._score(counts))


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
    assert set(sol.colours) == {0}
    assert set(sol.labels) == {UNKNOWN}


# -- introduce --------------------------------------------------------------


def test_introduce_isolated_vertex_all_colour_label_pairs():
    g = Graph(1)
    solver = _solver(g, PartialColouring(2), width=67)
    idx = _introduce_idx(solver, 0)
    beam = solver.handle_introduce(idx, solver.handle_leaf(0))
    states = {(s.colours[0], s.labels[0]) for s in beam}
    assert states == {(1, HAPPY), (1, ASSUMED_UNHAPPY), (2, HAPPY), (2, ASSUMED_UNHAPPY)}


def test_introduce_precoloured_vertex_restricted_to_its_colour():
    g = Graph(1)
    solver = _solver(g, PartialColouring(2, {0: 1}), width=67)
    idx = _introduce_idx(solver, 0)
    beam = solver.handle_introduce(idx, solver.handle_leaf(0))
    states = {(s.colours[0], s.labels[0]) for s in beam}
    assert states == {(1, HAPPY), (1, ASSUMED_UNHAPPY)}


def test_introduce_with_conflicting_precoloured_neighbours_is_unhappy():
    # 0 is adjacent to vertices precoloured 1 and 2; any colour conflicts.
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(g, PartialColouring(2, {1: 1, 2: 2}), width=67)
    idx = _introduce_idx(solver, 0)
    beam = solver.handle_introduce(idx, solver.handle_leaf(0))
    assert {(s.colours[0], s.labels[0]) for s in beam} == {(1, UNHAPPY), (2, UNHAPPY)}


def test_introduce_backup_demotes_conflicting_happy_neighbours():
    g = Graph(3, [(0, 2), (1, 2)])
    solver = _solver(g, PartialColouring(2), width=67)
    idx = _introduce_idx(solver, 2)
    # Child state: 0 and 1 committed to different colours, both designated happy.
    child = Beam(67)
    child.insert(_sol(solver, [1, 2, 0], [HAPPY, HAPPY, UNHAPPY]), solver.rng)
    beam = solver.handle_introduce(idx, child)
    assert len(beam) == 2  # one backup per colour
    for sol in beam:
        assert sol.labels[2] == UNHAPPY
        demoted = [v for v in (0, 1) if sol.labels[v] == UNHAPPY]
        kept = [v for v in (0, 1) if sol.labels[v] == HAPPY]
        assert len(demoted) == 1 and len(kept) == 1
        assert sol.colours[kept[0]] == sol.colours[2]


def test_introduce_maybe_happy_matching_colour_offers_happy():
    # Path 0-1; introduce 1 after 0 is committed.
    g = Graph(2, [(0, 1)])
    solver = _solver(g, PartialColouring(2), width=67)
    idx = _introduce_idx(solver, 1)
    child = Beam(67)
    child.insert(_sol(solver, [1, 0], [ASSUMED_UNHAPPY, MAYBE_HAPPY]), solver.rng)
    beam = solver.handle_introduce(idx, child)
    states = {(s.colours[1], s.labels[1]) for s in beam}
    assert (1, HAPPY) in states
    assert (1, ASSUMED_UNHAPPY) in states
    assert (2, UNHAPPY) in states
    # Colouring 1 differently demotes the consistent neighbour.
    mismatch = next(s for s in beam if s.colours[1] == 2)
    assert mismatch.labels[0] == UNHAPPY


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
    # The winner colours the triangle side and leans on potential happiness.
    assert best.colours[2] == 2
    assert best.labels[0] == HAPPY
    assert best.counts[2] >= 1, "the winning branch counts a MAYBE_HAPPY vertex"
    pendant_branch = [s for s in target if s.colours[2] == 1]
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
    # Two solutions agreeing on the remaining bag vertex (colour 1, HAPPY)
    # but with different scores for the forgotten one.
    strong = _sol(solver, [1, 1], [HAPPY, HAPPY])
    weak_labels = [HAPPY, HAPPY]
    weak_colours = [1, 1]
    weak_colours[vtx] = 2
    weak_labels[vtx] = UNHAPPY
    weak = _sol(solver, weak_colours, weak_labels)
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
    sol = _sol(solver, [1, 1], labels)
    child.insert(sol, solver.rng)
    before = sol.score
    beam = solver.handle_forget(forget_idx, child)
    after = beam.best()
    assert after.labels[vtx] == HAPPY
    assert after.counts == (2, 0, 0, 0)
    assert after.score - before == TUNED.happy - TUNED.assumed_unhappy


# -- distance ----------------------------------------------------------------


def _distance_fixture():
    # 0-1 in the bag; 2 hangs off 1; 3 isolated.
    g = Graph(4, [(0, 1), (1, 2)])
    solver = _solver(g, PartialColouring(2), width=8)
    a = _sol(solver, [1, 1, 1, 0], [ASSUMED_UNHAPPY, HAPPY, HAPPY, UNKNOWN])
    b = _sol(solver, [1, 2, 2, 0], [ASSUMED_UNHAPPY, HAPPY, HAPPY, UNKNOWN])
    return solver, a, b


def test_distance_identical_is_zero():
    solver, a, _ = _distance_fixture()
    assert solver.tuple_distance((0, 1), a, a) == 0


def test_distance_all_ones_counts_colour_and_label():
    solver, a, b = _distance_fixture()
    solver = HeuristicSolver(
        solver.g,
        PartialColouring(2),
        solver.nice,
        HeuristicConfig(width=8, join_distance_weighting="all_ones"),
    )
    # vertex 1 differs in colour only; labels agree.
    assert solver.tuple_distance((0, 1), a, b) == 1
    c = PartialSolution(b.colours, bytes([ASSUMED_UNHAPPY, UNHAPPY, HAPPY, UNKNOWN]), b.counts, b.score)
    assert solver.tuple_distance((0, 1), a, c) == 2


def test_distance_blind_when_no_external_neighbour():
    solver, a, b = _distance_fixture()
    solver = HeuristicSolver(
        solver.g,
        PartialColouring(2),
        solver.nice,
        HeuristicConfig(width=8, join_distance_weighting="has_external_neighbour"),
    )
    # Vertex 0 has no neighbour outside the bag {0, 1}: weight 0.
    c = PartialSolution(
        bytes([2, 1, 1, 0]), bytes([UNHAPPY, HAPPY, HAPPY, UNKNOWN]), a.counts, a.score
    )
    assert solver.tuple_distance((0, 1), a, c) == 0
    # Vertex 1 has external neighbour 2: weight 1 per differing dimension.
    assert solver.tuple_distance((0, 1), a, b) == 1


# -- merges -------------------------------------------------------------------


def _merge_fixture():
    edges = [(3, 4), (3, 5), (5, 6), (4, 7), (7, 8), (0, 1), (1, 2)]
    g = Graph(9, edges)
    solver = _solver(g, PartialColouring(2), width=16)
    outer = _sol(
        solver,
        [0, 0, 0, 1, 2, 1, 1, 0, 0],
        [UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, HAPPY, HAPPY, MAYBE_HAPPY, UNKNOWN],
    )
    inner = _sol(
        solver,
        [0, 0, 0, 1, 2, 0, 0, 2, 2],
        [UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, MAYBE_HAPPY, UNKNOWN, HAPPY, HAPPY],
    )
    return solver, outer, inner


def test_merge_exact_two_sided():
    solver, outer, inner = _merge_fixture()
    merged = solver.merge_exact(outer, inner, frozenset({3, 4}))
    assert merged.colours == bytes([0, 0, 0, 1, 2, 1, 1, 2, 2])
    assert merged.labels[0] == UNKNOWN
    assert merged.labels[1] == UNKNOWN
    assert merged.labels[2] == UNKNOWN
    assert merged.counts == (4, 2, 0, 0)
    assert merged.counts == solver._recount(merged.labels)
    assert merged.score == solver._score(merged.counts)


def test_merge_exact_with_bag_only_inner_keeps_outer_counts():
    solver, outer, _ = _merge_fixture()
    bag_only = _sol(
        solver,
        [0, 0, 0, 1, 2, 0, 0, 0, 0],
        [UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, MAYBE_HAPPY, UNKNOWN, MAYBE_HAPPY, UNKNOWN],
    )
    merged = solver.merge_exact(outer, bag_only, frozenset({3, 4}))
    assert merged.colours == outer.colours
    assert merged.counts == outer.counts


def test_merge_exact_unhappy_dominates_assumed_unhappy():
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(g, PartialColouring(2), width=8)
    # Bag = {0}; side a saw a conflict with its interior 1, side b did not.
    a = _sol(solver, [1, 2, 0], [UNHAPPY, UNHAPPY, MAYBE_HAPPY])
    b = _sol(solver, [1, 0, 1], [ASSUMED_UNHAPPY, MAYBE_HAPPY, HAPPY])
    merged = solver.merge_exact(b, a, frozenset({0}))
    assert merged.labels[0] == UNHAPPY
    merged2 = solver.merge_exact(a, b, frozenset({0}))
    assert merged2.labels[0] == UNHAPPY


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
    outer = _sol(solver, [1, 1, 0], [ASSUMED_UNHAPPY, HAPPY, MAYBE_HAPPY])
    inner = _sol(solver, [2, 0, 2], [ASSUMED_UNHAPPY, MAYBE_HAPPY, HAPPY])
    merged = solver._merge_copy(outer, inner, frozenset({0}))
    assert merged.colours == bytes([1, 1, 2])
    assert merged.labels[1] == HAPPY
    assert merged.labels[2] == UNHAPPY  # flipped: neighbour 0 is colour 1
    assert merged.labels[0] == UNHAPPY  # bag vertex now has a conflict too
    assert merged.counts == solver._recount(merged.labels)


def test_merge_copy_upgrades_vanished_conflicts():
    g = Graph(3, [(0, 1), (0, 2)])
    solver = _solver(g, PartialColouring(2), width=8)
    outer = _sol(solver, [2, 2, 0], [ASSUMED_UNHAPPY, HAPPY, MAYBE_HAPPY])
    # Inner committed 0 to colour 1, so its interior 2 (colour 2) was unhappy.
    inner = _sol(solver, [1, 0, 2], [ASSUMED_UNHAPPY, MAYBE_HAPPY, UNHAPPY])
    merged = solver._merge_copy(outer, inner, frozenset({0}))
    # With the outer's bag colour the conflict is gone: 2 is genuinely happy.
    assert merged.colours == bytes([2, 2, 2])
    assert merged.labels[2] == HAPPY


def test_merge_methods_degenerate_to_exact_on_identical_bags():
    solver, outer, inner = _merge_fixture()
    exact = solver.merge_exact(outer, inner, frozenset({3, 4}))
    copy1 = solver._merge_copy(outer, inner, frozenset({3, 4}))
    copy2 = solver._merge_copy(inner, outer, frozenset({3, 4}))
    greedy = solver._merge_greedy(outer, inner, (3, 4), frozenset({3, 4}))
    for merged in (copy1, copy2, greedy):
        assert merged.colours == exact.colours
        assert merged.counts == exact.counts


def test_merge_greedy_invariants_on_mismatched_tuples():
    solver, outer, inner = _merge_fixture()
    flipped = _sol(
        solver,
        bytes([0, 0, 0, 2, 1, 0, 0, 1, 1]),
        bytes([UNKNOWN, UNKNOWN, UNKNOWN, UNHAPPY, UNHAPPY, MAYBE_HAPPY, UNKNOWN, HAPPY, HAPPY]),
    )
    merged = solver._merge_greedy(outer, flipped, (3, 4), frozenset({3, 4}))
    assert merged.counts == solver._recount(merged.labels)
    for v in range(9):
        if merged.labels[v] == HAPPY:
            cv = merged.colours[v]
            for u in solver.adj[v]:
                assert merged.colours[u] in (0, cv)


def _labelled(solver, colours):
    """A state with the given colours, HAPPY coloured vertices and the border
    labels the colouring implies."""
    border = bytes(colours)
    labels = [HAPPY if c else solver._border_label(v, border) for v, c in enumerate(colours)]
    return _sol(solver, colours, labels)


def test_verify_enforces_labels_only_next_to_the_bag():
    """The merges skip every vertex outside N[bag]; ``_verify`` must reject a
    state in which a coloured vertex away from the bag gives a label to an
    uncoloured vertex outside N(bag)."""
    g = Graph(7, [(i, i + 1) for i in range(6)])
    solver = _solver(g, PartialColouring(2), width=8)
    idx = next(
        i for i, node in enumerate(solver.nice.nodes) if node.bag and max(node.bag) <= 2
    )
    bag = solver.nice.nodes[idx].bag
    colours = [1 if v in bag else 0 for v in range(7)]
    valid = Beam(8)
    valid.insert(_labelled(solver, colours), solver.rng)
    solver._verify(idx, valid, frozenset(bag))

    # Vertex 5 coloured as if forgotten below: 4 and 6 become MAYBE_HAPPY.
    colours[5] = 1
    broken = Beam(8)
    broken.insert(_labelled(solver, colours), solver.rng)
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
    bag = solver._bags[join_idx]
    crafted = Beam(67)
    for sol in left:
        colours = bytearray(solver.n)
        labels = bytearray(solver.n)
        for v in bag:
            colours[v] = sol.colours[v]
            labels[v] = sol.labels[v]
        for v in range(solver.n):
            if not colours[v]:
                labels[v] = solver._border_label(v, colours)
        counts = solver._recount(labels)
        crafted.insert(
            PartialSolution(bytes(colours), bytes(labels), counts, solver._score(counts)),
            solver.rng,
        )
    out = solver.handle_join(join_idx, left, crafted)
    assert len(out) == len(left)
    assert sorted(s.counts for s in out) == sorted(s.counts for s in left)


def test_join_mismatch_only_lists_use_backup():
    solver, join_idx = _join_solver()
    a = _sol(
        solver,
        [1, 1, 1, 0],
        [HAPPY, ASSUMED_UNHAPPY, HAPPY, MAYBE_HAPPY],
    )
    b = _sol(
        solver,
        [2, 2, 0, 2],
        [HAPPY, ASSUMED_UNHAPPY, MAYBE_HAPPY, HAPPY],
    )
    left = Beam(67)
    left.insert(a, solver.rng)
    right = Beam(67)
    right.insert(b, solver.rng)
    out = solver.handle_join(join_idx, left, right)
    assert len(out) == 2  # copy_bag yields both role assignments
    for sol in out:
        assert sol.counts == solver._recount(sol.labels)


# -- beam ---------------------------------------------------------------------


def test_beam_never_exceeds_capacity_and_orders_by_score():
    rng = random.Random(5)
    beam = Beam(5)
    for i in range(50):
        counts = (i % 7, 0, 0, 0)
        sol = PartialSolution(b"", b"", counts, counts[0])
        beam.insert(sol, rng)
        scores = [s.score for s in beam]
        assert scores == sorted(scores)
        assert len(beam) <= 5
    assert beam.at_capacity
    assert beam.best().score == 6


def test_beam_discards_strictly_worst_newcomer():
    rng = random.Random(9)
    beam = Beam(2)
    beam.insert(PartialSolution(b"", b"", (5, 0, 0, 0), 5), rng)
    beam.insert(PartialSolution(b"", b"", (7, 0, 0, 0), 7), rng)
    assert not beam.insert(PartialSolution(b"", b"", (1, 0, 0, 0), 1), rng)
    assert [s.score for s in beam] == [5, 7]


def test_beam_eviction_among_worst_is_seeded_random():
    seen = set()
    for seed in range(30):
        rng = random.Random(seed)
        beam = Beam(2)
        first = PartialSolution(b"a", b"", (0, 0, 0, 0), 3)
        second = PartialSolution(b"b", b"", (0, 0, 0, 0), 3)
        newcomer = PartialSolution(b"c", b"", (0, 0, 0, 0), 3)
        beam.insert(first, rng)
        beam.insert(second, rng)
        beam.insert(newcomer, rng)
        seen.add(tuple(s.colours for s in beam))
    assert len(seen) > 1  # different victims across seeds


def test_beam_equal_scores_keep_insertion_order():
    rng = random.Random(1)
    beam = Beam(10)
    sols = [PartialSolution(bytes([i]), b"", (0, 0, 0, 0), 4) for i in range(4)]
    for sol in sols:
        beam.insert(sol, rng)
    assert [s.colours for s in beam] == [bytes([i]) for i in range(4)]


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
