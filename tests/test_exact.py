"""Exact bounded-treewidth solver: its state cap, its pruning by precoloured
neighbours and its optimum against the brute-force oracle.

The DP reads the bags of the plain nice decomposition as they are, and every
node builds a table, each leaf one empty state."""

import re

import pytest

from mhv.errors import InputError, ResourceLimitError
from mhv.exact import DEFAULT_STATE_CAP, solve_exact
from mhv.graph import Graph, PartialColouring, count_happy
from mhv.harness import generate, hardest_regime
from mhv.heuristic import HeuristicConfig, solve_heuristic
from mhv.oracle import brute_force
from mhv.treedec import (
    NiceNode,
    NiceTreeDecomposition,
    NodeKind,
    make_nice,
    min_fill_decompose,
    validate_nice,
)

from corpus import fuzz_instances


def _nice_for(g, seed=0):
    return make_nice(min_fill_decompose(g, seed=seed), g)


def test_exact_path_example():
    g = Graph(3, [(0, 1), (1, 2)])
    col = PartialColouring(2, {0: 1, 2: 2})
    result = solve_exact(g, col, _nice_for(g))
    assert result.happy == 1
    assert result.provably_optimal


def test_exact_fully_precoloured():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    col = PartialColouring(2, {0: 1, 1: 1, 2: 2, 3: 2})
    result = solve_exact(g, col, _nice_for(g))
    from mhv.graph import FullColouring

    assert result.happy == count_happy(g, FullColouring(2, (1, 1, 2, 2)))
    assert result.colouring.colours == (1, 1, 2, 2)


@pytest.mark.parametrize(
    "g, col",
    [
        (Graph(3, [(0, 1)]), PartialColouring(3, {0: 1})),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]), PartialColouring(3, {0: 1})),
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), PartialColouring(2)),
    ],
    ids=["one-class-of-three", "one-class-on-a-tree", "nothing-precoloured"],
)
def test_exact_runs_with_empty_colour_classes(g, col):
    result = solve_exact(g, col, _nice_for(g))
    assert result.provably_optimal
    assert result.happy == brute_force(g, col).happy


@pytest.mark.parametrize("graph_n, nice_n", [(4, 6), (6, 4)], ids=["fewer-vertices", "more-vertices"])
def test_exact_rejects_a_decomposition_of_another_graph(graph_n, nice_n):
    """A decomposition of a path with another vertex count is turned down
    before the DP indexes a vertex that one of the two does not have."""

    def path(n):
        return Graph(n, [(i, i + 1) for i in range(n - 1)])

    with pytest.raises(InputError, match="^decomposition does not match the graph$"):
        solve_exact(path(graph_n), PartialColouring(2, {0: 1, 3: 2}), _nice_for(path(nice_n)))


# Random graphs (edge probability 0.4) on the vertices of a path, each with an
# edge that the path's decomposition leaves in no bag.  Without the check the
# beam DP raised KeyError on the first and returned a wrong happy count
# flagged provably optimal on the other two, and solve_exact failed an
# assertion on all three.
@pytest.mark.parametrize(
    "n, edges",
    [
        (8, [(0, 3), (0, 7), (1, 6), (2, 4), (3, 5), (4, 7)]),
        (6, [(0, 1), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (3, 5)]),
        (8, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 5), (2, 5), (2, 6), (2, 7), (3, 4),
             (3, 7), (4, 5), (5, 6), (5, 7), (6, 7)]),
    ],
    ids=["key-error", "wrong-certified-n6", "wrong-certified-n8"],
)
def test_solvers_reject_a_decomposition_of_another_graph_on_the_same_vertices(n, edges):
    g = Graph(n, edges)
    col = PartialColouring(2, {0: 1, n - 1: 2})
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    nice = _nice_for(path)
    with pytest.raises(InputError, match="^decomposition does not match the graph$"):
        solve_exact(g, col, nice)
    with pytest.raises(InputError, match="^decomposition does not match the graph$"):
        solve_heuristic(g, col, nice, HeuristicConfig(width=10**4))
    # A subgraph of the path is decomposed by the path's decomposition.
    sub = Graph(n, [(1, 2)])
    assert solve_exact(sub, col, nice).happy == brute_force(sub, col).happy


_LEAF, _INTRO, _FORGET, _JOIN = NodeKind.LEAF, NodeKind.INTRODUCE, NodeKind.FORGET, NodeKind.JOIN
# A nice decomposition of the path 0-1-2 as (kind, bag, vertex, children)
# rows: introduce 0 and 1, forget 0, introduce 2, forget 1 and 2.
_PATH_ROWS = [
    (_LEAF, (), None, ()),
    (_INTRO, (0,), 0, (0,)),
    (_INTRO, (0, 1), 1, (1,)),
    (_FORGET, (1,), 0, (2,)),
    (_INTRO, (1, 2), 2, (3,)),
    (_FORGET, (2,), 1, (4,)),
    (_FORGET, (), 2, (5,)),
]


def _rows_nice(rows, root=None):
    """A hand-built nice decomposition for three vertices from rows like
    ``_PATH_ROWS``; the root is the last row unless given."""
    nodes = tuple(NiceNode(kind, frozenset(bag), v, children) for kind, bag, v, children in rows)
    return NiceTreeDecomposition(3, nodes, len(nodes) - 1 if root is None else root)


def _path_nice(**broken):
    """The decomposition ``_PATH_ROWS``.  ``broken`` replaces the bag of the
    node it names (``intro`` of 1, ``forget`` of 0 or ``root``)."""
    rows = list(_PATH_ROWS)
    for name, bag in broken.items():
        at = {"intro": 2, "forget": 3, "root": 6}[name]
        rows[at] = (rows[at][0], bag, *rows[at][2:])
    return _rows_nice(rows)


def _path_with_join(children, *extra):
    """The path's decomposition with the rows ``extra`` and then a join of
    ``children`` on bag {1} placed above the forget of 0 (node 3)."""
    head = _PATH_ROWS[:4] + list(extra) + [(_JOIN, (1,), None, children)]
    tail = _PATH_ROWS[4:]
    return _rows_nice(
        head + [(kind, bag, v, (idx,)) for idx, (kind, bag, v, _) in enumerate(tail, len(head) - 1)]
    )


@pytest.mark.parametrize(
    "nice",
    [
        # Leaf bag {1}: 1 is then introduced onto a bag that holds it.  The
        # beam DP raised KeyError: 1 and solve_exact an AssertionError.
        NiceTreeDecomposition(
            3,
            (
                NiceNode(NodeKind.LEAF, frozenset({1}), None, ()),
                NiceNode(NodeKind.INTRODUCE, frozenset({0, 1}), 0, (0,)),
                NiceNode(NodeKind.FORGET, frozenset({1}), 0, (1,)),
                NiceNode(NodeKind.INTRODUCE, frozenset({1, 2}), 2, (2,)),
                NiceNode(NodeKind.FORGET, frozenset({1}), 2, (3,)),
                NiceNode(NodeKind.FORGET, frozenset(), 1, (4,)),
            ),
            5,
        ),
        _path_nice(intro=frozenset({0, 1, 2})),
        _path_nice(forget=frozenset()),
        _path_nice(root=frozenset({0})),
        # The next five crashed both solvers with TypeError, KeyError or
        # IndexError.
        _path_with_join((3,)),
        # validate_nice also reported this one valid.
        _path_with_join((3, 3)),
        _rows_nice([_PATH_ROWS[0], (_INTRO, (0,), 0, ())] + _PATH_ROWS[2:]),
        _rows_nice(
            [(_INTRO, (0,), 0, (1,)), _PATH_ROWS[0], (_INTRO, (0, 1), 1, (0,))] + _PATH_ROWS[3:]
        ),
        _rows_nice(
            _PATH_ROWS[:6]
            + [(_INTRO, (2, 3), 3, (5,)), (_FORGET, (2,), 3, (6,)), (_FORGET, (), 2, (7,))]
        ),
        # With a stray leaf after the root the beam DP blamed a colour and
        # solve_exact returned an answer; with one before the root both
        # returned one; with the root at a leaf solve_exact blamed a colour
        # and the beam DP raised IndexError.
        _rows_nice(_PATH_ROWS + [_PATH_ROWS[0]], root=6),
        _rows_nice(
            [_PATH_ROWS[0]]
            + [(kind, bag, v, tuple(c + 1 for c in ch)) for kind, bag, v, ch in _PATH_ROWS]
        ),
        _rows_nice(_PATH_ROWS, root=0),
        # Each of the rest breaks one rule only.  A join child's bag is empty.
        _path_with_join((4, 3), _PATH_ROWS[0]),
        # Vertex 0 is forgotten in both branches of a join.
        _path_with_join(
            (3, 7),
            _PATH_ROWS[0],
            (_INTRO, (1,), 1, (4,)),
            (_INTRO, (0, 1), 0, (5,)),
            (_FORGET, (1,), 0, (6,)),
        ),
        # 0 is introduced again after its forget and stays in the root bag.
        _rows_nice(_PATH_ROWS + [(_INTRO, (0,), 0, (6,))]),
        # Forgets 0 from bag {0, 1} onto bag {2}; 1 is introduced again.
        _rows_nice(
            _PATH_ROWS[:3]
            + [(_FORGET, (2,), 0, (2,)), (_INTRO, (1, 2), 1, (3,)), (_FORGET, (2,), 1, (4,))]
            + [(_FORGET, (), 2, (5,))]
        ),
        # Introduces 1 onto bag {0} to give {1, 2}; 0 is forgotten in the
        # other branch of a join.
        _rows_nice(
            [_PATH_ROWS[0], (_INTRO, (0,), 0, (0,)), (_INTRO, (1, 2), 1, (1,))]
            + [(_FORGET, (1,), 2, (2,))]
            + [(_LEAF, (), None, ()), (_INTRO, (0,), 0, (4,)), (_INTRO, (0, 1), 1, (5,))]
            + [(_FORGET, (1,), 0, (6,)), (_JOIN, (1,), None, (3, 7)), (_FORGET, (), 1, (8,))]
        ),
    ],
    ids=[
        "leaf-bag",
        "introduce-adds-two",
        "forget-removes-two",
        "root-bag",
        "join-with-one-child",
        "join-names-one-child-twice",
        "introduce-without-child",
        "child-after-parent",
        "vertex-n",
        "stray-leaf-after-root",
        "stray-leaf-before-root",
        "root-is-a-leaf",
        "join-child-with-another-bag",
        "vertex-forgotten-twice",
        "root-bag-after-a-forget",
        "forget-swaps-a-vertex",
        "introduce-swaps-a-vertex",
    ],
)
def test_solvers_reject_a_broken_nice_structure(nice):
    g = Graph(3, [(0, 1), (1, 2)])
    col = PartialColouring(2, {0: 1, 2: 2})
    assert solve_exact(g, col, _path_nice()).happy == brute_force(g, col).happy
    assert validate_nice(g, _path_nice()).ok
    assert not validate_nice(g, nice).ok
    with pytest.raises(InputError, match="^decomposition does not match the graph$"):
        solve_exact(g, col, nice)
    with pytest.raises(InputError, match="^decomposition does not match the graph$"):
        solve_heuristic(g, col, nice)


def test_exact_state_cap():
    inst = fuzz_instances(1, seed=601, n_lo=9, n_hi=9, p_lo=0.4, p_hi=0.5)[0]
    with pytest.raises(ResourceLimitError):
        solve_exact(inst.graph, inst.colouring, _nice_for(inst.graph), state_cap=3)


# The totals count the states of every table built, freed or not, a leaf's
# one empty state included.
@pytest.mark.parametrize(
    "make, cap, total",
    [
        (lambda: fuzz_instances(1, seed=601, n_lo=9, n_hi=9, p_lo=0.4, p_hi=0.5)[0], 100, 104),
        (lambda: generate(hardest_regime(30, 3, seed=30)), 200_000, 215_003),
    ],
    ids=["fuzz-601", "hardest-30"],
)
def test_exact_state_cap_counts_every_table(make, cap, total):
    inst = make()
    g, col = inst.graph, inst.colouring
    nice = _nice_for(g)
    with pytest.raises(ResourceLimitError) as err:
        solve_exact(g, col, nice, state_cap=cap)
    message = str(err.value)
    match = re.fullmatch(
        r"exact DP exceeded the state cap \((\d+) > (\d+) states\) "
        r"at node (\d+) \((\w+), bag of (\d+)\)",
        message,
    )
    assert match, message
    assert (int(match[1]), int(match[2])) == (total, cap)
    node = nice.nodes[int(match[3])]
    assert match[4] == node.kind.name.lower()
    assert int(match[5]) == len(node.bag)


def test_exact_prunes_by_precoloured_neighbours():
    """Hardest-regime ER n = 30 at width 9.  Without the rule that a vertex
    is designated happy only in the colour its precoloured neighbours agree
    on, the DP builds more than the default cap's states here."""
    inst = generate(hardest_regime(30, 3, seed=0))
    nice = _nice_for(inst.graph)
    assert nice.width == 9
    result = solve_exact(inst.graph, inst.colouring, nice, state_cap=DEFAULT_STATE_CAP)
    assert result.provably_optimal
    assert result.happy == 21


def test_exact_matches_oracle_fuzz():
    for i, inst in enumerate(fuzz_instances(150, seed=607)):
        nice = _nice_for(inst.graph, seed=i)
        result = solve_exact(inst.graph, inst.colouring, nice)
        expect = brute_force(inst.graph, inst.colouring).happy
        assert result.happy == expect, f"instance {i}"
        assert count_happy(inst.graph, result.colouring) == result.happy
        assert result.colouring.extends(inst.colouring)


def test_exact_on_disconnected_graph():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    col = PartialColouring(2, {0: 1, 3: 2})
    result = solve_exact(g, col, _nice_for(g))
    assert result.happy == brute_force(g, col).happy == 6
