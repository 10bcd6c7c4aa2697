"""Tree decompositions: validation, min-fill, PACE files, nice conversion."""

import dataclasses
import itertools
import random
import weakref

import pytest

from mhv.errors import InputError, ParseError
from mhv.graph import Graph
from mhv.treedec import (
    NiceTreeDecomposition,
    NodeKind,
    TreeDecomposition,
    make_nice,
    min_fill_decompose,
    parse_td,
    td_stats,
    validate_nice,
    validate_td,
    write_td,
)

from corpus import er_graph, random_tree_graph


def brute_force_treewidth(g: Graph) -> int:
    """Minimum over all elimination orders of the largest clique-ified bag."""
    best = g.n
    for order in itertools.permutations(range(g.n)):
        nb = {v: set(g.adjacency[v]) for v in range(g.n)}
        width = 0
        for v in order:
            width = max(width, len(nb[v]))
            for a in nb[v]:
                for b in nb[v]:
                    if a != b:
                        nb[a].add(b)
            for u in nb[v]:
                nb[u].discard(v)
            del nb[v]
        best = min(best, width)
    return best


def test_single_bag_decomposition_is_valid():
    g = er_graph(random.Random(3), 6, 0.5)
    td = TreeDecomposition(6, (frozenset(range(6)),), frozenset())
    report = validate_td(g, td)
    assert report.ok
    assert td.width == 5


def test_validate_catches_missing_vertex():
    g = Graph(3, [(0, 1)])
    td = TreeDecomposition(3, (frozenset({0, 1}),), frozenset())
    report = validate_td(g, td)
    assert not report.ok
    assert any("vertex 2" in v for v in report.violations)


def test_validate_catches_uncovered_edge():
    g = Graph(3, [(0, 1), (1, 2)])
    td = TreeDecomposition(
        3, (frozenset({0, 1}), frozenset({2})), frozenset({(0, 1)})
    )
    report = validate_td(g, td)
    assert not report.ok
    assert any("edge (1, 2)" in v for v in report.violations)


def test_validate_catches_disconnected_occurrence():
    # Vertex 0 sits in two bags separated by one not containing it.
    g = Graph(3, [(0, 1), (0, 2)])
    td = TreeDecomposition(
        3,
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        frozenset({(0, 1), (1, 2)}),
    )
    report = validate_td(g, td)
    assert not report.ok
    assert any("occurrence set of vertex 0" in v for v in report.violations)


def test_validate_catches_cyclic_bag_tree():
    g = Graph(2, [(0, 1)])
    td = TreeDecomposition(
        2,
        (frozenset({0, 1}), frozenset({0, 1}), frozenset({0, 1})),
        frozenset({(0, 1), (1, 2), (0, 2)}),
    )
    report = validate_td(g, td)
    assert not report.ok


def _td(n: int, bags: list[set[int]], edges: set[tuple[int, int]]) -> TreeDecomposition:
    return TreeDecomposition(n, tuple(frozenset(b) for b in bags), frozenset(edges))


# The whole report, messages and witnesses in order: each check reports its
# first witness only, and an out-of-range tree edge ends the report after the
# violations found before it.
_TD_REPORTS = {
    "valid": (
        Graph(3, [(0, 1), (1, 2)]),
        _td(3, [{0, 1}, {1, 2}], {(0, 1)}),
        (),
    ),
    "no-nodes": (Graph(2), _td(2, [], set()), ("decomposition has no nodes",)),
    "vertex-count": (
        Graph(2, [(0, 1)]),
        _td(3, [{0, 1}], set()),
        ("decomposition is for 3 vertices, graph has 2",),
    ),
    "tree-edge-out-of-range": (
        Graph(2, [(0, 1)]),
        _td(3, [{0}, {1}], {(0, 5)}),
        ("decomposition is for 3 vertices, graph has 2", "tree edge (0, 5) out of range"),
    ),
    "disconnected-tree-wrong-edge-count": (
        Graph(2, [(0, 1)]),
        _td(2, [{0, 1}, {0}, set()], {(0, 1)}),
        (
            "bag tree is disconnected (2 of 3 nodes reachable)",
            "bag tree has 1 edges, a tree on 3 nodes needs 2",
        ),
    ),
    "cyclic-tree": (
        Graph(2, [(0, 1)]),
        _td(2, [{0, 1}, {0, 1}, {0, 1}], {(0, 1), (1, 2), (0, 2)}),
        ("bag tree has 3 edges, a tree on 3 nodes needs 2",),
    ),
    "stray-vertex": (
        Graph(2, [(0, 1)]),
        _td(2, [{0, 1, 7}, {1, 5}], {(0, 1)}),
        ("bag contains unknown vertex 5",),
    ),
    "negative-stray-vertex": (
        Graph(2, [(0, 1)]),
        _td(2, [{0, 1}, {-1, 1}], {(0, 1)}),
        ("bag contains unknown vertex -1",),
    ),
    "missing-uncovered-split": (
        Graph(5, [(0, 2), (1, 3), (2, 3)]),
        _td(5, [{0, 2}, {1}, {0, 2}, {1}], {(0, 1), (1, 2), (2, 3)}),
        (
            "vertex 3 not in any bag",
            "edge (1, 3) not covered by any bag",
            "occurrence set of vertex 0 is not connected in the bag tree",
        ),
    ),
}


@pytest.mark.parametrize("case", list(_TD_REPORTS))
def test_validate_td_reports_every_violation_in_order(case):
    g, td, expected = _TD_REPORTS[case]
    report = validate_td(g, td)
    assert report.violations == expected
    assert report.ok == (not expected)


def test_min_fill_on_trees_gives_width_one():
    # Exhaustive over all labelled trees on up to 6 vertices via Prufer codes.
    for n in range(2, 7):
        if n == 2:
            codes = [()]
        else:
            codes = itertools.product(range(n), repeat=n - 2)
        for code in codes:
            g = _tree_from_prufer(n, list(code))
            td = min_fill_decompose(g, seed=0)
            assert validate_td(g, td).ok
            assert td.width == 1
    # Random larger trees.
    rng = random.Random(5)
    for _ in range(60):
        g = random_tree_graph(rng, rng.randint(2, 10))
        td = min_fill_decompose(g, seed=rng.randrange(100))
        assert validate_td(g, td).ok
        assert td.width == 1


def _tree_from_prufer(n: int, code: list[int]) -> Graph:
    import heapq

    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] = 0
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def test_min_fill_on_cycle_matches_brute_force():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert brute_force_treewidth(c4) == 2
    td = min_fill_decompose(c4, seed=0)
    assert validate_td(c4, td).ok
    assert td.width == 2


def test_min_fill_on_complete_graph():
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    td = min_fill_decompose(k5, seed=1)
    assert validate_td(k5, td).ok
    assert td.width == 4


def test_min_fill_fuzz_valid_and_not_worse_than_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        g = er_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.7))
        td = min_fill_decompose(g, seed=rng.randrange(1000))
        assert validate_td(g, td).ok
        if 1 <= g.n <= 6:
            assert td.width >= brute_force_treewidth(g)


def test_min_fill_handles_disconnected_graphs():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    td = min_fill_decompose(g, seed=0)
    assert validate_td(g, td).ok
    assert td.width == 1


def test_min_fill_deterministic_per_seed():
    g = er_graph(random.Random(23), 12, 0.3)
    assert min_fill_decompose(g, seed=4) == min_fill_decompose(g, seed=4)


def test_parse_td_single_edge_graph():
    g = Graph(2, [(0, 1)])
    td = parse_td("s td 1 2 2\nb 1 1 2\n", g)
    assert td.node_count == 1
    assert td.width == 1
    assert validate_td(g, td).ok


def test_td_round_trip_on_k3():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    td = min_fill_decompose(k3, seed=0)
    text = write_td(td)
    assert parse_td(text, k3) == td
    assert write_td(parse_td(text, k3)) == text


def test_parse_td_rejects_cycle():
    g = Graph(2, [(0, 1)])
    text = "s td 2 2 2\nb 1 1 2\nb 2 1 2\n1 2\n2 1\n"
    with pytest.raises(ParseError):
        parse_td(text, g)


def test_parse_td_rejects_bad_ids():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ParseError):
        parse_td("s td 1 2 2\nb 2 1 2\n", g)
    with pytest.raises(ParseError):
        parse_td("s td 1 2 2\nb 1 1 3\n", g)
    with pytest.raises(ParseError):
        parse_td("s td 1 2 5\nb 1 1 2\n", g)


def test_make_nice_single_edge_chain():
    g = Graph(2, [(0, 1)])
    td = TreeDecomposition(2, (frozenset({0, 1}),), frozenset())
    nice = make_nice(td, g)
    assert validate_nice(g, nice).ok
    assert nice.width == 1
    stats = td_stats(nice)
    assert (stats.leaf_count, stats.introduce_count, stats.forget_count, stats.join_count) == (
        1,
        2,
        2,
        0,
    )
    kinds = [node.kind for node in nice.nodes]
    assert kinds == [
        NodeKind.LEAF,
        NodeKind.INTRODUCE,
        NodeKind.INTRODUCE,
        NodeKind.FORGET,
        NodeKind.FORGET,
    ]


def test_make_nice_edgeless_graph_width_zero():
    g = Graph(3)
    td = min_fill_decompose(g, seed=0)
    nice = make_nice(td, g)
    assert validate_nice(g, nice).ok
    assert nice.width == 0


def test_make_nice_c4():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    nice = make_nice(min_fill_decompose(c4, seed=0), c4)
    assert validate_nice(c4, nice).ok
    assert nice.width == 2


def test_make_nice_rejects_invalid_input():
    g = Graph(3, [(0, 1), (1, 2)])
    bad = TreeDecomposition(3, (frozenset({0, 1}),), frozenset())
    with pytest.raises(InputError):
        make_nice(bad, g)


def test_td_stats_counts_sum():
    rng = random.Random(29)
    for _ in range(20):
        g = er_graph(rng, rng.randint(1, 20), rng.uniform(0.1, 0.5))
        nice = make_nice(min_fill_decompose(g, seed=rng.randrange(50)), g)
        stats = td_stats(nice)
        total = (
            stats.leaf_count
            + stats.introduce_count
            + stats.forget_count
            + stats.join_count
        )
        assert total == stats.node_count == nice.node_count
        if any(node.kind == NodeKind.JOIN for node in nice.nodes):
            assert stats.join_count > 0


def test_make_nice_structural_fuzz():
    """Validity, width preservation and linear node count on random graphs."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 50)
        g = er_graph(rng, n, rng.uniform(0.02, 0.3))
        td = min_fill_decompose(g, seed=rng.randrange(100))
        assert validate_td(g, td).ok
        nice = make_nice(td, g)
        assert validate_nice(g, nice).ok
        assert nice.width <= td.width
        assert nice.node_count <= 4 * (td.width + 2) * (n + 1)


def _nice_reference(g, nice):
    """The verdict of the rules as ``validate_nice`` first had them: each
    node's kind, children and bag relation, no node with two parents, and
    ``validate_td`` on the bag tree."""
    nodes = nice.nodes
    if not nodes or nice.root != len(nodes) - 1 or nodes[-1].bag:
        return False
    children = [c for node in nodes for c in node.children]
    if len(set(children)) != len(children):
        return False
    for i, node in enumerate(nodes):
        if any(not 0 <= c < i for c in node.children):
            return False
        below = [nodes[c].bag for c in node.children]
        v = node.vertex
        if node.kind == NodeKind.LEAF:
            ok = not below and not node.bag
        elif node.kind == NodeKind.INTRODUCE:
            ok = len(below) == 1 and v not in below[0] and node.bag == below[0] | {v}
        elif node.kind == NodeKind.FORGET:
            ok = len(below) == 1 and v in below[0] and node.bag == below[0] - {v}
        else:
            ok = len(below) == 2 and below[0] == below[1] == node.bag
        if not ok:
            return False
    edges = frozenset((c, i) for i, node in enumerate(nodes) for c in node.children)
    td = TreeDecomposition(nice.n, tuple(node.bag for node in nodes), edges)
    return validate_td(g, td).ok


def _mutate(rng, g, nice):
    """One random change to a node of ``nice``, or an edge or a vertex that
    no bag holds added to ``g``."""
    nodes = list(nice.nodes)
    i = rng.randrange(len(nodes))
    node = nodes[i]
    what = rng.randrange(8)
    if what == 0 and node.bag:
        node = dataclasses.replace(node, bag=node.bag - {rng.choice(sorted(node.bag))})
    elif what == 1:
        node = dataclasses.replace(node, bag=node.bag | {rng.randrange(g.n + 1)})
    elif what == 2:
        node = dataclasses.replace(node, vertex=rng.randrange(-1, g.n + 1))
    elif what == 3:
        node = dataclasses.replace(node, kind=rng.choice(list(NodeKind)))
    elif what == 4 and node.children:
        children = list(node.children)
        children[rng.randrange(len(children))] = rng.randrange(-1, len(nodes) + 1)
        node = dataclasses.replace(node, children=tuple(children))
    elif what == 5 and node.children:
        children = list(node.children)
        del children[rng.randrange(len(children))]
        node = dataclasses.replace(node, children=tuple(children))
    elif what == 6:
        g = Graph(g.n + 1, g.edges)
    elif g.n > 1:
        u, v = sorted(rng.sample(range(g.n), 2))
        g = Graph(g.n, [*g.edges, (u, v)])
    nodes[i] = node
    return g, NiceTreeDecomposition(g.n, tuple(nodes), nice.root)


def test_validate_nice_agrees_with_the_reference_on_mutated_decompositions():
    """One pass of validate_nice against the structural rules, one parent per
    node and validate_td, on make_nice outputs with one random change."""
    rng = random.Random(18)
    verdicts = []
    for _ in range(250):
        g = er_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.5))
        nice = make_nice(min_fill_decompose(g, seed=rng.randrange(100)), g)
        assert validate_nice(g, nice).ok
        for _ in range(10):
            g2, broken = _mutate(rng, g, nice)
            report = validate_nice(g2, broken)
            assert report.ok == _nice_reference(g2, broken), (g2.edges, broken, report)
            assert report.ok == (not report.violations)
            verdicts.append(report.ok)
    assert 0 < sum(verdicts) < len(verdicts)


def test_validate_nice_reports_each_rule_once_and_stops_at_a_structural_break():
    g = Graph(3, [(0, 1), (1, 2)])
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    nodes = list(nice.nodes)
    # Leaf bag {0}: the introduce of 0 above it breaks the bag rule too.
    nodes[0] = dataclasses.replace(nodes[0], bag=frozenset({0}))
    broken = NiceTreeDecomposition(4, tuple(nodes), nice.root)
    expected = ("decomposition is for 4 vertices, graph has 3", "leaf node 0 has a non-empty bag")
    assert validate_nice(g, broken).violations == expected
    nodes[-1] = dataclasses.replace(nodes[-1], children=(len(nodes) - 1,))
    broken = NiceTreeDecomposition(4, tuple(nodes), nice.root)
    assert validate_nice(g, broken).violations == expected + (
        "child 6 of node 6 is not before it or has two parents",
    )


def test_make_nice_accepts_external_style_td():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    text = "s td 3 3 5\nb 1 1 2 4\nb 2 2 3 4\nb 3 4 5\n1 2\n2 3\n"
    td = parse_td(text, g)
    assert validate_td(g, td).ok
    nice = make_nice(td, g)
    assert validate_nice(g, nice).ok
    assert nice.width <= td.width


def test_nice_separation_property():
    """Every nice-TD edge induces a separation with the bags' intersection
    as separator: bag unions of the two sides cover V, overlap only inside
    the separator, and no graph edge crosses strictly between the sides.
    """
    rng = random.Random(37)
    for _ in range(12):
        g = er_graph(rng, rng.randint(2, 22), rng.uniform(0.05, 0.35))
        nice = make_nice(min_fill_decompose(g, seed=1), g)
        subtree: list[set[int]] = [set() for _ in nice.nodes]
        vertices_below: list[set[int]] = [set() for _ in nice.nodes]
        for idx in nice.post_order():
            node = nice.nodes[idx]
            nodes_here = {idx}
            verts_here = set(node.bag)
            for c in node.children:
                nodes_here |= subtree[c]
                verts_here |= vertices_below[c]
            subtree[idx] = nodes_here
            vertices_below[idx] = verts_here
        for idx, node in enumerate(nice.nodes):
            for c in node.children:
                side_a = vertices_below[c]
                side_b = set().union(
                    *(
                        nice.nodes[t].bag
                        for t in range(nice.node_count)
                        if t not in subtree[c]
                    )
                )
                separator = node.bag & nice.nodes[c].bag
                assert side_a | side_b == set(range(g.n))
                assert side_a & side_b <= separator
                only_a = side_a - side_b
                only_b = side_b - side_a
                for u, v in g.edges:
                    assert not (u in only_a and v in only_b)
                    assert not (v in only_a and u in only_b)


def test_parse_td_width_mismatch_warns():
    g = Graph(2, [(0, 1)])
    with pytest.warns(UserWarning):
        parse_td("s td 1 5 2\nb 1 1 2\n", g)


def test_min_fill_empty_and_single_vertex():
    g0 = Graph(0)
    td0 = min_fill_decompose(g0, seed=0)
    assert td0.node_count == 1 and td0.width == -1
    g1 = Graph(1)
    td1 = min_fill_decompose(g1, seed=0)
    assert validate_td(g1, td1).ok
    assert td1.width == 0
    nice = make_nice(td1, g1)
    assert validate_nice(g1, nice).ok


class _Result:
    """A walk result that can be weakly referenced."""

    def __init__(self, idx: int) -> None:
        self.idx = idx


def _nice_with_joins():
    g = er_graph(random.Random(41), 14, 0.25)
    nice = make_nice(min_fill_decompose(g, seed=1), g)
    assert td_stats(nice).join_count > 0
    return nice


def test_walk_passes_child_results_in_children_order():
    nice = _nice_with_joins()

    def handler(idx, *below):
        assert [r.idx for r in below] == list(nice.nodes[idx].children)
        return _Result(idx)

    visited = [idx for idx, result in nice.walk(dict.fromkeys(NodeKind, handler))]
    assert visited == list(range(nice.node_count))


def test_walk_drops_a_result_once_its_parent_has_consumed_it():
    nice = _nice_with_joins()
    parent_of = {c: i for i, node in enumerate(nice.nodes) for c in node.children}
    refs = {}

    def handler(idx, *below):
        result = _Result(idx)
        refs[idx] = weakref.ref(result)
        return result

    for idx, result in nice.walk(dict.fromkeys(NodeKind, handler)):
        del result
        for c in range(idx + 1):
            consumed = parent_of.get(c, nice.node_count) <= idx
            assert (refs[c]() is None) == consumed, (idx, c)
