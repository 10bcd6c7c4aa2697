"""Graph model, happiness evaluation and file I/O."""

import random

import pytest

from mhv.baselines import greedy_mhv, growth_mhv
from mhv.errors import InputError, ParseError
from mhv.exact import solve_exact
from mhv.graph import (
    FullColouring,
    Graph,
    Instance,
    PartialColouring,
    count_happy,
    happy_fraction,
    is_happy,
    parse_colouring,
    parse_graph,
    validate_instance,
    write_colouring,
    write_graph,
)
from mhv.heuristic import solve_heuristic
from mhv.oracle import brute_force
from mhv.result import solve_result
from mhv.treedec import make_nice, min_fill_decompose, parse_td

from corpus import er_graph


def test_parse_smallest_graph():
    g = parse_graph("p tw 2 1\n1 2\n")
    assert g.n == 2
    assert g.edges == frozenset({(0, 1)})


def test_parse_edgeless():
    g = parse_graph("p tw 3 0\n")
    assert g.n == 3
    assert g.edges == frozenset()
    assert g.max_degree == 0


def test_parse_triangle_max_degree():
    g = parse_graph("p tw 3 3\n1 2\n2 3\n1 3\n")
    assert g.max_degree == 2
    assert g.degrees == (2, 2, 2)


def test_parse_comments_and_blank_lines():
    g = parse_graph("c header comment\n\np tw 2 1\nc mid\n1 2\n")
    assert g.n == 2


@pytest.mark.parametrize(
    "text",
    [
        "p tw x 1\n1 2\n",
        "p tw 2\n",
        "1 2\np tw 2 1\n",
        "p tw 2 1\n1 3\n",
        "p tw 2 1\n1 1\n",
        "p tw 2 2\n1 2\n",
        "p tw 2 0\n1 2\n",
        "",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


@pytest.mark.parametrize(
    "parse",
    [
        parse_graph,
        lambda text: parse_colouring(text, Graph(2, [(0, 1)])),
        lambda text: parse_td(text, Graph(2, [(0, 1)])),
    ],
    ids=["graph", "colouring", "td"],
)
def test_parsers_reject_bytes_that_are_not_utf8(parse):
    with pytest.raises(ParseError, match="not UTF-8"):
        parse(b"\xff")


def test_parse_error_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("c x\np tw 3 1\n1 1\n")


def test_duplicate_edges_warn_and_collapse():
    with pytest.warns(UserWarning):
        g = parse_graph("p tw 2 2\n1 2\n2 1\n")
    assert g.edges == frozenset({(0, 1)})


def test_write_graph_examples():
    assert write_graph(Graph(2, [(0, 1)])) == "p tw 2 1\n1 2\n"
    assert write_graph(Graph(1)) == "p tw 1 0\n"
    k3 = Graph(3, [(1, 2), (0, 2), (0, 1)])
    assert write_graph(k3) == "p tw 3 3\n1 2\n1 3\n2 3\n"


def test_round_trip_fuzz():
    rng = random.Random(7)
    for _ in range(50):
        g = er_graph(rng, rng.randint(1, 20), rng.random())
        assert parse_graph(write_graph(g)) == g


def test_graph_rejects_self_loop_and_out_of_range():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_parse_colouring_examples():
    g = Graph(5)
    col = parse_colouring("k 3\n1 1\n4 2\n", g)
    assert col.k == 3
    assert col.assignment == {0: 1, 3: 2}

    empty = parse_colouring("k 2\n", g)
    assert empty.k == 2
    assert empty.assignment == {}

    with pytest.raises(ParseError):
        parse_colouring("k 2\n1 3\n", g)
    with pytest.raises(ParseError):
        parse_colouring("k 2\n9 1\n", g)
    with pytest.raises(ParseError):
        parse_colouring("k 2\n1 1\n1 2\n", g)
    with pytest.raises(ParseError):
        parse_colouring("1 1\n", g)


def test_colouring_round_trip():
    g = Graph(6)
    col = PartialColouring(4, {0: 1, 5: 4, 2: 2})
    assert parse_colouring(write_colouring(col), g).assignment == col.assignment


def test_is_happy_cases():
    isolated = Graph(1)
    assert is_happy(isolated, FullColouring(2, (1,)), 0)

    edge = Graph(2, [(0, 1)])
    same = FullColouring(2, (1, 1))
    diff = FullColouring(2, (1, 2))
    assert is_happy(edge, same, 0) and is_happy(edge, same, 1)
    assert not is_happy(edge, diff, 0) and not is_happy(edge, diff, 1)


def test_count_happy_path():
    path = Graph(3, [(0, 1), (1, 2)])
    col = FullColouring(2, (1, 1, 2))
    assert count_happy(path, col) == 1  # only the first endpoint


def test_count_happy_monochromatic_fuzz():
    rng = random.Random(11)
    for _ in range(30):
        g = er_graph(rng, rng.randint(1, 15), rng.random())
        col = FullColouring(3, tuple([2] * g.n))
        assert count_happy(g, col) == g.n
        assert happy_fraction(g, col) == 1.0


def test_count_happy_matches_per_vertex_fuzz():
    rng = random.Random(13)
    for _ in range(40):
        g = er_graph(rng, rng.randint(1, 12), rng.random())
        col = FullColouring(3, tuple(rng.randint(1, 3) for _ in range(g.n)))
        assert count_happy(g, col) == sum(is_happy(g, col, v) for v in range(g.n))


def test_full_colouring_extends():
    partial = PartialColouring(2, {0: 1, 2: 2})
    assert FullColouring(2, (1, 2, 2)).extends(partial)
    assert not FullColouring(2, (2, 2, 2)).extends(partial)


def test_validate_instance_all_colours_present():
    g = Graph(4, [(0, 1)])
    report = validate_instance(Instance(g, PartialColouring(3, {0: 1, 1: 2, 2: 3})))
    assert report.missing_colours == ()
    assert report.notes == ("graph has 3 connected components",)


def test_validate_instance_missing_colours():
    g = Graph(4, [(0, 1)])
    report = validate_instance(Instance(g, PartialColouring(3, {0: 1})))
    assert report.missing_colours == (2, 3)
    assert report.notes[0] == "colour classes 2,3 empty"


def test_validate_instance_empty_colouring():
    g = Graph(3, [(0, 1), (1, 2)])
    report = validate_instance(Instance(g, PartialColouring(2)))
    assert report.missing_colours == (1, 2)
    assert report.n_coloured == 0
    assert report.connected


@pytest.mark.parametrize(
    "g, components",
    [
        (Graph(0), 0),
        (Graph(7), 7),
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), 1),
        (Graph(4, [(0, 1), (2, 3)]), 2),
    ],
    ids=["empty", "edgeless", "path", "two-components"],
)
def test_validate_instance_components(g, components):
    report = validate_instance(Instance(g, PartialColouring(2, {})))
    assert report.n_components == components
    assert report.connected == (components <= 1)


def test_instance_rejects_stray_vertex():
    with pytest.raises(InputError, match=r"^coloured vertex 5 not in graph of 2 vertices$"):
        Instance(Graph(2), PartialColouring(2, {5: 1}))



def _on_nice(solve):
    return lambda g, col: solve(g, col, make_nice(min_fill_decompose(g), g))


_SOLVERS = {
    "greedy_mhv": greedy_mhv,
    "growth_mhv": growth_mhv,
    "brute_force": brute_force,
    "solve_exact": _on_nice(solve_exact),
    "solve_heuristic": _on_nice(solve_heuristic),
}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solvers_reject_a_coloured_vertex_outside_the_graph(solver):
    with pytest.raises(InputError, match=r"^coloured vertex 7 not in graph of 3 vertices$"):
        _SOLVERS[solver](Graph(3, [(0, 1)]), PartialColouring(1, {7: 1}))


_ALGORITHM_NAMES = {
    "greedy_mhv": "greedy-mhv",
    "growth_mhv": "growth-mhv",
    "brute_force": "brute-force",
    "solve_exact": "exact-dp",
    "solve_heuristic": "heuristic-dp",
}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solver_result_contract(solver):
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5)])
    colouring = PartialColouring(2, {0: 1, 3: 2, 6: 1})
    result = _SOLVERS[solver](g, colouring)
    assert result.algorithm == _ALGORITHM_NAMES[solver]
    assert result.colouring.extends(colouring)
    assert result.happy == count_happy(g, result.colouring)
    assert result.time_ms >= 0
    assert (result.final_labels is not None) == (solver == "solve_heuristic")


def test_solve_result_rejects_a_witness_off_the_input():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AssertionError, match="extend"):
        solve_result("x", g, PartialColouring(2, {0: 1}), (2, 2), 0.0, False)


def test_solve_result_rejects_a_wrong_happy_count():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AssertionError, match="claims 1 happy, its witness has 2"):
        solve_result("x", g, PartialColouring(2, {0: 1}), (1, 1), 0.0, False, happy=1)
