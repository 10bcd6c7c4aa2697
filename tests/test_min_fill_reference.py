"""The delta-counting min-fill against the full-rescan reference: the same
``write_td`` text and the same RNG draws on seeded graphs, tie-heavy ones
included."""

import random
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import mhv.treedec
from mhv.graph import Graph
from mhv.harness import GeneratorParams, generate, hardest_regime
from mhv.treedec import min_fill_decompose, write_td

import min_fill_reference
from corpus import er_graph, random_tree_graph
from min_fill_reference import reference_min_fill_decompose


class _RecordingRandom(random.Random):
    """A ``random.Random`` that logs every ``randrange`` call and its result."""

    made: list["_RecordingRandom"] = []

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.draws: list[tuple[tuple, int]] = []
        self.made.append(self)

    def randrange(self, *args):
        got = super().randrange(*args)
        self.draws.append((args, got))
        return got


@contextmanager
def _recorded(module):
    """Route ``module``'s ``random.Random`` through ``_RecordingRandom``."""
    original = module.random
    module.random = SimpleNamespace(Random=_RecordingRandom)
    _RecordingRandom.made = []
    try:
        yield _RecordingRandom.made
    finally:
        module.random = original


def _run(module, decompose, g, seed):
    with _recorded(module) as made:
        text = write_td(decompose(g, seed))
    return text, [(r.draws, r.getstate()) for r in made]


def _union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges]
        offset += h.n
    return Graph(offset, edges)


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _grid(rows: int, cols: int) -> Graph:
    n = rows * cols
    across = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    down = [(v, v + cols) for v in range(n - cols)]
    return Graph(n, across + down)


def _star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _complete_bipartite(m: int, n: int) -> Graph:
    return Graph(m + n, [(a, m + b) for a in range(m) for b in range(n)])


def _complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _families() -> dict[str, list[Graph]]:
    rng = random.Random(707)
    return {
        "trees": [random_tree_graph(rng, n) for n in (2, 3, 10, 40, 120, 250)],
        "hardest-regime": [generate(hardest_regime(n, 3, seed=n)).graph for n in range(30, 62, 4)],
        "er-q0.5": [
            generate(GeneratorParams(n=n, p=4 / (n - 1), k=3, q=0.5, seed=n)).graph
            for n in range(34, 54, 4)
        ],
        "er-any-density": [
            er_graph(rng, rng.randint(2, 30), rng.random()) for _ in range(60)
        ],
        "cycles": [_cycle(n) for n in (3, 4, 5, 8, 13, 20)],
        "grids": [_grid(r, c) for r, c in ((1, 5), (2, 2), (3, 4), (4, 4), (5, 6))],
        "stars": [_star(m) for m in (1, 2, 5, 17)],
        "complete-bipartite": [
            _complete_bipartite(m, n) for m, n in ((1, 1), (2, 3), (3, 3), (3, 5), (4, 6))
        ],
        "disjoint-unions": [
            _union(_cycle(5), _cycle(5)),
            _union(_star(4), _grid(3, 3), Graph(2)),
            _union(_complete_bipartite(2, 3), _complete(4), _cycle(6)),
            _union(*(random_tree_graph(rng, 12) for _ in range(3))),
        ],
        "complete": [_complete(n) for n in (2, 3, 5, 9)],
        "edgeless": [Graph(n) for n in (2, 3, 7)],
        "tiny": [Graph(0), Graph(1)],
    }


FAMILIES = _families()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_min_fill_matches_full_rescan_reference(family):
    draws = 0
    for i, g in enumerate(FAMILIES[family]):
        for seed in (0, 1, 1000 + i):
            got = _run(mhv.treedec, min_fill_decompose, g, seed)
            want = _run(min_fill_reference, reference_min_fill_decompose, g, seed)
            assert got == want, f"{family} graph {i} (n={g.n}) seed {seed}"
            draws += sum(len(d) for d, _ in got[1])
    if family != "tiny":
        assert draws > 0, "no tie was broken by the RNG"
