"""Seeded instance corpora shared across the test suite."""

from __future__ import annotations

import random

from mhv.graph import Graph, Instance, PartialColouring, floor_fraction
from mhv.harness import random_tree


def er_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_instance(
    rng: random.Random,
    n_lo: int = 2,
    n_hi: int = 9,
    ks: tuple[int, ...] = (2, 3),
    p_lo: float = 0.1,
    p_hi: float = 0.45,
) -> Instance:
    """Random Erdos-Renyi instance with every colour class nonempty."""
    n = rng.randint(n_lo, n_hi)
    k = rng.choice([kk for kk in ks if kk <= n])
    g = er_graph(rng, n, rng.uniform(p_lo, p_hi))
    coloured = rng.randint(k, max(k, int(n * 0.6)))
    verts = rng.sample(range(n), min(coloured, n))
    assignment: dict[int, int] = {}
    for i, v in enumerate(verts):
        assignment[v] = i + 1 if i < k else rng.randint(1, k)
    return Instance(g, PartialColouring(k, assignment))


def fuzz_instances(count: int, seed: int, **kwargs) -> list[Instance]:
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]


# The acceptance criteria's oracle-equivalence corpus: n <= 9, k in {2, 3}.
ACCEPTANCE_SIZE = 1000
ACCEPTANCE_SEED = 20240 + 1


def acceptance_corpus() -> list[Instance]:
    return fuzz_instances(ACCEPTANCE_SIZE, seed=ACCEPTANCE_SEED)


def tree_instance(rng: random.Random, n: int, k: int = 3, q: float = 0.1) -> Instance:
    """Random tree with the small-graph colouring rule.

    max(k, floor(q*n)) vertices get coloured; the first k are forced to
    colours 1..k so every class is nonempty even when floor(q*n) < k.
    """
    g = random_tree(n, seed=rng.randrange(2**62))
    coloured = min(n, max(k, floor_fraction(q, n)))
    verts = rng.sample(range(n), coloured)
    assignment: dict[int, int] = {}
    for i, v in enumerate(verts):
        assignment[v] = i + 1 if i < k else rng.randint(1, k)
    return Instance(g, PartialColouring(k, assignment))


def random_tree_graph(rng: random.Random, n: int) -> Graph:
    return random_tree(n, seed=rng.randrange(2**62))
