"""Growth-MHV's heap picks and two-hop relabelling against the linear-scan,
three-hop reference, compared after every step: centre, colours, labels and
RNG state."""

import random

import pytest

from mhv.baselines import GrowthRun, growth_mhv
from mhv.graph import Graph, PartialColouring
from mhv.harness import generate, hardest_regime, random_tree

from growth_reference import ReferenceGrowthRun


class _Recorded:
    """Keeps the last vertex ``_pick`` returned: the cascade stops at the
    first class that has one, so after a step it is the step's centre."""

    centre = None

    def _pick(self, wanted):
        self.centre = super()._pick(wanted)
        return self.centre


class _Run(_Recorded, GrowthRun):
    pass


class _Reference(_Recorded, ReferenceGrowthRun):
    pass


def _fuzz_instance(rng: random.Random) -> tuple[Graph, PartialColouring]:
    """Sparse or dense, often disconnected, with isolated vertices; k 1-9 and
    any share of vertices precoloured, empty classes allowed."""
    n = rng.randint(1, 40)
    p = rng.choice((0.0, 0.03, 0.08, 0.15, 0.3, 0.6))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    k = rng.randint(1, 9)
    q = rng.random()
    coloured = rng.sample(range(n), int(q * n))
    return Graph(n, edges), PartialColouring(k, {v: rng.randint(1, k) for v in coloured})


def _tree_instance(n: int, seed: int) -> tuple[Graph, PartialColouring]:
    rng = random.Random(seed)
    return random_tree(n, seed=seed), PartialColouring(
        3, {v: rng.randint(1, 3) for v in rng.sample(range(n), n // 10)}
    )


def _instances():
    rng = random.Random(2301)
    for i in range(60):
        yield f"fuzz-{i}", *_fuzz_instance(rng)
    for n, seed in ((50, 1), (300, 2), (1000, 3), (3000, 4)):
        yield f"tree-n{n}", *_tree_instance(n, seed)
    for n, seed in ((40, 5), (150, 6), (600, 7)):
        inst = generate(hardest_regime(n, 3, seed=seed))
        yield f"hard-n{n}", inst.graph, inst.colouring


@pytest.mark.parametrize(
    "name,g,col", [pytest.param(name, g, col, id=name) for name, g, col in _instances()]
)
def test_growth_matches_linear_scan_reference(name, g, col):
    seed = sum(map(ord, name))
    run, ref = _Run(g, col, seed=seed), _Reference(g, col, seed=seed)
    while not ref.done:
        assert not run.done
        run.step()
        ref.step()
        step = ref.iterations
        assert run.centre == ref.centre, f"{name}: centre differs at step {step}"
        assert run.colours == ref.colours, f"{name}: colours differ at step {step}"
        assert run.labels == ref.labels, f"{name}: labels differ at step {step}"
        assert run.rng.getstate() == ref.rng.getstate(), f"{name}: RNG differs at step {step}"
    assert run.done and run.iterations == ref.iterations
    assert growth_mhv(g, col, seed=seed).colouring.colours == tuple(ref.colours)
