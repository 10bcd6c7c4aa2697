"""Behaviour lock: digests of every solver's output on a fixed instance set.

Writes ``tests/golden.json``, which ``tests/test_golden.py`` checks.  Each
record pins a solve's happy count, a sha1 of its colouring, its
``provably_optimal`` flag and a sha1 of its final labels (``null`` for the
solvers that report none).

The heuristic runs every join-loop x distance x merge combination (3x7x2) at
beam widths 1, 4 and 67 on every instance, except that at width 67 the two
hardest-regime instances run a 7-configuration cover in which every knob
value appears at least once (the full matrix there takes longer than the
test suite can spend).  ``solve_exact`` runs on every instance but those two,
where it costs seconds per solve; ``greedy_mhv`` everywhere, and
``growth_mhv`` with seeds 0 and 1.

Regenerate only when a change of behaviour is intended, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path
from typing import Callable, Iterator

from mhv.baselines import greedy_mhv, growth_mhv
from mhv.exact import solve_exact
from mhv.graph import Graph, Instance, PartialColouring, floor_fraction, validate_instance
from mhv.harness import GeneratorParams, generate, hardest_regime, random_tree
from mhv.heuristic import (
    DISTANCE_WEIGHTINGS,
    JOIN_LOOP_CHOICES,
    MERGE_METHODS,
    HeuristicConfig,
    solve_heuristic,
)
from mhv.result import SolveResult
from mhv.treedec import NiceTreeDecomposition, make_nice, min_fill_decompose

GOLDEN_PATH = Path(__file__).with_name("golden.json")
K = 3
WIDTHS = (1, 4, 67)
HARDEST = ("hard-n30", "hard-n34")


def _tree(n: int, seed: int) -> Instance:
    g = random_tree(n, seed=seed)
    rng = random.Random(seed)
    verts = rng.sample(range(n), max(K, floor_fraction(0.1, n)))
    assignment = {v: (i + 1 if i < K else rng.randint(1, K)) for i, v in enumerate(verts)}
    return Instance(g, PartialColouring(K, assignment))


def _disconnected() -> Instance:
    inst = generate(GeneratorParams(n=24, p=0.07, k=K, q=0.25, seed=5))
    assert validate_instance(inst).n_components > 1
    return inst


def _edgeless() -> Instance:
    return Instance(Graph(7), PartialColouring(K, {0: 1, 3: 2, 5: 3}))


INSTANCES: dict[str, Callable[[], Instance]] = {
    "tree-n12": lambda: _tree(12, 12),
    "tree-n60": lambda: _tree(60, 60),
    "hard-n30": lambda: generate(hardest_regime(30, K, seed=30)),
    "hard-n34": lambda: generate(hardest_regime(34, K, seed=34)),
    "favourable-n30": lambda: generate(GeneratorParams(n=30, p=0.08, k=K, q=0.4, seed=3)),
    "disconnected-n24": _disconnected,
    "edgeless-n7": _edgeless,
}


def heuristic_configs(name: str) -> Iterator[tuple[str, HeuristicConfig]]:
    full = list(itertools.product(JOIN_LOOP_CHOICES, DISTANCE_WEIGHTINGS, MERGE_METHODS))
    cover = [
        (JOIN_LOOP_CHOICES[i % 3], dist, MERGE_METHODS[i % 2])
        for i, dist in enumerate(DISTANCE_WEIGHTINGS)
    ]
    for width in WIDTHS:
        combos = cover if width == 67 and name in HARDEST else full
        for loop, dist, merge in combos:
            config = HeuristicConfig(
                width=width,
                join_loop_choice=loop,
                join_distance_weighting=dist,
                join_merge_method=merge,
            )
            yield f"heuristic:W={width}:{loop}:{dist}:{merge}", config


def solves(name: str) -> Iterator[tuple[str, Callable[[], SolveResult]]]:
    """Every pinned solve of one instance, as (case id, thunk)."""
    inst = INSTANCES[name]()
    g, col = inst.graph, inst.colouring
    nice: NiceTreeDecomposition = make_nice(min_fill_decompose(g, seed=0), g)
    for case, config in heuristic_configs(name):
        yield case, lambda config=config: solve_heuristic(g, col, nice, config)
    if name not in HARDEST:
        yield "exact", lambda: solve_exact(g, col, nice)
    yield "greedy", lambda: greedy_mhv(g, col)
    for seed in (0, 1):
        yield f"growth:seed={seed}", lambda seed=seed: growth_mhv(g, col, seed=seed)


def _sha1(values) -> str:
    return hashlib.sha1(bytes(values)).hexdigest()


def digest(result: SolveResult) -> dict:
    labels = result.final_labels
    return {
        "happy": result.happy,
        "colouring": _sha1(result.colouring.colours),
        "provably_optimal": result.provably_optimal,
        "final_labels": None if labels is None else _sha1(labels),
    }


def digests(name: str) -> dict[str, dict]:
    return {case: digest(run()) for case, run in solves(name)}


def main() -> int:
    golden = {name: digests(name) for name in INSTANCES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    total = sum(len(cases) for cases in golden.values())
    print(f"wrote {total} digests for {len(golden)} instances to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
