"""Behaviour lock: digests of every solver's output on a fixed instance set.

Writes ``tests/golden.json``, which ``tests/test_golden.py`` checks.  Each
record pins a solve's happy count, a sha1 of its colouring, its
``provably_optimal`` flag and a sha1 of its final labels (``null`` for the
solvers that report none).

The heuristic runs every join-loop x distance x merge combination (3x7x2) at
beam widths 1, 4 and 67 on every instance, except that at width 67 the two
hardest-regime instances run a 7-configuration cover in which every knob
value appears at least once (the full matrix there takes longer than the
test suite can spend).  Three instances with k = 2, 5 and 9 run only the
heuristic: the default knobs at widths 4 and 67 and one ``greedy_match``
configuration.  With the default knobs it also runs three
non-default ``LabelWeights`` at widths 4 and 67 on every instance; the last
of them weighs every label alike, so every score ties.  ``solve_exact`` runs
on every instance but those two, where it costs seconds per solve;
``greedy_mhv`` everywhere, and ``growth_mhv`` with seeds 0 and 1.

Regenerate only when a change of behaviour is intended, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/make_golden.py

To see which digests a change moves without writing anything (exit 1 if
any moved):

    PYTHONPATH=src python tests/make_golden.py --check
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
    LabelWeights,
    solve_heuristic,
)
from mhv.result import SolveResult
from mhv.treedec import NiceTreeDecomposition, make_nice, min_fill_decompose

GOLDEN_PATH = Path(__file__).with_name("golden.json")
K = 3
WIDTHS = (1, 4, 67)
HARDEST = ("hard-n30", "hard-n34")
WEIGHT_WIDTHS = (4, 67)
WEIGHTS = (
    LabelWeights(20, -10, 20, -10),
    LabelWeights(1, -10, -5, 0),
    LabelWeights(5, 5, 5, 5),
)


def _tree(n: int, seed: int, k: int = K) -> Instance:
    g = random_tree(n, seed=seed)
    rng = random.Random(seed)
    verts = rng.sample(range(n), max(k, floor_fraction(0.1, n)))
    assignment = {v: (i + 1 if i < k else rng.randint(1, k)) for i, v in enumerate(verts)}
    return Instance(g, PartialColouring(k, assignment))


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
# Other colour counts, so other colour-lane widths in the beam DP's entries:
# the default knobs at widths 4 and 67 and one greedy_match configuration.
OTHER_K: dict[str, Callable[[], Instance]] = {
    "tree-n40-k2": lambda: _tree(40, 41, k=2),
    "sparse-n30-k2": lambda: generate(GeneratorParams(n=30, p=5 / 29, k=2, q=0.1, seed=2)),
    "sparse-n30-k5": lambda: generate(GeneratorParams(n=30, p=5 / 29, k=5, q=0.2, seed=5)),
    "favourable-n28-k9": lambda: generate(GeneratorParams(n=28, p=0.1, k=9, q=0.4, seed=9)),
}
INSTANCES.update(OTHER_K)


# Every join-loop x distance x merge combination, and a cover of 7 of them in
# which every knob value appears at least once.
FULL = list(itertools.product(JOIN_LOOP_CHOICES, DISTANCE_WEIGHTINGS, MERGE_METHODS))
COVER = [
    (JOIN_LOOP_CHOICES[i % 3], dist, MERGE_METHODS[i % 2])
    for i, dist in enumerate(DISTANCE_WEIGHTINGS)
]


def heuristic_configs(name: str) -> Iterator[tuple[str, HeuristicConfig]]:
    if name in OTHER_K:
        for width in WEIGHT_WIDTHS:
            yield f"heuristic:W={width}", HeuristicConfig(width=width)
        greedy = HeuristicConfig(width=4, join_loop_choice="random", join_merge_method="greedy_match")
        yield "heuristic:W=4:random:greedy_match", greedy
        return
    for width in WIDTHS:
        combos = COVER if width == 67 and name in HARDEST else FULL
        for loop, dist, merge in combos:
            config = HeuristicConfig(
                width=width,
                join_loop_choice=loop,
                join_distance_weighting=dist,
                join_merge_method=merge,
            )
            yield f"heuristic:W={width}:{loop}:{dist}:{merge}", config
    for width in WEIGHT_WIDTHS:
        for w in WEIGHTS:
            label = f"{w.happy},{w.unhappy},{w.maybe_happy},{w.assumed_unhappy}"
            yield f"heuristic:W={width}:weights={label}", HeuristicConfig(width=width, weights=w)


def solves(name: str) -> Iterator[tuple[str, Callable[[], SolveResult]]]:
    """Every pinned solve of one instance, as (case id, thunk)."""
    inst = INSTANCES[name]()
    g, col = inst.graph, inst.colouring
    nice: NiceTreeDecomposition = make_nice(min_fill_decompose(g, seed=0), g)
    for case, config in heuristic_configs(name):
        yield case, lambda config=config: solve_heuristic(g, col, nice, config)
    if name in OTHER_K:
        return
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


def moved(old: dict[str, dict], new: dict[str, dict]) -> tuple[int, int]:
    """How many of ``old``'s digests differ in ``new`` (or are gone), and how
    many of those were ``provably_optimal``."""
    changed = [digest for case, digest in old.items() if new.get(case) != digest]
    return len(changed), sum(digest["provably_optimal"] for digest in changed)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print("usage: make_golden.py [--check]", file=sys.stderr)
        return 2
    check = args == ["--check"]
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    golden = {name: digests(name) for name in INSTANCES}
    totals = [0, 0]
    for name, cases in golden.items():
        count, certified = moved(old.get(name, {}), cases)
        totals[0] += count
        totals[1] += certified
        print(f"{name}: {count} of {len(old.get(name, {}))} digests moved, {certified} certified")
    certified_total = sum(d["provably_optimal"] for cases in old.values() for d in cases.values())
    print(f"moved {totals[0]} digests, {totals[1]} of the {certified_total} certified ones")
    if check:
        added = sum(len(cases.keys() - old.get(name, {}).keys()) for name, cases in golden.items())
        if added:
            print(f"{added} digests are new")
        return 1 if totals[0] or added else 0
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    total = sum(len(cases) for cases in golden.values())
    print(f"wrote {total} digests for {len(golden)} instances to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
