"""Output checks computed apart from the program under test.

Nothing here calls into ``mhv`` except ``validate_tree_optimum``, which
checks the tree optimum below against ``mhv.brute_force``.  Instances are
read from the same ``.gr``/``.col`` text the solvers are given, with parsers
of the benchmark's own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HAPPY_LABEL = 1  # mhv.Label.HAPPY, the only label whose meaning is checked
NEG = float("-inf")


@dataclass(frozen=True)
class Plain:
    """An instance as plain lists: ``pre[v]`` is 0 for an uncoloured vertex."""

    n: int
    k: int
    adj: tuple[tuple[int, ...], ...]
    pre: tuple[int, ...]


def read_plain(gr: str, col: str) -> Plain:
    n = -1
    adj: list[list[int]] = []
    for line in gr.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
            adj = [[] for _ in range(n)]
            continue
        u, v = int(parts[0]) - 1, int(parts[1]) - 1
        adj[u].append(v)
        adj[v].append(u)
    k = 0
    pre = [0] * n
    for line in col.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "k":
            k = int(parts[1])
            continue
        pre[int(parts[0]) - 1] = int(parts[1])
    return Plain(n, k, tuple(tuple(a) for a in adj), tuple(pre))


def count_happy(inst: Plain, colours: tuple[int, ...] | list[int]) -> int:
    return sum(
        1 for v in range(inst.n) if all(colours[u] == colours[v] for u in inst.adj[v])
    )


def forced_unhappy(inst: Plain) -> int:
    """Vertices that the precoloured vertices alone already make unhappy."""
    pre = inst.pre
    forced = 0
    for v in range(inst.n):
        seen = {pre[u] for u in inst.adj[v] if pre[u]}
        if pre[v]:
            seen.add(pre[v])
        if len(seen) > 1:
            forced += 1
    return forced


def best_fill(inst: Plain) -> tuple[int, tuple[int, ...]]:
    """Best monochromatic completion; ties go to the lowest colour."""
    best: tuple[int, tuple[int, ...]] = (-1, ())
    for c in range(1, inst.k + 1):
        colours = tuple(p or c for p in inst.pre)
        happy = count_happy(inst, colours)
        if happy > best[0]:
            best = (happy, colours)
    return best


def result_problems(inst: Plain, result, upper: int) -> list[str]:
    """Properties every solver result must have; returns what is broken."""
    colours = result.colouring.colours
    name = result.algorithm
    if len(colours) != inst.n:
        return [f"{name}: colouring covers {len(colours)} of {inst.n} vertices"]
    problems = []
    if any(not 1 <= c <= inst.k for c in colours):
        problems.append(f"{name}: colour outside 1..{inst.k}")
    if any(p and p != c for p, c in zip(inst.pre, colours)):
        problems.append(f"{name}: colouring does not extend the input")
    happy = count_happy(inst, colours)
    if happy != result.happy:
        problems.append(f"{name}: reports {result.happy} happy, recount gives {happy}")
    if happy > upper:
        problems.append(f"{name}: {happy} happy exceeds the bound {upper}")
    labels = result.final_labels
    if labels is not None:
        for v in range(inst.n):
            if labels[v] == HAPPY_LABEL and any(colours[u] != colours[v] for u in inst.adj[v]):
                problems.append(f"{name}: vertex {v} labelled HAPPY is unhappy")
                break
    return problems


def tree_optimum(inst: Plain) -> int:
    """Maximum happy vertices on a tree, in linear time.

    Rooted at vertex 0.  ``same[v][c]`` is the best count inside v's subtree
    when v has colour c and its parent has colour c too (or v is the root);
    ``diff[v][c]`` is the same when the parent's colour differs, so v itself
    cannot be happy.  A colour a precoloured vertex does not have is -inf.
    """
    n, k, adj, pre = inst.n, inst.k, inst.adj, inst.pre
    if n == 0:
        return 0
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    if len(order) != n:
        raise ValueError("tree_optimum needs a connected tree")
    colours = range(1, k + 1)
    same = [[NEG] * (k + 1) for _ in range(n)]
    diff = [[NEG] * (k + 1) for _ in range(n)]
    for v in reversed(order):
        children = [u for u in adj[v] if u != parent[v]]
        for c in colours:
            if pre[v] and pre[v] != c:
                continue
            spread = 0.0
            all_same = 1.0
            for u in children:
                under = max([same[u][c]] + [diff[u][d] for d in colours if d != c])
                spread += under
                all_same += same[u][c]
            diff[v][c] = spread
            same[v][c] = max(spread, all_same)
    return int(max(same[0][c] for c in colours))


def validate_tree_optimum(trees: int, seed: int) -> list[str]:
    """Compare ``tree_optimum`` with ``mhv.brute_force`` on small random trees."""
    import mhv

    rng = random.Random(seed)
    problems = []
    for t in range(trees):
        n = rng.randint(1, 9)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        k = rng.randint(1, 3)
        pre = [0] * n
        for v in rng.sample(range(n), rng.randint(0, n)):
            pre[v] = rng.randint(1, k)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        inst = Plain(n, k, tuple(tuple(a) for a in adj), tuple(pre))
        oracle = mhv.brute_force(
            mhv.Graph(n, edges), mhv.PartialColouring(k, {v: c for v, c in enumerate(pre) if c})
        ).happy
        mine = tree_optimum(inst)
        if mine != oracle:
            problems.append(f"tree optimum on small tree {t}: {mine}, brute force {oracle}")
    return problems
