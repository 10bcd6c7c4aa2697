"""The three workloads: their instances and the operations a round runs.

All instances use k = 3 and are drawn from the run's ``--seed``; instance i
of a run with seed s is drawn with seed ``s * 1009 + i``.  Set-up draws the
instances through ``mhv.harness`` and serialises them to ``.gr``/``.col``
text; every timed operation starts from that text, as ``mhv solve`` starts
from files.

Module attributes (``mhv.treedec.make_nice`` rather than a name imported
once) are looked up at every call so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import io
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import mhv.baselines
import mhv.exact
import mhv.graph
import mhv.harness
import mhv.heuristic
import mhv.treedec
from speed import Speed


K = 3
WIDTH = 67
TD_SEED = 0
SWEEP_WORKERS = 2

# Sizes per workload, one instance each.  tree: uniform random trees with
# q = 0.1.  hard: hardest regime, p = 5/(n-1), q = 0.1.  sweep: sparse ER with
# p = 4/(n-1) at q = 0.5.  README.md says why these sizes.
SIZES = {
    "tree": tuple(range(120, 320, 10)),
    "hard": tuple(range(30, 48)) * 2,
    "sweep": tuple(range(34, 54)) * 2,
}
SWEEP_DEGREE = 4.0


@dataclass(frozen=True)
class Instance:
    ident: str
    gr: str
    col: str


def instance_seed(seed: int, i: int) -> int:
    return seed * 1009 + i


def _tree_colouring(n: int, seed: int) -> mhv.graph.PartialColouring:
    """q = 0.1 precolouring drawn the way ``mhv.harness.generate`` draws one."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    assignment = {perm[i]: i + 1 for i in range(K)}
    for j in range(K, mhv.graph.floor_fraction(0.1, n)):
        assignment[perm[j]] = rng.randrange(1, K + 1)
    return mhv.graph.PartialColouring(K, assignment)


def set_up(workload: str, seed: int) -> list[Instance]:
    """Draw and serialise the workload's instances."""
    out = []
    for i, n in enumerate(SIZES[workload]):
        s = instance_seed(seed, i)
        if workload == "tree":
            graph = mhv.harness.random_tree(n, seed=s)
            colouring = _tree_colouring(n, s)
        else:
            if workload == "hard":
                params = mhv.harness.hardest_regime(n, K, seed=s)
            else:
                params = mhv.harness.GeneratorParams(
                    n=n, p=SWEEP_DEGREE / (n - 1), k=K, q=0.5, seed=s
                )
            inst = mhv.harness.generate(params)
            graph, colouring = inst.graph, inst.colouring
        out.append(
            Instance(f"{workload}-{i}-n{n}", mhv.graph.write_graph(graph), mhv.graph.write_colouring(colouring))
        )
    return out


def parse(inst: Instance):
    g = mhv.graph.parse_graph(inst.gr)
    return g, mhv.graph.parse_colouring(inst.col, g)


def decompose(g):
    return mhv.treedec.make_nice(mhv.treedec.min_fill_decompose(g, seed=TD_SEED), g)


class NodeClock:
    """Times ``solve_heuristic`` node by node through ``HeuristicSolver.beams``.

    While installed, every node the beam DP handles appends its start and end
    to ``steps`` (two clock reads per node), and the speed probe runs between
    nodes at most every ``speed.INTERVAL_S``.  A heuristic solve takes
    seconds, in which the machine changes speed many times; single nodes take
    milliseconds, so each node is scaled by the speed measured around it.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.clock = speed.clock
        self.steps: list[tuple[float, float]] = []

    @contextmanager
    def install(self):
        solver = mhv.heuristic.HeuristicSolver
        original = solver.beams
        clock, steps, tick = self.clock, self.steps, self.speed.tick

        def beams(self_):
            start = clock()
            for item in original(self_):
                steps.append((start, clock()))
                tick()
                yield item
                start = clock()

        solver.beams = beams
        try:
            yield self
        finally:
            solver.beams = original


def run_heuristic(inst: Instance, nodes: NodeClock):
    """The ``mhv solve`` path: parse, min-fill, nice form, beam DP.

    Returns the nice decomposition, the result, and the stage times at the
    reference speed: parse, decomposition, the solve outside its nodes, and
    each node of the solve.
    """
    clock, speed = nodes.clock, nodes.speed
    speed.tick()
    t0 = clock()
    g, col = parse(inst)
    t1 = clock()
    nice = decompose(g)
    t2 = clock()
    nodes.steps.clear()
    spent = speed.spent
    result = mhv.heuristic.solve_heuristic(g, col, nice, mhv.heuristic.HeuristicConfig(width=WIDTH, seed=0))
    t3 = clock()
    probing = speed.spent - spent
    speed.probe()
    inside = sum(end - start for start, end in nodes.steps)
    steps = tuple(speed.scale(end - start, start, end) for start, end in nodes.steps)
    stages = (
        speed.scale(t1 - t0, t0, t1),
        speed.scale(t2 - t1, t1, t2),
        speed.scale(t3 - t2 - inside - probing, t2, t3),
        steps,
    )
    return nice, result, stages


def run_greedy(inst: Instance):
    g, col = parse(inst)
    return mhv.baselines.greedy_mhv(g, col)


def run_growth(inst: Instance):
    g, col = parse(inst)
    return mhv.baselines.growth_mhv(g, col, seed=0)


def run_exact(inst: Instance, nice):
    """``solve_exact`` on the nice decomposition the heuristic used."""
    g, col = parse(inst)
    return mhv.exact.solve_exact(g, col, nice)


SWEEP_GROUP = 4  # instances per bench_to_csv pass

SWEEP_SPECS = (
    # Greedy first: the first record then shows the wait before any solve.
    ("greedy", {}),
    ("growth", {"seed": 0}),
    ("heuristic", {"width": WIDTH, "seed": 0}),
)


class FirstFlush(io.StringIO):
    """CSV sink that notes when the first record is flushed."""

    def __init__(self, clock: Callable[[], float]) -> None:
        super().__init__()
        self.clock = clock
        self.first: float | None = None

    def flush(self) -> None:
        if self.first is None:
            self.first = self.clock()
        super().flush()


def run_sweep(instances: list[Instance], clock: Callable[[], float]) -> tuple[str, float]:
    """Parse every instance and stream a pool ``bench_to_csv`` pass.

    Returns the CSV text and the clock reading at the first record.
    """
    parsed = []
    for inst in instances:
        g, col = parse(inst)
        parsed.append((inst.ident, mhv.graph.Instance(g, col)))
    specs = [mhv.harness.AlgorithmSpec(name, **kw) for name, kw in SWEEP_SPECS]
    sink = FirstFlush(clock)
    mhv.harness.bench_to_csv(sink, parsed, specs, workers=SWEEP_WORKERS, td_seed=TD_SEED)
    return sink.getvalue(), sink.first


def expected_row(inst: Instance, algorithm: str, result, nice) -> list[str]:
    """The CSV record the harness should write for one direct solver call."""
    kw = dict(SWEEP_SPECS)[algorithm]
    n = len(result.colouring.colours)
    return [
        "1",
        inst.ident,
        algorithm,
        mhv.harness.AlgorithmSpec(algorithm, **kw).label(),
        str(n),
        str(result.happy),
        f"{result.happy / n:.6f}",
        "true" if result.provably_optimal else "false",
        None,  # time_ms, not compared
        str(nice.width),
        str(nice.node_count),
        "ok",
        "",
    ]


def csv_problems(csv_text: str, expected: list[list[str]]) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    if len(rows) != len(expected):
        return [f"sweep CSV has {len(rows)} records, expected {len(expected)}"]
    problems = []
    for row, want in zip(rows, expected):
        for col, (got, exp) in enumerate(zip(row, want)):
            if exp is not None and got != exp:
                problems.append(f"sweep CSV {row[1]}/{row[2]} column {col}: {got!r} != {exp!r}")
    return problems
