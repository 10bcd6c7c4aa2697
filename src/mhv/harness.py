"""Instance generation and batch benchmarking.

Generation follows the Erdos-Renyi model with a shuffled precolouring: the
first k shuffled vertices take colours 1..k so every colour class is
nonempty, and the remaining floor(q*n) - k take uniform random colours.
All randomness comes from Python's random.Random (Mersenne Twister), whose
behaviour for random/shuffle/randrange is stable across platforms, so
instances and benchmark CSVs reproduce bit-for-bit from their seeds.
"""

from __future__ import annotations

import csv
import heapq
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, TextIO

from .baselines import greedy_mhv, growth_mhv
from .errors import InputError, MhvError
from .exact import solve_exact
from .graph import Graph, Instance, PartialColouring, floor_fraction
from .heuristic import HeuristicConfig, LabelWeights, solve_heuristic
from .oracle import DEFAULT_CAP, brute_force
from .result import SolveResult
from .treedec import NiceTreeDecomposition, make_nice, min_fill_decompose, td_stats

WORKERS_ENV_VAR = "MHV_WORKERS"
CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "schema_version",
    "instance_id",
    "algorithm",
    "config",
    "n",
    "happy",
    "percent_happy",
    "provably_optimal",
    "time_ms",
    "td_width",
    "td_nodes",
    "status",
    "error",
)


@dataclass(frozen=True)
class GeneratorParams:
    """Erdos-Renyi instance parameters: size, density, colours, coloured share."""

    n: int
    p: float
    k: int
    q: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("n must be non-negative")
        if not 0.0 <= self.p <= 1.0:
            raise InputError("edge probability p must lie in [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise InputError("coloured fraction q must lie in [0, 1]")
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.coloured_count < self.k:
            raise InputError(
                f"floor(q*n) = {self.coloured_count} < k = {self.k}: "
                "more colours than vertices to colour"
            )

    @property
    def coloured_count(self) -> int:
        return floor_fraction(self.q, self.n)


def hardest_regime(n: int, k: int, seed: int = 0) -> GeneratorParams:
    """The empirically hardest parameter regime: p = 5/(n-1), q = 0.1."""
    if n < 2:
        raise InputError("the hardest regime needs at least 2 vertices")
    return GeneratorParams(n=n, p=min(1.0, 5.0 / (n - 1)), k=k, q=0.1, seed=seed)


def generate(params: GeneratorParams) -> Instance:
    """Draw one instance; identical seeds give identical instances."""
    rng = random.Random(params.seed)
    n, k = params.n, params.k
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < params.p
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    assignment: dict[int, int] = {}
    for i in range(k):
        assignment[perm[i]] = i + 1
    for j in range(k, params.coloured_count):
        assignment[perm[j]] = rng.randrange(1, k + 1)
    return Instance(Graph(n, edges), PartialColouring(k, assignment))


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labelled tree on n vertices via a Prufer sequence."""
    if n < 1:
        raise InputError("a tree needs at least one vertex")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] = 0
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm configuration for the benchmark harness."""

    algorithm: str  # greedy | growth | heuristic | exact | brute
    seed: int = 0
    width: int = 67
    weights: tuple[int, int, int, int] = (15, -9, 4, -8)
    join_loop: str = "smaller_list"
    join_distance: str = "count_external_neighbours"
    join_merge: str = "copy_bag"
    brute_cap: int = DEFAULT_CAP
    state_cap: int = 2_000_000

    def __post_init__(self) -> None:
        if self.algorithm not in ("greedy", "growth", "heuristic", "exact", "brute"):
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "heuristic":
            self.heuristic_config(self.seed)  # raises InputError on a bad knob

    @classmethod
    def from_manifest(cls, entry: object) -> AlgorithmSpec:
        """Build a spec from one manifest entry: a JSON object whose keys are
        this class's fields.  Anything else raises InputError."""
        if not isinstance(entry, dict):
            raise InputError(f"algorithm entry must be a JSON object, got {entry!r}")
        unknown = sorted(set(entry) - {"weights", *_SPEC_FIELD_TYPES})
        if unknown:
            raise InputError(f"unknown algorithm field(s) {', '.join(unknown)} in {entry!r}")
        if "algorithm" not in entry:
            raise InputError(f"algorithm entry needs an 'algorithm' field: {entry!r}")
        values = dict(entry)
        for name, value in entry.items():
            if name == "weights":
                if not (
                    isinstance(value, list)
                    and len(value) == 4
                    and all(type(x) is int for x in value)
                ):
                    raise InputError(f"'weights' must be a list of four integers, got {value!r}")
                values[name] = tuple(value)
            elif type(value) is not _SPEC_FIELD_TYPES[name]:
                kind = _SPEC_FIELD_TYPES[name].__name__
                raise InputError(f"algorithm field {name!r} must be {kind}, got {value!r}")
        return cls(**values)

    def label(self) -> str:
        if self.algorithm == "heuristic":
            w = ",".join(str(x) for x in self.weights)
            return (
                f"W={self.width};weights={w};loop={self.join_loop};"
                f"dist={self.join_distance};merge={self.join_merge};seed={self.seed}"
            )
        if self.algorithm == "growth":
            return f"seed={self.seed}"
        if self.algorithm == "brute":
            return f"cap={self.brute_cap}"
        if self.algorithm == "exact":
            return f"state_cap={self.state_cap}"
        return ""

    def heuristic_config(self, seed: int) -> HeuristicConfig:
        wh, wu, wph, wpu = self.weights
        return HeuristicConfig(
            width=self.width,
            weights=LabelWeights(wh, wu, wph, wpu),
            join_loop_choice=self.join_loop,
            join_distance_weighting=self.join_distance,
            join_merge_method=self.join_merge,
            seed=seed,
        )


# JSON type of each AlgorithmSpec field but ``weights`` (bool is not an int).
_SPEC_FIELD_TYPES = {
    "algorithm": str,
    "seed": int,
    "width": int,
    "join_loop": str,
    "join_distance": str,
    "join_merge": str,
    "brute_cap": int,
    "state_cap": int,
}


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    algorithm: str
    config: str
    n: int
    happy: int
    percent_happy: float
    provably_optimal: bool
    time_ms: float
    td_width: int
    td_nodes: int
    status: str = "ok"
    error: str = ""


@dataclass(frozen=True)
class _RunTask:
    instance_id: str
    instance: Instance
    nice: NiceTreeDecomposition
    decompose_ms: float
    spec: AlgorithmSpec
    seed: int
    include_decomposition_time: bool


def _execute(task: _RunTask) -> BenchRecord:
    g = task.instance.graph
    colouring = task.instance.colouring
    spec = task.spec
    stats = td_stats(task.nice)
    try:
        result: SolveResult
        if spec.algorithm == "greedy":
            result = greedy_mhv(g, colouring)
        elif spec.algorithm == "growth":
            result = growth_mhv(g, colouring, seed=task.seed)
        elif spec.algorithm == "brute":
            result = brute_force(g, colouring, cap=spec.brute_cap)
        elif spec.algorithm == "exact":
            result = solve_exact(g, colouring, task.nice, state_cap=spec.state_cap)
        else:
            result = solve_heuristic(g, colouring, task.nice, spec.heuristic_config(task.seed))
    except MhvError as exc:
        return BenchRecord(
            instance_id=task.instance_id,
            algorithm=spec.algorithm,
            config=spec.label(),
            n=g.n,
            happy=-1,
            percent_happy=0.0,
            provably_optimal=False,
            time_ms=0.0,
            td_width=stats.width,
            td_nodes=stats.node_count,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
        )
    time_ms = result.time_ms
    if task.include_decomposition_time and spec.algorithm in ("exact", "heuristic"):
        time_ms += task.decompose_ms
    return BenchRecord(
        instance_id=task.instance_id,
        algorithm=spec.algorithm,
        config=spec.label(),
        n=g.n,
        happy=result.happy,
        percent_happy=result.percent_happy,
        provably_optimal=result.provably_optimal,
        time_ms=time_ms,
        td_width=stats.width,
        td_nodes=stats.node_count,
    )


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, value)


def bench_run(
    instances: Iterable[tuple[str, Instance]],
    algorithms: Iterable[AlgorithmSpec],
    repetitions: int = 1,
    include_timing: bool = True,
    include_decomposition_time: bool = False,
    workers: int | None = None,
    td_seed: int = 0,
) -> Iterator[BenchRecord]:
    """Run every (instance, algorithm, repetition) combination.

    Each instance is decomposed once and the decomposition shared across its
    runs.  Repetition r uses per-run seed ``spec.seed + r``, bound to the run
    rather than the worker, so results do not depend on the worker count.
    Failed runs yield error records and the sweep continues.
    """
    if repetitions < 1:
        raise InputError("repetitions must be at least 1")
    algorithms = list(algorithms)
    if workers is None:
        workers = default_workers()

    def tasks() -> Iterator[_RunTask]:
        for instance_id, instance in instances:
            t0 = time.perf_counter()
            td = min_fill_decompose(instance.graph, seed=td_seed)
            nice = make_nice(td, instance.graph)
            decompose_ms = (time.perf_counter() - t0) * 1000.0
            for spec in algorithms:
                for rep in range(repetitions):
                    yield _RunTask(
                        instance_id=instance_id,
                        instance=instance,
                        nice=nice,
                        decompose_ms=decompose_ms,
                        spec=spec,
                        seed=spec.seed + rep,
                        include_decomposition_time=include_decomposition_time,
                    )

    if workers <= 1:
        for task in tasks():
            record = _execute(task)
            yield record if include_timing else replace(record, time_ms=0.0)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for record in pool.map(_execute, tasks()):
                yield record if include_timing else replace(record, time_ms=0.0)


def write_csv_header(out: TextIO) -> None:
    csv.writer(out, lineterminator="\n").writerow(CSV_COLUMNS)


def write_csv_record(out: TextIO, record: BenchRecord, include_timing: bool = True) -> None:
    csv.writer(out, lineterminator="\n").writerow(
        (
            CSV_SCHEMA_VERSION,
            record.instance_id,
            record.algorithm,
            record.config,
            record.n,
            record.happy,
            f"{record.percent_happy:.6f}",
            "true" if record.provably_optimal else "false",
            f"{record.time_ms:.3f}" if include_timing else "",
            record.td_width,
            record.td_nodes,
            record.status,
            record.error,
        )
    )


def bench_to_csv(
    out: TextIO,
    instances: Iterable[tuple[str, Instance]],
    algorithms: Iterable[AlgorithmSpec],
    repetitions: int = 1,
    include_timing: bool = True,
    include_decomposition_time: bool = False,
    workers: int | None = None,
    td_seed: int = 0,
) -> int:
    """Stream benchmark records into CSV; returns the number of records.

    Records are flushed as they arrive so partially completed sweeps leave a
    usable file behind.
    """
    write_csv_header(out)
    written = 0
    for record in bench_run(
        instances,
        algorithms,
        repetitions=repetitions,
        include_timing=include_timing,
        include_decomposition_time=include_decomposition_time,
        workers=workers,
        td_seed=td_seed,
    ):
        write_csv_record(out, record, include_timing=include_timing)
        out.flush()
        written += 1
    return written
