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
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO, get_type_hints

from .baselines import greedy_mhv, growth_mhv
from .errors import InputError, MhvError, ResourceLimitError
from .exact import DEFAULT_STATE_CAP, solve_exact
from .graph import MAX_COLOURS, MAX_VERTICES, Graph, Instance, PartialColouring, floor_fraction
from .heuristic import HeuristicConfig, LabelWeights, solve_heuristic
from .oracle import DEFAULT_CAP, brute_force
from .result import SolveResult
from .treedec import NiceTreeDecomposition, make_nice, min_fill_decompose, td_stats

WORKERS_ENV_VAR = "MHV_WORKERS"
CSV_SCHEMA_VERSION = 1


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
        if self.n > MAX_VERTICES:
            raise ResourceLimitError(f"{self.n} vertices, above the limit of {MAX_VERTICES}")
        if self.k > MAX_COLOURS:
            raise InputError(f"at most {MAX_COLOURS} colours are supported")
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
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"{n} vertices, above the limit of {MAX_VERTICES}")
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


_TUNED = HeuristicConfig()


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm configuration for the benchmark harness."""

    algorithm: str  # a key of SOLVERS
    seed: int = 0
    width: int = _TUNED.width
    weights: tuple[int, int, int, int] = astuple(_TUNED.weights)
    join_loop: str = _TUNED.join_loop_choice
    join_distance: str = _TUNED.join_distance_weighting
    join_merge: str = _TUNED.join_merge_method
    brute_cap: int = DEFAULT_CAP
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self) -> None:
        row = SOLVERS.get(self.algorithm)
        if row is None:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if self.brute_cap < 1:
            raise InputError(f"brute_cap must be at least 1, got {self.brute_cap}")
        if self.state_cap < 1:
            raise InputError(f"state_cap must be at least 1, got {self.state_cap}")
        if row.check is not None:
            row.check(self)

    @classmethod
    def from_manifest(cls, entry: object) -> AlgorithmSpec:
        """Build a spec from one manifest entry: a JSON object whose keys are
        this class's fields.  Anything else raises InputError."""
        values = dict(_fields(entry, _SPEC_FIELD_TYPES, "algorithm entry", ("algorithm",)))
        if "weights" in values:
            weights = values["weights"]
            if not (len(weights) == 4 and all(type(x) is int for x in weights)):
                raise InputError(f"'weights' must be a list of four integers, got {weights!r}")
            values["weights"] = tuple(weights)
        return cls(**values)

    def label(self) -> str:
        return SOLVERS[self.algorithm].config(self)

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


# The JSON type of each AlgorithmSpec field in a manifest entry; the
# length and items of ``weights`` are checked by ``from_manifest``.
_SPEC_FIELD_TYPES = {**get_type_hints(AlgorithmSpec), "weights": list}
# The manifest's fields; all but the two lists are bench_to_csv keywords.
_MANIFEST_FIELDS = {
    "instances": list,
    "algorithms": list,
    "repetitions": int,
    "include_timing": bool,
    "include_decomposition_time": bool,
    "workers": int,
    "td_seed": int,
}
_INSTANCE_FIELDS = {"id": str, "graph": str, "colouring": str}


def _fields(entry: object, types: dict[str, type], what: str, required: Iterable[str]) -> dict:
    """Return ``entry`` if it is a JSON object whose keys are in ``types`` and
    include ``required``, and whose values have exactly their JSON type (a
    bool is not an int, and null matches no type); else raise InputError."""
    if not isinstance(entry, dict):
        raise InputError(f"{what} must be a JSON object, got {entry!r}")
    unknown = sorted(set(entry) - set(types))
    if unknown:
        raise InputError(f"unknown {what} field(s) {', '.join(unknown)} in {entry!r}")
    missing = [name for name in required if name not in entry]
    if missing:
        raise InputError(f"{what} needs field(s) {', '.join(missing)}: {entry!r}")
    for name, value in entry.items():
        if type(value) is not types[name]:
            raise InputError(f"{what} field {name!r} must be {types[name].__name__}, got {value!r}")
    return entry


def check_manifest(manifest: object) -> tuple[list[dict], list[AlgorithmSpec], dict]:
    """Check a bench manifest before any instance is read or decomposed.

    Returns the instance entries, the algorithm specs and the options for
    ``bench_to_csv``; anything malformed raises InputError.
    """
    options = dict(_fields(manifest, _MANIFEST_FIELDS, "manifest", ("instances", "algorithms")))
    entries = options.pop("instances")
    ids = set()
    for entry in entries:
        _fields(entry, _INSTANCE_FIELDS, "instance entry", _INSTANCE_FIELDS)
        if entry["id"] in ids:
            raise InputError(f"duplicate instance id {entry['id']!r}")
        ids.add(entry["id"])
    specs = [AlgorithmSpec.from_manifest(entry) for entry in options.pop("algorithms")]
    for key in ("repetitions", "workers"):
        if options.get(key, 1) < 1:
            raise InputError(f"{key} must be at least 1, got {options[key]}")
    return entries, specs, options


@dataclass(frozen=True)
class SolverRow:
    """How to run one algorithm of the solver table.

    ``run(instance, nice, spec, seed)`` solves; ``nice`` is None unless the
    row ``needs_decomposition``.  ``config`` builds the CSV config label, and
    ``check``, when set, raises InputError on a spec the solver cannot run.
    """

    needs_decomposition: bool
    run: Callable[[Instance, NiceTreeDecomposition | None, AlgorithmSpec, int], SolveResult]
    config: Callable[[AlgorithmSpec], str]
    check: Callable[[AlgorithmSpec], object] | None = None


def _heuristic_config_label(spec: AlgorithmSpec) -> str:
    w = ",".join(str(x) for x in spec.weights)
    return (
        f"W={spec.width};weights={w};loop={spec.join_loop};"
        f"dist={spec.join_distance};merge={spec.join_merge};seed={spec.seed}"
    )


SOLVERS: dict[str, SolverRow] = {
    "greedy": SolverRow(
        needs_decomposition=False,
        run=lambda inst, nice, spec, seed: greedy_mhv(inst.graph, inst.colouring),
        config=lambda spec: "",
    ),
    "growth": SolverRow(
        needs_decomposition=False,
        run=lambda inst, nice, spec, seed: growth_mhv(inst.graph, inst.colouring, seed=seed),
        config=lambda spec: f"seed={spec.seed}",
    ),
    "brute": SolverRow(
        needs_decomposition=False,
        run=lambda inst, nice, spec, seed: brute_force(
            inst.graph, inst.colouring, cap=spec.brute_cap
        ),
        config=lambda spec: f"cap={spec.brute_cap}",
    ),
    "exact": SolverRow(
        needs_decomposition=True,
        run=lambda inst, nice, spec, seed: solve_exact(
            inst.graph, inst.colouring, nice, state_cap=spec.state_cap
        ),
        config=lambda spec: f"state_cap={spec.state_cap}",
    ),
    "heuristic": SolverRow(
        needs_decomposition=True,
        run=lambda inst, nice, spec, seed: solve_heuristic(
            inst.graph, inst.colouring, nice, spec.heuristic_config(seed)
        ),
        config=_heuristic_config_label,
        check=lambda spec: spec.heuristic_config(spec.seed),
    ),
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


CSV_COLUMNS = ("schema_version", *(f.name for f in fields(BenchRecord)))


def _run_instance(
    item: tuple[str, Instance],
    algorithms: list[AlgorithmSpec],
    repetitions: int,
    include_timing: bool,
    include_decomposition_time: bool,
    td_seed: int,
) -> list[BenchRecord]:
    """Decompose one instance and return its records in (spec, repetition) order."""
    instance_id, instance = item
    t0 = time.perf_counter()
    nice = make_nice(min_fill_decompose(instance.graph, seed=td_seed), instance.graph)
    decompose_ms = (time.perf_counter() - t0) * 1000.0
    stats = td_stats(nice)
    records = []
    for spec in algorithms:
        row = SOLVERS[spec.algorithm]
        extra_ms = decompose_ms if include_decomposition_time and row.needs_decomposition else 0.0
        for rep in range(repetitions):
            try:
                result = row.run(instance, nice, spec, spec.seed + rep)
            except MhvError as exc:
                outcome = dict(
                    happy=-1,
                    percent_happy=0.0,
                    provably_optimal=False,
                    time_ms=0.0,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                outcome = dict(
                    happy=result.happy,
                    percent_happy=result.percent_happy,
                    provably_optimal=result.provably_optimal,
                    time_ms=result.time_ms + extra_ms if include_timing else 0.0,
                )
            records.append(
                BenchRecord(
                    instance_id=instance_id,
                    algorithm=spec.algorithm,
                    config=spec.label(),
                    n=instance.graph.n,
                    td_width=stats.width,
                    td_nodes=stats.node_count,
                    **outcome,
                )
            )
    return records


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"{WORKERS_ENV_VAR} must be at least 1, got {raw!r}")
    return value


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

    Each instance is one task: the process that runs it decomposes it once,
    shares the decomposition across its runs and returns its records in
    (spec, repetition) order.  ``workers`` processes run the tasks (the
    calling process when it is 1), and records come out per finished
    instance in input order.  Repetition r uses per-run seed
    ``spec.seed + r``, bound to the run rather than the worker, so results
    do not depend on the worker count.  Failed runs yield error records and
    the sweep continues.  The arguments are checked before this returns.
    """
    if repetitions < 1:
        raise InputError("repetitions must be at least 1")
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    run = partial(
        _run_instance,
        algorithms=list(algorithms),
        repetitions=repetitions,
        include_timing=include_timing,
        include_decomposition_time=include_decomposition_time,
        td_seed=td_seed,
    )
    return _records(run, instances, workers)


def _records(
    run: Callable[[tuple[str, Instance]], list[BenchRecord]],
    instances: Iterable[tuple[str, Instance]],
    workers: int,
) -> Iterator[BenchRecord]:
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for records in (pool.map if pool else map)(run, instances):
            yield from records


def write_csv_header(out: TextIO) -> None:
    csv.writer(out, lineterminator="\n").writerow(CSV_COLUMNS)


def write_csv_record(out: TextIO, record: BenchRecord, include_timing: bool = True) -> None:
    row = asdict(record)
    row.update(
        percent_happy=f"{record.percent_happy:.6f}",
        provably_optimal="true" if record.provably_optimal else "false",
        time_ms=f"{record.time_ms:.3f}" if include_timing else "",
    )
    csv.writer(out, lineterminator="\n").writerow((CSV_SCHEMA_VERSION, *row.values()))


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
    records = bench_run(
        instances,
        algorithms,
        repetitions=repetitions,
        include_timing=include_timing,
        include_decomposition_time=include_decomposition_time,
        workers=workers,
        td_seed=td_seed,
    )
    write_csv_header(out)
    written = 0
    for record in records:
        write_csv_record(out, record, include_timing=include_timing)
        out.flush()
        written += 1
    return written
