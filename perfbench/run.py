"""Benchmark of the mhv solvers: one command, three workloads.

    python3 perfbench/run.py --workload {tree,hard,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``.  A run repeats whole rounds of the workload's operations until
``--seconds`` would be exceeded (at least two rounds), checks every output,
and prints one JSON object as its last line.  Every time is scaled to a
reference speed of the CPU (``speed.py``), and each operation, and each node
of a beam DP solve, counts at its median round (README.md says why).
``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics of the
fastest traced round, plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("tree", "hard", "sweep")
CHEAP_PASSES = 8  # cheap passes per round with --trace 0, at most one per instance
clock = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import mhv from this checkout's sources, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "mhv" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'mhv'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))


class Run:
    """Times, outputs and checks of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        import checks
        import workloads as wl
        from speed import Speed

        self.wl = wl
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.speed = Speed(clock)
        self.nodes = wl.NodeClock(self.speed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        # traced flag -> op key -> the op's scaled seconds in each round; for the
        # heuristic, its stage times (see workloads.run_heuristic).
        self.samples: dict[bool, dict[tuple[str, int], list]] = {False: {}, True: {}}
        self.happy: dict[tuple[str, int], int] = {}
        self.certified: set[int] = set()
        self.nice: dict[int, object] = {}
        self.results: dict[tuple[str, int], object] = {}
        self.csv_text: dict[int, str] = {}
        self.instances: list | None = None
        self.instances = self.set_up()
        self.plain = [checks.read_plain(inst.gr, inst.col) for inst in self.instances]
        self.upper = [p.n - checks.forced_unhappy(p) for p in self.plain]
        self.fill = [checks.best_fill(p) for p in self.plain]
        self.groups = [
            list(range(i, min(i + wl.SWEEP_GROUP, len(self.instances))))
            for i in range(0, len(self.instances), wl.SWEEP_GROUP)
        ] if workload == "sweep" else []
        self.optimum: list[int] | None = None
        if workload == "tree":
            self.problems += checks.validate_tree_optimum(trees=40, seed=seed)
            self.optimum = [checks.tree_optimum(p) for p in self.plain]

    # -- set-up -----------------------------------------------------------

    def set_up(self):
        self.speed.tick()
        t0 = clock()
        instances = self.wl.set_up(self.workload, self.seed)
        t1 = clock()
        self.speed.probe()
        self.setup_times.append(self.speed.scale(t1 - t0, t0, t1))
        if self.instances is not None and instances != self.instances:
            self.problems.append("set-up drew different instances from the same seed")
        return instances

    # -- one round ----------------------------------------------------------

    def round(self, traced: bool, spread_cheap: bool) -> None:
        """Every operation of the workload once, in instance order.

        The cheap operations (set-up, greedy, growth) of all instances run
        before the first instance's heuristic; with ``spread_cheap`` they run
        about ``CHEAP_PASSES`` times a round, spread evenly between the instances'
        heuristics, so that they are sampled many times across the run.
        """
        for g, group in enumerate(self.groups):
            self._timed(traced, ("pool", g), lambda: self._pool_pass(group))
        every = max(1, len(self.instances) // CHEAP_PASSES)
        for i, inst in enumerate(self.instances):
            if i == 0 or (spread_cheap and i % every == 0):
                self._cheap_pass(traced)
            self._timed(traced, ("heuristic", i), lambda: self.wl.run_heuristic(inst, self.nodes))
            if self.workload == "tree" and i in self.nice:
                self._timed(traced, ("exact", i), lambda: self.wl.run_exact(inst, self.nice[i]))
        for g, group in enumerate(self.groups):
            if g in self.csv_text and all(("heuristic", i) in self.results for i in group):
                self.problems += self.wl.csv_problems(self.csv_text[g], self._expected_rows(group))

    def _cheap_pass(self, traced: bool) -> None:
        self.set_up()
        for i, inst in enumerate(self.instances):
            self._timed(traced, ("greedy", i), lambda: self.wl.run_greedy(inst))
            self._timed(traced, ("growth", i), lambda: self.wl.run_growth(inst))

    def _pool_pass(self, group: list[int]):
        start = clock()
        csv_text, first = self.wl.run_sweep([self.instances[i] for i in group], clock)
        return csv_text, (first - start, start, first)

    def _timed(self, traced: bool, key: tuple[str, int], op) -> None:
        self.attempted += 1
        self.speed.tick()
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # an operation that fails is counted, the run goes on
            self.failed += 1
            print(f"failed: {key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        t1 = clock()
        self.speed.tick()
        took = self.speed.scale(t1 - t0, t0, t1)
        kind, i = key
        if kind == "pool":
            self.csv_text[i], (first, start, end) = out
            first = self.speed.scale(first, start, end)
            self.samples[traced].setdefault(("first_record", i), []).append(first)
        elif kind == "heuristic":
            nice, result, stages = out
            seen = self.samples[traced].get(key)
            if seen and len(seen[0][3]) != len(stages[3]):
                self.problems.append(f"{key}: node count changed between rounds")
            self.nice[i] = nice
            if result.provably_optimal:
                self.certified.add(i)
            took = stages
            self._check(key, result)
        else:
            self._check(key, out)
        self.samples[traced].setdefault(key, []).append(took)

    def _check(self, key: tuple[str, int], result) -> None:
        kind, i = key
        self.results[key] = result
        problems = self.checks.result_problems(self.plain[i], result, self.upper[i])
        if kind == "greedy" and (result.happy, result.colouring.colours) != self.fill[i]:
            problems.append(f"greedy: {result.happy} happy, best monochromatic fill {self.fill[i][0]}")
        if self.optimum is not None and kind in ("heuristic", "exact"):
            if result.happy != self.optimum[i]:
                problems.append(f"{kind}: {result.happy} happy, tree optimum {self.optimum[i]}")
            if kind == "heuristic" and not result.provably_optimal:
                problems.append("heuristic: tree solve not certified")
            if kind == "heuristic" and self.nice[i].width != 1:
                problems.append(f"min-fill width {self.nice[i].width} on a tree")
        if self.happy.setdefault(key, result.happy) != result.happy:
            problems.append(f"{kind}: happy count changed between rounds")
        self.problems += [f"{self.instances[i].ident}: {msg}" for msg in problems]

    def _expected_rows(self, group: list[int]) -> list[list[str]]:
        return [
            self.wl.expected_row(self.instances[i], name, self.results[(name, i)], self.nice[i])
            for i in group
            for name, _ in self.wl.SWEEP_SPECS
        ]

    # -- figures ------------------------------------------------------------

    def typical(self, traced: bool) -> dict[tuple[str, int], float]:
        """Each operation's median round; the heuristic stage by stage."""
        out = {}
        median = statistics.median
        for key, rounds in self.samples[traced].items():
            if key[0] != "heuristic":
                out[key] = median(rounds)
                continue
            steps = [r[3] for r in rounds]
            out[key] = sum(median(r[k] for r in rounds) for k in range(3)) + sum(map(median, zip(*steps)))
        return out

    def e2e_metrics(self) -> dict[str, tuple[float, str]]:
        op = self.typical(False)
        count = len(self.instances)

        def total(kind: str) -> float:
            return sum(op[(kind, i)] for i in range(count))

        if self.workload == "sweep":
            wall = sum(op[("pool", g)] for g in range(len(self.groups)))
        else:
            wall = sum(op.values())
        rss = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "solve_s": (total("heuristic"), "s"),
            "growth_s": (total("growth"), "s"),
            "wall_s": (wall, "s"),
            "happy_heuristic": (self._happy_sum("heuristic"), "vertices"),
            "happy_greedy": (self._happy_sum("greedy"), "vertices"),
            "happy_growth": (self._happy_sum("growth"), "vertices"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
        }

    def _happy_sum(self, kind: str) -> int:
        return sum(self.happy[(kind, i)] for i in range(len(self.instances)))

    def structure_metrics(self) -> dict[str, tuple[float, str]]:
        import mhv

        nices = [self.nice[i] for i in range(len(self.instances))]
        solvers = 4 if self.workload == "tree" else 3
        task_bytes = 0
        for inst, nice in zip(self.instances, nices):
            g, col = self.wl.parse(inst)
            task_bytes += solvers * len(pickle.dumps((mhv.Instance(g, col), nice)))
        return {
            "treedec.width": (sum(n.width for n in nices), "count"),
            "treedec.nodes": (sum(n.node_count for n in nices), "count"),
            "treedec.joins": (sum(mhv.td_stats(n).join_count for n in nices), "count"),
            "heuristic.certified": (len(self.certified), "count"),
            "harness.task_bytes": (task_bytes, "bytes"),
        }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    import_program()
    start = clock()
    deadline = start + args.seconds
    run = Run(args.workload, args.seed)

    traced_rounds = []
    round_times: list[float] = []
    rounds = 0
    with run.nodes.install():
        while True:
            # trace 0: plain rounds; trace 1: untraced and traced rounds alternate.
            traced = bool(args.trace) and rounds % 2 == 1
            t0 = clock()
            if traced:
                from tracing import Tracer

                tracer = Tracer()
                with tracer.install():
                    run.round(traced=True, spread_cheap=False)
                end = clock()
                traced_rounds.append((end - t0, t0, end, tracer))
            else:
                run.round(traced=False, spread_cheap=not args.trace)
            round_times.append(clock() - t0)
            rounds += 1
            step = 2 if args.trace else 1
            if rounds < 2 or rounds % step:
                continue
            # Start another round only if it fits.
            if clock() + step * statistics.mean(round_times) > deadline:
                break

    if args.trace:
        # The fastest traced round's layers, scaled by the speed over that round.
        _, start, end, tracer = min(traced_rounds, key=lambda t: t[0])
        factor = run.speed.scale(1.0, start, end)
        metrics = {
            name: (value * factor if layer_unit(name) == "ms" else value, layer_unit(name))
            for name, value in tracer.layer_metrics().items()
        }
        metrics.update(run.structure_metrics())
        untraced, traced_ops = run.typical(False), run.typical(True)
        first = sum(t for (kind, _), t in untraced.items() if kind == "first_record")
        metrics["harness.first_record_ms"] = (first * 1000.0, "ms")
        plain = sum(t for (kind, _), t in untraced.items() if kind != "first_record")
        overhead = sum(t for (kind, _), t in traced_ops.items() if kind != "first_record") - plain
        metrics["trace.overhead_ms"] = (overhead * 1000.0, "ms")
        metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(
            OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "rounds": rounds},
        )
    else:
        metrics = run.e2e_metrics()

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    typical = run.typical(bool(args.trace))
    record = dict(
        result,
        rounds=rounds,
        speed_probe=run.speed.summary(),
        widths=[run.nice[i].width for i in sorted(run.nice)],
        typical_s={f"{kind}/{i}": t for (kind, i), t in sorted(typical.items())},
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"{args.workload}: {rounds} rounds in {clock() - start:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
