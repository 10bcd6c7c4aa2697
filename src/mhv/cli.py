"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import greedy_mhv, growth_mhv
from .errors import InputError, MhvError, ParseError, ResourceLimitError
from .exact import solve_exact
from .graph import (
    Graph,
    Instance,
    PartialColouring,
    parse_colouring,
    parse_graph,
    validate_instance,
    write_colouring,
    write_graph,
)
from .harness import (
    AlgorithmSpec,
    GeneratorParams,
    bench_to_csv,
    generate,
    hardest_regime,
)
from .heuristic import (
    DISTANCE_WEIGHTINGS,
    JOIN_LOOP_CHOICES,
    MERGE_METHODS,
    HeuristicConfig,
    LabelWeights,
    solve_heuristic,
)
from .oracle import DEFAULT_CAP, brute_force
from .result import SolveResult
from .treedec import make_nice, min_fill_decompose, parse_td, td_stats, validate_td, write_td

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_instance(graph_path: str, colouring_path: str) -> Instance:
    g = parse_graph(Path(graph_path).read_text())
    col = parse_colouring(Path(colouring_path).read_text(), g)
    return Instance(g, col)


def _decomposition(args: argparse.Namespace, g: Graph):
    if getattr(args, "td", None):
        td = parse_td(Path(args.td).read_text(), g)
        report = validate_td(g, td)
        if not report.ok:
            raise InputError("invalid tree decomposition: " + "; ".join(report.violations))
    else:
        td = min_fill_decompose(g, seed=getattr(args, "td_seed", 0))
    return make_nice(td, g)


def _print_result(result: SolveResult) -> None:
    print(
        f"algorithm={result.algorithm} happy={result.happy} "
        f"percent={result.percent_happy:.4f} optimal={result.provably_optimal} "
        f"time_ms={result.time_ms:.3f}"
    )


def _write_solution(result: SolveResult, out: str | None) -> None:
    if out:
        col = result.colouring
        assignment = {v: c for v, c in enumerate(col.colours)}
        Path(out).write_text(write_colouring(PartialColouring(col.k, assignment)))


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="input .gr graph file")
    p.add_argument("colouring", help="input .col partial colouring file")


def _add_heuristic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", "-W", type=int, default=67, help="beam width (default 67)")
    p.add_argument(
        "--weights",
        default="15,-9,4,-8",
        help="label weights W_H,W_U,W_PH,W_PU (default tuned 15,-9,4,-8)",
    )
    p.add_argument("--join-loop", choices=JOIN_LOOP_CHOICES, default="smaller_list")
    p.add_argument("--join-distance", choices=DISTANCE_WEIGHTINGS, default="count_external_neighbours")
    p.add_argument("--join-merge", choices=MERGE_METHODS, default="copy_bag")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--td", help="use this .td decomposition instead of min-fill")
    p.add_argument("--td-seed", type=int, default=0, help="seed for the min-fill decomposer")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mhv", description="Maximum Happy Vertices solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--q", type=float, default=None, help="fraction of coloured vertices")
    p.add_argument("--hardest", action="store_true", help="use the hardest regime p=5/(n-1), q=0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-colouring", required=True)

    p = sub.add_parser("decompose", help="build or validate a tree decomposition")
    p.add_argument("graph")
    p.add_argument("--td", help="validate this .td file instead of building one")
    p.add_argument("--seed", type=int, default=0, help="min-fill tie-break seed")
    p.add_argument("--out", help="write the decomposition here")

    p = sub.add_parser("validate", help="report instance facts relevant to the solvers")
    _add_instance_args(p)

    p = sub.add_parser("solve", help="beam-bounded tree decomposition heuristic")
    _add_instance_args(p)
    _add_heuristic_args(p)
    p.add_argument("--out", help="write the full colouring here")

    p = sub.add_parser("exact", help="exact bounded-treewidth dynamic program")
    _add_instance_args(p)
    p.add_argument("--td", help="use this .td decomposition instead of min-fill")
    p.add_argument("--td-seed", type=int, default=0)
    p.add_argument("--state-cap", type=int, default=2_000_000)
    p.add_argument("--out")

    p = sub.add_parser("greedy", help="best monochromatic completion")
    _add_instance_args(p)
    p.add_argument("--out")

    p = sub.add_parser("growth", help="label-driven constructive baseline")
    _add_instance_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("brute", help="exhaustive oracle for small instances")
    _add_instance_args(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="run a benchmark manifest into CSV")
    p.add_argument("manifest", help="JSON manifest describing instances and algorithms")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--workers", type=int, default=None, help=f"overrides ${'MHV_WORKERS'}")

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.hardest:
        params = hardest_regime(args.n, args.k, seed=args.seed)
    else:
        if args.p is None or args.q is None:
            raise InputError("gen needs --p and --q unless --hardest is given")
        params = GeneratorParams(n=args.n, p=args.p, k=args.k, q=args.q, seed=args.seed)
    inst = generate(params)
    Path(args.out_graph).write_text(write_graph(inst.graph))
    Path(args.out_colouring).write_text(write_colouring(inst.colouring))
    print(
        f"generated n={params.n} m={len(inst.graph.edges)} k={params.k} "
        f"coloured={params.coloured_count}"
    )
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    if args.td:
        td = parse_td(Path(args.td).read_text(), g)
        report = validate_td(g, td)
        if report.ok:
            print(f"valid: width={td.width} nodes={td.node_count}")
            return EXIT_OK
        for violation in report.violations:
            print(f"violation: {violation}")
        return EXIT_INPUT
    td = min_fill_decompose(g, seed=args.seed)
    nice = make_nice(td, g)
    stats = td_stats(nice)
    if args.out:
        Path(args.out).write_text(write_td(td))
    print(
        f"width={td.width} bags={td.node_count} nice_nodes={stats.node_count} "
        f"(leaf={stats.leaf_count} introduce={stats.introduce_count} "
        f"forget={stats.forget_count} join={stats.join_count})"
    )
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.colouring)
    report = validate_instance(inst)
    print(
        f"n={report.n_vertices} m={report.n_edges} k={report.k} "
        f"coloured={report.n_coloured} components={report.n_components} "
        f"exact_available={report.exact_solver_available}"
    )
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.colouring)
    nice = _decomposition(args, inst.graph)
    try:
        wh, wu, wph, wpu = (int(x) for x in args.weights.split(","))
    except ValueError:
        raise InputError("--weights expects four comma-separated integers") from None
    config = HeuristicConfig(
        width=args.width,
        weights=LabelWeights(wh, wu, wph, wpu),
        join_loop_choice=args.join_loop,
        join_distance_weighting=args.join_distance,
        join_merge_method=args.join_merge,
        seed=args.seed,
    )
    result = solve_heuristic(inst.graph, inst.colouring, nice, config)
    _print_result(result)
    _write_solution(result, args.out)
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.colouring)
    nice = _decomposition(args, inst.graph)
    result = solve_exact(inst.graph, inst.colouring, nice, state_cap=args.state_cap)
    _print_result(result)
    _write_solution(result, args.out)
    return EXIT_OK


def _cmd_greedy(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.colouring)
    result = greedy_mhv(inst.graph, inst.colouring)
    _print_result(result)
    _write_solution(result, args.out)
    return EXIT_OK


def _cmd_growth(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.colouring)
    result = growth_mhv(inst.graph, inst.colouring, seed=args.seed)
    _print_result(result)
    _write_solution(result, args.out)
    return EXIT_OK


def _cmd_brute(args: argparse.Namespace) -> int:
    inst = _load_instance(args.graph, args.colouring)
    result = brute_force(inst.graph, inst.colouring, cap=args.cap)
    _print_result(result)
    _write_solution(result, args.out)
    return EXIT_OK


# Optional manifest fields: the bench_to_csv keyword each sets and its JSON type.
_MANIFEST_OPTIONS = {
    "repetitions": int,
    "include_timing": bool,
    "include_decomposition_time": bool,
    "workers": int,
    "td_seed": int,
}


def _check_manifest(manifest: object) -> tuple[list[dict], list[AlgorithmSpec], dict]:
    """Check a bench manifest before any instance is read or decomposed.

    Returns the instance entries, the algorithm specs and the options for
    ``bench_to_csv``; anything malformed raises InputError.
    """
    if not isinstance(manifest, dict):
        raise InputError("the manifest must be a JSON object")
    unknown = sorted(set(manifest) - {"instances", "algorithms", *_MANIFEST_OPTIONS})
    if unknown:
        raise InputError(f"unknown manifest field(s): {', '.join(unknown)}")
    for key in ("instances", "algorithms"):
        if not isinstance(manifest.get(key), list):
            raise InputError(f"the manifest needs an {key!r} list")
    for entry in manifest["instances"]:
        if not (
            isinstance(entry, dict)
            and all(isinstance(entry.get(f), str) for f in ("id", "graph", "colouring"))
        ):
            raise InputError(
                f"instance entry needs string 'id', 'graph' and 'colouring' fields: {entry!r}"
            )
    algorithms = [AlgorithmSpec.from_manifest(entry) for entry in manifest["algorithms"]]
    options = {}
    for key, kind in _MANIFEST_OPTIONS.items():
        value = manifest.get(key)
        if value is None:
            continue
        if type(value) is not kind:
            raise InputError(f"manifest field {key!r} must be {kind.__name__}, got {value!r}")
        options[key] = value
    if options.get("repetitions", 1) < 1:
        raise InputError("repetitions must be at least 1")
    return manifest["instances"], algorithms, options


def _cmd_bench(args: argparse.Namespace) -> int:
    manifest_path = Path(args.manifest)
    entries, algorithms, options = _check_manifest(json.loads(manifest_path.read_text()))
    base_dir = manifest_path.resolve().parent
    instances = []
    for entry in entries:
        g = parse_graph((base_dir / entry["graph"]).read_text())
        col = parse_colouring((base_dir / entry["colouring"]).read_text(), g)
        instances.append((entry["id"], Instance(g, col)))
    if args.workers is not None:
        options["workers"] = args.workers
    with open(args.out, "w", encoding="utf-8") as out:
        written = bench_to_csv(out, instances, algorithms, **options)
    print(f"wrote {written} records to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "greedy": _cmd_greedy,
    "growth": _cmd_growth,
    "brute": _cmd_brute,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, InputError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MhvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
