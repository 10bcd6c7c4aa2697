"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import warnings
from dataclasses import astuple, fields
from pathlib import Path

from .errors import InputError, MhvError, ParseError, ResourceLimitError
from .exact import DEFAULT_STATE_CAP
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
    SOLVERS,
    WORKERS_ENV_VAR,
    AlgorithmSpec,
    GeneratorParams,
    bench_to_csv,
    check_manifest,
    default_workers,
    generate,
    hardest_regime,
)
from .heuristic import DISTANCE_WEIGHTINGS, JOIN_LOOP_CHOICES, MERGE_METHODS, HeuristicConfig
from .oracle import DEFAULT_CAP
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


def _read_text(path: str | Path) -> str:
    """Read a UTF-8 text input; a file that is not UTF-8 is an input error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not a UTF-8 text file: {exc}") from None


def _check_outputs(*paths: str | None) -> None:
    """Fail before any work on an output path that cannot be written: its
    parent is missing or not a directory, or it is a directory itself.  The
    error is the one the write would raise."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if not parent.exists():
            code, exc = errno.ENOENT, FileNotFoundError
        elif not parent.is_dir():
            code, exc = errno.ENOTDIR, NotADirectoryError
        elif Path(path).is_dir():
            code, exc = errno.EISDIR, IsADirectoryError
        else:
            continue
        raise exc(code, os.strerror(code), path)


def _load_instance(graph_path: str, colouring_path: str) -> Instance:
    g = parse_graph(_read_text(graph_path))
    col = parse_colouring(_read_text(colouring_path), g)
    return Instance(g, col)


def _decomposition(args: argparse.Namespace, g: Graph):
    # make_nice validates the decomposition and rejects an invalid one.
    if args.td:
        td = parse_td(_read_text(args.td), g)
    else:
        td = min_fill_decompose(g, seed=args.td_seed)
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
    tuned = HeuristicConfig()
    weights = ",".join(str(w) for w in astuple(tuned.weights))
    p.add_argument(
        "--width", "-W", type=int, default=tuned.width, help=f"beam width (default {tuned.width})"
    )
    p.add_argument(
        "--weights",
        default=weights,
        help=f"label weights W_H,W_U,W_PH,W_PU (default tuned {weights})",
    )
    p.add_argument("--join-loop", choices=JOIN_LOOP_CHOICES, default=tuned.join_loop_choice)
    p.add_argument(
        "--join-distance", choices=DISTANCE_WEIGHTINGS, default=tuned.join_distance_weighting
    )
    p.add_argument("--join-merge", choices=MERGE_METHODS, default=tuned.join_merge_method)
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

    # Each solver subcommand names its row of harness.SOLVERS; its flags are
    # named after the AlgorithmSpec fields they set.
    p = sub.add_parser("solve", help="beam-bounded tree decomposition heuristic")
    p.set_defaults(algorithm="heuristic")
    _add_instance_args(p)
    _add_heuristic_args(p)
    p.add_argument("--out", help="write the full colouring here")

    p = sub.add_parser("exact", help="exact bounded-treewidth dynamic program")
    p.set_defaults(algorithm="exact")
    _add_instance_args(p)
    p.add_argument("--td", help="use this .td decomposition instead of min-fill")
    p.add_argument("--td-seed", type=int, default=0)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--out")

    p = sub.add_parser("greedy", help="best monochromatic completion")
    p.set_defaults(algorithm="greedy")
    _add_instance_args(p)
    p.add_argument("--out")

    p = sub.add_parser("growth", help="label-driven constructive baseline")
    p.set_defaults(algorithm="growth")
    _add_instance_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("brute", help="exhaustive oracle for small instances")
    p.set_defaults(algorithm="brute")
    _add_instance_args(p)
    p.add_argument("--cap", dest="brute_cap", metavar="CAP", type=int, default=DEFAULT_CAP)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="run a benchmark manifest into CSV")
    p.add_argument("manifest", help="JSON manifest describing instances and algorithms")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--workers", type=int, default=None, help=f"overrides ${WORKERS_ENV_VAR}")

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    _check_outputs(args.out_graph, args.out_colouring)
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
    _check_outputs(args.out)
    g = parse_graph(_read_text(args.graph))
    if args.td:
        td = parse_td(_read_text(args.td), g)
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
        f"coloured={report.n_coloured} components={report.n_components}"
    )
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK


# AlgorithmSpec fields whose flag is spelled differently, for error messages.
_FLAG_SPELLINGS = {"brute_cap": "--cap", "state_cap": "--state-cap"}


def _cmd_solve(args: argparse.Namespace) -> int:
    """Run the solver subcommand's row of the solver table on one instance."""
    _check_outputs(args.out)
    values = {f.name: getattr(args, f.name) for f in fields(AlgorithmSpec) if f.name in args}
    if "weights" in values:
        try:
            wh, wu, wph, wpu = (int(x) for x in args.weights.split(","))
        except ValueError:
            raise InputError("--weights expects four comma-separated integers") from None
        values["weights"] = (wh, wu, wph, wpu)
    try:
        spec = AlgorithmSpec(**values)
    except InputError as exc:
        message = str(exc)
        for name, flag in _FLAG_SPELLINGS.items():
            message = message.replace(name, flag)
        raise InputError(message) from None
    inst = _load_instance(args.graph, args.colouring)
    row = SOLVERS[spec.algorithm]
    nice = _decomposition(args, inst.graph) if row.needs_decomposition else None
    result = row.run(inst, nice, spec, spec.seed)
    _print_result(result)
    _write_solution(result, args.out)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    manifest_path = Path(args.manifest)
    entries, algorithms, options = check_manifest(json.loads(_read_text(manifest_path)))
    # The flag overrides the manifest, which overrides the environment.
    if args.workers is not None:
        if args.workers < 1:
            raise InputError(f"--workers must be at least 1, got {args.workers}")
        options["workers"] = args.workers
    elif "workers" not in options:
        options["workers"] = default_workers()
    base_dir = manifest_path.resolve().parent
    instances = []
    for entry in entries:
        g = parse_graph(_read_text(base_dir / entry["graph"]))
        col = parse_colouring(_read_text(base_dir / entry["colouring"]), g)
        instances.append((entry["id"], Instance(g, col)))
    with open(args.out, "w", encoding="utf-8") as out:
        written = bench_to_csv(out, instances, algorithms, **options)
    print(f"wrote {written} records to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A warning is one line, without the source line that raised it.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            # Every other subcommand runs a solver.
            return _COMMANDS.get(args.command, _cmd_solve)(args)
        except ResourceLimitError as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        except (
            ParseError,
            InputError,
            OSError,  # a missing file, a directory, an unwritable output path
            json.JSONDecodeError,
        ) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except MhvError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
