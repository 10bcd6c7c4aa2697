"""Instance generation, benchmark harness, CSV output and the CLI."""

import dataclasses
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mhv.baselines import GrowthRun, growth_mhv
from mhv.cli import main
from mhv.errors import InputError, ResourceLimitError
from mhv.heuristic import HeuristicConfig, HeuristicSolver, solve_heuristic
from mhv.graph import (
    MAX_COLOURS,
    MAX_VERTICES,
    parse_colouring,
    parse_graph,
    write_colouring,
    write_graph,
)
from mhv.harness import (
    CSV_COLUMNS,
    AlgorithmSpec,
    BenchRecord,
    GeneratorParams,
    bench_run,
    bench_to_csv,
    generate,
    hardest_regime,
    random_tree,
    write_csv_record,
)
from mhv.treedec import make_nice, min_fill_decompose, parse_td, td_stats, validate_td


def test_generate_counts_and_colour_classes():
    inst = generate(GeneratorParams(n=10, k=3, p=0.3, q=0.5, seed=1))
    assert inst.graph.n == 10
    assert inst.colouring.coloured_count() == 5
    assert inst.colouring.colours_used() == {1, 2, 3}


def test_generate_rejects_too_few_coloured():
    with pytest.raises(InputError):
        GeneratorParams(n=10, k=3, p=0.3, q=0.2, seed=1)


def test_hardest_regime_preset():
    params = hardest_regime(n=51, k=3, seed=9)
    assert params.p == pytest.approx(0.1)
    assert params.q == 0.1
    assert params.coloured_count == 5


def test_generate_reproducible_bitwise():
    a = generate(GeneratorParams(n=30, k=3, p=0.2, q=0.4, seed=77))
    b = generate(GeneratorParams(n=30, k=3, p=0.2, q=0.4, seed=77))
    assert write_graph(a.graph) == write_graph(b.graph)
    assert write_colouring(a.colouring) == write_colouring(b.colouring)
    c = generate(GeneratorParams(n=30, k=3, p=0.2, q=0.4, seed=78))
    assert write_graph(c.graph) != write_graph(a.graph) or write_colouring(
        c.colouring
    ) != write_colouring(a.colouring)


def test_generate_edge_count_statistics():
    samples = 200
    n, p = 60, 0.1
    total = 0
    for seed in range(samples):
        total += len(generate(GeneratorParams(n=n, k=2, p=p, q=0.5, seed=seed)).graph.edges)
    pairs = n * (n - 1) / 2
    mean = total / samples
    sigma_mean = math.sqrt(pairs * p * (1 - p) / samples)
    assert abs(mean - pairs * p) <= 3 * sigma_mean


def test_generators_refuse_more_vertices_than_the_parser_accepts():
    hardest_regime(MAX_VERTICES, 3)  # the limit itself is accepted
    message = rf"^{MAX_VERTICES + 1} vertices, above the limit of {MAX_VERTICES}$"
    with pytest.raises(ResourceLimitError, match=message):
        GeneratorParams(n=MAX_VERTICES + 1, k=3, p=0.1, q=0.1)
    with pytest.raises(ResourceLimitError, match=message):
        hardest_regime(MAX_VERTICES + 1, 3)
    with pytest.raises(ResourceLimitError, match=message):
        random_tree(MAX_VERTICES + 1)


def test_generator_refuses_more_colours_than_supported_before_drawing():
    """The colour limit is checked with the parameters, not after every
    edge of a large instance has been drawn."""
    GeneratorParams(n=3000, k=MAX_COLOURS, p=0.5, q=0.5)  # the limit itself is accepted
    with pytest.raises(InputError, match=rf"^at most {MAX_COLOURS} colours are supported$"):
        GeneratorParams(n=3000, k=MAX_COLOURS + 1, p=0.5, q=0.5)


def test_random_tree_shape():
    for seed in range(30):
        n = seed % 12 + 1
        g = random_tree(n, seed=seed)
        assert g.n == n
        assert len(g.edges) == max(0, n - 1)


def _bench_instances():
    return [
        ("a", generate(GeneratorParams(n=8, k=2, p=0.3, q=0.5, seed=1))),
        ("b", generate(GeneratorParams(n=7, k=3, p=0.4, q=0.6, seed=2))),
    ]


def test_bench_run_record_shape():
    specs = [
        AlgorithmSpec("greedy"),
        AlgorithmSpec("growth", seed=3),
        AlgorithmSpec("heuristic", width=16, seed=4),
    ]
    records = list(bench_run(_bench_instances(), specs))
    assert len(records) == 6
    for record in records:
        assert record.status == "ok"
        assert 0.0 <= record.percent_happy <= 1.0
        assert record.percent_happy == pytest.approx(record.happy / record.n)
        assert record.td_width >= 0


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# perfbench times the decomposition layer by patching these module
# attributes, so each must be called through them, once per decomposition.
def test_make_nice_validates_through_its_module_once(monkeypatch):
    import mhv.treedec

    calls = _count_calls(monkeypatch, mhv.treedec, "validate_td")
    g = generate(GeneratorParams(n=8, k=2, p=0.3, q=0.5, seed=1)).graph
    mhv.treedec.make_nice(mhv.treedec.min_fill_decompose(g), g)
    assert calls == [1]


# perfbench times the beam DP per node kind and per node by patching these
# HeuristicSolver attributes, so the walk must call them through the class.
def test_beam_dp_runs_through_its_class_hooks(monkeypatch):
    calls = {
        kind: _count_calls(monkeypatch, HeuristicSolver, "handle_" + kind)
        for kind in ("leaf", "introduce", "forget", "join")
    }
    yielded = []
    original = HeuristicSolver.beams

    def beams(solver):
        for idx, beam in original(solver):
            yielded.append(idx)
            yield idx, beam

    monkeypatch.setattr(HeuristicSolver, "beams", beams)
    inst = generate(GeneratorParams(n=14, k=3, p=0.25, q=0.5, seed=2))
    nice = make_nice(min_fill_decompose(inst.graph), inst.graph)
    solve_heuristic(inst.graph, inst.colouring, nice, HeuristicConfig(width=8))
    stats = td_stats(nice)
    assert stats.join_count > 0
    assert calls == {
        "leaf": [stats.leaf_count],
        "introduce": [stats.introduce_count],
        "forget": [stats.forget_count],
        "join": [stats.join_count],
    }
    assert yielded == list(range(nice.node_count))


# perfbench counts Growth-MHV's iterations by patching GrowthRun.step, so
# growth_mhv must call it through the class, once per iteration.
def test_growth_runs_through_its_class_step(monkeypatch):
    runs = []
    original = GrowthRun.step

    def step(run):
        runs.append(run)
        original(run)

    monkeypatch.setattr(GrowthRun, "step", step)
    inst = generate(GeneratorParams(n=14, k=3, p=0.25, q=0.5, seed=2))
    growth_mhv(inst.graph, inst.colouring)
    assert len(runs) > 1
    assert all(run is runs[0] for run in runs)
    assert len(runs) == runs[0].iterations


def test_bench_run_decomposes_through_its_module_once_per_instance(monkeypatch):
    import mhv.harness

    decomposed = _count_calls(monkeypatch, mhv.harness, "min_fill_decompose")
    made_nice = _count_calls(monkeypatch, mhv.harness, "make_nice")
    specs = [AlgorithmSpec("greedy"), AlgorithmSpec("heuristic", width=4)]
    records = list(bench_run(_bench_instances(), specs, repetitions=2, workers=1))
    assert len(records) == 8
    assert decomposed == made_nice == [2]


def test_bench_run_error_rows_keep_going():
    specs = [AlgorithmSpec("brute", brute_cap=1), AlgorithmSpec("greedy")]
    records = list(bench_run(_bench_instances(), specs))
    statuses = [r.status for r in records]
    assert statuses.count("error") == 2
    assert statuses.count("ok") == 2
    error = next(r for r in records if r.status == "error")
    assert "ResourceLimitError" in error.error
    assert error.happy == -1


def test_bench_csv_deterministic_without_timing():
    specs = [AlgorithmSpec("greedy"), AlgorithmSpec("heuristic", width=8, seed=5)]
    out1, out2 = io.StringIO(), io.StringIO()
    bench_to_csv(out1, _bench_instances(), specs, include_timing=False)
    bench_to_csv(out2, _bench_instances(), specs, include_timing=False)
    assert out1.getvalue() == out2.getvalue()
    header = out1.getvalue().splitlines()[0]
    assert header.startswith("schema_version,instance_id,algorithm,config")


def test_csv_columns_and_record_bytes_are_pinned():
    """The CSV row is derived from BenchRecord's fields, so reordering them
    must fail here rather than change the format unnoticed."""
    assert CSV_COLUMNS == (
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
    records = [
        BenchRecord("a,b", "heuristic", "W=8;seed=1", 9, 4, 400 / 9, True, 12.3456, 2, 17),
        BenchRecord("c", "brute", "cap=1", 7, -1, 0.0, False, 0.0, 3, 9, "error", "E: x"),
    ]
    for include_timing, time_ms in ((True, "12.346"), (False, "")):
        out = io.StringIO()
        for record in records:
            write_csv_record(out, record, include_timing=include_timing)
        assert out.getvalue() == (
            f'1,"a,b",heuristic,W=8;seed=1,9,4,44.444444,true,{time_ms},2,17,ok,\n'
            f"1,c,brute,cap=1,7,-1,0.000000,false,{time_ms and '0.000'},3,9,error,E: x\n"
        )


def test_bench_timing_rows_match_aside_from_time():
    specs = [AlgorithmSpec("greedy")]
    out1, out2 = io.StringIO(), io.StringIO()
    bench_to_csv(out1, _bench_instances(), specs, include_timing=True)
    bench_to_csv(out2, _bench_instances(), specs, include_timing=True)

    def strip_time(text):
        import csv

        rows = list(csv.reader(io.StringIO(text)))
        time_col = rows[0].index("time_ms")
        for row in rows:
            row[time_col] = ""
        return rows

    assert strip_time(out1.getvalue()) == strip_time(out2.getvalue())


def test_bench_repetitions_vary_seed():
    specs = [AlgorithmSpec("growth", seed=0)]
    records = list(bench_run(_bench_instances()[:1], specs, repetitions=3))
    assert len(records) == 3


def test_bench_parallel_matches_sequential():
    specs = [
        AlgorithmSpec("greedy"),
        AlgorithmSpec("heuristic", width=8, seed=5),
        AlgorithmSpec("brute", brute_cap=1),
    ]
    seq = io.StringIO()
    par = io.StringIO()
    for out, workers in ((seq, 1), (par, 2)):
        bench_to_csv(
            out, _bench_instances(), specs, repetitions=2, include_timing=False, workers=workers
        )
    assert seq.getvalue() == par.getvalue()
    assert seq.getvalue().count(",error,") == 4


@pytest.mark.parametrize("options", [{"workers": 0}, {"repetitions": 0}])
def test_bench_to_csv_checks_arguments_before_writing(options):
    out = io.StringIO()
    with pytest.raises(InputError):
        bench_to_csv(out, _bench_instances(), [AlgorithmSpec("greedy")], **options)
    assert out.getvalue() == ""


def test_bench_include_decomposition_time(monkeypatch):
    import mhv.harness

    def slow_make_nice(*args, **kwargs):
        time.sleep(0.05)
        return make_nice(*args, **kwargs)

    monkeypatch.setattr(mhv.harness, "make_nice", slow_make_nice)
    specs = [AlgorithmSpec("greedy"), AlgorithmSpec("heuristic", width=4), AlgorithmSpec("exact")]
    records = list(
        bench_run(_bench_instances()[:1], specs, include_decomposition_time=True, workers=1)
    )
    time_ms = {r.algorithm: r.time_ms for r in records}
    assert time_ms["heuristic"] >= 50.0 and time_ms["exact"] >= 50.0
    assert time_ms["greedy"] < 50.0


# -- CLI ------------------------------------------------------------------


def _write_instance(tmp_path: Path) -> tuple[Path, Path]:
    inst = generate(GeneratorParams(n=9, k=2, p=0.35, q=0.5, seed=6))
    graph_path = tmp_path / "g.gr"
    colouring_path = tmp_path / "g.col"
    graph_path.write_text(write_graph(inst.graph))
    colouring_path.write_text(write_colouring(inst.colouring))
    return graph_path, colouring_path


def test_cli_gen_round_trip(tmp_path, capsys):
    gp = tmp_path / "out.gr"
    cp = tmp_path / "out.col"
    code = main(
        [
            "gen",
            "--n", "12", "--k", "3", "--p", "0.2", "--q", "0.5",
            "--seed", "3",
            "--out-graph", str(gp),
            "--out-colouring", str(cp),
        ]
    )
    assert code == 0
    g = parse_graph(gp.read_text())
    col = parse_colouring(cp.read_text(), g)
    assert g.n == 12 and col.coloured_count() == 6


def test_cli_gen_above_the_vertex_limit_exits_3_and_writes_nothing(tmp_path, capsys):
    gp = tmp_path / "out.gr"
    cp = tmp_path / "out.col"
    argv = ["gen", "--n", str(MAX_VERTICES + 1), "--k", "3", "--hardest",
            "--out-graph", str(gp), "--out-colouring", str(cp)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"resource limit: {MAX_VERTICES + 1} vertices, above the limit of {MAX_VERTICES}\n"
    assert not gp.exists() and not cp.exists()


def test_cli_decompose_and_validate(tmp_path, capsys):
    graph_path, _ = _write_instance(tmp_path)
    td_path = tmp_path / "g.td"
    assert main(["decompose", str(graph_path), "--out", str(td_path)]) == 0
    g = parse_graph(graph_path.read_text())
    td = parse_td(td_path.read_text(), g)
    assert validate_td(g, td).ok
    assert main(["decompose", str(graph_path), "--td", str(td_path)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_cli_solvers_agree(tmp_path, capsys):
    graph_path, colouring_path = _write_instance(tmp_path)
    results = {}
    for sub in ("solve", "exact", "brute", "greedy", "growth"):
        assert main([sub, str(graph_path), str(colouring_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        results[sub] = dict(field.split("=") for field in line.split())
    assert results["exact"]["happy"] == results["brute"]["happy"]
    assert int(results["solve"]["happy"]) <= int(results["brute"]["happy"])
    assert {sub: fields["algorithm"] for sub, fields in results.items()} == {
        "solve": "heuristic-dp",
        "exact": "exact-dp",
        "brute": "brute-force",
        "greedy": "greedy-mhv",
        "growth": "growth-mhv",
    }


def test_cli_solve_with_external_td_and_output(tmp_path, capsys):
    graph_path, colouring_path = _write_instance(tmp_path)
    td_path = tmp_path / "g.td"
    main(["decompose", str(graph_path), "--out", str(td_path)])
    capsys.readouterr()
    out_path = tmp_path / "solution.col"
    code = main(
        [
            "solve", str(graph_path), str(colouring_path),
            "--td", str(td_path),
            "--width", "16",
            "--weights", "15,-9,4,-8",
            "--join-loop", "random",
            "--join-distance", "all_ones",
            "--join-merge", "greedy_match",
            "--seed", "5",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    g = parse_graph(graph_path.read_text())
    solution = parse_colouring(out_path.read_text(), g)
    assert solution.coloured_count() == g.n


def test_cli_exit_codes(tmp_path, capsys):
    graph_path, colouring_path = _write_instance(tmp_path)
    assert main(["brute", str(graph_path), str(colouring_path), "--cap", "1"]) == 3
    assert main(["solve", str(tmp_path / "missing.gr"), str(colouring_path)]) == 2
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw x y\n")
    assert main(["solve", str(bad), str(colouring_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# Every subcommand once with a directory and once with a binary file where a
# path is expected, plus caps below 1, plus output paths whose parent is
# missing or a file.  {dir} is a directory, {bin} a file of undecodable bytes,
# {g}/{c}/{m} a valid graph, colouring and bench manifest.
_GEN = ["gen", "--n", "30", "--k", "2", "--hardest"]
_BAD_INPUT_CASES = [
    [*_GEN, "--out-graph", "{dir}", "--out-colouring", "{tmp}/o.col"],
    [*_GEN, "--out-graph", "{tmp}/o.gr", "--out-colouring", "{dir}"],
    [*_GEN, "--out-graph", "{tmp}/missing/o.gr", "--out-colouring", "{tmp}/o.col"],
    [*_GEN, "--out-graph", "{tmp}/o.gr", "--out-colouring", "{tmp}/missing/o.col"],
    [*_GEN, "--out-graph", "{tmp}/o.gr", "--out-colouring", "{g}/o.col"],
    ["decompose", "{dir}"],
    ["decompose", "{bin}"],
    ["decompose", "{g}", "--td", "{dir}"],
    ["decompose", "{g}", "--td", "{bin}"],
    ["decompose", "{g}", "--out", "{dir}"],
    ["decompose", "{g}", "--out", "{tmp}/missing/o.td"],
    ["validate", "{dir}", "{c}"],
    ["validate", "{g}", "{bin}"],
    ["solve", "{dir}", "{c}"],
    ["solve", "{bin}", "{c}"],
    ["solve", "{g}", "{c}", "--td", "{dir}"],
    ["solve", "{g}", "{c}", "--td", "{bin}"],
    ["solve", "{g}", "{c}", "--out", "{dir}"],
    ["solve", "{g}", "{c}", "--out", "{tmp}/missing/o.col"],
    ["solve", "{g}", "{c}", "--out", "{g}/o.col"],
    ["exact", "{g}", "{dir}"],
    ["exact", "{bin}", "{c}"],
    ["exact", "{g}", "{c}", "--td", "{dir}"],
    ["exact", "{g}", "{c}", "--out", "{dir}"],
    ["exact", "{g}", "{c}", "--out", "{tmp}/missing/o.col"],
    ["greedy", "{dir}", "{c}"],
    ["greedy", "{g}", "{bin}"],
    ["greedy", "{g}", "{c}", "--out", "{dir}"],
    ["greedy", "{g}", "{c}", "--out", "{tmp}/missing/o.col"],
    ["growth", "{g}", "{dir}"],
    ["growth", "{bin}", "{c}"],
    ["growth", "{g}", "{c}", "--out", "{dir}"],
    ["growth", "{g}", "{c}", "--out", "{tmp}/missing/o.col"],
    ["brute", "{dir}", "{c}"],
    ["brute", "{g}", "{bin}"],
    ["brute", "{g}", "{c}", "--out", "{dir}"],
    ["brute", "{g}", "{c}", "--out", "{tmp}/missing/o.col"],
    ["bench", "{dir}", "--out", "{tmp}/o.csv"],
    ["bench", "{bin}", "--out", "{tmp}/o.csv"],
    ["bench", "{m}", "--out", "{dir}"],
    ["bench", "{m}", "--out", "{tmp}/o.csv", "--workers", "0"],
    ["exact", "{g}", "{c}", "--state-cap", "-1"],
    ["exact", "{g}", "{c}", "--state-cap", "0"],
    ["brute", "{g}", "{c}", "--cap", "-1"],
    ["brute", "{g}", "{c}", "--cap", "0"],
]


@pytest.mark.parametrize("argv", _BAD_INPUT_CASES, ids=lambda argv: " ".join(argv))
def test_cli_malformed_input_is_one_input_error_line(tmp_path, capsys, argv):
    graph_path, colouring_path = _write_instance(tmp_path)
    binary = tmp_path / "binary.gr"
    binary.write_bytes(b"\x80\x81\xfe\xff\x00")
    directory = tmp_path / "a-directory"
    directory.mkdir()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "instances": [{"id": "x", "graph": graph_path.name, "colouring": colouring_path.name}],
                "algorithms": [{"algorithm": "greedy"}],
            }
        )
    )
    names = {"dir": directory, "bin": binary, "g": graph_path, "c": colouring_path, "m": manifest}
    raw_argv, argv = argv, [arg.format(tmp=tmp_path, **names) for arg in argv]
    made = set(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: "), err
    # No output is written, not even the good half of a pair.
    assert set(tmp_path.iterdir()) == made
    if "{bin}" in raw_argv:
        assert str(binary) in err[0], err
    for flag in ("--cap", "--state-cap", "--workers"):
        if flag in raw_argv:
            assert f"input error: {flag} must be at least 1, got " in err[0], err


def test_cli_program_fault_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    """A KeyError from inside a solver is a fault of the program: it
    propagates from ``main`` instead of exiting 2 as bad input."""
    import mhv.harness

    graph_path, colouring_path = _write_instance(tmp_path)

    def faulty(inst, nice, spec, seed):
        raise KeyError("fault")

    row = dataclasses.replace(mhv.harness.SOLVERS["greedy"], run=faulty)
    monkeypatch.setitem(mhv.harness.SOLVERS, "greedy", row)
    with pytest.raises(KeyError, match="fault"):
        main(["greedy", str(graph_path), str(colouring_path)])
    assert "input error:" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [*_GEN, "--out-graph", "{tmp}/o.gr", "--out-colouring", "{tmp}/missing/o.col"],
        ["decompose", "{tmp}/g.gr", "--out", "{tmp}/missing/o.td"],
        *([cmd, "{tmp}/g.gr", "{tmp}/g.col", "--out", "{tmp}/missing/o.col"]
          for cmd in ("solve", "exact", "greedy", "growth", "brute")),
        ["bench", "{tmp}/m.json", "--out", "{tmp}/missing/o.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_checks_output_paths_before_any_work(tmp_path, capsys, monkeypatch, argv):
    """A bad output path fails before any input is read or generated."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("hardest_regime", "generate", "_read_text"):
        monkeypatch.setattr(f"mhv.cli.{name}", no_work)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    missing = argv[-1].format(tmp=tmp_path)
    assert err == [f"input error: [Errno 2] No such file or directory: {missing!r}"], err


@pytest.mark.parametrize(
    "argv,files,warning",
    [
        (
            ["greedy", "{tmp}/g.gr", "{tmp}/g.col"],
            {"g.gr": "p tw 2 2\n1 2\n2 1\n", "g.col": "k 2\n1 1\n"},
            "1 duplicate edge line(s) collapsed",
        ),
        (
            ["decompose", "{tmp}/g.gr", "--td", "{tmp}/g.td"],
            {"g.gr": "p tw 2 1\n1 2\n", "g.td": "s td 1 5 2\nb 1 1 2\n"},
            "declared width+1 5 but bags give 2",
        ),
    ],
    ids=["greedy", "decompose"],
)
def test_cli_prints_each_warning_as_one_line(tmp_path, capsys, argv, files, warning):
    """A parser warning reaches stderr as one ``warning:`` line, without the
    source location, and the command still succeeds."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: {warning}"]


def test_cli_usage_exit_code_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mhv.cli", "--nonsense"],
        capture_output=True,
    )
    assert proc.returncode == 1


def _run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    """``mhv`` in a subprocess whose address space is capped at 1 GiB, so
    that a parser that trusts a header count fails fast instead of taking
    the machine's memory."""
    import resource

    import mhv

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(mhv.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "mhv.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )


def test_cli_graph_header_above_vertex_limit_exits_3(tmp_path):
    graph_path = tmp_path / "huge.gr"
    graph_path.write_text("p tw 99999999999 0\n")
    proc = _run_capped(["decompose", str(graph_path)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "resource limit: line 1: header declares 99999999999 vertices, "
        "above the limit of 1000000"
    ]


def test_cli_exact_state_cap_exits_3_at_the_node_that_passes_it(tmp_path):
    """Hardest-regime ER n = 30 passes a cap of 200 000 states at an
    introduce; the run exits 3 with the one-line message naming it."""
    inst = generate(hardest_regime(30, 3, seed=30))
    graph_path = tmp_path / "g.gr"
    graph_path.write_text(write_graph(inst.graph))
    colouring_path = tmp_path / "g.col"
    colouring_path.write_text(write_colouring(inst.colouring))
    proc = _run_capped(["exact", str(graph_path), str(colouring_path), "--state-cap", "200000"])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "resource limit: exact DP exceeded the state cap (215003 > 200000 states) "
        "at node 95 (introduce, bag of 11)"
    ]


def test_cli_td_header_bag_count_checked_against_edges_first(tmp_path):
    graph_path = tmp_path / "g.gr"
    graph_path.write_text("p tw 2 1\n1 2\n")
    td_path = tmp_path / "huge.td"
    td_path.write_text("s td 99999999999 2 2\nb 1 1 2\n")
    proc = _run_capped(["decompose", str(graph_path), "--td", str(td_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["input error: bag-tree edges do not form a tree"]


def test_cli_bench_manifest(tmp_path, capsys):
    graph_path, colouring_path = _write_instance(tmp_path)
    manifest = {
        "instances": [
            {"id": "x", "graph": graph_path.name, "colouring": colouring_path.name}
        ],
        "algorithms": [
            {"algorithm": "greedy"},
            {"algorithm": "growth", "seed": 1},
            {"algorithm": "heuristic", "width": 8, "seed": 2},
        ],
        "repetitions": 1,
        "include_timing": False,
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    csv_path = tmp_path / "out.csv"
    assert main(["bench", str(manifest_path), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 4  # header + three records
    assert lines[0].startswith("schema_version")


_GOOD_ALGORITHMS = [{"algorithm": "greedy"}]
# The instance that _write_instance writes.
_GOOD_INSTANCE = {"id": "x", "graph": "g.gr", "colouring": "g.col"}


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"algorithms": [{"algorithm": "greedy", "widht": 3}]}, id="unknown-field"),
        pytest.param({"algorithms": ["greedy"]}, id="string-entry"),
        pytest.param({"repetitions": "x"}, id="repetitions-string"),
        pytest.param({"repetitions": 0}, id="repetitions-zero"),
        pytest.param({"workers": 0}, id="workers-zero"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "width": 0}]}, id="width-zero"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "width": "8"}]}, id="width-string"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "weights": [1, 2]}]}, id="weights-short"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "join_merge": "x"}]}, id="bad-knob"),
        pytest.param({"algorithms": [{"algorithm": "quantum"}]}, id="bad-algorithm"),
        pytest.param({"algorithms": [{"seed": 1}]}, id="no-algorithm"),
        pytest.param({"algorithms": {"algorithm": "greedy"}}, id="algorithms-object"),
        pytest.param({"instances": [{"id": "x"}]}, id="instance-fields"),
        pytest.param({"instances": [_GOOD_INSTANCE, _GOOD_INSTANCE]}, id="duplicate-id"),
        pytest.param({"instances": [{**_GOOD_INSTANCE, "colourng": "typo.col"}]}, id="instance-typo"),
        pytest.param({"instances": ["g.gr"]}, id="instance-string"),
        pytest.param({"td_seed": None}, id="option-null"),
        pytest.param({"include_timing": "yes"}, id="timing-string"),
        pytest.param({"td_seed": True}, id="td-seed-bool"),
        pytest.param({"repetiton": 2}, id="unknown-option"),
        pytest.param({"algorithms": [{"algorithm": "brute", "brute_cap": -5}]}, id="brute-cap-negative"),
        pytest.param({"algorithms": [{"algorithm": "exact", "state_cap": 0}]}, id="state-cap-zero"),
    ],
)
def test_cli_bench_rejects_malformed_manifest_before_decomposing(
    tmp_path, capsys, monkeypatch, change
):
    graph_path, colouring_path = _write_instance(tmp_path)
    manifest = {
        "instances": [
            {"id": "x", "graph": graph_path.name, "colouring": colouring_path.name}
        ],
        "algorithms": _GOOD_ALGORITHMS,
    }
    manifest.update(change)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))

    def no_decomposition(*args, **kwargs):
        raise AssertionError("decomposed before the manifest was checked")

    monkeypatch.setattr("mhv.harness.min_fill_decompose", no_decomposition)
    csv_path = tmp_path / "out.csv"
    assert main(["bench", str(manifest_path), "--out", str(csv_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: "), err
    assert not csv_path.exists()


def test_cli_bench_manifest_not_an_object(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text("[1, 2]")
    assert main(["bench", str(manifest_path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_validate_subcommand(tmp_path, capsys):
    graph_path, colouring_path = _write_instance(tmp_path)
    assert main(["validate", str(graph_path), str(colouring_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["n=9 m=11 k=2 coloured=4 components=1"]


def test_bench_tree_instances_with_width_64_all_proved_optimal():
    """On trees with k=3, width 64 clears the exactness bound of 36, so every
    heuristic record must carry the provably-optimal flag and the oracle
    value."""
    import random

    from mhv.oracle import brute_force

    from corpus import tree_instance

    rng = random.Random(4001)
    instances = [(f"t{i}", tree_instance(rng, rng.randint(4, 12), k=3)) for i in range(12)]
    records = list(bench_run(instances, [AlgorithmSpec("heuristic", width=64, seed=3)]))
    by_id = dict(instances)
    for record in records:
        assert record.status == "ok"
        assert record.provably_optimal
        inst = by_id[record.instance_id]
        assert record.happy == brute_force(inst.graph, inst.colouring).happy
        assert record.td_width == 1


def test_default_workers_env(monkeypatch):
    from mhv.harness import WORKERS_ENV_VAR, default_workers

    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    assert default_workers() == 4
    for raw in ("zebra", "0", "-2"):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(InputError):
            default_workers()


def test_empty_graph_end_to_end():
    from mhv.graph import Graph, PartialColouring
    from mhv.heuristic import HeuristicConfig, solve_heuristic
    from mhv.oracle import brute_force
    from mhv.treedec import make_nice, min_fill_decompose

    g = Graph(0)
    colouring = PartialColouring(1)
    nice = make_nice(min_fill_decompose(g, seed=0), g)
    result = solve_heuristic(g, colouring, nice, HeuristicConfig(width=4))
    assert result.happy == 0
    assert result.percent_happy == 1.0
    assert brute_force(g, colouring).happy == 0
