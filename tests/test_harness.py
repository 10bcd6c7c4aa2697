"""Instance generation, benchmark harness, CSV output and the CLI."""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mhv.cli import main
from mhv.errors import InputError
from mhv.graph import parse_colouring, parse_graph, write_colouring, write_graph
from mhv.harness import (
    AlgorithmSpec,
    GeneratorParams,
    bench_run,
    bench_to_csv,
    generate,
    hardest_regime,
    random_tree,
)
from mhv.treedec import parse_td, validate_td


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
    specs = [AlgorithmSpec("greedy"), AlgorithmSpec("heuristic", width=8, seed=5)]
    seq = io.StringIO()
    par = io.StringIO()
    bench_to_csv(seq, _bench_instances(), specs, include_timing=False, workers=1)
    bench_to_csv(par, _bench_instances(), specs, include_timing=False, workers=2)
    assert seq.getvalue() == par.getvalue()


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
    for sub in ("solve", "exact", "brute"):
        assert main([sub, str(graph_path), str(colouring_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        results[sub] = dict(field.split("=") for field in line.split())
    assert results["exact"]["happy"] == results["brute"]["happy"]
    assert int(results["solve"]["happy"]) <= int(results["brute"]["happy"])
    for sub in ("greedy", "growth"):
        assert main([sub, str(graph_path), str(colouring_path)]) == 0


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


def test_cli_usage_exit_code_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mhv.cli", "--nonsense"],
        capture_output=True,
    )
    assert proc.returncode == 1


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


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"algorithms": [{"algorithm": "greedy", "widht": 3}]}, id="unknown-field"),
        pytest.param({"algorithms": ["greedy"]}, id="string-entry"),
        pytest.param({"repetitions": "x"}, id="repetitions-string"),
        pytest.param({"repetitions": 0}, id="repetitions-zero"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "width": 0}]}, id="width-zero"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "width": "8"}]}, id="width-string"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "weights": [1, 2]}]}, id="weights-short"),
        pytest.param({"algorithms": [{"algorithm": "heuristic", "join_merge": "x"}]}, id="bad-knob"),
        pytest.param({"algorithms": [{"algorithm": "quantum"}]}, id="bad-algorithm"),
        pytest.param({"algorithms": [{"seed": 1}]}, id="no-algorithm"),
        pytest.param({"algorithms": {"algorithm": "greedy"}}, id="algorithms-object"),
        pytest.param({"instances": [{"id": "x"}]}, id="instance-fields"),
        pytest.param({"include_timing": "yes"}, id="timing-string"),
        pytest.param({"td_seed": True}, id="td-seed-bool"),
        pytest.param({"repetiton": 2}, id="unknown-option"),
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
    out = capsys.readouterr().out
    assert "exact_available=True" in out


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
    monkeypatch.setenv(WORKERS_ENV_VAR, "zebra")
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
