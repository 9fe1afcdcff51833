"""Tests for the command-line interface."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro.kernels as kernels
from repro.analysis import evaluate_materialized, format_table
from repro.cli import GENERATORS, build_parser, main
from repro.core.registry import create
from repro.graphs import gnp_graph, read_edge_list, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(gnp_graph(60, 0.2, seed=3), path)
    return str(path)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "spanner3" in out and "spanner5" in out and "spannerk" in out


def test_generate_command_writes_readable_graph(tmp_path, capsys):
    out_path = tmp_path / "generated.txt"
    code = main(
        ["generate", "--family", "gnp", "--n", "50", "--density", "0.2", "--out", str(out_path)]
    )
    assert code == 0
    graph = read_edge_list(out_path)
    assert graph.num_vertices == 50
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_every_generator_family_is_buildable(family, tmp_path):
    out_path = tmp_path / f"{family}.txt"
    code = main(
        ["generate", "--family", family, "--n", "40", "--density", "0.1",
         "--out", str(out_path), "--seed", "2"]
    )
    assert code == 0
    assert read_edge_list(out_path).num_vertices >= 16


def test_query_command_with_explicit_edges(graph_file, capsys):
    graph = read_edge_list(graph_file)
    u, v = next(iter(graph.edges()))
    code = main(
        ["query", "--graph", graph_file, "--algorithm", "spanner3",
         "--edge", f"{u},{v}", "--seed", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"({u}, {v})" in out
    assert "probes" in out


def test_query_command_default_count(graph_file, capsys):
    assert main(["query", "--graph", graph_file, "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("(") >= 3


def test_query_rejects_malformed_edge(graph_file):
    with pytest.raises(SystemExit):
        main(["query", "--graph", graph_file, "--edge", "nonsense"])


def test_evaluate_command(graph_file, capsys):
    code = main(
        ["evaluate", "--graph", graph_file, "--algorithm", "spanner3", "--seed", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stretch" in out
    assert "spanner3" in out


def test_evaluate_generated_graph(capsys):
    code = main(
        ["evaluate", "--generate", "gnp", "--n", "60", "--density", "0.2",
         "--algorithm", "spanner3", "--stretch-sample", "30"]
    )
    assert code == 0


def test_materialize_command_reports_and_exports(graph_file, capsys, tmp_path):
    out_path = tmp_path / "spanner.txt"
    code = main(
        ["materialize", "--graph", graph_file, "--algorithm", "spanner3",
         "--seed", "4", "--out", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "materialization" in out
    spanner = read_edge_list(out_path)
    host = read_edge_list(graph_file)
    assert spanner.num_vertices == host.num_vertices
    assert 0 < spanner.num_edges <= host.num_edges


def test_sweep_command(capsys):
    code = main(
        ["sweep", "--algorithm", "spanner3", "--sizes", "40,80", "--queries", "15"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Fitted exponents" in out


def test_lowerbound_command(capsys):
    code = main(["lowerbound", "--n", "26", "--degree", "3", "--budget", "5", "--trials", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Theorem 1.3" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_family_rejected(tmp_path):
    parser = build_parser()
    args = parser.parse_args(
        ["generate", "--out", str(tmp_path / "x.txt"), "--n", "20"]
    )
    args.generate = "martian"
    with pytest.raises(SystemExit):
        from repro.cli import cmd_generate

        cmd_generate(args)


def test_graph_source_flags_print_the_cold_row(graph_file, capsys, tmp_path):
    """--graph and --mmap print the row a cold materialize of the same graph
    gives, for ``materialize`` and for ``evaluate``."""
    from repro.scale import save_csr_snapshot

    graph = read_edge_list(graph_file)
    snapshot = tmp_path / "graph.csr"
    save_csr_snapshot(graph, snapshot)
    cold = create("spanner3", graph, seed=4).materialize()
    row = {
        "algorithm": "spanner3",
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "|H|": cold.num_edges,
        "max probes": cold.probe_stats.max,
        "mean probes": round(cold.probe_stats.mean, 1),
    }
    expected = {
        "materialize": format_table([row], title="spanner3 materialization"),
        "evaluate": format_table(
            [evaluate_materialized(graph, cold).as_row()], title="spanner3 evaluation"
        ),
    }
    for source in (["--graph", graph_file], ["--mmap", str(snapshot)]):
        for command, table in expected.items():
            code = main([command, *source, "--algorithm", "spanner3", "--seed", "4"])
            assert code == 0
            assert capsys.readouterr().out == table + "\n", (source[0], command)


def test_query_command_prints_cold_answers(graph_file, capsys):
    """``query`` prints a cold LCA's query_with_stats answers and probe
    totals, for explicit edges (a repeat and a reversed one included) and
    for the first --count edges."""
    graph = read_edge_list(graph_file)
    (u, v), *rest = list(graph.edges())[:3]
    explicit = [(u, v), *rest, (v, u), (u, v)]
    runs = [
        ([arg for (a, b) in explicit for arg in ("--edge", f"{a},{b}")], explicit),
        (["--count", "4"], list(graph.edges())[:4]),
    ]
    for flags, asked in runs:
        code = main(["query", "--graph", graph_file, "--seed", "4", *flags])
        assert code == 0
        cold = create("spanner3", graph, seed=4)
        rows = []
        for (a, b) in asked:
            outcome = cold.query_with_stats(a, b)
            rows.append(
                {"edge": f"({a}, {b})", "in spanner": outcome.in_spanner,
                 "probes": outcome.probe_total}
            )
        table = format_table(rows, title=f"spanner3 on {graph}")
        assert capsys.readouterr().out == table + "\n", flags


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file"),
        ("0 1\nx y\n", "malformed edge line: 'x y'"),
        ("0 1\n1 1\n", "self loop"),
    ],
    ids=["missing", "non-integer", "self-loop"],
)
def test_bad_graph_file_fails_with_one_line(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--graph", str(path)])
    text = str(excinfo.value)
    assert text.startswith("--graph: ") and message in text
    assert "\n" not in text


def test_serve_bench_command_runs_a_workload(graph_file, capsys, tmp_path):
    report_path = tmp_path / "service.json"
    code = main(
        ["serve-bench", "--graph", graph_file, "--algorithm", "spanner3",
         "--workload", "zipf", "--requests", "200", "--shards", "3",
         "--batch-size", "8", "--seed", "4", "--json", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Service run" in out
    assert "Per-shard telemetry" in out
    import json

    payload = json.loads(report_path.read_text())
    assert payload["served"] == 200
    assert payload["num_shards"] == 3
    assert len(payload["shards"]) == 3


def test_serve_bench_replays_traces(graph_file, capsys, tmp_path):
    from repro.service import write_trace

    graph = read_edge_list(graph_file)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(trace_path, list(graph.edges())[:25])
    code = main(
        ["serve-bench", "--graph", graph_file, "--workload", "trace",
         "--trace", str(trace_path), "--shards", "2"]
    )
    assert code == 0
    assert "trace" in capsys.readouterr().out


def test_serve_bench_trace_workload_requires_trace_flag(graph_file):
    with pytest.raises(SystemExit):
        main(["serve-bench", "--graph", graph_file, "--workload", "trace"])


def test_serve_bench_replays_whole_trace_when_requests_unset(graph_file, capsys, tmp_path):
    """A trace longer than the generative default (2000) must replay fully."""
    from repro.service import write_trace

    graph = read_edge_list(graph_file)
    edges = list(graph.edges())
    stream = [edges[i % len(edges)] for i in range(2100)]
    trace_path = tmp_path / "long_trace.jsonl"
    write_trace(trace_path, stream)
    code = main(
        ["serve-bench", "--graph", graph_file, "--workload", "trace",
         "--trace", str(trace_path), "--shards", "2"]
    )
    assert code == 0
    assert "2100" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Argument validation (satellite: clean errors instead of deep tracebacks)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("value", ["0", "-2", "nope"])
@pytest.mark.parametrize(
    "argv",
    [
        ["serve-bench", "--fault-horizon"],
        ["evaluate", "--stretch-sample"],
        ["serve-bench", "--replication"],
        ["serve-bench", "--timeout-ticks"],
    ],
)
def test_bad_worker_counts_fail_with_a_clean_argparse_error(
    graph_file, capsys, argv, value
):
    with pytest.raises(SystemExit) as excinfo:
        main([argv[0], "--graph", graph_file, *argv[1:], value])
    assert excinfo.value.code == 2  # argparse usage error, not a traceback
    err = capsys.readouterr().err
    assert "must be >= 1" in err or "not an integer" in err


def test_good_worker_counts_still_parse(graph_file):
    args = build_parser().parse_args(
        ["serve-bench", "--graph", graph_file, "--replication", "3",
         "--timeout-ticks", "2"]
    )
    assert args.replication == 3 and args.timeout_ticks == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-bench", "--shards", "0"],
        ["serve-bench", "--batch-size", "0"],
        ["serve-bench", "--queue-depth", "0"],
        ["serve-bench", "--arrival-burst", "0"],
        ["serve-bench", "--max-retries", "-1"],
        ["serve-bench", "--crashes", "-1"],
        ["serve-bench", "--shard-losses", "-1"],
        ["serve-bench", "--slow", "-1"],
        ["serve-bench", "--flaky", "-1"],
        ["serve-bench", "--requests", "0"],
        ["sweep", "--sizes", "0"],
        ["sweep", "--sizes", "abc"],
        ["sweep", "--sizes", "50", "--queries", "0"],
        ["sweep", "--queries", "-2"],
        ["evaluate", "--stretch-sample", "-3"],
        ["evaluate", "--query-mode", "cold", "--memo-cap", "5"],
        ["query", "--count", "-1"],
        ["lowerbound", "--n", "1"],
        ["query", "--density", "2"],
        ["query", "--edge", "0,0"],
        ["query", "--edge", "a,b"],
        ["query", "--edge", "1,2,3"],
        ["mutate", "--add", "x,1"],
        ["lowerbound", "--trials", "0"],
        ["lowerbound", "--budget", "-1"],
        ["mutate", "--ops", "{missing}"],
        ["mutate", "--ops", "{malformed}"],
        ["evaluate", "--mmap", "{corrupt}"],
        ["serve-bench", "--no-coalesce"],
        ["serve-bench", "--routing", "range"],
        ["evaluate", "--query-mode", "cached"],
        ["query", "--kernel", "numpy"],
        ["materialize", "--kernel", "numpy"],
        ["evaluate", "--kernel", "numpy"],
        ["serve-bench", "--kernel", "numpy"],
        ["query", "--memo-cap", "8"],
        ["materialize", "--memo-cap", "8"],
        ["query", "--query-mode", "cold"],
        ["materialize", "--query-mode", "batched"],
        ["materialize", "--generate", "power-law-stream"],
    ],
)
def test_bad_input_fails_with_one_line(tmp_path, capsys, argv):
    from repro.scale import save_csr_snapshot

    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text("not json\n", encoding="utf-8")
    # A snapshot whose last neighbor id names no vertex.
    corrupt = tmp_path / "corrupt.csr"
    save_csr_snapshot(gnp_graph(30, 0.3, seed=2), corrupt)
    data = bytearray(corrupt.read_bytes())
    data[-8:] = (10**6).to_bytes(8, sys.byteorder, signed=True)
    corrupt.write_bytes(bytes(data))
    paths = {
        "missing": tmp_path / "missing.jsonl", "malformed": malformed, "corrupt": corrupt
    }
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] in ("serve-bench", "query", "mutate"):
        argv += ["--n", "40"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if excinfo.value.code == 2:  # argparse usage error: the last line says why
        message = err.strip().splitlines()[-1]
        assert message.startswith(f"repro-lca {argv[0]}: error: ")
    else:
        message = str(excinfo.value.code)
        assert message.startswith(f"{argv[0]}: ")
    assert "\n" not in message


@pytest.mark.parametrize("cause", ["invalid-name", "numpy-missing"])
@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--n", "40"],
        ["materialize", "--n", "40"],
        ["query", "--n", "40"],
        ["sweep", "--sizes", "40", "--queries", "5"],
        ["serve-bench", "--n", "40", "--requests", "50"],
        ["report", "run", "{smoke}", "--smoke", "--results", "{results}"],
    ],
    ids=["evaluate", "materialize", "query", "sweep", "serve-bench", "report-run"],
)
def test_bad_kernel_environment_fails_with_one_line(
    tmp_path, capsys, monkeypatch, pin_kernel, argv, cause
):
    """``REPRO_KERNEL`` is the one kernel switch, so a value the host cannot
    honour exits 1 with one line that names the variable, also on a run
    that never builds a cached engine (``sweep``)."""
    if cause == "numpy-missing":
        monkeypatch.setattr(kernels, "_numpy_or_none", lambda: None)
        pin_kernel("numpy")
    else:
        pin_kernel("fortran")
    smoke = Path(__file__).resolve().parent.parent / "scenarios" / "smoke.toml"
    argv = [arg.format(smoke=smoke, results=tmp_path / "results") for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert "Traceback" not in capsys.readouterr().err
    message = str(excinfo.value.code)
    assert message.startswith(f"{argv[0]}: REPRO_KERNEL=")
    assert "\n" not in message


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_malformed_indptr_snapshot_fails_with_one_line(
    tmp_path, capsys, pin_kernel, kernel
):
    if kernel == "numpy":
        pytest.importorskip("numpy")
    pin_kernel(kernel)
    from repro.scale import save_csr_snapshot
    from repro.scale.snapshot import _HEADER

    graph = gnp_graph(200, 0.1, seed=3)
    path = tmp_path / "bad.csr"
    save_csr_snapshot(graph, path)
    data = bytearray(path.read_bytes())
    at = _HEADER.size + 8 * (graph.num_vertices + 5)  # indptr[5], after the ids
    data[at : at + 8] = (10**9).to_bytes(8, sys.byteorder, signed=True)
    path.write_bytes(bytes(data))
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--mmap", str(path)])
    message = str(excinfo.value.code)
    assert message.startswith("--mmap: ") and "malformed indptr" in message
    assert "\n" not in message
    assert "Traceback" not in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Mutation plane: the mutate subcommand and the churn workload
# --------------------------------------------------------------------------- #
def test_mutate_command_applies_ops_and_writes_result(graph_file, capsys, tmp_path):
    graph = read_edge_list(graph_file)
    edges = list(graph.edges())
    (ru, rv) = edges[0]
    non_edge = None
    for a in graph.vertices():
        for b in graph.vertices():
            if a != b and not graph.has_edge(a, b):
                non_edge = (a, b)
                break
        if non_edge:
            break
    out_path = tmp_path / "mutated.txt"
    code = main(
        ["mutate", "--graph", graph_file,
         "--add", f"{non_edge[0]},{non_edge[1]}",
         "--remove", f"{ru},{rv}", "--out", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Graph mutation" in out and "wrote mutated graph" in out
    mutated = read_edge_list(out_path)
    assert mutated.num_edges == graph.num_edges
    assert mutated.has_edge(*non_edge)
    assert not mutated.has_edge(ru, rv)


def test_mutate_command_replays_trace_ops(graph_file, capsys, tmp_path):
    from repro.service import TraceOp, write_trace

    graph = read_edge_list(graph_file)
    (ru, rv) = next(iter(graph.edges()))
    trace_path = tmp_path / "ops.jsonl"
    write_trace(trace_path, [(1, 2), TraceOp("remove", ru, rv)])  # query ignored
    out_path = tmp_path / "mutated.txt"
    code = main(
        ["mutate", "--graph", graph_file, "--ops", str(trace_path),
         "--out", str(out_path)]
    )
    assert code == 0
    assert not read_edge_list(out_path).has_edge(ru, rv)


def test_mutate_command_removes_edges_with_ids_beyond_64_bits(capsys, tmp_path):
    shift = 1 << 70
    path = tmp_path / "big.txt"
    path.write_text(
        "".join(f"{u + shift} {v + shift}\n" for (u, v) in gnp_graph(30, 0.3, seed=3).edges())
    )
    (u, v) = read_edge_list(path).edge_list()[0]
    out_path = tmp_path / "mutated.txt"
    code = main(
        ["mutate", "--graph", str(path), "--remove", f"{u},{v}", "--out", str(out_path)]
    )
    assert code == 0
    assert not read_edge_list(out_path).has_edge(u, v)


def test_mutate_command_rejects_invalid_ops_cleanly(graph_file, capsys):
    with pytest.raises(SystemExit, match="mutate:"):
        main(["mutate", "--graph", graph_file, "--add", "0,0"])
    with pytest.raises(SystemExit, match="at least one"):
        main(["mutate", "--graph", graph_file])


def test_serve_bench_runs_the_churn_workload(graph_file, capsys, tmp_path):
    report_path = tmp_path / "churn.json"
    code = main(
        ["serve-bench", "--graph", graph_file, "--workload", "churn",
         "--requests", "200", "--write-ratio", "0.25", "--shards", "2",
         "--batch-size", "8", "--seed", "4", "--json", str(report_path)]
    )
    assert code == 0
    assert "churn" in capsys.readouterr().out
    import json

    payload = json.loads(report_path.read_text())
    assert payload["mutations"] > 0
    assert (
        payload["offered"]
        == payload["admitted"] + payload["rejected"] + payload["mutations"]
    )


def _write_report_spec(tmp_path):
    spec_path = tmp_path / "suite.toml"
    spec_path.write_text(
        "\n".join(
            [
                "[[scenario]]",
                'name = "cli-report"',
                'algorithm = "spanner3"',
                "seed = 7",
                "[scenario.graph]",
                'family = "gnp"',
                "sizes = [40]",
                "density = 0.2",
                "seed = 3",
                "[scenario.workload]",
                'kind = "uniform"',
                "requests = 30",
                "seed = 1",
                "[scenario.service]",
                "shards = 2",
                "batch_size = 8",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return spec_path


def test_report_run_and_render_commands(tmp_path, capsys):
    spec_path = _write_report_spec(tmp_path)
    results = tmp_path / "results"
    assert main(["report", "run", str(spec_path), "--results", str(results)]) == 0
    assert "cli-report" in capsys.readouterr().out
    assert (results / "cli-report.json").exists()

    out_path = tmp_path / "report.md"
    code = main(
        ["report", "render", "--results", str(results), "--out", str(out_path)]
    )
    assert code == 0
    markdown = out_path.read_text(encoding="utf-8")
    assert "## Probe complexity vs n" in markdown
    assert "## Service latency percentiles (virtual time)" in markdown
    assert "cli-report" in markdown

    # Without --out the report is printed.
    assert main(["report", "render", "--results", str(results)]) == 0
    assert "# Scenario report" in capsys.readouterr().out


def test_report_run_smoke_flag_marks_results(tmp_path, capsys):
    spec_path = _write_report_spec(tmp_path)
    results = tmp_path / "results"
    code = main(
        ["report", "run", str(spec_path), "--results", str(results), "--smoke"]
    )
    assert code == 0
    import json

    document = json.loads((results / "cli-report.json").read_text())
    assert document["result"]["smoke"] is True


def test_report_commands_fail_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="report run:"):
        main(["report", "run", str(tmp_path / "missing.toml")])
    bad_toml = tmp_path / "bad.toml"
    bad_toml.write_text('name = "x"\n[graph\nfamily = "gnp"\n')
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"name": "x", "graph": {"family": ')
    for path, kind in ((bad_toml, "invalid TOML"), (bad_json, "invalid JSON")):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "run", str(path)])
        text = str(excinfo.value)
        assert text.startswith("report run:") and kind in text
        assert "\n" not in text
    with pytest.raises(SystemExit, match="no results"):
        main(["report", "render", "--results", str(tmp_path / "empty")])


# --------------------------------------------------------------------------- #
# Fault plane (serve-bench flags, chaos specs, clean error paths)
# --------------------------------------------------------------------------- #
def test_serve_bench_with_fault_flags(graph_file, capsys, tmp_path):
    report_path = tmp_path / "faults.json"
    code = main(
        ["serve-bench", "--graph", graph_file, "--requests", "300",
         "--shards", "2", "--batch-size", "8", "--replication", "2",
         "--crashes", "2", "--flaky", "1", "--fault-seed", "9",
         "--fault-horizon", "8", "--json", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Fault plane" in out and "availability" in out
    import json

    payload = json.loads(report_path.read_text())
    assert payload["faults"]["crashes"] > 0
    assert payload["replication"] == 2
    assert 0.0 <= payload["availability"] <= 1.0


def test_serve_bench_replays_a_fault_plan_file(graph_file, capsys, tmp_path):
    from repro.faults import FaultEvent, FaultPlan

    plan_path = tmp_path / "plan.json"
    FaultPlan(
        events=(FaultEvent(at=1, kind="crash", shard=0, duration=2),)
    ).to_file(plan_path)
    code = main(
        ["serve-bench", "--graph", graph_file, "--requests", "200",
         "--shards", "2", "--replication", "2", "--fault-plan", str(plan_path)]
    )
    assert code == 0
    assert "Fault plane" in capsys.readouterr().out


def test_serve_bench_rejects_a_malformed_trace_cleanly(graph_file, tmp_path):
    trace_path = tmp_path / "truncated.jsonl"
    trace_path.write_text('{"op": "query", "u": 1', encoding="utf-8")
    with pytest.raises(SystemExit, match="malformed trace record"):
        main(["serve-bench", "--graph", graph_file, "--workload", "trace",
              "--trace", str(trace_path)])


def test_serve_bench_rejects_a_malformed_fault_plan_cleanly(graph_file, tmp_path):
    plan_path = tmp_path / "bad.json"
    plan_path.write_text('{"events": [', encoding="utf-8")
    with pytest.raises(SystemExit, match="fault plan"):
        main(["serve-bench", "--graph", graph_file,
              "--fault-plan", str(plan_path)])
    with pytest.raises(SystemExit, match="cannot read"):
        main(["serve-bench", "--graph", graph_file,
              "--fault-plan", str(tmp_path / "missing.json")])


def test_serve_bench_rejects_a_plan_beyond_the_pool(graph_file, tmp_path):
    from repro.faults import FaultEvent, FaultPlan

    plan_path = tmp_path / "wide.json"
    FaultPlan(
        events=(FaultEvent(at=0, kind="crash", shard=5, duration=2),)
    ).to_file(plan_path)
    with pytest.raises(SystemExit, match="targets shard 5"):
        main(["serve-bench", "--graph", graph_file, "--shards", "2",
              "--fault-plan", str(plan_path)])


def test_report_run_rejects_unknown_faults_keys(tmp_path):
    spec_path = tmp_path / "chaos.toml"
    spec_path.write_text(
        "\n".join(
            [
                "[[scenario]]",
                'name = "bad-chaos"',
                'algorithm = "spanner3"',
                "[scenario.graph]",
                'family = "gnp"',
                "sizes = [40]",
                "[scenario.workload]",
                'kind = "uniform"',
                "requests = 30",
                "[scenario.faults]",
                "crashes = 1",
                "blast_radius = 3",
                "",
            ]
        ),
        encoding="utf-8",
    )
    with pytest.raises(SystemExit, match="unknown faults key"):
        main(["report", "run", str(spec_path), "--results",
              str(tmp_path / "results")])


def test_degraded_mode_flag_validates_choices(graph_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve-bench", "--graph", graph_file,
              "--degraded-mode", "panic"])
    assert excinfo.value.code == 2  # argparse usage error

# --------------------------------------------------------------------------- #
# Observability plane (trace subcommand, export flags, report --trace-dir)
# --------------------------------------------------------------------------- #
def _serve_with_trace(graph_file, tmp_path):
    trace_path = tmp_path / "spans.jsonl"
    code = main(
        ["serve-bench", "--graph", graph_file, "--requests", "150",
         "--shards", "2", "--batch-size", "8", "--seed", "4",
         "--trace-out", str(trace_path)]
    )
    assert code == 0
    return trace_path


def test_serve_bench_exports_trace_chrome_and_metrics(graph_file, capsys, tmp_path):
    import json

    jsonl = tmp_path / "spans.jsonl"
    chrome = tmp_path / "spans.json"
    metrics = tmp_path / "metrics.json"
    code = main(
        ["serve-bench", "--graph", graph_file, "--requests", "150",
         "--shards", "2", "--batch-size", "8", "--seed", "4",
         "--trace-out", str(jsonl), "--trace-chrome", str(chrome),
         "--metrics-out", str(metrics)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "spans" in out and "metrics" in out

    from repro.obs import read_trace_jsonl

    records = read_trace_jsonl(jsonl)
    assert records
    names = {record["name"] for record in records}
    assert {"service.run", "service.batch"} <= names
    document = json.loads(chrome.read_text())
    assert len(document["traceEvents"]) == len(records)
    snapshot = json.loads(metrics.read_text())
    assert snapshot["schema"] == 1
    assert snapshot["metrics"]["service.requests.served"]["value"] == 150
    assert "cache.outcome.memo_hit.calls" in snapshot["metrics"]


def test_trace_command_summarizes_a_trace(graph_file, capsys, tmp_path):
    trace_path = _serve_with_trace(graph_file, tmp_path)
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "service.run" in out
    assert "ticks" in out


def test_trace_command_converts_to_chrome(graph_file, capsys, tmp_path):
    import json

    trace_path = _serve_with_trace(graph_file, tmp_path)
    chrome_path = tmp_path / "chrome.json"
    assert main(["trace", str(trace_path), "--chrome", str(chrome_path)]) == 0
    document = json.loads(chrome_path.read_text())
    assert document["traceEvents"]
    assert {event["ph"] for event in document["traceEvents"]} <= {"X", "i"}


def test_trace_command_rejects_missing_file_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="trace: cannot read trace file"):
        main(["trace", str(tmp_path / "missing.jsonl")])


def test_trace_command_rejects_corrupt_file_cleanly(tmp_path):
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("this is not a span\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="trace: .*:1: malformed trace record"):
        main(["trace", str(corrupt)])


def test_trace_command_handles_empty_trace(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["trace", str(empty)]) == 0
    assert "0 spans" in capsys.readouterr().out


def _write_obs_report_spec(tmp_path):
    spec_path = tmp_path / "obs.toml"
    spec_path.write_text(
        "\n".join(
            [
                "[[scenario]]",
                'name = "cli-obs"',
                'algorithm = "spanner3"',
                "seed = 7",
                "[scenario.graph]",
                'family = "gnp"',
                "sizes = [40]",
                "density = 0.2",
                "seed = 3",
                "[scenario.workload]",
                'kind = "uniform"',
                "requests = 30",
                "seed = 1",
                "[scenario.service]",
                "shards = 2",
                "batch_size = 8",
                "[scenario.observability]",
                "trace = true",
                "profile = true",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return spec_path


def test_report_run_trace_dir_exports_deterministic_traces(tmp_path, capsys):
    spec_path = _write_obs_report_spec(tmp_path)
    exports = []
    for label in ("one", "two"):
        results = tmp_path / f"results-{label}"
        traces = tmp_path / f"traces-{label}"
        code = main(
            ["report", "run", str(spec_path), "--results", str(results),
             "--trace-dir", str(traces)]
        )
        assert code == 0
        jsonl = traces / "cli-obs.trace.jsonl"
        chrome = traces / "cli-obs.trace.json"
        assert jsonl.exists() and chrome.exists()
        exports.append(jsonl.read_bytes())
    assert exports[0] == exports[1]

    # The rendered report gains the observability sections.
    out_path = tmp_path / "report.md"
    code = main(
        ["report", "render", "--results", str(tmp_path / "results-one"),
         "--out", str(out_path)]
    )
    assert code == 0
    markdown = out_path.read_text(encoding="utf-8")
    assert "## Trace summary (observability scenarios)" in markdown
    assert "## Probe attribution by kernel phase" in markdown
