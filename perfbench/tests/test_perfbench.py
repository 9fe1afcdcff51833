"""Tests of the benchmark's own code: spec, answer check, metric sets.

The workloads run here on tiny graphs so the suite stays fast; the real
instances are exercised by ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as command
from perfbench import spec

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import workloads  # noqa: E402
from repro.core.ids import canonical_edge  # noqa: E402
from repro.core.lca import SpannerLCA  # noqa: E402
from repro.service.trace import TraceOp  # noqa: E402

TINY = ("gnp-stream", 60, 0.3)
TINY_SEEDS = workloads.Seeds(graph=7, lca=5, workload=3)


@pytest.fixture
def tiny_graph(monkeypatch):
    monkeypatch.setitem(workloads.GRAPHS, "tiny", TINY)


class TinyCold(workloads.QueryCold):
    graph_key = "tiny"


class TinyChurn(workloads.ServeChurn):
    graph_key = "tiny"
    requests = 40
    warm_requests = 32


def test_metric_names_match_the_grammar_and_carry_units():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for item in spec.END_TO_END + spec.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", item.name), item.name
        assert spec.NAME_PATTERN.fullmatch(item.name), item.name
        assert spec.UNIT_PATTERN.fullmatch(item.unit), (item.name, item.unit)
        assert item.better in ("higher", "lower")
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m.bound is None for m in spec.PER_LAYER)


def test_benchmark_json_is_the_rendered_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert [w["name"] for w in committed["workloads"]] == list(workloads.BENCHES)


def test_reference_check_counts_a_wrong_answer(tiny_graph):
    bench = TinyCold(TINY_SEEDS)
    graph = bench.build_graph()
    queries = list(graph.edges())[:5]
    ref = bench.make_lca(graph)
    truth = [ref.query_with_stats(u, v) for (u, v) in queries]
    answers = [outcome.in_spanner for outcome in truth]
    totals = [outcome.probe_total for outcome in truth]
    assert bench.reference_mismatches(bench.make_lca(graph), queries, answers, totals) == 0
    answers[2] = not answers[2]
    assert bench.reference_mismatches(bench.make_lca(graph), queries, answers, totals) == 1


def test_injected_wrong_answer_makes_the_run_fail(tiny_graph, monkeypatch):
    bench = TinyCold(TINY_SEEDS)
    bench.prepare()
    target = bench.queries[bench.sample_indices(len(bench.queries))[0]]
    original = SpannerLCA.query_batch

    def lying_query_batch(self, edges, validate=True):
        result = original(self, edges, validate)
        for i, edge in enumerate(result.edges):
            if edge == target:
                result.answers[i] = not result.answers[i]
        return result

    monkeypatch.setattr(SpannerLCA, "query_batch", lying_query_batch)
    result = workloads.run(TinyCold(TINY_SEEDS), seconds=0.01, traced=False)
    metrics = workloads.end_to_end(result)
    assert result.failed == 1
    assert metrics["ok_frac"] < 1.0


def test_raising_round_counts_its_operations_failed(tiny_graph, monkeypatch):
    original = SpannerLCA.query_batch
    calls = []

    def flaky_query_batch(self, edges, validate=True):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return original(self, edges, validate)

    monkeypatch.setattr(SpannerLCA, "query_batch", flaky_query_batch)
    bench = TinyCold(TINY_SEEDS)
    result = workloads.run(bench, seconds=0.01, traced=False)
    assert result.failed == bench.planned_ops()
    assert result.problems and len(result.rounds) == workloads.MIN_ROUNDS


def test_round_time_takes_each_segment_at_its_median():
    rounds = [workloads.Round(segments_s=s) for s in ([1.0, 2.0], [5.0, 2.0], [1.0, 9.0])]
    assert workloads.round_time_s(rounds) == 3.0


def test_host_clock_takes_calibration_out_of_the_time():
    host = workloads.HostClock(interval_s=0.0)
    wall, start = workloads.clock(), host.now()
    readings = [host.tick() for _ in range(5)]
    elapsed_wall = workloads.clock() - wall
    assert len(host.blocks) == 5
    assert readings == sorted(readings) and readings[0] >= start
    # The clock stood still for every block, which ran at least its own time.
    assert host.now() - start <= elapsed_wall - sum(host.blocks)


def test_timings_scale_by_the_median_block():
    ref = workloads.REFERENCE_BLOCK_S
    # One block caught a stall; the median ignores it.  The host ran blocks
    # at twice the reference time, so every timing halves.
    blocks = [2 * ref, 2 * ref, 50 * ref]
    rounds = [
        workloads.Round(setup_s=4.0, segments_s=[2.0], latencies_s=[2.0], ops=10,
                        totals=[1] * 10, blocks_s=blocks)
        for _ in range(3)
    ]
    result = workloads.RunResult(rounds, 30, 0, [], {}, 1.0)
    assert workloads.host_scale(result) == pytest.approx(0.5)
    metrics = workloads.end_to_end(result)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["throughput_ops"] == pytest.approx(10.0)
    assert metrics["latency_p50_ms"] == pytest.approx(1000.0)


def test_steady_holds_every_bounded_metric_to_its_bound_both_ways():
    metrics = {m.name: m for m in spec.END_TO_END}
    setup, throughput = metrics["setup_s"], metrics["throughput_ops"]
    assert command.worse_share(setup, 1.0, 1.3) == pytest.approx(0.3)
    assert command.worse_share(throughput, 100.0, 70.0) == pytest.approx(0.3)
    # Either set may stand for the parent, so a second set that reads 30%
    # better is as far off as one that reads 30% worse.
    assert command.drift(setup, 1.3, 1.0) == pytest.approx(0.3)
    assert command.drift(throughput, 70.0, 100.0) == pytest.approx(0.3)
    assert command.verdict(setup.bound, [0.01, 0.02, 0.3]) == "NOISY"
    assert command.verdict(setup.bound, [0.01, 0.02, 0.05]) == "steady"
    assert command.verdict(None, [1.0]) == ""


def test_churn_seeds_reorder_one_read_pool(tiny_graph):
    graph = TinyChurn(TINY_SEEDS).build_graph()
    streams = [workloads.churn_stream(graph, 40, 20, seed, pool_seed=7) for seed in (1, 2)]
    reads = [
        sorted(canonical_edge(*item) for item in stream if not isinstance(item, TraceOp))
        for stream in streams
    ]
    assert reads[0] == reads[1] and len(reads[0]) == 38
    assert [i for i, item in enumerate(streams[0]) if isinstance(item, TraceOp)] == [10, 30]
    assert streams[0] != streams[1]


def test_clean_run_reports_every_end_to_end_metric(tiny_graph):
    result = workloads.run(TinyCold(TINY_SEEDS), seconds=0.01, traced=False)
    metrics = workloads.end_to_end(result)
    assert result.failed == 0 and not result.problems
    assert list(metrics) == [m.name for m in spec.END_TO_END]
    assert metrics["ok_frac"] == 1.0
    assert result.descriptor["hit_share"] == 0.0


def test_traced_run_reports_every_per_layer_metric(tiny_graph):
    result = workloads.run(TinyChurn(TINY_SEEDS), seconds=0.01, traced=True)
    metrics = workloads.per_layer(result)
    assert result.failed == 0 and not result.problems
    assert list(metrics) == [m.name for m in spec.PER_LAYER]
    assert metrics["graphs.mutations"] == result.descriptor["writes"] > 0
    assert metrics["obs.self_coverage_frac"] >= 0.9


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "materialize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
