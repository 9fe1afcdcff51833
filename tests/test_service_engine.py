"""Scheduler, workload and telemetry behaviors of the service layer.

Equivalence with the single-oracle baseline is pinned by
``test_service_equivalence.py``; these tests cover the serving mechanics
themselves: admission control, queue bounds, workload determinism and shape,
trace round-trips, and the metrics reductions.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import graphs
from repro.core.probes import nearest_rank_percentile
from repro.core.registry import create
from repro.service import (
    LatencyStats,
    ServiceConfig,
    ServiceEngine,
    TraceOp,
    TraceWorkload,
    make_workload,
    read_trace_ops,
    serve_workload,
    write_trace,
)


@pytest.fixture
def graph():
    return graphs.gnp_graph(60, 0.2, seed=3)


def _factory(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


# --------------------------------------------------------------------------- #
# Scheduler / admission control
# --------------------------------------------------------------------------- #
def test_overloaded_ingress_sheds_load_and_books_every_request(graph):
    config = ServiceConfig(
        num_shards=2, batch_size=4, arrival_burst=32, max_queue_depth=8
    )
    workload = make_workload("uniform", graph, num_requests=400, seed=1)
    report = ServiceEngine(graph, _factory, config).run(workload)
    assert report.offered == 400
    assert report.rejected > 0
    assert report.admitted + report.rejected == report.offered
    assert report.served == report.admitted  # the queue always drains
    assert report.max_queue_depth_seen <= config.max_queue_depth


def test_steady_state_ingress_rejects_nothing(graph):
    config = ServiceConfig(num_shards=2, batch_size=16)
    workload = make_workload("uniform", graph, num_requests=200, seed=1)
    report = ServiceEngine(graph, _factory, config).run(workload)
    assert report.rejected == 0
    assert report.served == 200
    assert report.batches >= 200 // 16


def test_non_edges_are_rejected_not_served(graph):
    u, v = next(iter(graph.edges()))
    missing = graph.num_vertices + 5
    stream = [(u, v), (u, missing), (v, u)]
    workload = TraceWorkload(graph, edges=stream)
    report = serve_workload(graph, _factory, workload, ServiceConfig(batch_size=2))
    assert report.served == 2
    assert report.rejected == 1
    assert report.extras["invalid_requests"] == 1


def test_latency_counts_queueing_delay(graph):
    """With an injected clock, latency = completion − arrival stamps."""
    ticks = iter(range(10_000))
    config = ServiceConfig(num_shards=1, batch_size=2)
    workload = make_workload("uniform", graph, num_requests=6, seed=2)
    report = ServiceEngine(graph, _factory, config).run(
        workload, clock=lambda: next(ticks)
    )
    assert report.served == 6
    assert report.latency.count == 6
    assert all(sample > 0 for sample in report.latency.samples_s)


def test_config_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        ServiceConfig(num_shards=0)
    with pytest.raises(ValueError):
        ServiceConfig(batch_size=0)
    with pytest.raises(ValueError):
        ServiceConfig(max_queue_depth=0)
    with pytest.raises(ValueError):
        ServiceConfig(arrival_burst=0)
    with pytest.raises(TypeError):
        ServiceConfig(coalesce=False)
    with pytest.raises(TypeError):
        ServiceConfig(routing="hash")


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["uniform", "zipf", "adaptive"])
def test_generative_workloads_are_deterministic_per_seed(graph, kind):
    first = list(make_workload(kind, graph, num_requests=120, seed=7))
    second = list(make_workload(kind, graph, num_requests=120, seed=7))
    other = list(make_workload(kind, graph, num_requests=120, seed=8))
    assert first == second
    assert first != other
    assert len(first) == 120
    assert all(graph.has_edge(u, v) for (u, v) in first)


def test_zipf_workload_concentrates_on_high_degree_vertices(graph):
    requests = list(make_workload("zipf", graph, num_requests=2000, seed=1, skew=1.3))
    hits = Counter()
    for (u, v) in requests:
        hits[u] += 1
        hits[v] += 1
    by_degree = sorted(graph.vertices(), key=lambda v: -graph.degree(v))
    hot = sum(hits[v] for v in by_degree[:6])
    cold = sum(hits[v] for v in by_degree[-6:])
    assert hot > 3 * max(cold, 1), "zipf stream is not degree-skewed"


def test_adaptive_workload_follows_spanner_answers(graph):
    workload = make_workload("adaptive", graph, num_requests=50, seed=3, follow=1.0)
    engine = ServiceEngine(graph, _factory, ServiceConfig(batch_size=4))
    report = engine.run(workload)
    assert report.served == 50
    # After warmup, followed requests share an endpoint with an earlier
    # in-spanner answer (the frontier); check the property on the log.
    frontier = set()
    followed = 0
    for record in engine.records:
        if frontier and (record.u in frontier or record.v in frontier):
            followed += 1
        if record.in_spanner:
            frontier.update((record.u, record.v))
    assert followed > 0


def test_make_workload_rejects_unknown_kind(graph):
    with pytest.raises(ValueError):
        make_workload("flood", graph)
    with pytest.raises(ValueError):
        make_workload("trace", graph)  # needs a path or an edge list


# --------------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------------- #
def test_trace_roundtrip_preserves_orientation(tmp_path, graph):
    edges = []
    for i, (u, v) in enumerate(graph.edges()):
        edges.append((v, u) if i % 2 else (u, v))
        if len(edges) == 20:
            break
    path = tmp_path / "trace.jsonl"
    assert write_trace(path, edges) == 20
    assert read_trace_ops(path) == [TraceOp("query", u, v) for (u, v) in edges]
    replay = list(TraceWorkload(graph, path=str(path)))
    assert replay == edges


def test_trace_truncation_and_malformed_lines(tmp_path, graph):
    edges = list(graph.edges())[:10]
    path = tmp_path / "trace.jsonl"
    write_trace(path, edges)
    assert list(TraceWorkload(graph, num_requests=4, path=str(path))) == edges[:4]
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"u": 1, "v": 2}\nnot-json\n')
    with pytest.raises(ValueError, match="malformed trace record"):
        read_trace_ops(bad)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def test_latency_stats_use_nearest_rank_percentiles():
    stats = LatencyStats()
    for ms in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
        stats.add(ms / 1e3)
    assert stats.count == 10
    assert stats.max_s == pytest.approx(0.010)
    assert stats.percentile_s(50) == pytest.approx(
        nearest_rank_percentile(sorted(stats.samples_s), 50)
    )
    summary = stats.as_dict()
    assert summary["p50_ms"] == pytest.approx(6.0)  # rank ⌊0.5·9 + 0.5⌋ = 5
    assert summary["p99_ms"] == pytest.approx(10.0)


def test_service_report_shape(graph):
    workload = make_workload("zipf", graph, num_requests=150, seed=2)
    report = serve_workload(
        graph, _factory, workload, ServiceConfig(num_shards=3, batch_size=8)
    )
    row = report.as_row()
    assert row["served"] == 150
    assert row["workload"] == "zipf"
    payload = report.as_dict()
    assert payload["num_shards"] == 3
    assert len(payload["shards"]) == 3
    assert payload["throughput_rps"] > 0
    assert payload["latency"]["count"] == 150
    assert payload["probes"]["queries"] == 150
    assert report.shard_imbalance() >= 1.0
    assert 0.0 <= report.rejection_rate <= 1.0


# --------------------------------------------------------------------------- #
# Regressions
# --------------------------------------------------------------------------- #
def test_rerunning_an_engine_reports_per_run_shard_telemetry(graph):
    """Shard telemetry in a report covers that run only, not the pool's
    lifetime — a second run must not double-count the first."""
    engine = ServiceEngine(graph, _factory, ServiceConfig(num_shards=2, batch_size=8))
    first = engine.run(make_workload("uniform", graph, num_requests=80, seed=1))
    second = engine.run(make_workload("uniform", graph, num_requests=50, seed=2))
    assert first.served == 80 and second.served == 50
    assert sum(r.requests for r in first.shard_reports) == 80
    assert sum(r.requests for r in second.shard_reports) == 50
    assert sum(r.probes.total for r in second.shard_reports) == second.probe_stats.total


def test_hash_routing_spreads_non_contiguous_vertex_ids():
    """Routing mixes the vertex id, so offset or sparse vertex ids still
    use every shard."""
    from repro.graphs import Graph
    from repro.service import ShardRouter

    ids = [1000 + 3 * i for i in range(40)]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    graph = Graph.from_edges(edges)
    router = ShardRouter(4)
    used = {router.shard_of_vertex(v) for v in ids}
    assert used == {0, 1, 2, 3}
    # Pool-level: a served run on such a graph reaches more than one shard.
    workload = make_workload("uniform", graph, num_requests=60, seed=1)
    config = ServiceConfig(num_shards=4, batch_size=8)
    report = ServiceEngine(graph, _factory, config).run(workload)
    assert sum(1 for r in report.shard_reports if r.requests) > 1
