"""Unified metrics registry + run-metrics collection (repro.obs.metrics)."""

from __future__ import annotations

import json

import pytest

from repro.core.registry import create
from repro.faults import FaultPlan
from repro.faults.injector import FaultStats
from repro.obs import METRICS_SCHEMA, MetricsRegistry, ProbeProfiler, collect_run_metrics
from repro.reports import TickClock
from repro.graphs import gnp_graph
from repro.service import ServiceConfig, ServiceEngine, make_workload


def serve(graph, replication=1, fault_plan=None, profiler=None):
    engine = ServiceEngine(
        graph,
        lambda g: create("spanner3", g, seed=5, hitting_constant=1.0),
        ServiceConfig(
            num_shards=2, batch_size=8, replication=replication, fault_plan=fault_plan
        ),
    )
    workload = make_workload("zipf", graph, num_requests=60, seed=3)
    return engine.run(workload, clock=TickClock(), profiler=profiler)


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_roundtrip():
    registry = MetricsRegistry()
    registry.counter("service.requests.served", 3)
    registry.counter("service.requests.served", 2)
    registry.gauge("service.throughput.rps", 10.5)
    registry.gauge("service.throughput.rps", 12.25)
    for value in (1, 2, 3, 10):
        registry.observe("service.latency.ticks", value)
    assert registry.value("service.requests.served") == 5
    assert registry.value("service.throughput.rps") == 12.25
    assert registry.value("service.latency.ticks") == [1.0, 2.0, 3.0, 10.0]
    snapshot = registry.snapshot()
    assert snapshot["schema"] == METRICS_SCHEMA
    histogram = snapshot["metrics"]["service.latency.ticks"]
    assert histogram["count"] == 4
    assert histogram["max"] == 10
    assert histogram["p50"] == 3  # nearest-rank: ordered[floor(1.5 + 0.5)]


def test_counters_are_monotone():
    registry = MetricsRegistry()
    registry.counter("faults.crashes")
    with pytest.raises(ValueError, match="cannot decrease"):
        registry.counter("faults.crashes", -1)


def test_name_scheme_is_enforced():
    registry = MetricsRegistry()
    for bad in ("served", "Service.requests", "service.", "service..x", "a b.c"):
        with pytest.raises(ValueError, match="dotted lowercase"):
            registry.counter(bad)


def test_type_conflicts_are_rejected():
    registry = MetricsRegistry()
    registry.counter("cache.lookups.hits")
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.gauge("cache.lookups.hits", 1.0)
    with pytest.raises(KeyError):
        registry.value("cache.lookups.misses")


def test_snapshot_is_sorted_and_json_serializable():
    registry = MetricsRegistry()
    registry.gauge("service.b", 1)
    registry.counter("cache.a", 2)
    registry.observe("probes.h", 3)
    snapshot = registry.snapshot()
    assert list(snapshot["metrics"]) == sorted(snapshot["metrics"])
    json.dumps(snapshot)  # must not raise


# ---------------------------------------------------------------------------
# one snapshot covering every plane
# ---------------------------------------------------------------------------


def test_collect_run_metrics_covers_all_planes():
    graph = gnp_graph(60, 0.15, seed=11)
    plan = FaultPlan.generate(
        seed=9, num_shards=2, replication=2, horizon=12, crashes=2, duration=2
    )
    profiler = ProbeProfiler()
    report = serve(graph, replication=2, fault_plan=plan, profiler=profiler)
    snapshot = collect_run_metrics(report, profiler).snapshot()
    metrics = snapshot["metrics"]

    # service.*
    assert metrics["service.requests.served"]["value"] == report.served
    assert metrics["service.latency.p99_ms"]["type"] == "gauge"
    # cache.*
    assert "cache.lookups.hits" in metrics
    assert "cache.invalidations.epoch" in metrics
    assert metrics["cache.outcome.memo_hit.calls"]["type"] == "counter"
    # probes.*
    assert metrics["probes.total"]["value"] == report.probe_stats.total
    assert "probes.kind.neighbor" in metrics
    # executor.*
    assert metrics["executor.shards"]["value"] == 2
    assert "executor.queue.max_depth" in metrics
    # faults.*
    assert metrics["faults.crashes"]["value"] == report.faults["crashes"]
    assert metrics["faults.availability"]["value"] == round(report.availability, 6)

    json.dumps(snapshot)  # the one versioned artifact must serialize


def test_collect_run_metrics_without_profiler():
    graph = gnp_graph(50, 0.15, seed=11)
    report = serve(graph)
    metrics = collect_run_metrics(report).snapshot()["metrics"]
    assert "cache.invalidations.epoch" not in metrics
    assert metrics["service.requests.served"]["value"] == report.served


def test_fault_stats_register_into():
    stats = FaultStats()
    stats.crashes = 3
    stats.retries = 5
    registry = MetricsRegistry()
    stats.register_into(registry)
    assert registry.value("faults.crashes") == 3
    assert registry.value("faults.retries") == 5
    custom = MetricsRegistry()
    stats.register_into(custom, prefix="chaos")
    assert custom.value("chaos.crashes") == 3
