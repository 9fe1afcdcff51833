"""Sharded + scheduled serving is observationally identical to one oracle.

The service layer may reorder work (batch coalescing), partition memo state
(sharding) and shed load (admission control), but the LCA contract says the
answer to every query — and its cold-schedule probe total — is a pure
function of ``(graph, seed, query)``.  These tests pin that end to end for
all three paper constructions: every request served by any engine
configuration must return the same answer *and* the same per-request probe
total as a fresh single-oracle baseline answering the same stream.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.registry import create
from repro.service import (
    ServiceConfig,
    ServiceEngine,
    ShardRouter,
    make_workload,
)
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA


def _spanner3(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


def _spanner5(graph):
    return create("spanner5", graph, seed=5, hitting_constant=1.0)


def _spannerk(graph):
    params = KSquaredParams(
        num_vertices=graph.num_vertices,
        stretch_parameter=2,
        exploration_budget=6,
        center_probability=0.3,
        mark_probability=0.25,
        rank_quota=20,
        independence=12,
    )
    return KSquaredSpannerLCA(graph, seed=7, params=params)


CASES = {
    "spanner3": (_spanner3, lambda: graphs.gnp_graph(70, 0.25, seed=11)),
    "spanner5": (
        _spanner5,
        lambda: graphs.dense_cluster_graph(80, 10, inter_probability=0.05, seed=5),
    ),
    "spannerk": (_spannerk, lambda: graphs.bounded_degree_expanderish(80, d=4, seed=3)),
}

#: Engine configurations spanning the axes: shard counts, batch sizes
#: (down to batches of one) and replication.
CONFIGS = [
    ServiceConfig(num_shards=1, batch_size=1),
    ServiceConfig(num_shards=1, batch_size=16),
    ServiceConfig(num_shards=3, batch_size=8),
    ServiceConfig(num_shards=3, batch_size=8, replication=2),
    ServiceConfig(num_shards=4, batch_size=32),
]

NUM_REQUESTS = 300


def _served_stream(factory, graph, config, kind="uniform", seed=9):
    workload = make_workload(kind, graph, num_requests=NUM_REQUESTS, seed=seed)
    engine = ServiceEngine(graph, factory, config)
    report = engine.run(workload)
    assert report.served == len(engine.records)
    return engine.records, report


def _cold_baseline(factory, graph, records):
    """Answer the exact served stream with one fresh cold oracle."""
    baseline = factory(graph)
    out = []
    for record in records:
        outcome = baseline.query_with_stats(record.u, record.v)
        out.append((outcome.in_spanner, outcome.probe_total))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_served_answers_and_probe_totals_match_single_oracle(name, config_index):
    factory, make_graph = CASES[name]
    graph = make_graph()
    config = CONFIGS[config_index]
    records, _ = _served_stream(factory, graph, config)
    assert records, "no requests served"
    baseline = _cold_baseline(factory, graph, records)
    for record, (answer, total) in zip(records, baseline):
        assert record.in_spanner == answer, (name, config_index, record)
        assert record.probe_total == total, (name, config_index, record)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_engine_config_serves_the_identical_stream(name):
    """Same workload seed ⇒ identical request streams and identical answers
    across all engine configurations (scheduling is answer-invisible)."""
    factory, make_graph = CASES[name]
    graph = make_graph()
    streams = []
    for config in CONFIGS:
        records, _ = _served_stream(factory, graph, config)
        streams.append([(r.u, r.v, r.in_spanner, r.probe_total) for r in records])
    for stream in streams[1:]:
        assert stream == streams[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_adaptive_stream_replays_identically(name):
    """The adaptive workload steers on answers; identical answers ⇒ the whole
    stream is reproducible, and a cold replay of the served log agrees."""
    factory, make_graph = CASES[name]
    graph = make_graph()
    config = ServiceConfig(num_shards=3, batch_size=8)
    records, _ = _served_stream(factory, graph, config, kind="adaptive")
    baseline = _cold_baseline(factory, graph, records)
    for record, (answer, total) in zip(records, baseline):
        assert record.in_spanner == answer
        assert record.probe_total == total


def test_zipf_and_repeat_requests_still_charge_cold_schedule():
    """Repeat-heavy streams hit the query-answer memo; every hit must charge
    exactly the cold probe total again."""
    graph = graphs.gnp_graph(60, 0.3, seed=4)
    factory = _spanner3
    config = ServiceConfig(num_shards=2, batch_size=16)
    records, report = _served_stream(factory, graph, config, kind="zipf")
    # The stream must actually exercise the memo for this test to mean much.
    hits = sum(r.cache_hits for r in report.shard_reports)
    assert hits > 0, "zipf stream produced no repeat requests"
    seen = {}
    for record in records:
        key = (record.u, record.v)
        if key in seen:
            assert record.probe_total == seen[key], "repeat charged differently"
        else:
            seen[key] = record.probe_total
    baseline = _cold_baseline(factory, graph, records)
    for record, (answer, total) in zip(records, baseline):
        assert record.in_spanner == answer
        assert record.probe_total == total


def test_shard_counters_sum_to_single_oracle_totals():
    """Per-shard probe counters partition the run's total probe charge."""
    graph = graphs.gnp_graph(70, 0.25, seed=11)
    config = ServiceConfig(num_shards=3, batch_size=8)
    records, report = _served_stream(_spanner3, graph, config)
    total_from_shards = sum(r.probes.total for r in report.shard_reports)
    assert total_from_shards == report.probe_stats.total
    assert sum(r.requests for r in report.shard_reports) == report.served
    assert len(records) == report.served


def test_router_is_orientation_invariant_and_total():
    graph = graphs.gnp_graph(50, 0.2, seed=8)
    router = ShardRouter(4)
    for (u, v) in graph.edges():
        shard = router.shard_of_edge(u, v)
        assert shard == router.shard_of_edge(v, u)
        assert 0 <= shard < 4
