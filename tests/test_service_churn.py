"""The churn workload and the engine's write path.

Writes are never shed, act as scheduling barriers, route to the owning
shard, and leave every shard's memo state consistent through epoch-based
lazy invalidation — so a churn run is deterministic and its served
answers match a per-request replay against from-scratch oracles
on the evolving graph.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.registry import create
from repro.service import (
    ChurnWorkload,
    ServiceConfig,
    ServiceEngine,
    TraceOp,
    LatencyStats,
    make_workload,
    read_trace_ops,
    write_trace,
)
from repro.service.workload import TraceWorkload


def _spanner3(graph):
    return create("spanner3", graph, seed=7)


@pytest.fixture
def graph():
    return graphs.gnp_graph(70, 0.12, seed=6)


def _run_churn(graph, **workload_kwargs):
    options = {"num_requests": 400, "seed": 11, "write_ratio": 0.2}
    options.update(workload_kwargs)
    workload = make_workload("churn", graph, **options)
    config = ServiceConfig(num_shards=3, batch_size=16)
    engine = ServiceEngine(graph, _spanner3, config)
    report = engine.run(workload)
    return engine, report, workload


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def test_churn_workload_is_deterministic_in_its_seed(graph):
    def stream(g):
        workload = ChurnWorkload(g, num_requests=300, seed=3, write_ratio=0.3)
        return list(workload)

    a = stream(graphs.Graph(graph.as_adjacency()))
    b = stream(graphs.Graph(graph.as_adjacency()))
    assert a == b
    assert any(isinstance(item, TraceOp) and item.is_mutation for item in a)


def test_churn_workload_mutations_replay_validly_onto_the_graph(graph):
    """Every emitted mutation is valid when applied in stream order."""
    mirror = graphs.Graph(graph.as_adjacency())
    workload = ChurnWorkload(mirror, num_requests=500, seed=5, write_ratio=0.4)
    applied = 0
    for request in workload:
        if isinstance(request, TraceOp) and request.is_mutation:
            mirror.apply_mutation(request.op, request.u, request.v)  # must not raise
            applied += 1
        else:
            u, v = request
            assert mirror.has_edge(u, v), "read of a non-current edge"
    assert applied == workload.mutations_emitted > 0


def test_churn_write_ratio_validation(graph):
    with pytest.raises(ValueError, match="write_ratio"):
        ChurnWorkload(graph, num_requests=10, write_ratio=1.5)
    zero = ChurnWorkload(graph, num_requests=50, seed=1, write_ratio=0.0)
    assert all(not isinstance(item, TraceOp) for item in zero)


# --------------------------------------------------------------------------- #
# Engine write path
# --------------------------------------------------------------------------- #
def test_engine_applies_writes_and_keeps_the_accounting_invariants(graph):
    engine, report, workload = _run_churn(graph)
    assert report.mutations == workload.mutations_emitted > 0
    assert report.offered == 400
    assert report.offered == report.admitted + report.rejected + report.mutations
    assert report.served == report.admitted == len(engine.records)
    assert graph.epoch == report.mutations
    assert report.extras["graph_epoch"] == graph.epoch
    assert sum(shard.mutations for shard in report.shard_reports) == report.mutations


def test_served_answers_match_fresh_oracles_on_the_evolving_graph(graph):
    """Replay the exact request stream against a mirror graph, answering
    every read with a brand-new cold LCA on a from-scratch copy — the
    engine's epoch-invalidated shards must agree answer by answer."""
    engine, _, _ = _run_churn(graph, num_requests=250)
    # Rebuild the stream: records carry reads; re-generate writes from the
    # deterministic workload on a fresh mirror.
    mirror = graphs.gnp_graph(70, 0.12, seed=6)
    workload = ChurnWorkload(mirror, num_requests=250, seed=11, write_ratio=0.2)
    records = iter(engine.records)
    for request in workload:
        if isinstance(request, TraceOp) and request.is_mutation:
            mirror.apply_mutation(request.op, request.u, request.v)
            continue
        record = next(records)
        u, v = request
        assert (record.u, record.v) == (u, v)
        rebuilt = graphs.Graph(mirror.as_adjacency())
        outcome = _spanner3(rebuilt).query_with_stats(u, v)
        assert outcome.in_spanner == record.in_spanner
        assert outcome.probe_total == record.probe_total


def test_reads_of_pending_writes_are_admitted_against_future_state(graph):
    """A read queued behind an 'add' of the same edge must serve, and a read
    queued behind a 'remove' must be rejected as invalid."""
    edges = list(graph.edges())
    (u1, v1) = edges[0]
    non_edge = None
    vertices = graph.vertices()
    for a in vertices:
        for b in vertices:
            if a != b and not graph.has_edge(a, b):
                non_edge = (a, b)
                break
        if non_edge:
            break
    stream = [
        TraceOp("add", *non_edge),
        non_edge,                     # valid only through the pending add
        TraceOp("remove", u1, v1),
        (u1, v1),                     # invalid through the pending remove
    ]
    workload = TraceWorkload(graph, edges=stream)
    config = ServiceConfig(num_shards=2, batch_size=64)
    engine = ServiceEngine(graph, _spanner3, config)
    report = engine.run(workload)
    assert report.mutations == 2
    assert report.served == 1
    assert report.rejected == 1
    assert report.extras["invalid_requests"] == 1
    assert engine.records[0].u == non_edge[0]


# --------------------------------------------------------------------------- #
# Trace round trip (lossless mutate records)
# --------------------------------------------------------------------------- #
def test_mixed_trace_round_trips_losslessly(tmp_path, graph):
    workload = ChurnWorkload(
        graphs.Graph(graph.as_adjacency()), num_requests=200, seed=2, write_ratio=0.3
    )
    stream = list(workload)
    path = tmp_path / "churn.jsonl"
    assert write_trace(path, stream) == len(stream)
    replayed = read_trace_ops(path)
    normalized = [
        item if isinstance(item, TraceOp) else TraceOp("query", *item)
        for item in stream
    ]
    assert replayed == normalized
    # And a TraceWorkload replays the identical request stream.
    replay_workload = TraceWorkload(graph, path=str(path))
    replay_stream = list(replay_workload)
    assert [
        item if isinstance(item, TraceOp) else TraceOp("query", *item)
        for item in replay_stream
    ] == normalized


def test_query_only_trace_format_is_unchanged(tmp_path):
    path = tmp_path / "plain.jsonl"
    write_trace(path, [(3, 17), (5, 8)])
    assert path.read_text() == '{"u": 3, "v": 17}\n{"u": 5, "v": 8}\n'
    assert read_trace_ops(path) == [TraceOp("query", 3, 17), TraceOp("query", 5, 8)]


def test_replayed_churn_trace_reproduces_the_original_run(tmp_path, graph):
    g1 = graphs.Graph(graph.as_adjacency())
    engine1, report1, workload = _run_churn(g1, num_requests=200)
    # Record the exact stream (the workload is deterministic, so regenerate).
    mirror = graphs.Graph(graph.as_adjacency())
    stream = list(
        ChurnWorkload(mirror, num_requests=200, seed=11, write_ratio=0.2)
    )
    path = tmp_path / "replay.jsonl"
    write_trace(path, stream)

    g2 = graphs.Graph(graph.as_adjacency())
    config = ServiceConfig(num_shards=3, batch_size=16)
    engine2 = ServiceEngine(g2, _spanner3, config)
    report2 = engine2.run(TraceWorkload(g2, path=str(path)))
    assert [(r.u, r.v, r.in_spanner, r.probe_total) for r in engine1.records] == [
        (r.u, r.v, r.in_spanner, r.probe_total) for r in engine2.records
    ]
    assert report2.mutations == report1.mutations
    assert g1.as_adjacency() == g2.as_adjacency()


# --------------------------------------------------------------------------- #
# Satellite: LatencyStats sorts once per summary
# --------------------------------------------------------------------------- #
def test_latency_stats_single_sort_output_is_pinned():
    """The cached-sort fast path returns bit-identical output to the old
    sort-per-call implementation, including across add/query interleavings."""
    import random as _random

    rng = _random.Random(31)
    stats = LatencyStats()
    reference_samples = []
    for round_index in range(5):
        for _ in range(200):
            sample = rng.random() * 0.01
            stats.add(sample)
            reference_samples.append(sample)
        from repro.core.probes import nearest_rank_percentile

        for q in (0.0, 37.5, 50.0, 90.0, 95.0, 99.0, 100.0):
            assert stats.percentile_s(q) == nearest_rank_percentile(
                sorted(reference_samples), q
            ), (round_index, q)
        expected = {
            "count": len(reference_samples),
            "mean_ms": round(
                sum(reference_samples) / len(reference_samples) * 1e3, 4
            ),
            "max_ms": round(max(reference_samples) * 1e3, 4),
        }
        ordered = sorted(reference_samples)
        for q in (50.0, 90.0, 95.0, 99.0):
            expected[f"p{q:g}_ms"] = round(
                nearest_rank_percentile(ordered, q) * 1e3, 4
            )
        assert stats.as_dict() == expected
    # Repeated queries with no intervening add reuse the cached view.
    assert stats._sorted_samples() is stats._sorted_samples()


def test_latency_stats_detects_direct_sample_appends():
    stats = LatencyStats()
    stats.add(3.0)
    assert stats.percentile_s(50) == 3.0
    stats.samples_s.append(1.0)  # bypasses add()
    assert stats.percentile_s(0) == 1.0


def test_interleaved_writes_on_one_edge_admit_against_the_last_queued_write(graph):
    """Applying an earlier write must not erase the admission marker of a
    later still-queued write on the same edge (regression: a read admitted
    between add(e) and a queued remove(e) used to serve after the remove)."""
    (u1, v1) = next(iter(graph.edges()))
    non_edge = None
    for a in graph.vertices():
        for b in graph.vertices():
            if a != b and not graph.has_edge(a, b):
                non_edge = (a, b)
                break
        if non_edge:
            break
    stream = [
        TraceOp("add", *non_edge),
        non_edge,                      # executes between add and remove: valid
        TraceOp("remove", *non_edge),
        non_edge,                      # executes after the remove: must reject
        TraceOp("add", *non_edge),
        non_edge,                      # valid again through the re-add
    ]
    # batch_size=1 with a full-burst ingest queues everything before any
    # write applies, which is exactly the aliasing scenario.
    config = ServiceConfig(
        num_shards=2, batch_size=1, arrival_burst=len(stream)
    )
    engine = ServiceEngine(graph, _spanner3, config)
    report = engine.run(TraceWorkload(graph, edges=stream))
    assert report.mutations == 3
    assert report.served == 2
    assert report.rejected == 1
    assert report.extras["invalid_requests"] == 1
    assert graph.has_edge(*non_edge)


def test_churn_workload_survives_draining_all_edges():
    """A read drawn while the mirror is empty forces an insertion instead of
    crashing (regression: ValueError from randrange(0))."""
    tiny = graphs.Graph({0: [1], 1: [0], 2: []})
    workload = ChurnWorkload(tiny, num_requests=60, seed=1, write_ratio=0.9)
    mirror = graphs.Graph(tiny.as_adjacency())
    drained = False
    for request in workload:
        if isinstance(request, TraceOp) and request.is_mutation:
            mirror.apply_mutation(request.op, request.u, request.v)
            drained = drained or mirror.num_edges == 0
        else:
            assert mirror.has_edge(*request)
    assert drained, "seed never drained the mirror; pick one that does"
