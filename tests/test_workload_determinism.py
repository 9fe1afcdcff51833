"""Workload streams are reproducible; traces replay losslessly.

The serving benchmarks and equivalence tests all lean on one assumption:
a ``(kind, graph, seed, size)`` tuple names *one* request stream.  These
tests pin that across repeated construction, across owned and
memory-mapped storage of the same graph, and — for the
adaptive kind — across repeated runs with the same feedback.  Trace IO
must round-trip bit-exactly, including orientation and annotation keys.
"""

from __future__ import annotations

import json

import pytest

from repro import graphs
from repro.scale import load_csr_snapshot, save_csr_snapshot
from repro.service import (
    TraceOp,
    TraceWorkload,
    make_workload,
    read_trace_ops,
    write_trace,
)
from repro.service.trace import iter_trace_ops


def _queries(edges):
    """The trace records a query-only stream of ``edges`` reads back as."""
    return [TraceOp("query", u, v) for (u, v) in edges]


@pytest.fixture
def graph():
    return graphs.gnp_graph(70, 0.18, seed=4)


GENERATIVE_KINDS = ("uniform", "zipf", "adaptive")


@pytest.mark.parametrize("kind", GENERATIVE_KINDS)
def test_identical_streams_for_a_fixed_seed_across_runs(graph, kind):
    streams = [
        list(make_workload(kind, graph, num_requests=150, seed=13))
        for _ in range(3)
    ]
    assert streams[0] == streams[1] == streams[2]
    assert len(streams[0]) == 150
    assert list(make_workload(kind, graph, num_requests=150, seed=14)) != streams[0]


@pytest.mark.parametrize("kind", GENERATIVE_KINDS)
def test_streams_do_not_depend_on_the_graph_storage_backend(graph, kind, tmp_path):
    """An owned graph and its memory-mapped snapshot give the same stream."""
    save_csr_snapshot(graph, tmp_path / "g.csr")
    with load_csr_snapshot(tmp_path / "g.csr") as mapped:
        mapped_stream = list(make_workload(kind, mapped, num_requests=150, seed=21))
    owned_stream = list(make_workload(kind, graph, num_requests=150, seed=21))
    assert owned_stream == mapped_stream


def test_adaptive_stream_is_deterministic_under_identical_feedback(graph):
    def drive(workload):
        stream = []
        while True:
            edge = workload.next_request()
            if edge is None:
                return stream
            stream.append(edge)
            # Deterministic pseudo-answers: feedback identical across runs.
            workload.observe(edge, (edge[0] + edge[1]) % 3 == 0)

    first = drive(make_workload("adaptive", graph, num_requests=200, seed=5))
    second = drive(make_workload("adaptive", graph, num_requests=200, seed=5))
    assert first == second


# --------------------------------------------------------------------------- #
# Trace round trips
# --------------------------------------------------------------------------- #
def test_write_read_roundtrip_is_lossless(tmp_path, graph):
    # Mixed orientations and repeats — both must replay exactly.
    stream = []
    for i, (u, v) in enumerate(graph.edges()):
        stream.append((v, u) if i % 3 == 0 else (u, v))
        if i % 5 == 0:
            stream.append((u, v))
        if len(stream) >= 60:
            break
    path = tmp_path / "trace.jsonl"
    assert write_trace(path, stream) == len(stream)
    assert read_trace_ops(path) == _queries(stream)
    assert list(iter_trace_ops(path)) == _queries(stream)
    assert list(TraceWorkload(graph, path=str(path))) == stream


def test_roundtrip_preserves_large_and_negative_ids(tmp_path):
    stream = [(10**15, 10**15 + 1), (-4, 7), (7, -4)]
    path = tmp_path / "big.jsonl"
    write_trace(path, stream)
    assert read_trace_ops(path) == _queries(stream)


def test_annotation_keys_survive_replay_ignored(tmp_path, graph):
    edges = list(graph.edges())[:5]
    path = tmp_path / "annotated.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i, (u, v) in enumerate(edges):
            handle.write(
                json.dumps({"u": u, "v": v, "ts": i * 0.5, "client": f"c{i}"}) + "\n"
            )
        handle.write("\n")  # trailing blank line is skipped
    assert read_trace_ops(path) == _queries(edges)


def test_recorded_service_stream_replays_to_identical_answers(tmp_path, graph):
    """End to end: record a workload, replay it through a fresh engine, get
    the same answers and probe totals (the regression-testing workflow)."""
    from repro.core.registry import create
    from repro.service import ServiceConfig, ServiceEngine

    factory = lambda g: create("spanner3", g, seed=5, hitting_constant=1.0)
    stream = list(make_workload("zipf", graph, num_requests=120, seed=2))
    path = tmp_path / "recorded.jsonl"
    write_trace(path, stream)

    config = ServiceConfig(num_shards=2, batch_size=8)
    first = ServiceEngine(graph, factory, config)
    first.run(TraceWorkload(graph, path=str(path)))
    second = ServiceEngine(graph, factory, ServiceConfig(num_shards=4, batch_size=16))
    second.run(TraceWorkload(graph, path=str(path)))
    assert [(r.u, r.v, r.in_spanner, r.probe_total) for r in first.records] == [
        (r.u, r.v, r.in_spanner, r.probe_total) for r in second.records
    ]
