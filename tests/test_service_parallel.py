"""Concurrent serving equivalence + deterministic clocks.

The futures-based engine (per-shard pinned workers, bounded in-flight
batches) may only change wall-clock numbers.  For open-loop workloads the
served stream, every answer, every per-request probe total and the
per-shard telemetry must be identical across ``executor`` backends,
``workers`` caps and ``max_inflight`` depths; and every recorded timestamp
must come from the injected clock, so latency tests are fully
deterministic.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.registry import create
from repro.exec import resolve_workers
from repro.service import ServiceConfig, ServiceEngine, make_workload


@pytest.fixture
def graph():
    return graphs.gnp_graph(60, 0.2, seed=3)


def _factory(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


def _run(graph, config, kind="zipf", requests=240, seed=9, clock=None):
    workload = make_workload(kind, graph, num_requests=requests, seed=seed)
    engine = ServiceEngine(graph, _factory, config)
    if clock is None:
        report = engine.run(workload)
    else:
        report = engine.run(workload, clock=clock)
    return engine, report


def _stream(engine):
    return [(r.seq, r.u, r.v, r.in_spanner, r.probe_total) for r in engine.records]


#: Concurrency axes: executors, worker caps below the shard count, and
#: pipelining depths.  All must be invisible to the served stream.
PARALLEL_CONFIGS = [
    dict(executor="thread"),
    dict(executor="thread", workers=2),
    dict(executor="thread", max_inflight=3),
    dict(executor="serial", max_inflight=2),
    dict(executor="thread", workers=1, max_inflight=4),
]


@pytest.mark.parametrize("kind", ["uniform", "zipf"])
def test_concurrent_serving_is_stream_identical_to_serial(graph, kind):
    baseline_engine, baseline = _run(
        graph, ServiceConfig(num_shards=3, batch_size=8), kind=kind
    )
    reference = _stream(baseline_engine)
    for overrides in PARALLEL_CONFIGS:
        engine, report = _run(
            graph, ServiceConfig(num_shards=3, batch_size=8, **overrides), kind=kind
        )
        assert _stream(engine) == reference, overrides
        assert report.served == baseline.served
        assert [s.requests for s in report.shard_reports] == [
            s.requests for s in baseline.shard_reports
        ], overrides
        assert [s.probes.total for s in report.shard_reports] == [
            s.probes.total for s in baseline.shard_reports
        ], overrides


def test_adaptive_feedback_stream_matches_serial_without_pipelining(graph):
    """With max_inflight=1 the adaptive workload observes answers at the
    same points as the classic engine, so even the *stream* is identical."""
    baseline_engine, _ = _run(
        graph, ServiceConfig(num_shards=2, batch_size=4), kind="adaptive"
    )
    threaded_engine, _ = _run(
        graph,
        ServiceConfig(num_shards=2, batch_size=4, executor="thread"),
        kind="adaptive",
    )
    assert _stream(threaded_engine) == _stream(baseline_engine)


def test_unbatched_path_is_stream_identical_under_threads(graph):
    baseline_engine, _ = _run(
        graph, ServiceConfig(num_shards=3, batch_size=8, coalesce=False)
    )
    threaded_engine, _ = _run(
        graph,
        ServiceConfig(num_shards=3, batch_size=8, coalesce=False, executor="thread"),
    )
    assert _stream(threaded_engine) == _stream(baseline_engine)


def test_admission_control_is_executor_independent(graph):
    """The executor must not change queue dynamics: with the same
    ``max_inflight`` the exact same requests are admitted and shed.
    (``max_inflight`` itself legitimately changes occupancy — a deeper
    pipeline drains the queue faster — so it is compared separately
    against its own accounting invariants.)"""
    overload = dict(num_shards=2, batch_size=4, arrival_burst=32, max_queue_depth=8)
    _, serial = _run(graph, ServiceConfig(**overload), kind="uniform", requests=400)
    _, threaded = _run(
        graph,
        ServiceConfig(executor="thread", **overload),
        kind="uniform",
        requests=400,
    )
    assert serial.rejected > 0
    assert (threaded.offered, threaded.admitted, threaded.rejected) == (
        serial.offered,
        serial.admitted,
        serial.rejected,
    )
    assert threaded.max_queue_depth_seen == serial.max_queue_depth_seen

    _, piped = _run(
        graph,
        ServiceConfig(executor="thread", max_inflight=2, **overload),
        kind="uniform",
        requests=400,
    )
    assert piped.offered == serial.offered
    assert piped.admitted + piped.rejected == piped.offered
    assert piped.served == piped.admitted
    assert piped.max_queue_depth_seen <= overload["max_queue_depth"]


# --------------------------------------------------------------------------- #
# Clock injection: every timestamp flows through the provided clock
# --------------------------------------------------------------------------- #
def _tick_clock():
    ticks = iter(range(1_000_000))
    return lambda: next(ticks)


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_injected_clock_yields_deterministic_latencies(graph, executor):
    config = lambda: ServiceConfig(num_shards=2, batch_size=4, executor=executor)
    _, first = _run(graph, config(), requests=60, clock=_tick_clock())
    _, second = _run(graph, config(), requests=60, clock=_tick_clock())
    assert first.latency.samples_s == second.latency.samples_s
    # Tick-clock stamps are integers; any wall-clock leak would show up as
    # a fractional difference.
    assert all(
        sample > 0 and float(sample).is_integer()
        for sample in first.latency.samples_s
    ), "a timestamp bypassed the injected clock"
    assert float(first.duration_s).is_integer()


def test_unbatched_requests_get_individual_completion_stamps(graph):
    """coalesce=False is the per-request baseline: each request in a batch
    must carry its own completion time (strictly increasing within the
    batch under a tick clock), not one shared batch stamp."""
    config = ServiceConfig(num_shards=1, batch_size=4, coalesce=False)
    engine, report = _run(graph, config, requests=12, clock=_tick_clock())
    assert report.served == 12
    # Under a tick clock both arrival and per-request completion stamps
    # advance one tick per request, so within a batch latencies are
    # non-decreasing; a single shared batch stamp would make them strictly
    # decrease (later arrivals, same completion).
    for first, second in zip(engine.records, engine.records[1:]):
        same_batch = (second.seq - 1) // config.batch_size == (
            first.seq - 1
        ) // config.batch_size
        if same_batch:
            assert second.latency_s >= first.latency_s


def test_no_code_path_reads_the_wall_clock_when_a_clock_is_injected(
    graph, monkeypatch
):
    """Audit-by-construction: break time.perf_counter for the engine module;
    a run with an injected clock must never touch it."""
    import repro.service.engine as engine_module

    def _forbidden():  # pragma: no cover - failing is the point
        raise AssertionError("engine read time.perf_counter despite injected clock")

    monkeypatch.setattr(engine_module.time, "perf_counter", _forbidden)
    _, report = _run(
        graph,
        ServiceConfig(num_shards=2, batch_size=4, executor="thread", max_inflight=2),
        requests=40,
        clock=_tick_clock(),
    )
    assert report.served == 40


def test_metrics_module_has_no_wall_clock_dependency():
    import inspect

    import repro.service.metrics as metrics_module

    source = inspect.getsource(metrics_module)
    assert "perf_counter" not in source
    assert "time.time" not in source


def test_config_validation_covers_the_new_knobs():
    with pytest.raises(ValueError, match="service executor"):
        ServiceConfig(executor="process")
    with pytest.raises(ValueError):
        ServiceConfig(max_inflight=0)
    with pytest.raises(ValueError):
        ServiceConfig(workers=0)


def test_resolve_workers_defaults_and_bounds():
    assert resolve_workers(None, "serial") == 1
    assert resolve_workers(3, "thread") == 3
    assert resolve_workers(None, "thread") >= 2
    with pytest.raises(ValueError):
        resolve_workers(0, "thread")
