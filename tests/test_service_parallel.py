"""Deterministic clocks in the service engine.

Every timestamp the engine records (arrival, completion, run duration) must
come from the injected clock, so latency tests are fully deterministic and
no code path falls back to the wall clock.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.registry import create
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


# --------------------------------------------------------------------------- #
# Clock injection: every timestamp flows through the provided clock
# --------------------------------------------------------------------------- #
def _tick_clock():
    ticks = iter(range(1_000_000))
    return lambda: next(ticks)


def test_injected_clock_yields_deterministic_latencies(graph):
    config = lambda: ServiceConfig(num_shards=2, batch_size=4)
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
        ServiceConfig(num_shards=2, batch_size=4),
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
