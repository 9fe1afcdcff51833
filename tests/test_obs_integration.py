"""End-to-end observability: engine hooks, scenario payloads, determinism.

Three invariants of the observability plane, checked through the real
service engine and the scenario runner:

* **Observation is free of side effects** — running with a tracer and a
  profiler attached produces bit-identical request records, latency
  percentiles and probe totals to an unobserved run of the same schedule.
* **Traces are deterministic** — two runs of the same scenario (including
  the chaos scenario's crash storm) export byte-identical JSONL span
  streams.
* **The payload carries the whole plane** — scenario results gain one
  ``observability`` block with the trace summary, the attribution profile
  and the unified metrics snapshot, and the renderer turns it into the
  trace-summary / attribution sections.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.registry import create
from repro.graphs import gnp_graph
from repro.obs import ProbeProfiler, SpanTracer, trace_jsonl
from repro.reports import TickClock, load_scenario_file, run_scenario, render_report
from repro.service import ServiceConfig, ServiceEngine, make_workload

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run_engine(graph, tracer=None, profiler=None):
    engine = ServiceEngine(
        graph,
        lambda g: create("spanner3", g, seed=5, hitting_constant=1.0),
        ServiceConfig(num_shards=2, batch_size=8, record=True),
    )
    workload = make_workload("zipf", graph, num_requests=120, seed=3)
    report = engine.run(
        workload, clock=TickClock(), tracer=tracer, profiler=profiler
    )
    return engine, report


def test_tracing_and_profiling_do_not_change_the_run():
    graph = gnp_graph(70, 0.15, seed=11)
    plain_engine, plain = run_engine(graph)
    tracer, profiler = SpanTracer(), ProbeProfiler()
    traced_engine, traced = run_engine(graph, tracer=tracer, profiler=profiler)

    assert [
        (r.seq, r.u, r.v, r.in_spanner, r.probe_total)
        for r in plain_engine.records
    ] == [
        (r.seq, r.u, r.v, r.in_spanner, r.probe_total)
        for r in traced_engine.records
    ]
    assert plain.latency.as_dict() == traced.latency.as_dict()
    assert plain.probe_stats.total == traced.probe_stats.total
    # ... and the observation actually happened.
    assert tracer.finished()
    names = {span.name for span in tracer.finished()}
    assert {"service.run", "service.batch"} <= names
    assert profiler.outcome_calls["memo-hit"] + profiler.outcome_calls["cold"] > 0


def test_engine_traces_are_deterministic():
    graph = gnp_graph(70, 0.15, seed=11)
    exports = []
    for _ in range(2):
        tracer = SpanTracer()
        run_engine(graph, tracer=tracer, profiler=ProbeProfiler())
        exports.append(trace_jsonl(tracer))
    assert exports[0] == exports[1]


def test_chaos_scenario_traces_are_byte_identical():
    (spec,) = load_scenario_file(SCENARIOS_DIR / "chaos_crash_churn.toml")
    assert spec.observability is not None and spec.observability.trace
    exports = []
    for _ in range(2):
        tracer = SpanTracer(capacity=spec.observability.capacity)
        result = run_scenario(spec, smoke=True, tracer=tracer)
        exports.append(trace_jsonl(tracer))
        # The storm actually ran and was traced.
        assert result.service["faults"]["crashes"] > 0
        fault_spans = [s for s in tracer.finished() if s.cat == "fault"]
        assert fault_spans
    assert exports[0] == exports[1]
    assert exports[0]


def test_scenario_payload_carries_observability_block():
    (spec, _) = load_scenario_file(SCENARIOS_DIR / "observability_smoke.toml")
    result = run_scenario(spec, smoke=True)
    obs = result.service["observability"]
    assert obs["trace"]["spans"] > 0
    assert obs["trace"]["dropped"] == 0
    assert obs["trace"]["summary"]
    assert obs["profile"]["phases"]
    metrics = obs["metrics"]["metrics"]
    for name in (
        "service.requests.served",
        "cache.lookups.hits",
        "probes.total",
        "executor.shards",
        "faults.availability",
    ):
        assert name in metrics, name


def test_render_includes_observability_sections():
    (spec, _) = load_scenario_file(SCENARIOS_DIR / "observability_smoke.toml")
    result = run_scenario(spec, smoke=True)
    report = render_report([result.as_dict()])
    assert "## Trace summary (observability scenarios)" in report
    assert "## Probe attribution by kernel phase" in report
    assert "## Probe attribution by cache outcome" in report
    assert "service.batch" in report
    assert "memo-hit" in report
    # Rendering twice from the same payload is byte-stable.
    assert report == render_report([result.as_dict()])


def test_scenarios_without_observability_render_empty_sections():
    import dataclasses

    (spec, _) = load_scenario_file(SCENARIOS_DIR / "observability_smoke.toml")
    bare = run_scenario(dataclasses.replace(spec, observability=None), smoke=True)
    assert bare.service.get("observability") is None
    report = render_report([bare.as_dict()])
    assert "## Trace summary (observability scenarios)" in report
