"""Observability benchmark: tracing overhead and trace determinism.

Runs the online service (dense fixture, zipf workload) three ways — no
tracer at all, the disabled :data:`~repro.obs.NULL_TRACER`, and the full
plane (live :class:`~repro.obs.SpanTracer` + probe-attribution profiler) —
and writes everything to ``BENCH_obs.json`` at the repository root.

Shapes to check:

* **Disabled observability is free.**  The instrumentation hooks guard on
  ``tracer.enabled``, so serving with the null tracer must stay within
  :data:`MAX_TRACE_OVERHEAD` (default 5%) of the untraced throughput.
  This is the enforced floor — the zero-cost-when-disabled contract the
  service keeps for every deployment that never turns tracing on.
* **Live tracing cost is tracked, not hidden.**  The full-plane run's
  overhead is recorded in the JSON (typically a few percent: one span per
  batch plus per-replica probe attribution) so regressions are visible in
  the artifact history; it has no floor because its cost scales with span
  volume by design.
* **Traces are deterministic.**  Two full-plane runs on the deterministic
  tick clock must export byte-identical JSONL span streams — the same
  property the CI obs-smoke job asserts end-to-end through the CLI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import format_table
from repro.core.registry import create
from repro.obs import NULL_TRACER, ProbeProfiler, SpanTracer, trace_jsonl
from repro.reports import TickClock
from repro.service import ServiceConfig, ServiceEngine, make_workload

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

#: Acceptance ceiling for the null-tracer (observability disabled) overhead
#: on the zipf service run.  The environment override exists for noisy
#: shared CI runners, not for local use.
MAX_TRACE_OVERHEAD = float(os.environ.get("BENCH_MAX_TRACE_OVERHEAD", "0.05"))

NUM_REQUESTS = 8000
NUM_SHARDS = 4
BATCH_SIZE = 64
WORKLOAD_SEED = 3

#: Timing repetitions (best-of, to shrug off scheduler noise).
REPEATS = 3


def _serve(graph, tracer=None, profiler=None, clock=None):
    engine = ServiceEngine(
        graph,
        lambda g: create("spanner3", g, seed=5, hitting_constant=1.0),
        ServiceConfig(num_shards=NUM_SHARDS, batch_size=BATCH_SIZE),
    )
    workload = make_workload(
        "zipf", graph, num_requests=NUM_REQUESTS, seed=WORKLOAD_SEED
    )
    if clock is not None:
        return engine.run(workload, clock=clock, tracer=tracer, profiler=profiler)
    return engine.run(workload, tracer=tracer, profiler=profiler)


def _best_rps(graph, make_tracer, make_profiler):
    """Best wall-clock throughput over REPEATS runs (fresh engine each)."""
    best = 0.0
    report = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        candidate = _serve(graph, tracer=make_tracer(), profiler=make_profiler())
        elapsed = time.perf_counter() - started
        rps = candidate.served / max(elapsed, 1e-9)
        if rps > best:
            best, report = rps, candidate
    return best, report


def test_tracing_overhead_and_determinism(dense_benchmark_graph):
    graph = dense_benchmark_graph

    modes = {
        "plain": (lambda: None, lambda: None),
        "null_tracer": (lambda: NULL_TRACER, lambda: None),
        "traced": (lambda: SpanTracer(), lambda: ProbeProfiler()),
    }
    rps = {}
    reports = {}
    for label, (make_tracer, make_profiler) in modes.items():
        rps[label], reports[label] = _best_rps(graph, make_tracer, make_profiler)

    null_overhead = 1.0 - rps["null_tracer"] / max(rps["plain"], 1e-9)
    traced_overhead = 1.0 - rps["traced"] / max(rps["plain"], 1e-9)

    # ---- observation never changes the answers --------------------------
    for label in ("null_tracer", "traced"):
        assert reports[label].served == reports["plain"].served
        assert reports[label].probe_stats.total == reports["plain"].probe_stats.total, (
            f"{label}: probe accounting diverged from the unobserved run"
        )

    # ---- determinism: two tick-clock runs export identical traces -------
    exports = []
    spans = 0
    for _ in range(2):
        tracer = SpanTracer()
        _serve(graph, tracer=tracer, profiler=ProbeProfiler(), clock=TickClock())
        exports.append(trace_jsonl(tracer))
        spans = len(tracer.finished())
    assert exports[0] == exports[1], (
        "two tick-clock service runs exported different trace bytes"
    )

    rows = [
        {
            "mode": label,
            "requests/s": round(rps[label]),
            "overhead vs plain": (
                "-" if label == "plain"
                else f"{(1.0 - rps[label] / rps['plain']):+.1%}"
            ),
        }
        for label in ("plain", "null_tracer", "traced")
    ]
    print_section(
        "Observability plane: tracing overhead and trace determinism",
        format_table(rows)
        + f"\n\nnull-tracer ceiling: {MAX_TRACE_OVERHEAD:.0%}"
        + f"\ndeterminism: {spans} spans, byte-identical across two runs",
    )

    payload = {
        **payload_header("bench_obs"),
        "max_trace_overhead_allowed": MAX_TRACE_OVERHEAD,
        "requests": NUM_REQUESTS,
        "shards": NUM_SHARDS,
        "batch_size": BATCH_SIZE,
        "throughput_rps": {label: round(value, 1) for label, value in rps.items()},
        "null_tracer_overhead": round(null_overhead, 4),
        "traced_overhead": round(traced_overhead, 4),
        "deterministic_trace_spans": spans,
        "trace_bytes_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert null_overhead <= MAX_TRACE_OVERHEAD, (
        f"disabled observability must cost at most {MAX_TRACE_OVERHEAD:.0%} "
        f"of untraced throughput, measured {null_overhead:+.1%}"
    )
