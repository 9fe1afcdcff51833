"""Unified observability plane: deterministic tracing, metrics, attribution.

Telemetry in this repository used to be fragmented — latency percentiles in
:mod:`repro.service.metrics`, probe counts in :mod:`repro.core.probes`,
availability in :class:`repro.faults.FaultStats` — with nothing connecting a
slow percentile to the probe storm or failover that caused it.  This package
is the connective tissue, in three parts:

* :mod:`repro.obs.tracer` — a **deterministic structured tracer**:
  hierarchical spans stamped with an internal monotone tick counter (never
  the engine's injected clock, so enabling tracing cannot perturb measured
  latencies), collected in a bounded ring buffer.  Tracing is off when
  the tracer is ``None``; every instrumentation site guards on
  ``tracer is not None`` so the off path costs one comparison.
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` export (load
  the latter in Perfetto / ``chrome://tracing``), plus readers and a span
  summarizer.  Same run ⇒ byte-identical exports on any host.
* :mod:`repro.obs.metrics` — a **unified metrics registry**: counters,
  gauges and histograms under one dotted naming scheme
  (``service.* / cache.* / probes.* / executor.* / faults.*``), snapshotable
  as a single versioned JSON artifact.
* :mod:`repro.obs.profiler` — a **probe-attribution profiler**: per-phase
  probe breakdowns (``bfs`` / ``voronoi`` / ``neighbor-scan``) and per-call
  cache outcomes (``cold`` / ``memo-hit`` / ``epoch-invalidated``), rendered
  as flame-style tables in the Markdown reports.

See ``docs/observability.md`` for the span model, the metric naming scheme
and the Perfetto how-to.
"""

from .export import (
    TRACE_SCHEMA,
    chrome_trace,
    read_trace_jsonl,
    span_records,
    summarize_spans,
    trace_jsonl,
    write_chrome_trace,
    write_trace_jsonl,
)
from .metrics import METRICS_SCHEMA, MetricsRegistry, collect_run_metrics
from .profiler import CACHE_OUTCOMES, PROBE_PHASES, ProbeProfiler
from .tracer import Span, SpanTracer

__all__ = [
    "Span",
    "SpanTracer",
    "TRACE_SCHEMA",
    "span_records",
    "trace_jsonl",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "summarize_spans",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "collect_run_metrics",
    "ProbeProfiler",
    "PROBE_PHASES",
    "CACHE_OUTCOMES",
]
