"""Unified metrics registry: one naming scheme, one versioned snapshot.

Every plane used to report its numbers in its own shape — the service in a
:class:`~repro.service.metrics.ServiceReport`, probe accounting in
:class:`~repro.core.probes.ProbeStatistics`, the fault plane in
:class:`~repro.faults.FaultStats`.  The registry gives them one home: flat
dotted names (``plane.subsystem.metric``, e.g. ``service.requests.served``,
``cache.lookups.hits``, ``probes.kind.neighbor``, ``executor.queue.max_depth``,
``faults.crashes``) over three instrument types:

* **counter** — a monotone event count (``service.requests.served``);
* **gauge** — a last-written value (``service.throughput.rps``);
* **histogram** — an observed distribution, snapshotted as
  count/mean/max/p50/p95 via the repo's single nearest-rank percentile.

:meth:`MetricsRegistry.snapshot` reduces everything to one versioned,
sorted, JSON-serializable artifact; :func:`collect_run_metrics` populates a
registry from a finished service run (report + optional profiler), which is
how the runner and ``repro serve-bench --metrics-out`` produce the one
snapshot that covers service, cache, probe, executor and fault metrics.
The naming scheme is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import re
from typing import Dict, List

from ..core.probes import PROBE_KINDS, nearest_rank_percentile

#: Version stamped into every snapshot document.
METRICS_SCHEMA = 1

#: Instrument types a registry entry may have.
METRIC_TYPES = ("counter", "gauge", "histogram")

#: ``plane.subsystem.metric``: lowercase dotted segments, two or more.
#: Public so the MET001 lint rule validates literals against the *same*
#: compiled grammar the registry enforces at runtime (they cannot drift).
METRIC_NAME_PATTERN = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_NAME_PATTERN = METRIC_NAME_PATTERN


class MetricsRegistry:
    """Counters, gauges and histograms under one dotted namespace."""

    def __init__(self) -> None:
        self._types: Dict[str, str] = {}
        self._values: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    def _register(self, name: str, metric_type: str) -> str:
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"metric name {name!r} must be dotted lowercase segments "
                "(plane.subsystem.metric)"
            )
        known = self._types.get(name)
        if known is None:
            self._types[name] = metric_type
        elif known != metric_type:
            raise ValueError(
                f"metric {name!r} is already registered as a {known}, "
                f"not a {metric_type}"
            )
        return name

    # -- instruments -------------------------------------------------------
    def counter(self, name: str, amount: int = 1) -> None:
        """Increment a monotone counter (created at zero on first use)."""
        self._register(name, "counter")
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (amount {amount})")
        self._values[name] = self._values.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self._register(name, "gauge")
        self._values[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram."""
        self._register(name, "histogram")
        self._histograms.setdefault(name, []).append(float(value))

    def value(self, name: str):
        """The current value of a counter/gauge (histograms: sample list)."""
        metric_type = self._types.get(name)
        if metric_type is None:
            raise KeyError(f"no metric named {name!r}")
        if metric_type == "histogram":
            return list(self._histograms[name])
        return self._values[name]

    def names(self) -> List[str]:
        return sorted(self._types)

    # -- snapshot ----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One versioned, sorted, JSON-serializable artifact."""
        metrics: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._types):
            metric_type = self._types[name]
            if metric_type == "histogram":
                ordered = sorted(self._histograms[name])
                count = len(ordered)
                metrics[name] = {
                    "type": "histogram",
                    "count": count,
                    "mean": round(sum(ordered) / count, 6) if count else 0.0,
                    "max": ordered[-1] if ordered else 0,
                    "p50": nearest_rank_percentile(ordered, 50),
                    "p95": nearest_rank_percentile(ordered, 95),
                }
            else:
                value = self._values[name]
                if isinstance(value, float):
                    value = round(value, 6)
                metrics[name] = {"type": metric_type, "value": value}
        return {"schema": METRICS_SCHEMA, "metrics": metrics}


def collect_run_metrics(report, profiler=None) -> MetricsRegistry:
    """Populate a registry from a finished service run.

    ``report`` is a :class:`~repro.service.metrics.ServiceReport`;
    ``profiler`` an optional :class:`~repro.obs.profiler.ProbeProfiler`
    merged over the run's replicas.  Population happens once, after the
    run — the hot path pays nothing for metrics collection, and the
    snapshot is a pure function of the (deterministic) report.
    """
    registry = MetricsRegistry()

    # service.* — request ledger, latency, throughput.
    registry.counter("service.requests.offered", report.offered)
    registry.counter("service.requests.admitted", report.admitted)
    registry.counter("service.requests.rejected", report.rejected)
    registry.counter("service.requests.served", report.served)
    registry.counter("service.requests.in_spanner", report.in_spanner)
    registry.counter("service.requests.mutations", report.mutations)
    registry.counter("service.batches.completed", report.batches)
    registry.gauge("service.batches.mean_size", round(report.mean_batch_size, 4))
    registry.gauge("service.throughput.rps", round(report.throughput_rps, 4))
    for key, value in report.latency.as_dict().items():
        if key == "count":
            registry.counter("service.latency.count", value)
        else:
            registry.gauge(f"service.latency.{key}", value)

    # cache.* / probes.* — summed over the pool's shard telemetry.
    hits = sum(shard.cache_hits for shard in report.shard_reports)
    misses = sum(shard.cache_misses for shard in report.shard_reports)
    registry.counter("cache.lookups.hits", hits)
    registry.counter("cache.lookups.misses", misses)
    lookups = hits + misses
    registry.gauge("cache.hit_rate", round(hits / lookups, 6) if lookups else 0.0)
    per_kind = {kind: 0 for kind in PROBE_KINDS}
    for shard in report.shard_reports:
        per_kind["neighbor"] += shard.probes.neighbor
        per_kind["degree"] += shard.probes.degree
        per_kind["adjacency"] += shard.probes.adjacency
    for kind in PROBE_KINDS:
        registry.counter(f"probes.kind.{kind}", per_kind[kind])
    registry.counter("probes.total", report.probe_stats.total)
    registry.gauge("probes.per_query.mean", round(report.probe_stats.mean, 4))
    registry.gauge("probes.per_query.max", report.probe_stats.max)

    # executor.* — scheduler shape of the run.
    registry.gauge("executor.shards", report.num_shards)
    registry.gauge("executor.replication", report.replication)
    registry.gauge("executor.queue.max_depth", report.max_queue_depth_seen)
    registry.counter("executor.retries", report.faults.get("retries", 0))
    registry.counter("executor.timeouts", report.faults.get("timeouts", 0))

    # faults.* — the injector's ledger (zeros when no plan ran).
    for key, value in sorted(report.faults.items()):
        registry.counter(f"faults.{key}", value)
    registry.gauge("faults.availability", round(report.availability, 6))

    # cache.invalidations / attribution, when a profiler rode along.
    if profiler is not None:
        registry.counter("cache.invalidations.epoch", profiler.invalidations)
        for outcome, calls in sorted(profiler.outcome_calls.items()):
            slug = outcome.replace("-", "_")
            registry.counter(f"cache.outcome.{slug}.calls", calls)
            registry.counter(
                f"cache.outcome.{slug}.probes", profiler.outcome_probes[outcome]
            )
        for label, kinds in sorted(profiler.phase_kinds.items()):
            slug = label.replace("-", "_")
            registry.counter(f"probes.phase.{slug}", sum(kinds.values()))
    return registry
