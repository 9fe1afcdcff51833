"""Service telemetry: per-request latency, throughput, shard/cache health.

Per-request latency is the first-class metric here (the pod-consensus line
of work in PAPERS.md is the model): the engine stamps each request at
admission and at batch completion, and this module reduces the stamped
stream to nearest-rank percentiles — the same floor-based selection that
:mod:`repro.core.probes` uses for probe percentiles, so the repo has exactly
one percentile definition.

A :class:`ServiceReport` is the structured result of one engine run, in the
spirit of :class:`repro.analysis.harness.EvaluationReport`: flat enough to
print with ``format_table`` (:meth:`ServiceReport.as_row`) and complete
enough to serialize next to the benchmark JSON (:meth:`ServiceReport.as_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.probes import ProbeStatistics, nearest_rank_percentile
from .shards import ShardReport

#: Percentiles reported for request latency.
LATENCY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


@dataclass
class LatencyStats:
    """Per-request latency samples (seconds) with nearest-rank percentiles.

    Percentile queries share one lazily maintained sorted view of the
    samples: the first percentile after a batch of :meth:`add` calls sorts
    once, every further quantile (and the whole :meth:`as_dict` summary)
    reuses it.  The old behavior — ``sorted(self.samples_s)`` on *every*
    ``percentile_s`` call — made a k-quantile summary over n samples cost
    k·O(n log n) for no reason; outputs are pinned identical by
    ``tests/test_service_churn.py``.
    """

    samples_s: List[float] = field(default_factory=list)
    _ordered: Optional[List[float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, seconds: float) -> None:
        self.samples_s.append(float(seconds))
        self._ordered = None

    def _sorted_samples(self) -> List[float]:
        ordered = self._ordered
        if ordered is None or len(ordered) != len(self.samples_s):
            # The length re-check also covers callers that append to
            # ``samples_s`` directly instead of going through add().
            ordered = sorted(self.samples_s)
            self._ordered = ordered
        return ordered

    @property
    def count(self) -> int:
        return len(self.samples_s)

    @property
    def mean_s(self) -> float:
        return sum(self.samples_s) / len(self.samples_s) if self.samples_s else 0.0

    @property
    def max_s(self) -> float:
        return max(self.samples_s) if self.samples_s else 0.0

    def percentile_s(self, q: float) -> float:
        return nearest_rank_percentile(self._sorted_samples(), q)

    def as_dict(self) -> Dict[str, float]:
        """Summary in milliseconds (the natural scale for serving)."""
        ordered = self._sorted_samples()
        summary = {
            "count": self.count,
            "mean_ms": round(self.mean_s * 1e3, 4),
            "max_ms": round(self.max_s * 1e3, 4),
        }
        for q in LATENCY_PERCENTILES:
            summary[f"p{q:g}_ms"] = round(nearest_rank_percentile(ordered, q) * 1e3, 4)
        return summary


@dataclass
class ServiceReport:
    """Everything measured about one engine run on one workload."""

    algorithm: str
    workload: str
    num_shards: int
    batch_size: int
    offered: int            # requests the workload produced (reads + writes)
    admitted: int           # reads accepted into the queue (writes are
                            # counted in `mutations`; offered == admitted
                            # + rejected + mutations)
    rejected: int           # reads turned away by admission control
    served: int             # completed reads (== admitted for a drained run)
    in_spanner: int         # YES answers among served requests
    duration_s: float
    batches: int
    max_queue_depth_seen: int
    latency: LatencyStats
    probe_stats: ProbeStatistics
    shard_reports: List[ShardReport] = field(default_factory=list)
    mutations: int = 0              # graph writes applied during the run
    replication: int = 1            # replicas per shard
    #: Fault-plane counters (:meth:`repro.faults.FaultStats.as_dict`) —
    #: populated only for runs with a fault plan configured.
    faults: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.served / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.served / self.batches if self.batches else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def availability(self) -> float:
        """Fraction of offered reads answered by a live oracle.

        Sheds (any reason) and explicit degraded answers both count
        against availability; writes are excluded from the denominator
        (they are never shed — a blocked write waits for recovery).
        """
        reads = self.offered - self.mutations
        if reads <= 0:
            return 1.0
        degraded = self.faults.get("degraded_answers", 0)
        return (self.served - degraded) / reads

    def shard_imbalance(self) -> float:
        """Max/mean request load across shards (1.0 = perfectly balanced)."""
        loads = [report.requests for report in self.shard_reports]
        if not loads or sum(loads) == 0:
            return 0.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 0.0

    def as_row(self) -> Dict[str, object]:
        """One flat table row (for ``format_table``)."""
        latency = self.latency.as_dict()
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "shards": self.num_shards,
            "batch": self.batch_size,
            "served": self.served,
            "rejected": self.rejected,
            "rps": round(self.throughput_rps, 1),
            "p50 ms": latency["p50_ms"],
            "p95 ms": latency["p95_ms"],
            "p99 ms": latency["p99_ms"],
            "probes/req": round(self.probe_stats.mean, 1),
            "hit rate": round(self._overall_hit_rate(), 3),
        }

    def _overall_hit_rate(self) -> float:
        hits = sum(report.cache_hits for report in self.shard_reports)
        lookups = hits + sum(report.cache_misses for report in self.shard_reports)
        return hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Full structured report (for JSON export)."""
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "num_shards": self.num_shards,
            "batch_size": self.batch_size,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "mutations": self.mutations,
            "rejection_rate": round(self.rejection_rate, 4),
            "served": self.served,
            "in_spanner": self.in_spanner,
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput_rps, 1),
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "latency": self.latency.as_dict(),
            "probes": self.probe_stats.as_dict(),
            "shard_imbalance": round(self.shard_imbalance(), 3),
            "shards": [report.as_dict() for report in self.shard_reports],
            **({"replication": self.replication} if self.replication > 1 else {}),
            **(
                {
                    "faults": dict(self.faults),
                    "availability": round(self.availability, 4),
                }
                if self.faults
                else {}
            ),
            **({"extras": dict(self.extras)} if self.extras else {}),
        }
