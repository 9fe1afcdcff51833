"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --write-spec`` regenerates it).  It imports
nothing from the library, so the spec can be written and checked without a
working program.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Metric names and units as BENCHMARK.json allows them.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Directory, relative to the checkout root, for traces and steadiness
#: reports (ignored by git).
OUT_DIR = ".perfbench"

#: Seconds one run measures (the timed phases of its rounds add up to this,
#: or more where three rounds take longer).  With set-ups, calibration and
#: checks a run takes 18-41 s on a 2-vCPU host, and comparing two commits
#: (22 runs of each workload) must take under an hour.
RUN_SECONDS = 12

#: Default seeds: the graph, the LCA's random tape, and the workload stream.
GRAPH_SEED = 101
LCA_SEED = 5
WORKLOAD_SEED = 3
#: Workload seed held out for confirming a claimed gain: do not use it while
#: writing or tuning a change, only to check the claim afterwards.
HELD_OUT_SEED = 29


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    definition: str
    #: Share of the parent's median by which an end-to-end metric may worsen.
    bound: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: List[Workload] = [
    Workload(
        "materialize",
        "whole-graph numpy materializer over all 89,920 edges of G_dense; "
        "kernel and exec changes show here, service, memo and write path are bypassed",
    ),
    Workload(
        "query-cold",
        "query_batch over every G_dense edge once on a fresh LCA: all answer-memo "
        "misses, so the per-query decide path and kernel scans dominate",
    ),
    Workload(
        "serve-zipf",
        "4-shard closed-loop service on G_dense with zipf 1.5 traffic: mostly "
        "answer-memo hits, so scheduler, routing and memo replay dominate",
    ),
    Workload(
        "serve-churn",
        "4-shard service on G_churn with every 20th request a write: delta overlay, "
        "epoch invalidation and per-write kernel table rebuilds dominate",
    ),
]

#: Every timing below is scaled to the reference host speed (see
#: ``perfbench/workloads.py``): multiplied by the reference calibration block
#: time over the run's median block time.
END_TO_END: List[Metric] = [
    Metric(
        "setup_s", "s", "lower",
        "median over a run's rounds (at least three, each set up from scratch) of "
        "everything before a round's first timed operation: graph build, "
        "LCA/engine construction and warm-up; host-scaled",
        bound=0.25,
    ),
    Metric(
        "throughput_ops", "ops/s", "higher",
        "operations of one round over its timed phase, taken as the sum of each "
        "segment's median over rounds: edges decided (materialize, query-cold), "
        "reads served plus writes applied (serve-*); host-scaled",
        bound=0.25,
    ),
    Metric(
        "latency_p50_ms", "ms", "lower",
        "median over a round's requests of each request's median latency over "
        "rounds: completion minus admission (serve-*), one 32-edge query_batch "
        "call (query-cold), the one whole materialize call (materialize); host-scaled",
        bound=0.25,
    ),
    Metric(
        "latency_p90_ms", "ms", "lower",
        "90th percentile of the same per-request medians (equal to p50 on "
        "materialize, whose round is one call)",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "ru_maxrss of the workload's process at the end of its timed rounds",
        bound=0.15,
    ),
    # The three exact metrics repeat exactly at one seed.  Their bounds are
    # about three times their widest spread across ten workload seeds (on
    # serve-churn for probes_per_query, serve-zipf for the other two).  A
    # run at the default graph and LCA seeds pins |H| on materialize and
    # query-cold and the probe ledger on materialize.
    Metric(
        "probes_per_query", "probes", "lower",
        "mean probes charged per query in one round (exact count)",
        bound=0.1,
    ),
    Metric(
        "probes_max", "probes", "lower",
        "largest per-query probe charge in one round (exact count)",
        bound=0.2,
    ),
    Metric(
        "spanner_frac", "ratio", "lower",
        "|H|/m on materialize, the share of YES answers elsewhere (exact)",
        bound=0.01,
    ),
    Metric(
        "ok_frac", "ratio", "higher",
        "1 - failed/attempted: a failure is an exception, a shed or degraded "
        "request, or an answer or probe total the cold reference rejects",
        bound=0.001,
    ),
]

_S = "s"
_N = "count"
PER_LAYER: List[Metric] = [
    Metric("graphs.build_s", _S, "lower", "build_family self time per round"),
    Metric("graphs.mutations", _N, "lower", "OracleShard.apply_mutation calls per round"),
    Metric("graphs.mutate_s", _S, "lower", "OracleShard.apply_mutation self time per round"),
    Metric("graphs.compactions", _N, "lower", "CSRGraph.compact calls per round"),
    Metric("graphs.compact_s", _S, "lower", "CSRGraph.compact self time per round"),
    Metric("kernels.view_builds", _N, "lower", "build_view calls per round"),
    Metric("kernels.view_s", _S, "lower", "build_view self time per round"),
    Metric("kernels.table_builds", _N, "lower", "prefix and scan table builds per round"),
    Metric("kernels.table_s", _S, "lower", "prefix and scan table build self time per round"),
    Metric("kernels.materialize_s", _S, "lower", "NumpyKernel.materialize_spanner3 self time"),
    Metric("kernels.scan_calls", _N, "lower", "NumpyKernel.scan_profile calls per round"),
    Metric("kernels.scan_s", _S, "lower", "NumpyKernel.scan_profile self time per round"),
    Metric("core.query_s", _S, "lower", "SpannerLCA.query_batch minus kernel spans"),
    Metric("core.materialize_s", _S, "lower", "SpannerLCA.materialize minus kernel spans"),
    Metric("core.answer_hits", _N, "higher", "timed answer-memo hits (ProbeProfiler)"),
    Metric("core.answer_cold", _N, "lower", "timed answer-memo cold misses"),
    Metric("core.answer_invalidated", _N, "lower", "timed epoch-invalidated answer misses"),
    Metric("core.answer_hit_frac", "ratio", "higher", "hits / memoized answer calls"),
    Metric("core.memo_hit_rate", "ratio", "higher", "cache hits / lookups in the timed phase"),
    Metric("core.probes.neighbor", "probes", "lower", "timed neighbor probes (exact)"),
    Metric("core.probes.degree", "probes", "lower", "timed degree probes (exact)"),
    Metric("core.probes.adjacency", "probes", "lower", "timed adjacency probes (exact)"),
    Metric("spanner3.scan_calls", _N, "lower", "neighbor-scan phase entries (ProbeProfiler)"),
    Metric("spanner3.scan_probes", "probes", "lower", "probes charged in neighbor-scan"),
    Metric("spanner3.edges_high", _N, "lower", "queried edges of class high"),
    Metric("spanner3.edges_super", _N, "lower", "queried edges of class super"),
    Metric("service.run_s", _S, "lower", "ServiceEngine.run span time per round"),
    Metric("service.self_s", _S, "lower", "ServiceEngine.run minus the shard calls inside it"),
    Metric("service.batches", _N, "lower", "ServiceReport.batches"),
    Metric("service.mean_batch_size", "requests", "higher", "ServiceReport.mean_batch_size"),
    Metric("service.max_queue_depth", "requests", "lower", "ServiceReport max queue depth"),
    Metric("service.shed", _N, "lower", "ServiceReport.rejected"),
    Metric("service.shard_imbalance", "ratio", "lower", "ServiceReport.shard_imbalance()"),
    Metric("obs.trace_overhead_frac", "ratio", "lower",
           "1 - traced / untraced median throughput in the same process"),
    Metric("obs.self_coverage_frac", "ratio", "higher",
           "least share of a traced round's timed wall time covered by layer self times"),
]


def workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
