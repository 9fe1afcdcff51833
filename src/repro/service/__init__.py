"""Online query serving: sharded oracle pool, request scheduler, workloads.

This package treats each ``(u, v) ∈ spanner?`` question as a *request* in an
open-loop stream rather than an iteration of an offline materialization
loop — the regime the LCA model is actually designed for ("we never
construct the full, global spanner at any point").  It consists of:

* :mod:`repro.service.shards` — ``N`` independent cached-oracle shards
  behind a hash vertex router (memo state is partitioned, answers are
  provably identical to a single oracle);
* :mod:`repro.service.engine` — a bounded-queue scheduler with admission
  control that splits every dispatched batch by shard and serves each group
  through the streaming query path;
* :mod:`repro.service.workload` — uniform / Zipf / adaptive / trace-replay
  request generators (the scenario axis);
* :mod:`repro.service.trace` — JSONL request-trace recording and replay;
* :mod:`repro.service.metrics` — per-request latency percentiles,
  throughput, per-shard probe counts and cache hit rates.

Quickstart
----------
>>> from repro import graphs, service
>>> from repro.core.registry import create
>>> graph = graphs.gnp_graph(200, 0.1, seed=1)
>>> workload = service.make_workload("zipf", graph, num_requests=500, seed=2)
>>> config = service.ServiceConfig(num_shards=4, batch_size=32)
>>> report = service.serve_workload(
...     graph, lambda g: create("spanner3", g, seed=7), workload, config)
>>> report.served
500
"""

from .engine import (
    DEGRADED_MODES,
    SHED_REASONS,
    RequestRecord,
    ServiceConfig,
    ServiceEngine,
    serve_workload,
)
from .metrics import LATENCY_PERCENTILES, LatencyStats, ServiceReport
from .shards import (
    OracleShard,
    ReplicaSet,
    ShardReport,
    ShardRouter,
    ShardedOraclePool,
)
from .trace import (
    MUTATION_OPS,
    TRACE_OPS,
    TraceOp,
    as_trace_op,
    iter_trace_ops,
    read_trace_ops,
    write_trace,
)
from .workload import (
    WORKLOAD_KINDS,
    AdaptiveWorkload,
    ChurnWorkload,
    TraceWorkload,
    UniformWorkload,
    Workload,
    ZipfWorkload,
    make_workload,
)

__all__ = [
    "ServiceConfig",
    "ServiceEngine",
    "RequestRecord",
    "serve_workload",
    "ServiceReport",
    "LatencyStats",
    "LATENCY_PERCENTILES",
    "ShardRouter",
    "ShardReport",
    "ShardedOraclePool",
    "OracleShard",
    "ReplicaSet",
    "DEGRADED_MODES",
    "SHED_REASONS",
    "Workload",
    "UniformWorkload",
    "ZipfWorkload",
    "AdaptiveWorkload",
    "ChurnWorkload",
    "TraceWorkload",
    "WORKLOAD_KINDS",
    "make_workload",
    "write_trace",
    "TraceOp",
    "TRACE_OPS",
    "MUTATION_OPS",
    "as_trace_op",
    "read_trace_ops",
    "iter_trace_ops",
]
