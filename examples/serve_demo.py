#!/usr/bin/env python3
"""Serve spanner queries online: shards, batching, workloads, traces.

The script stands up the online query service on a random graph and walks
through the serving story end to end:

1. a **zipf** workload (hot-vertex-heavy, like real query logs) served by a
   4-shard pool with batch coalescing — the production configuration;
2. the same stream through a single-shard baseline with batches of one —
   same answers, same per-request probe totals;
3. an **adaptive** workload whose requests follow earlier answers (clients
   walking the spanner), recorded to a JSONL trace;
4. a bit-exact **trace replay** of that recording — the regression workhorse.

Run:  python examples/serve_demo.py [n] [density] [requests]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import ServiceConfig, ServiceEngine, format_table, graphs, make_workload
from repro.core.registry import create
from repro.service import write_trace


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 300
    density = float(argv[2]) if len(argv) > 2 else 0.08
    requests = int(argv[3]) if len(argv) > 3 else 2000
    seed = 7

    print(f"Building G(n={n}, p={density}) ...")
    graph = graphs.gnp_graph(n, density, seed=seed)
    print(f"  {graph}")

    def factory(g):
        return create("spanner3", g, seed=seed)

    rows = []

    # Warm-up, untimed: every LCA on the graph reads one shared set of kernel
    # tables, so build it here rather than inside the first run's batches,
    # which would then time a cold start instead of its configuration.
    factory(graph).materialize(mode="batched")

    # 1. Production-shaped: 4 hash-routed shards, coalesced batches.
    workload = make_workload("zipf", graph, num_requests=requests, seed=1)
    engine = ServiceEngine(
        graph, factory, ServiceConfig(num_shards=4, batch_size=32)
    )
    report = engine.run(workload)
    rows.append(report.as_row())

    # 2. Baseline: one shard, batches of one — identical answers.
    workload = make_workload("zipf", graph, num_requests=requests, seed=1)
    baseline_engine = ServiceEngine(
        graph, factory, ServiceConfig(num_shards=1, batch_size=1)
    )
    baseline = baseline_engine.run(workload)
    rows.append(baseline.as_row())
    mismatches = sum(
        1
        for a, b in zip(engine.records, baseline_engine.records)
        if (a.u, a.v, a.in_spanner, a.probe_total)
        != (b.u, b.v, b.in_spanner, b.probe_total)
    )
    print(
        f"\nsharded+coalesced vs single-oracle baseline: "
        f"{mismatches} mismatches across {len(engine.records)} requests "
        f"(answers and probe totals are bit-identical)"
    )

    # 3. Adaptive workload, recorded to a trace.
    workload = make_workload("adaptive", graph, num_requests=requests // 2, seed=2)
    engine = ServiceEngine(graph, factory, ServiceConfig(num_shards=2, batch_size=16))
    report = engine.run(workload)
    rows.append(report.as_row())
    trace_path = Path(tempfile.gettempdir()) / "serve_demo_trace.jsonl"
    write_trace(trace_path, [(r.u, r.v) for r in engine.records])
    adaptive_records = list(engine.records)

    # 4. Bit-exact replay of the recorded stream.
    workload = make_workload("trace", graph, path=str(trace_path))
    engine = ServiceEngine(graph, factory, ServiceConfig(num_shards=3, batch_size=64))
    report = engine.run(workload)
    rows.append(report.as_row())
    replay_ok = all(
        (a.u, a.v, a.in_spanner, a.probe_total)
        == (b.u, b.v, b.in_spanner, b.probe_total)
        for a, b in zip(adaptive_records, engine.records)
    )
    print(f"trace replay ({trace_path}): bit-identical = {replay_ok}")

    print()
    print(format_table(rows, title="Service runs"))
    return 0 if replay_ok and mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
