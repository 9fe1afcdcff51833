"""Service benchmark: sharded + scheduled query serving on open-loop workloads.

Runs the online query service (``repro.service``) on the dense fixture for
three workload kinds (uniform, zipf, adaptive), times the batch-coalesced
engine against the unbatched single-shard baseline, verifies that the served
answers and per-request probe totals are bit-identical to a fresh
single-oracle replay, and writes everything to ``BENCH_service.json`` at the
repository root.

Shape to check: batch coalescing (grouping queued requests by shard and
streaming them through the query-answer memo fast path) must be ≥2× the
unbatched single-shard path on the dense fixture's zipf workload — the
skew-heavy stream a serving system actually sees.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import format_table
from repro.core.registry import create
from repro.service import ServiceConfig, ServiceEngine, make_workload

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Acceptance floor for the headline coalescing speedup (dense fixture,
#: zipf workload).  Measured headroom is ~10% (typical ratios are 2.2-2.5x);
#: the environment override exists for noisy shared CI runners.
MIN_COALESCE_SPEEDUP = float(os.environ.get("BENCH_MIN_COALESCE_SPEEDUP", "2.0"))

#: Requests per workload: enough for the query-answer memo to reach a warm
#: steady state on the ~8k-edge dense fixture.
NUM_REQUESTS = {"uniform": 12000, "zipf": 12000, "adaptive": 8000}

#: The headline coalesced-vs-unbatched comparison runs longer so the warm
#: steady state dominates and the measured ratio is stable (~2.4x at 20k
#: requests vs ~2.2x at 12k, where the cold ramp still dilutes it).
HEADLINE_REQUESTS = 20000

WORKLOAD_SEED = 3


def _run(graph, kind, config, record=False, num_requests=None):
    config.record = record
    workload = make_workload(
        kind,
        graph,
        num_requests=num_requests if num_requests else NUM_REQUESTS[kind],
        seed=WORKLOAD_SEED,
    )
    engine = ServiceEngine(graph, lambda g: create("spanner3", g, seed=5,
                                                   hitting_constant=1.0), config)
    report = engine.run(workload)
    return engine, report


def test_service_workloads_and_coalescing(dense_benchmark_graph):
    graph = dense_benchmark_graph

    # ---- per-workload service rows (sharded, coalesced) ------------------
    rows = []
    records = []
    for kind in ("uniform", "zipf", "adaptive"):
        _, report = _run(
            graph, kind, ServiceConfig(num_shards=4, batch_size=64, routing="hash")
        )
        assert report.served == NUM_REQUESTS[kind]
        assert report.rejected == 0
        rows.append(report.as_row())
        records.append(report.as_dict())

    # ---- headline: coalesced vs unbatched, single shard, zipf ------------
    timings = {}
    for label, config in (
        ("unbatched", ServiceConfig(num_shards=1, batch_size=1, coalesce=False)),
        ("coalesced", ServiceConfig(num_shards=1, batch_size=64, coalesce=True)),
    ):
        _, report = _run(graph, "zipf", config, num_requests=HEADLINE_REQUESTS)
        timings[label] = report
        rows.append(report.as_row())
    speedup = timings["coalesced"].throughput_rps / max(
        timings["unbatched"].throughput_rps, 1e-9
    )

    # ---- equivalence: served answers == fresh single-oracle replay ------
    engine, report = _run(
        graph, "zipf", ServiceConfig(num_shards=4, batch_size=64), record=True
    )
    baseline = create("spanner3", graph, seed=5, hitting_constant=1.0)
    replay = baseline.query_batch([(r.u, r.v) for r in engine.records])
    for record, answer, total in zip(engine.records, replay.answers,
                                     replay.probe_totals):
        assert record.in_spanner == answer, "sharded answer diverged from baseline"
        assert record.probe_total == total, "probe accounting diverged from baseline"

    # ---- overload: admission control sheds load, never errors ------------
    _, overload = _run(
        graph,
        "uniform",
        ServiceConfig(num_shards=2, batch_size=16, arrival_burst=256,
                      max_queue_depth=64),
    )
    assert overload.rejected > 0, "overload run should shed load"
    assert overload.served == overload.admitted
    assert overload.served + overload.rejected == overload.offered

    print_section(
        "Online query service: workloads, sharding, batch coalescing",
        format_table(rows)
        + f"\n\ncoalesced vs unbatched (zipf, 1 shard): {speedup:.2f}x"
        + f"\noverload run: {overload.rejected}/{overload.offered} rejected "
        f"(queue depth {overload.max_queue_depth_seen})",
    )

    payload = {
        **payload_header("bench_service"),
        "min_coalesce_speedup_required": MIN_COALESCE_SPEEDUP,
        "coalesce_speedup_zipf": round(speedup, 2),
        "workloads": records,
        "headline": {
            "unbatched": timings["unbatched"].as_dict(),
            "coalesced": timings["coalesced"].as_dict(),
        },
        "overload": overload.as_dict(),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= MIN_COALESCE_SPEEDUP, (
        "batch coalescing must be at least "
        f"{MIN_COALESCE_SPEEDUP}x faster than the unbatched single-shard "
        f"path on the dense zipf workload, measured {speedup:.2f}x"
    )
