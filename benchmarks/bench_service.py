"""Service benchmark: sharded + scheduled query serving on open-loop workloads.

Runs the online query service (``repro.service``) on the dense fixture for
three workload kinds (uniform, zipf, adaptive), verifies that the served
answers and per-request probe totals are bit-identical to a fresh
single-oracle replay, checks that an overloaded ingress sheds load instead
of failing, and writes everything to ``BENCH_service.json`` at the
repository root.

No timing floor is asserted here: ``perfbench``'s ``serve-zipf`` workload
bounds the service's end-to-end throughput.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import format_table
from repro.core.registry import create
from repro.service import ServiceConfig, ServiceEngine, make_workload

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Requests per workload: enough for the query-answer memo to reach a warm
#: steady state on the ~8k-edge dense fixture.
NUM_REQUESTS = {"uniform": 12000, "zipf": 12000, "adaptive": 8000}

WORKLOAD_SEED = 3


def _run(graph, kind, config, record=False):
    config.record = record
    workload = make_workload(
        kind, graph, num_requests=NUM_REQUESTS[kind], seed=WORKLOAD_SEED
    )
    engine = ServiceEngine(graph, lambda g: create("spanner3", g, seed=5,
                                                   hitting_constant=1.0), config)
    report = engine.run(workload)
    return engine, report


def test_service_workloads(dense_benchmark_graph):
    graph = dense_benchmark_graph

    # ---- per-workload service rows (4 shards, batches of 64) -------------
    rows = []
    records = []
    for kind in ("uniform", "zipf", "adaptive"):
        _, report = _run(graph, kind, ServiceConfig(num_shards=4, batch_size=64))
        assert report.served == NUM_REQUESTS[kind]
        assert report.rejected == 0
        rows.append(report.as_row())
        records.append(report.as_dict())

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
        "Online query service: workloads, sharding, load shedding",
        format_table(rows)
        + f"\n\noverload run: {overload.rejected}/{overload.offered} rejected "
        f"(queue depth {overload.max_queue_depth_seen})",
    )

    payload = {
        **payload_header("bench_service", floor_enforced=False),
        "workloads": records,
        "overload": overload.as_dict(),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
