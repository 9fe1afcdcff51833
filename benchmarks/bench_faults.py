"""Fault-tolerance benchmark: availability under a crash storm.

Runs the online service on the dense fixture through a seeded crash storm
(``FaultPlan.generate``) three times — fault-free, storm with replication
off, storm with per-shard replica sets — on the deterministic tick clock,
and writes everything to ``BENCH_faults.json`` at the repository root.

Shapes to check:

* **Replication rescues availability.**  With ``replication=2`` the same
  storm that degrades the unreplicated pool is absorbed by failover:
  availability (non-degraded answers per read offered) must stay at or
  above :data:`MIN_AVAILABILITY` (default 99%).  The unreplicated run is
  the *documented degraded baseline* — its availability is recorded in the
  JSON so the gap is visible, and it must sit strictly below the
  replicated run's.
* **Failover changes no answer.**  The replicated storm run's request log
  (answers and per-request probe totals) is bit-identical to the
  fault-free run — LCA purity plus cold-schedule probe accounting make
  promoted replicas indistinguishable from the primaries they replace.
* **The latency tail pays, correctness doesn't.**  Retries, backoff and
  slow batches show up in the storm run's virtual-time p99; the JSON
  records p99 for all three runs so the tail cost of the fault plane is
  tracked next to the availability it buys.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import format_table
from repro.core.registry import create
from repro.faults import FaultPlan
from repro.reports import TickClock
from repro.service import ServiceConfig, ServiceEngine, make_workload

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_faults.json"

#: Acceptance floor for served (non-degraded) availability under the crash
#: storm with replication on.  The unreplicated baseline on the same storm
#: lands well below it (typically 0.90-0.96); override for experiments.
MIN_AVAILABILITY = float(os.environ.get("BENCH_MIN_AVAILABILITY", "0.99"))

NUM_REQUESTS = 8000
NUM_SHARDS = 4
BATCH_SIZE = 32
WORKLOAD_SEED = 3

#: The storm: seeded replica crashes across the whole run.  Generated with
#: ``replication=2`` so victims span both replica slots; the unreplicated
#: run folds every victim onto its only replica (crash == shard loss).
STORM = dict(
    seed=29,
    num_shards=NUM_SHARDS,
    replication=2,
    horizon=220,
    crashes=24,
    duration=4,
)


def _run(graph, replication, fault_plan, record=False):
    config = ServiceConfig(
        num_shards=NUM_SHARDS,
        batch_size=BATCH_SIZE,
        replication=replication,
        fault_plan=fault_plan,
        record=record,
    )
    engine = ServiceEngine(
        graph,
        lambda g: create("spanner3", g, seed=5, hitting_constant=1.0),
        config,
    )
    workload = make_workload(
        "uniform", graph, num_requests=NUM_REQUESTS, seed=WORKLOAD_SEED
    )
    report = engine.run(workload, clock=TickClock())
    return engine, report


def test_availability_under_crash_storm(dense_benchmark_graph):
    graph = dense_benchmark_graph
    storm = FaultPlan.generate(**STORM)

    fault_free_engine, fault_free = _run(graph, 2, None, record=True)
    _, degraded = _run(graph, 1, storm)
    storm_engine, replicated = _run(graph, 2, storm, record=True)

    # ---- failover is answer- and probe-invisible -------------------------
    # Requests flagged degraded (a window where a crash overlapped on both
    # replicas of one shard) are excluded: they were *not* served by an
    # oracle, by design.  Every request that was served must match the
    # fault-free run bit for bit.
    baseline_by_seq = {r.seq: r for r in fault_free_engine.records}
    compared = 0
    for record in storm_engine.records:
        if record.degraded:
            continue
        baseline = baseline_by_seq[record.seq]
        assert (record.u, record.v) == (baseline.u, baseline.v)
        assert record.in_spanner == baseline.in_spanner, (
            f"failover changed the answer of request {record.seq}"
        )
        assert record.probe_total == baseline.probe_total, (
            f"failover changed the probe total of request {record.seq}"
        )
        compared += 1
    assert compared >= MIN_AVAILABILITY * len(storm_engine.records)

    # ---- availability ----------------------------------------------------
    assert fault_free.availability == 1.0
    assert replicated.faults["failovers"] > 0, "the storm never hit a primary"
    assert degraded.faults["degraded_answers"] > 0, (
        "the storm was too gentle to degrade the unreplicated baseline"
    )
    assert degraded.availability < replicated.availability

    rows = []
    for label, report in (
        ("fault-free", fault_free),
        ("storm, replication=1", degraded),
        ("storm, replication=2", replicated),
    ):
        latency = report.latency.as_dict()
        rows.append(
            {
                "run": label,
                "served": report.served,
                "degraded": report.faults.get("degraded_answers", 0),
                "failovers": report.faults.get("failovers", 0),
                "retries": report.faults.get("retries", 0),
                "availability": round(report.availability, 4),
                "p99 ms": latency["p99_ms"],
            }
        )

    print_section(
        "Fault tolerance: availability and tail latency under a crash storm",
        format_table(rows)
        + f"\n\nacceptance floor (replication=2): {MIN_AVAILABILITY}",
    )

    payload = {
        **payload_header("bench_faults"),
        "min_availability_required": MIN_AVAILABILITY,
        "storm": STORM,
        "availability": {
            "fault_free": round(fault_free.availability, 4),
            "storm_replication_1": round(degraded.availability, 4),
            "storm_replication_2": round(replicated.availability, 4),
        },
        "runs": {
            "fault_free": fault_free.as_dict(),
            "storm_replication_1": degraded.as_dict(),
            "storm_replication_2": replicated.as_dict(),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert replicated.availability >= MIN_AVAILABILITY, (
        f"replicated availability under the crash storm must stay >= "
        f"{MIN_AVAILABILITY}, measured {replicated.availability:.4f} "
        f"(unreplicated baseline: {degraded.availability:.4f})"
    )
