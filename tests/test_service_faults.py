"""Fault-tolerant serving: failover equivalence, write barriers, chaos runs.

The headline contract under test: because every LCA answer is a pure
function of ``(graph, seed, query)`` and probe accounting is cold-schedule
(independent of cache warmth), a replica promoted mid-workload serves
**bit-identical** answers and probe totals to the fault-free run — failover
is invisible to correctness, visible only in the fault counters and the
latency tail.  Writes are never lost: a write whose shard is fully down
blocks behind the recovery barrier until the injector's scheduled recovery
releases it.

Each engine gets a *fresh* graph: mutating workloads change the graph in
place, so sharing one graph across runs would compare different inputs.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.registry import create
from repro.faults import FaultEvent, FaultPlan
from repro.reports import TickClock
from repro.service import (
    OracleShard,
    ReplicaSet,
    ServiceConfig,
    ServiceEngine,
    TraceOp,
    make_workload,
)
from repro.service.engine import backoff_ticks


def fresh_graph():
    return graphs.gnp_graph(80, 0.15, seed=3)


def _factory(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


def run_engine(config, *, workload_kind="uniform", requests=300, **workload_options):
    graph = fresh_graph()
    workload = make_workload(
        workload_kind, graph, num_requests=requests, seed=11, **workload_options
    )
    engine = ServiceEngine(graph, _factory, config)
    report = engine.run(workload, clock=TickClock())
    return graph, engine, report


def answer_log(engine):
    """The correctness-relevant projection of the request log."""
    return [
        (r.seq, r.u, r.v, r.in_spanner, r.probe_total) for r in engine.records
    ]


def assert_ledger(report):
    assert report.admitted + report.rejected + report.mutations == report.offered
    assert report.served == report.admitted


# --------------------------------------------------------------------------- #
# Fault-free paths are unchanged
# --------------------------------------------------------------------------- #
def test_replication_is_invisible_without_faults():
    _, plain, base = run_engine(ServiceConfig(num_shards=2, batch_size=8))
    _, replicated, rep = run_engine(
        ServiceConfig(num_shards=2, batch_size=8, replication=3)
    )
    assert answer_log(plain) == answer_log(replicated)
    assert [r.latency_s for r in plain.records] == [
        r.latency_s for r in replicated.records
    ]
    assert not base.faults and not rep.faults
    assert base.availability == rep.availability == 1.0
    assert rep.as_dict()["replication"] == 3


def test_empty_fault_plan_runs_the_fault_machinery_harmlessly():
    _, plain, _ = run_engine(ServiceConfig(num_shards=2, batch_size=8))
    _, faulted, report = run_engine(
        ServiceConfig(num_shards=2, batch_size=8, fault_plan=FaultPlan())
    )
    assert answer_log(plain) == answer_log(faulted)
    assert report.faults["crashes"] == 0
    assert report.availability == 1.0


# --------------------------------------------------------------------------- #
# Failover
# --------------------------------------------------------------------------- #
def test_failover_serves_bit_identical_answers_and_probes():
    _, baseline, _ = run_engine(ServiceConfig(num_shards=2, batch_size=8))
    # Kill every primary mid-workload, for most of the run.
    plan = FaultPlan(
        events=(
            FaultEvent(at=2, kind="crash", shard=0, replica=0, duration=40),
            FaultEvent(at=3, kind="crash", shard=1, replica=0, duration=40),
        )
    )
    _, failed_over, report = run_engine(
        ServiceConfig(num_shards=2, batch_size=8, replication=2, fault_plan=plan)
    )
    assert report.faults["failovers"] == 2
    assert report.faults["degraded_answers"] == 0
    assert answer_log(baseline) == answer_log(failed_over)
    assert report.availability == 1.0
    assert_ledger(report)


def test_failover_is_sticky_after_the_old_primary_rejoins():
    plan = FaultPlan(
        events=(FaultEvent(at=1, kind="crash", shard=0, replica=0, duration=2),)
    )
    _, baseline, _ = run_engine(ServiceConfig(num_shards=1, batch_size=4))
    _, engine, report = run_engine(
        ServiceConfig(num_shards=1, batch_size=4, replication=2, fault_plan=plan)
    )
    # One failover, one recovery — and no flap back to replica 0.
    assert report.faults["failovers"] == 1
    assert report.faults["recoveries"] == 1
    assert answer_log(baseline) == answer_log(engine)


# --------------------------------------------------------------------------- #
# Degradation (all replicas down)
# --------------------------------------------------------------------------- #
def _loss_plan(duration=4):
    return FaultPlan(
        events=(FaultEvent(at=1, kind="shard_loss", shard=0, duration=duration),)
    )


def test_degraded_answer_mode_flags_requests_explicitly():
    _, engine, report = run_engine(
        ServiceConfig(num_shards=1, batch_size=8, fault_plan=_loss_plan())
    )
    degraded = [r for r in engine.records if r.degraded]
    assert degraded and report.faults["degraded_answers"] == len(degraded)
    assert all(not r.in_spanner and r.probe_total == 0 for r in degraded)
    assert report.availability < 1.0
    assert report.as_dict()["availability"] == round(report.availability, 4)
    assert_ledger(report)


def test_degraded_shed_mode_uses_a_distinct_reason_code():
    _, _, report = run_engine(
        ServiceConfig(
            num_shards=1, batch_size=8, fault_plan=_loss_plan(), degraded_mode="shed"
        )
    )
    reasons = report.extras["shed_reasons"]
    assert reasons["degraded"] > 0
    assert reasons["overload"] == 0
    assert report.faults["degraded_sheds"] == reasons["degraded"]
    assert report.faults["degraded_answers"] == 0
    assert sum(reasons.values()) == report.rejected
    assert_ledger(report)


def test_overload_and_degraded_sheds_are_told_apart():
    # Pure overload, no faults: every shed is reason-coded "overload".
    _, _, overloaded = run_engine(
        ServiceConfig(num_shards=2, batch_size=4, arrival_burst=32, max_queue_depth=8),
        requests=400,
    )
    reasons = overloaded.extras["shed_reasons"]
    assert reasons["overload"] > 0 and reasons["degraded"] == 0
    assert sum(reasons.values()) == overloaded.rejected


# --------------------------------------------------------------------------- #
# The write path under faults
# --------------------------------------------------------------------------- #
def count_writes(requests=300, **options):
    graph = fresh_graph()
    workload = make_workload(
        "churn", graph, num_requests=requests, seed=11, **options
    )
    return sum(
        1
        for item in workload
        if isinstance(item, TraceOp) and item.is_mutation
    )


def test_shard_loss_blocks_writes_but_never_drops_them():
    writes = count_writes(write_ratio=0.2)
    plan = FaultPlan(
        events=(
            FaultEvent(at=1, kind="shard_loss", shard=0, duration=6),
            FaultEvent(at=9, kind="shard_loss", shard=1, duration=6),
        )
    )
    faulted_graph, _, report = run_engine(
        ServiceConfig(num_shards=2, batch_size=8, fault_plan=plan),
        workload_kind="churn",
        write_ratio=0.2,
    )
    baseline_graph, _, baseline = run_engine(
        ServiceConfig(num_shards=2, batch_size=8),
        workload_kind="churn",
        write_ratio=0.2,
    )
    # Zero lost writes: every offered mutation applied, in both runs, and
    # the final graphs are identical edge for edge.
    assert report.mutations == baseline.mutations == writes
    assert sorted(faulted_graph.edges()) == sorted(baseline_graph.edges())
    assert report.faults["blocked_write_cycles"] >= 1
    assert_ledger(report)


def test_blocked_write_barrier_terminates_via_fast_forward():
    # A long outage with the whole stream already ingested: the engine must
    # fast-forward to the recovery instead of spinning (and must not drop
    # the write).  A tiny request count keeps everything queued behind it.
    graph = fresh_graph()
    (u, v) = next(iter(graph.edges()))
    target = next(
        w for w in sorted(graph.vertices()) if w != u and not graph.has_edge(u, w)
    )
    stream = [
        TraceOp("add", u, target),
        (u, v),
    ]
    from repro.service import TraceWorkload

    workload = TraceWorkload(graph, edges=stream)
    plan = FaultPlan(
        events=(FaultEvent(at=0, kind="shard_loss", shard=0, duration=5000),)
    )
    config = ServiceConfig(num_shards=1, batch_size=4, fault_plan=plan)
    report = ServiceEngine(graph, _factory, config).run(workload, clock=TickClock())
    assert report.mutations == 1
    assert graph.has_edge(u, target)
    assert report.faults["blocked_write_cycles"] >= 1


# --------------------------------------------------------------------------- #
# Chaos: the full storm, bit-reproducible
# --------------------------------------------------------------------------- #
def chaos_config():
    plan = FaultPlan.generate(
        17,
        num_shards=3,
        replication=2,
        horizon=24,
        crashes=4,
        shard_losses=1,
        slow=3,
        flaky=2,
        duration=4,
        delay=3,
        count=2,
    )
    return ServiceConfig(
        num_shards=3, batch_size=8, replication=2, fault_plan=plan
    )


def test_chaos_storm_is_deterministic():
    first = run_engine(chaos_config(), workload_kind="churn", write_ratio=0.1)
    second = run_engine(chaos_config(), workload_kind="churn", write_ratio=0.1)
    assert first[2].as_dict() == second[2].as_dict()
    assert answer_log(first[1]) == answer_log(second[1])
    assert first[2].faults["crashes"] > 0
    assert_ledger(first[2])


def test_retry_counters_reflect_injected_flakes_and_slowness():
    plan = FaultPlan(
        events=(
            FaultEvent(at=1, kind="flaky", shard=0, count=1),
            FaultEvent(at=1, kind="slow", shard=0, delay=3, count=1),
            FaultEvent(at=2, kind="slow", shard=0, delay=500, count=1),
        )
    )
    _, baseline, _ = run_engine(ServiceConfig(num_shards=1, batch_size=8))
    _, engine, report = run_engine(
        ServiceConfig(num_shards=1, batch_size=8, fault_plan=plan, timeout_ticks=64)
    )
    assert report.faults["transient_errors"] == 1
    assert report.faults["slow_batches"] == 2
    assert report.faults["timeouts"] == 1  # the 500-tick delay
    assert report.faults["retries"] >= 2  # one per flake, one per timeout
    # Neither flakes, delays nor timeouts change any answer or probe count.
    assert answer_log(baseline) == answer_log(engine)
    assert_ledger(report)


def test_retries_burn_backoff_ticks_on_the_injected_clock():
    # Two flakes on the only shard: its batch is retried twice, after 1 and
    # then 2 backoff ticks; nothing else reads the clock differently.
    plan = FaultPlan(events=(FaultEvent(at=1, kind="flaky", shard=0, count=2),))
    _, baseline, base = run_engine(ServiceConfig(num_shards=1, batch_size=8))
    _, engine, report = run_engine(
        ServiceConfig(num_shards=1, batch_size=8, fault_plan=plan)
    )
    assert report.faults["retries"] == 2
    ticks = round((report.duration_s - base.duration_s) * 1000)  # 1 tick = 1 ms
    assert ticks == backoff_ticks(0) + backoff_ticks(1) == 3
    assert answer_log(baseline) == answer_log(engine)


def test_exhausted_retries_degrade_instead_of_crashing():
    # Three flakes against a 2-retry budget: the batch fails permanently.
    plan = FaultPlan(events=(FaultEvent(at=1, kind="flaky", shard=0, count=30),))
    _, engine, report = run_engine(
        ServiceConfig(num_shards=1, batch_size=8, fault_plan=plan, max_retries=2)
    )
    assert report.faults["degraded_answers"] > 0
    assert any(r.degraded for r in engine.records)
    assert_ledger(report)


# --------------------------------------------------------------------------- #
# Admission edge cases (fault-free)
# --------------------------------------------------------------------------- #
def test_minimum_capacity_queue_still_books_every_request():
    _, _, report = run_engine(
        ServiceConfig(num_shards=1, batch_size=4, arrival_burst=8, max_queue_depth=1),
        requests=200,
    )
    assert report.rejected > 0
    assert report.max_queue_depth_seen <= 1
    assert report.extras["shed_reasons"]["overload"] == report.rejected
    assert_ledger(report)


def test_zero_capacity_queue_is_rejected_at_config_time():
    with pytest.raises(ValueError, match="max_queue_depth"):
        ServiceConfig(max_queue_depth=0)


def test_single_inflight_slot_with_pending_writes_drains_cleanly():
    writes = count_writes(write_ratio=0.3, requests=200)
    _, _, report = run_engine(
        ServiceConfig(num_shards=2, batch_size=4),
        workload_kind="churn",
        write_ratio=0.3,
        requests=200,
    )
    assert report.mutations == writes
    assert_ledger(report)


# --------------------------------------------------------------------------- #
# Replica checkpoint protocol (ReplicaSet.checkpoint / ReplicaSet.sync)
# --------------------------------------------------------------------------- #
def replica_set(graph, replicas):
    return ReplicaSet(0, [OracleShard(0, _factory(graph)) for _ in range(replicas)])


def answer_table(replicas, idx):
    lca = replicas.replicas[idx].lca
    return lca.oracle_cache.memo(lca.query_answer_namespace())


def test_snapshot_merge_is_order_independent_and_accounting_preserving():
    graph = graphs.gnp_graph(50, 0.2, seed=8)
    edges = list(graph.edges())
    half_a, half_b = edges[: len(edges) // 2], edges[len(edges) // 2 :]

    # Replicas 0 and 1 serve one half each; replica 2 syncs their
    # checkpoints in the order a, b and replica 3 in the order b, a.
    replicas = replica_set(graph, 4)
    replicas.replicas[0].serve_batch(half_a)
    replicas.replicas[1].serve_batch(half_b)
    replicas.checkpoint(0)
    assert replicas.sync(2)
    replicas.checkpoint(1)
    assert replicas.sync(2) and replicas.sync(3)
    replicas.checkpoint(0)
    assert replicas.sync(3)
    assert answer_table(replicas, 2) == answer_table(replicas, 3)
    assert len(answer_table(replicas, 2)) == len(edges)

    # A replica that only *synced* answers still charges cold totals, and
    # its counters count its own lookups only.
    replay = replicas.replicas[2].serve_batch(half_a)
    cold = _factory(graph).query_batch(half_a)
    assert replay.answers == cold.answers
    assert replay.probe_totals == cold.probe_totals
    stats = replicas.replicas[2].lca.oracle_cache.stats
    assert (stats.hits, stats.misses) == (len(half_a), 0)


def test_snapshot_excludes_process_local_namespaces():
    graph = graphs.gnp_graph(40, 0.25, seed=6)
    edges = list(graph.edges())
    replicas = replica_set(graph, 2)
    primary = replicas.replicas[0]
    # Calls this small decide their misses one at a time, which fills the
    # per-vertex memos keyed by live objects under either kernel.
    for start in range(0, len(edges), 4):
        primary.serve_batch(edges[start : start + 4])
    namespace = primary.lca.query_answer_namespace()
    assert len(primary.lca.oracle_cache.memo_sizes()) > 1
    replicas.checkpoint(0)
    assert replicas.sync(1)
    cache = replicas.replicas[1].lca.oracle_cache
    assert cache.memo_sizes() == {repr(namespace): len(edges)}
    assert (cache.stats.hits, cache.stats.misses) == (0, 0)


def test_checkpoint_taken_before_a_write_stays_stale_after_merge():
    """A replica syncing a pre-write checkpoint must not serve the entries
    the write invalidated: synced entries keep their own epoch stamps."""
    graph = graphs.gnp_graph(60, 0.2, seed=4)
    replicas = replica_set(graph, 2)
    replicas.replicas[0].serve_batch(list(graph.edges()))
    replicas.checkpoint(0)
    for (u, v) in list(graph.edges())[::7][:6]:
        graph.remove_edge(u, v)
    assert replicas.sync(1)
    live = list(graph.edges())
    synced = replicas.replicas[1].serve_batch(live)
    fresh = _factory(graph).query_batch(live)
    assert synced.answers == fresh.answers
    assert synced.probe_totals == fresh.probe_totals


CHURN = dict(workload_kind="churn", write_ratio=0.1, requests=800)


def crash_storm_run(fault_seed):
    """2 shards × 2 replicas under a seeded crash storm, serving churn."""
    plan = FaultPlan.generate(
        fault_seed, num_shards=2, replication=2, horizon=100, crashes=6
    )
    config = ServiceConfig(
        num_shards=2, batch_size=8, replication=2, fault_plan=plan
    )
    return run_engine(config, **CHURN)


def test_failover_under_churn_matches_the_fault_free_run():
    """Writes between a checkpoint and a failover: every non-degraded answer
    and probe total still equals the fault-free run's."""
    _, clean, _ = run_engine(ServiceConfig(num_shards=2, batch_size=8), **CHURN)
    for fault_seed in (1, 5):
        _, faulty, report = crash_storm_run(fault_seed)
        assert report.faults["failovers"] > 0
        served = {r.seq: r for r in faulty.records if not r.degraded}
        mismatched = [
            r.seq for r in clean.records
            if r.seq in served
            and (served[r.seq].in_spanner, served[r.seq].probe_total)
            != (r.in_spanner, r.probe_total)
        ]
        assert mismatched == [], fault_seed


def test_replicated_fault_runs_count_each_served_read_as_one_lookup():
    """A checkpoint moves answers, not hit or miss counts: after failovers
    every shard report counts one cache lookup per request it served."""
    for fault_seed in (1, 5):
        _, _, report = crash_storm_run(fault_seed)
        assert report.faults["failovers"] > 0
        assert report.faults["checkpoints"] > 0
        for shard in report.shard_reports:
            assert shard.cache_hits + shard.cache_misses == shard.requests, (
                fault_seed, shard.shard_id,
            )
