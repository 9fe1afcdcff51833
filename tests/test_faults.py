"""Fault plane unit tests: plans, the injector, and the retry backoff.

The service-level behaviors (failover equivalence, write barriers, chaos
determinism) live in ``test_service_faults.py``; these tests pin the
building blocks in isolation — seeded plan generation, event validation
and round-trips, injector state transitions at cycle boundaries, and the
engine's capped-exponential retry backoff.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    DOWN_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)
from repro.service import ServiceConfig
from repro.service.engine import backoff_ticks


# --------------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------------- #
def test_event_validation_rejects_nonsense():
    with pytest.raises(FaultPlanError):
        FaultEvent(at=0, kind="meteor", shard=0)
    with pytest.raises(FaultPlanError):
        FaultEvent(at=-1, kind="crash", shard=0)
    with pytest.raises(FaultPlanError):
        FaultEvent(at=0, kind="crash", shard=-1)
    # Down-kinds must recover: an infinite outage would deadlock the
    # engine's write barrier.
    for kind in DOWN_KINDS:
        with pytest.raises(FaultPlanError, match="finite duration"):
            FaultEvent(at=0, kind=kind, shard=0, duration=0)
    with pytest.raises(FaultPlanError):
        FaultEvent(at=0, kind="slow", shard=0, delay=0)
    with pytest.raises(FaultPlanError):
        FaultEvent(at=0, kind="flaky", shard=0, count=0)


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_event_dict_roundtrip(kind):
    event = FaultEvent(at=3, kind=kind, shard=1, replica=1, duration=2, delay=5, count=2)
    assert FaultEvent.from_dict(event.as_dict()) == FaultEvent.from_dict(
        event.as_dict()
    )


def test_event_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(FaultPlanError, match="unknown fault event key"):
        FaultEvent.from_dict({"at": 0, "kind": "crash", "shard": 0, "blast": 9})
    with pytest.raises(FaultPlanError, match="missing required key"):
        FaultEvent.from_dict({"at": 0, "kind": "crash"})


def test_plan_orders_events_by_cycle():
    late = FaultEvent(at=9, kind="crash", shard=0)
    early = FaultEvent(at=1, kind="flaky", shard=1)
    plan = FaultPlan(events=(late, early))
    assert [event.at for event in plan] == [1, 9]
    assert plan.max_shard() == 1
    assert not plan.is_empty and len(plan) == 2


def test_generate_is_deterministic_per_seed():
    knobs = dict(num_shards=4, replication=2, horizon=32, crashes=3, slow=2, flaky=2)
    assert FaultPlan.generate(7, **knobs) == FaultPlan.generate(7, **knobs)
    assert FaultPlan.generate(7, **knobs) != FaultPlan.generate(8, **knobs)


@pytest.mark.parametrize("knob", ["duration", "delay", "count"])
def test_generate_checks_the_event_shape_even_with_no_events(knob):
    # A storm with no events still rejects a shape no event could take,
    # so a scenario spec fails at load, not when a later edit adds events.
    with pytest.raises(FaultPlanError, match=knob):
        FaultPlan.generate(0, num_shards=1, **{knob: 0})


def test_generate_draws_kinds_independently():
    # The RNG stream is consumed in a fixed kind order, so turning a later
    # knob on never reshuffles an earlier kind's draws.
    base = FaultPlan.generate(5, num_shards=4, horizon=32, crashes=3)
    extended = FaultPlan.generate(5, num_shards=4, horizon=32, crashes=3, flaky=4)
    crashes = [e for e in extended if e.kind == "crash"]
    assert crashes == [e for e in base if e.kind == "crash"]


def test_plan_file_roundtrip(tmp_path):
    plan = FaultPlan.generate(3, num_shards=2, replication=2, crashes=2, slow=1)
    path = tmp_path / "plan.json"
    plan.to_file(path)
    assert FaultPlan.from_file(path) == plan


def test_plan_from_file_failures_are_plan_errors(tmp_path):
    with pytest.raises(FaultPlanError, match="cannot read"):
        FaultPlan.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"events": [', encoding="utf-8")
    with pytest.raises(FaultPlanError, match="malformed fault plan JSON"):
        FaultPlan.from_file(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"events": [], "surprise": 1}', encoding="utf-8")
    with pytest.raises(FaultPlanError, match="unknown fault plan key"):
        FaultPlan.from_file(wrong)


# --------------------------------------------------------------------------- #
# Injector
# --------------------------------------------------------------------------- #
def test_crash_downs_one_replica_until_recovery():
    plan = FaultPlan(events=(FaultEvent(at=2, kind="crash", shard=0, duration=3),))
    injector = FaultInjector(plan, num_shards=2, replication=2)
    assert injector.begin_cycle(0) == []
    assert injector.is_up(0, 0)
    injector.begin_cycle(2)
    assert not injector.is_up(0, 0)
    assert injector.is_up(0, 1)
    assert injector.live_replicas(0) == [1]
    assert injector.live_replicas(1) == [0, 1]
    injector.begin_cycle(4)
    assert not injector.is_up(0, 0)  # duration 3: down on cycles 2..4
    assert injector.begin_cycle(5) == [(0, 0)]
    assert injector.is_up(0, 0)
    assert injector.stats.crashes == 1 and injector.stats.recoveries == 1


def test_shard_loss_downs_every_replica():
    plan = FaultPlan(events=(FaultEvent(at=1, kind="shard_loss", shard=1, duration=2),))
    injector = FaultInjector(plan, num_shards=2, replication=3)
    injector.begin_cycle(1)
    assert injector.live_replicas(1) == []
    assert injector.anything_down()
    assert sorted(injector.begin_cycle(3)) == [(1, 0), (1, 1), (1, 2)]
    assert injector.live_replicas(1) == [0, 1, 2]


def test_recovery_and_recrash_on_the_same_cycle():
    # Expiry runs first, then activation: the replica appears recovered
    # (the engine re-syncs it) but ends the boundary down again.
    plan = FaultPlan(
        events=(
            FaultEvent(at=0, kind="crash", shard=0, duration=2),
            FaultEvent(at=2, kind="crash", shard=0, duration=2),
        )
    )
    injector = FaultInjector(plan, num_shards=1, replication=2)
    injector.begin_cycle(0)
    assert injector.begin_cycle(2) == [(0, 0)]
    assert not injector.is_up(0, 0)


def test_slow_and_flaky_budgets_are_submission_scoped():
    plan = FaultPlan(
        events=(
            FaultEvent(at=0, kind="slow", shard=0, delay=7, count=2),
            FaultEvent(at=0, kind="flaky", shard=0, count=1),
        )
    )
    injector = FaultInjector(plan, num_shards=1)
    injector.begin_cycle(0)
    assert injector.take_flake(0, 0) is True
    assert injector.take_flake(0, 0) is False  # budget spent
    assert injector.take_delay(0, 0) == 7
    assert injector.take_delay(0, 0) == 7
    assert injector.take_delay(0, 0) == 0
    assert injector.stats.transient_errors == 1
    assert injector.stats.slow_batches == 2


def test_next_transition_covers_recoveries_and_pending_events():
    plan = FaultPlan(
        events=(
            FaultEvent(at=1, kind="shard_loss", shard=0, duration=4),
            FaultEvent(at=9, kind="crash", shard=0, duration=1),
        )
    )
    injector = FaultInjector(plan, num_shards=1, replication=1)
    injector.begin_cycle(1)
    assert injector.next_transition_after(1) == 5  # the recovery deadline
    injector.begin_cycle(5)
    assert injector.next_transition_after(5) == 9  # the pending crash
    injector.begin_cycle(9)
    assert injector.begin_cycle(10) == [(0, 0)]
    assert injector.next_transition_after(10) is None


def test_injector_rejects_plans_beyond_the_pool():
    plan = FaultPlan(events=(FaultEvent(at=0, kind="crash", shard=5),))
    with pytest.raises(FaultPlanError, match="targets shard 5"):
        FaultInjector(plan, num_shards=2)


# --------------------------------------------------------------------------- #
# Retry backoff (service engine)
# --------------------------------------------------------------------------- #
def test_backoff_is_capped_exponential():
    assert [backoff_ticks(a) for a in range(6)] == [1, 2, 4, 8, 8, 8]
    with pytest.raises(ValueError, match="max_retries"):
        ServiceConfig(max_retries=-1)
