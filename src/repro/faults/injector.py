"""Runtime fault injection: plan playback against the service scheduler.

The :class:`FaultInjector` is the bridge between a static
:class:`~repro.faults.plan.FaultPlan` and the engine's cycle loop.  The
engine calls :meth:`FaultInjector.begin_cycle` once per scheduler cycle;
the injector activates every event whose cycle has arrived, expires
outages whose duration has elapsed, and answers the engine's questions
during dispatch:

* :meth:`is_up` / :meth:`live_replicas` — routing: which replicas of a
  shard may serve right now (primary = lowest live replica index);
* :meth:`take_delay` — slow-batch injection: extra ticks this submission
  must burn (the engine compares the delay against its timeout budget);
* :meth:`take_flake` — transient-error injection: whether this submission
  fails transiently instead of serving (the engine then retries it).

Consumption is **submission-scoped**: every submission — including each
retry — draws one unit from the victim replica's slow/flaky budget, so a
``flaky`` event with ``count=3`` against an engine allowing 2 retries
exhausts the retry budget (three failed attempts), while ``count=1`` costs
exactly one backoff.  All state transitions happen at cycle boundaries or
dispatch time.

Determinism contract: with the same plan and the same request stream, the
sequence of injector decisions is identical across runs and hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .plan import FaultPlan, FaultPlanError


@dataclass
class FaultStats:
    """Counters for everything the fault plane did to (and for) a run.

    Injection counts (``crashes``, ``shard_losses``, ``slow_batches``,
    ``transient_errors``) come from the injector; reaction counts
    (``failovers``, ``retries``, ``timeouts``, ``degraded_answers``,
    ``degraded_sheds``, ``checkpoints``, ``recoveries``,
    ``blocked_write_cycles``) from the engine.  ``as_dict`` feeds the
    service report's ``faults`` extras block.
    """

    crashes: int = 0
    shard_losses: int = 0
    recoveries: int = 0
    failovers: int = 0
    retries: int = 0
    timeouts: int = 0
    slow_batches: int = 0
    transient_errors: int = 0
    degraded_answers: int = 0
    degraded_sheds: int = 0
    checkpoints: int = 0
    blocked_write_cycles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes,
            "shard_losses": self.shard_losses,
            "recoveries": self.recoveries,
            "failovers": self.failovers,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "slow_batches": self.slow_batches,
            "transient_errors": self.transient_errors,
            "degraded_answers": self.degraded_answers,
            "degraded_sheds": self.degraded_sheds,
            "checkpoints": self.checkpoints,
            "blocked_write_cycles": self.blocked_write_cycles,
        }

    def register_into(self, registry, prefix: str = "faults") -> None:
        """Register every counter into a metrics registry under ``prefix``.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry` (duck
        typed so this module stays importable without the obs plane); the
        names follow the repo-wide ``<plane>.<noun>`` scheme documented in
        ``docs/observability.md``.
        """
        for name, value in self.as_dict().items():
            registry.counter(f"{prefix}.{name}", value)


@dataclass
class FaultInjector:
    """Plays a :class:`FaultPlan` forward along the engine's cycle clock."""

    plan: FaultPlan
    num_shards: int
    replication: int = 1
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        top = self.plan.max_shard()
        if top >= self.num_shards:
            raise FaultPlanError(
                f"fault plan targets shard {top} but the service has "
                f"{self.num_shards} shard(s)"
            )
        #: (shard, replica) -> first cycle the replica is up again.
        self._down: Dict[Tuple[int, int], int] = {}
        #: (shard, replica) -> queue of extra-tick delays, one per submission.
        self._slow: Dict[Tuple[int, int], List[int]] = {}
        #: (shard, replica) -> remaining transient failures to inject.
        self._flaky: Dict[Tuple[int, int], int] = {}
        self._cursor = 0  # next plan event to activate (plan is cycle-sorted)
        self._cycle = -1

    # ------------------------------------------------------------------ #
    # Cycle boundary
    # ------------------------------------------------------------------ #
    def begin_cycle(self, cycle: int) -> List[Tuple[int, int]]:
        """Advance to ``cycle``; returns replicas that recovered this step.

        Expires outages first, then activates newly-due events, so a
        replica whose recovery and a fresh crash land on the same cycle
        ends the boundary down (the new outage wins) but still appears in
        the recovered list — the engine re-seeds it from a checkpoint
        before the new outage is observed.
        """
        self._cycle = cycle
        recovered = sorted(
            key for key, until in self._down.items() if until <= cycle
        )
        for key in recovered:
            del self._down[key]
            self.stats.recoveries += 1
        events = self.plan.events
        while self._cursor < len(events) and events[self._cursor].at <= cycle:
            event = events[self._cursor]
            self._cursor += 1
            if event.kind == "crash":
                replica = event.replica % self.replication
                self._take_down(event.shard, replica, event.recovery_cycle)
                self.stats.crashes += 1
            elif event.kind == "shard_loss":
                for replica in range(self.replication):
                    self._take_down(event.shard, replica, event.recovery_cycle)
                self.stats.shard_losses += 1
            elif event.kind == "slow":
                key = (event.shard, event.replica % self.replication)
                self._slow.setdefault(key, []).extend(
                    [event.delay] * event.count
                )
            else:  # flaky
                key = (event.shard, event.replica % self.replication)
                self._flaky[key] = self._flaky.get(key, 0) + event.count
        return recovered

    def _take_down(self, shard: int, replica: int, until: int) -> None:
        key = (shard, replica)
        self._down[key] = max(self._down.get(key, 0), until)

    # ------------------------------------------------------------------ #
    # Dispatch-time queries
    # ------------------------------------------------------------------ #
    def is_up(self, shard: int, replica: int) -> bool:
        return (shard, replica) not in self._down

    def live_replicas(self, shard: int) -> List[int]:
        """Replica indices of ``shard`` currently up, lowest first."""
        return [
            replica
            for replica in range(self.replication)
            if (shard, replica) not in self._down
        ]

    def take_delay(self, shard: int, replica: int) -> int:
        """Extra ticks this submission must burn (consumes one slow unit)."""
        queue = self._slow.get((shard, replica))
        if not queue:
            return 0
        self.stats.slow_batches += 1
        return queue.pop(0)

    def take_flake(self, shard: int, replica: int) -> bool:
        """Whether this submission fails transiently (consumes one unit)."""
        key = (shard, replica)
        remaining = self._flaky.get(key, 0)
        if remaining <= 0:
            return False
        self._flaky[key] = remaining - 1
        self.stats.transient_errors += 1
        return True

    # ------------------------------------------------------------------ #
    # Termination support
    # ------------------------------------------------------------------ #
    def next_transition_after(self, cycle: int) -> Optional[int]:
        """The next cycle at which availability can change, if any.

        The minimum over pending activations and active recovery deadlines
        strictly after ``cycle``.  The engine's write barrier fast-forwards
        to this cycle when a queued write targets a fully-down shard and no
        other progress is possible — finite durations guarantee the value
        exists whenever something is down.
        """
        candidates = [until for until in self._down.values() if until > cycle]
        events = self.plan.events
        if self._cursor < len(events):
            upcoming = events[self._cursor].at
            if upcoming > cycle:
                candidates.append(upcoming)
        return min(candidates) if candidates else None

    def anything_down(self) -> bool:
        return bool(self._down)
