"""Seeded fault plans: a deterministic schedule of injected failures.

A :class:`FaultPlan` is a frozen list of :class:`FaultEvent` records, each
pinned to an engine *cycle* (the service scheduler's outermost loop index —
a tick-clock boundary, so injection points are identical across runs and
across hosts).  Plans come from three places:

* :meth:`FaultPlan.generate` — a seeded pseudo-random storm, the chaos
  scenario workhorse: same ``(seed, knobs)`` ⇒ byte-identical plan;
* :meth:`FaultPlan.from_file` — a JSON file (the CLI's ``--fault-plan``),
  for replaying a hand-written or previously exported schedule;
* literal construction in tests, where single surgical events pin failover
  semantics.

Event kinds (:data:`FAULT_KINDS`):

``crash``
    One replica of one shard dies for ``duration`` cycles, then recovers
    (rejoins from a checkpoint).  Crashing the primary triggers failover.
``shard_loss``
    Every replica of a shard dies at once for ``duration`` cycles — the
    degraded-mode case: reads get DEGRADED answers or reason-coded sheds,
    writes wait behind the recovery barrier.
``slow``
    The next ``count`` batch submissions to a replica each take ``delay``
    extra ticks.  Delays at or past the engine's timeout budget count as
    timeouts and are retried like failures.
``flaky``
    The next ``count`` batch submissions to a replica fail with a
    transient oracle error before doing any work (decided at submission,
    see :meth:`~repro.faults.injector.FaultInjector.take_flake`).  Retries
    are submissions too, so ``count=1`` costs one backoff while a count
    past the engine's retry budget turns into a permanent batch failure.

Durations are finite by construction (validated ``>= 1``), which is what
lets the engine *prove* termination: any write blocked on a dead shard is
released by that shard's scheduled recovery.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.errors import ReproError

PathLike = Union[str, Path]

#: Registered fault kinds, by name.
FAULT_KINDS = ("crash", "shard_loss", "slow", "flaky")

#: Fault kinds that take a replica down (vs degrading its service).
DOWN_KINDS = ("crash", "shard_loss")


class FaultPlanError(ReproError):
    """A fault plan failed validation or could not be parsed."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is the engine cycle the fault fires on; ``shard``/``replica``
    address the victim (``replica`` is ignored for ``shard_loss``, which
    takes the whole replica set down).  ``duration`` (cycles, down-kinds)
    is finite and ``>= 1``; ``delay`` (extra ticks per slow batch) and
    ``count`` (number of affected batches) shape the service-degrading
    kinds.
    """

    at: int
    kind: str
    shard: int
    replica: int = 0
    duration: int = 4
    delay: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.at < 0:
            raise FaultPlanError("fault cycle 'at' must be >= 0")
        if self.shard < 0:
            raise FaultPlanError("fault shard must be >= 0")
        if self.replica < 0:
            raise FaultPlanError("fault replica must be >= 0")
        if self.kind in DOWN_KINDS and self.duration < 1:
            raise FaultPlanError(
                f"{self.kind} faults need a finite duration >= 1 cycle "
                "(infinite outages would deadlock the write barrier)"
            )
        if self.kind == "slow" and self.delay < 1:
            raise FaultPlanError("slow faults need delay >= 1 tick")
        if self.kind in ("slow", "flaky") and self.count < 1:
            raise FaultPlanError("slow/flaky faults need count >= 1")

    @property
    def recovery_cycle(self) -> int:
        """First cycle the victim is back up (down-kinds only)."""
        return self.at + self.duration

    def as_dict(self) -> Dict[str, int]:
        payload = {"at": self.at, "kind": self.kind, "shard": self.shard}
        if self.kind == "crash":
            payload["replica"] = self.replica
            payload["duration"] = self.duration
        elif self.kind == "shard_loss":
            payload["duration"] = self.duration
        elif self.kind == "slow":
            payload["replica"] = self.replica
            payload["delay"] = self.delay
            payload["count"] = self.count
        else:  # flaky
            payload["replica"] = self.replica
            payload["count"] = self.count
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultEvent":
        if not isinstance(payload, dict):
            raise FaultPlanError(f"fault event must be a table, got {payload!r}")
        known = {"at", "kind", "shard", "replica", "duration", "delay", "count"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault event key(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        try:
            kwargs = {key: payload[key] for key in ("at", "kind", "shard")}
        except KeyError as exc:
            raise FaultPlanError(
                f"fault event is missing required key {exc.args[0]!r}"
            ) from exc
        for key in ("replica", "duration", "delay", "count"):
            if key in payload:
                kwargs[key] = payload[key]
        try:
            kwargs = {
                key: (str(value) if key == "kind" else int(value))
                for key, value in kwargs.items()
            }
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault event {payload!r}") from exc
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, cycle-ordered schedule of :class:`FaultEvent` records."""

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.at, e.shard, e.replica, e.kind))
        )
        object.__setattr__(self, "events", ordered)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def max_shard(self) -> int:
        return max((event.shard for event in self.events), default=-1)

    @classmethod
    def generate(
        cls,
        seed: int,
        num_shards: int,
        replication: int = 1,
        horizon: int = 64,
        crashes: int = 0,
        shard_losses: int = 0,
        slow: int = 0,
        flaky: int = 0,
        duration: int = 4,
        delay: int = 3,
        count: int = 1,
    ) -> "FaultPlan":
        """A seeded pseudo-random storm: same inputs ⇒ identical plan.

        Draws ``crashes`` replica crashes, ``shard_losses`` whole-shard
        outages, ``slow`` slow-batch faults and ``flaky`` transient-error
        faults, each at a uniform cycle in ``[0, horizon)`` against a
        uniform victim.  The RNG stream is namespaced (``"faults:<seed>"``)
        and consumed in a fixed kind order, so adding one knob never
        reshuffles the draws of another.  Negative counts, and a
        ``duration``, ``delay`` or ``count`` below 1, raise
        :class:`FaultPlanError`, even when no event of that kind is drawn.
        """
        if num_shards < 1:
            raise FaultPlanError("num_shards must be >= 1")
        if replication < 1:
            raise FaultPlanError("replication must be >= 1")
        if horizon < 1:
            raise FaultPlanError("horizon must be >= 1")
        for name, value, floor in (
            ("crashes", crashes, 0),
            ("shard_losses", shard_losses, 0),
            ("slow", slow, 0),
            ("flaky", flaky, 0),
            ("duration", duration, 1),
            ("delay", delay, 1),
            ("count", count, 1),
        ):
            if value < floor:
                raise FaultPlanError(f"{name} must be >= {floor}, got {value}")
        rng = random.Random(f"faults:{seed}")
        events: List[FaultEvent] = []
        for _ in range(crashes):
            events.append(
                FaultEvent(
                    at=rng.randrange(horizon),
                    kind="crash",
                    shard=rng.randrange(num_shards),
                    replica=rng.randrange(replication),
                    duration=duration,
                )
            )
        for _ in range(shard_losses):
            events.append(
                FaultEvent(
                    at=rng.randrange(horizon),
                    kind="shard_loss",
                    shard=rng.randrange(num_shards),
                    duration=duration,
                )
            )
        for _ in range(slow):
            events.append(
                FaultEvent(
                    at=rng.randrange(horizon),
                    kind="slow",
                    shard=rng.randrange(num_shards),
                    replica=rng.randrange(replication),
                    delay=delay,
                    count=count,
                )
            )
        for _ in range(flaky):
            events.append(
                FaultEvent(
                    at=rng.randrange(horizon),
                    kind="flaky",
                    shard=rng.randrange(num_shards),
                    replica=rng.randrange(replication),
                    count=count,
                )
            )
        return cls(events=tuple(events), seed=seed)

    def as_dict(self) -> Dict:
        payload: Dict = {"events": [event.as_dict() for event in self.events]}
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(f"fault plan must be a table, got {payload!r}")
        unknown = sorted(set(payload) - {"events", "seed"})
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan key(s) {', '.join(map(repr, unknown))}; "
                "known: 'events', 'seed'"
            )
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, (list, tuple)):
            raise FaultPlanError("fault plan 'events' must be a list")
        events = tuple(FaultEvent.from_dict(item) for item in raw_events)
        seed = payload.get("seed")
        return cls(events=events, seed=None if seed is None else int(seed))

    def to_file(self, path: PathLike) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_file(cls, path: PathLike) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: malformed fault plan JSON: {exc}") from exc
        return cls.from_dict(payload)
