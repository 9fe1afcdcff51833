"""Request scheduler: bounded queue, admission control, sharded serving.

The engine turns a :class:`~repro.service.workload.Workload` (an open-loop
arrival stream) into served answers through a
:class:`~repro.service.shards.ShardedOraclePool`, in repeated cycles:

1. **Ingest** — pull up to ``arrival_burst`` requests from the stream.
   Each arrival passes admission control: requests for pairs that are not
   edges of ``G`` and requests arriving while the queue is at
   ``max_queue_depth`` are rejected (counted, never served).  Admitted
   requests are stamped with their arrival time.
2. **Dispatch** — pop up to ``batch_size`` requests (FIFO) and serve them
   on their shards, inline: the router partitions the batch by owning
   shard and each shard group is one streaming ``serve_batch`` call on
   that shard.
3. **Complete** — stamp completion, record per-request latency
   (completion − arrival, so queueing delay is included), feed answers back
   to the workload (the adaptive kind steers on them), and accumulate
   telemetry.  A batch completes at the end of the cycle that dispatched
   it, or earlier when a write reaches the queue head behind it, so at
   most one batch is open at a time.

Setting ``arrival_burst > batch_size`` models an overloaded ingress: the
queue fills, admission control starts shedding, and the latency percentiles
show the queueing delay — the knobs a load-shedding study needs.

Everything is deterministic given (graph, seed, workload): answers are pure
functions of ``(graph, seed, query)``, so scheduling, sharding and batching
can only change *wall-clock* numbers, never answers or per-request probe
totals.  ``tests/test_service_equivalence.py`` pins exactly that.

Every timestamp the engine records flows through the injected ``clock``
(arrival stamps, completion stamps, run duration) — no code path reads
``time.perf_counter`` directly once a clock is supplied, so latency tests
run on fully deterministic synthetic clocks.

The write path (mutating workloads)
-----------------------------------

Workloads may emit graph *mutations* (``TraceOp`` records with op "add" /
"remove" — the ``churn`` kind, or a replayed mixed trace).  Writes obey
three rules that keep the run deterministic and the shared graph safe:

1. **Never shed** — a write enters the queue regardless of depth (the rest
   of the stream is only meaningful if every write applies exactly once, in
   order).  Read admission accounts for queued-but-unapplied writes: a read
   of an edge a queued write will create is admitted, one a queued write
   will delete is rejected — validity is judged against the state the read
   will execute under, not the current graph.
2. **Barrier semantics** — when a write reaches the queue head, the read
   batch dispatched ahead of it completes first, then the owning shard
   applies the mutation; reads queued behind it dispatch afterwards.
3. **Lazy cross-shard invalidation** — the mutation bumps vertex epochs on
   the shared graph; sibling shards discard stale memo entries on their
   next lookup (see :mod:`repro.core.cache`), so a write costs O(1) plus
   exactly the recomputation the affected queries actually need.

The fault plane (replication, failover, retries, degradation)
-------------------------------------------------------------

With a :class:`~repro.faults.FaultPlan` configured, a
:class:`~repro.faults.FaultInjector` is stepped once per scheduler cycle
(``begin_cycle``), so every injected failure lands on a tick-clock boundary
and fault runs stay bit-reproducible.  The engine reacts:

* **Failover** — each shard is a :class:`~repro.service.shards.ReplicaSet`
  of ``replication`` same-seed LCA instances.  Reads route to a sticky
  *primary* (lowest live replica index); when a crash takes the primary
  down, the lowest live replica is promoted and inherits the crashed
  primary's warm answers by folding in the set's latest checkpoint (a copy
  of the primary's answer table, taken every :data:`CHECKPOINT_BATCHES`
  batches).  Answers and per-request probe totals are unchanged by
  failover — LCA purity plus cold-schedule accounting make every replica
  serve bit-identically.
* **Retries with backoff** — submissions hit by injected flaky faults and
  timed-out slow batches are resubmitted to the *current* primary, up to
  ``max_retries`` times, burning :func:`backoff_ticks` readings of the
  injected clock between attempts.  Sub-timeout slow batches just burn
  their delay ticks before the completion stamp.
* **Graceful degradation** — a read whose shard has no live replica (and a
  read whose retries are exhausted) is handled per ``degraded_mode``:
  ``"answer"`` completes it with an explicit degraded answer (``in_spanner
  False``, zero probes, flagged in the request record); ``"shed"``
  re-classifies it as rejected under the distinct ``"degraded"`` shed
  reason.  Writes are **never** degraded or dropped: a write whose shard is
  fully down blocks the queue (a recovery barrier) until the injector's
  scheduled recovery releases it — finite fault durations guarantee that
  happens, and the engine fast-forwards idle cycles to the next fault
  transition instead of spinning.

Fault/recovery/retry/failover counts land in ``ServiceReport.faults``
(:class:`~repro.faults.FaultStats`); availability (non-degraded answers per
read offered) is derived on the report.  Without a fault plan, none of
this machinery runs and the engine behaves byte-identically to the
pre-fault implementation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from ..core.ids import canonical_edge
from ..core.lca import SpannerLCA
from ..core.probes import ProbeStatistics
from ..faults import FaultInjector, FaultPlan, FaultStats
from ..graphs.graph import Graph
from ..obs.profiler import ProbeProfiler
from .metrics import LatencyStats, ServiceReport
from .shards import ShardedOraclePool
from .trace import TraceOp
from .workload import Workload

Edge = Tuple[int, int]

#: How reads on a fully-down shard are handled (see module docstring).
DEGRADED_MODES = ("answer", "shed")

#: Shed-reason codes reported under ``extras["shed_reasons"]``.
SHED_REASONS = ("invalid", "overload", "degraded")

#: Batches between primary checkpoints (replica warm-answer sync) in a
#: replicated fault run.
CHECKPOINT_BATCHES = 8


def backoff_ticks(attempt: int) -> int:
    """Clock ticks burned before retry number ``attempt`` (0-based).

    Capped exponential backoff: 1, 2, 4, then 8 ticks for every later retry.
    """
    return 1 << min(attempt, 3)


@dataclass
class ServiceConfig:
    """Tuning knobs of the query service (answers never depend on them)."""

    num_shards: int = 1
    batch_size: int = 32
    max_queue_depth: int = 1024
    #: Arrivals ingested per scheduling cycle; defaults to ``batch_size``
    #: (steady state).  Larger values model ingress overload and exercise
    #: admission control.
    arrival_burst: Optional[int] = None
    #: Keep a per-request :class:`RequestRecord` log on the engine
    #: (equivalence tests replay it; disable for pure throughput runs).
    record: bool = True
    #: Replicas per shard (1 = no redundancy).  Each replica is an
    #: independent same-seed LCA instance.
    replication: int = 1
    #: Deterministic fault schedule to inject (None = fault-free run; the
    #: fault machinery is entirely bypassed).
    fault_plan: Optional[FaultPlan] = None
    #: Retry budget for transiently failed / timed-out submissions; retries
    #: are spaced by :func:`backoff_ticks`.
    max_retries: int = 2
    #: Slow-batch budget: an injected delay of this many ticks or more is a
    #: timeout (the submission is abandoned and retried).
    timeout_ticks: int = 64
    #: Reads on a fully-down shard: "answer" (explicit degraded answer) or
    #: "shed" (rejected under the distinct "degraded" reason code).
    degraded_mode: str = "answer"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.arrival_burst is not None and self.arrival_burst < 1:
            raise ValueError("arrival_burst must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.degraded_mode not in DEGRADED_MODES:
            raise ValueError(
                f"unknown degraded_mode {self.degraded_mode!r}; "
                f"choices: {DEGRADED_MODES}"
            )
        if self.timeout_ticks < 1:
            raise ValueError("timeout_ticks must be >= 1")

    @property
    def effective_burst(self) -> int:
        return self.batch_size if self.arrival_burst is None else self.arrival_burst


class RequestRecord(NamedTuple):
    """One served request, as logged by the engine (replayable)."""

    seq: int
    u: int
    v: int
    in_spanner: bool
    probe_total: int
    latency_s: float
    #: True when the request was answered degraded (shard fully down /
    #: retries exhausted) rather than served by an oracle.
    degraded: bool = False


class _Pending(NamedTuple):
    seq: int
    u: int
    v: int
    arrival_s: float
    op: str = "query"


class _Part(NamedTuple):
    """One shard-group submission of a dispatched batch.

    ``kind`` is "ok" (served: ``outcomes`` holds one ``(answer,
    probe_total)`` per position), or an injected outcome decided at
    submission time: "flaky" (transient error), "timeout" (slow past the
    timeout budget), "down" (no live replica).  ``group`` carries what a
    retry needs to resubmit.
    """

    outcomes: Optional[List[Tuple[bool, int]]]
    positions: List[int]
    group: List[Edge]
    shard_id: int
    kind: str
    delay: int


#: Sentinel outcome for requests that could not be served (degraded path).
_DEGRADED = object()


class ServiceEngine:
    """Drives one workload run against a sharded oracle pool.

    Parameters
    ----------
    graph:
        The input graph (shared by every shard, read-only).
    lca_factory:
        ``graph -> SpannerLCA`` factory with the seed baked in; one instance
        is created per shard replica.
    config:
        Scheduler, pool and fault-plane knobs (:class:`ServiceConfig`).
    """

    def __init__(
        self,
        graph: Graph,
        lca_factory: Callable[[Graph], SpannerLCA],
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else ServiceConfig()
        self.pool = ShardedOraclePool(
            graph,
            lca_factory,
            num_shards=self.config.num_shards,
            replication=self.config.replication,
        )
        #: Per-request log of the most recent :meth:`run` (when
        #: ``config.record``); replayed by the equivalence tests.
        self.records: List[RequestRecord] = []

    def run(
        self,
        workload: Workload,
        clock=time.perf_counter,  # repro-lint: disable=DET001 - live default; deterministic runs inject a tick clock
        tracer=None,
        profiler=None,
    ) -> ServiceReport:
        """Serve the whole workload; returns the telemetry report.

        ``clock`` is injectable for tests; it must be monotone.  All
        recorded timestamps (arrival, completion, duration) come from it.

        ``tracer`` (a :class:`repro.obs.tracer.SpanTracer`) records the run
        as a deterministic span hierarchy: one ``service.run`` root, one
        ``service.batch`` span per dispatched batch (opened at dispatch,
        closed at completion), and instants for sheds, writes, failovers,
        retries, timeouts and checkpoints.  The tracer keeps its own tick
        clock, so traces are byte-identical across runs — and never advance
        the injected clock.

        ``profiler`` (a :class:`repro.obs.profiler.ProbeProfiler`) receives
        the run's probe attribution: a fresh profiler rides on every shard
        replica for the duration of the run and all of them are merged into
        the caller's, in (shard, replica) order, when the run finishes.
        Both hooks are pure observation — answers, probe totals and latency
        stamps are unchanged (pinned by the obs equivalence tests).
        """
        attached = []
        if profiler is not None:
            for replica_set in self.pool.replica_sets:
                for shard in replica_set.replicas:
                    local = ProbeProfiler()
                    shard.lca.attach_profiler(local)
                    attached.append((shard, local))
        try:
            if tracer is not None:
                with tracer.span(
                    "service.run",
                    "service",
                    algorithm=self.pool.algorithm,
                    workload=workload.kind,
                    shards=self.config.num_shards,
                    replication=self.config.replication,
                ) as root:
                    report = self._run(workload, clock, tracer)
                    root.args["served"] = report.served
                    root.args["batches"] = report.batches
            else:
                report = self._run(workload, clock, None)
        finally:
            for shard, local in attached:
                profiler.merge(local)
                shard.lca.attach_profiler(None)
        return report

    def _run(self, workload: Workload, clock, tracer) -> ServiceReport:
        config = self.config
        pool = self.pool
        replica_sets = pool.replica_sets
        router = pool.router
        has_edge = self.graph.has_edge
        burst = config.effective_burst
        batch_size = config.batch_size
        depth_limit = config.max_queue_depth
        num_shards = config.num_shards
        replication = config.replication
        timeout_ticks = config.timeout_ticks
        max_retries = config.max_retries
        degraded_shed = config.degraded_mode == "shed"
        tracing = tracer is not None

        injector: Optional[FaultInjector] = None
        if config.fault_plan is not None:
            injector = FaultInjector(
                config.fault_plan, num_shards, replication=replication
            )
        faults_on = injector is not None
        fstats = injector.stats if injector is not None else FaultStats()
        # Sticky primaries: reads route to the lowest live replica; the
        # index only moves on failover, never back when an old primary
        # rejoins (it re-syncs and serves as a standby).
        primary = [0] * num_shards

        queue: Deque[_Pending] = deque()
        records: List[RequestRecord] = []
        self.records = records
        latency = LatencyStats()
        probe_stats = ProbeStatistics()
        offered = admitted = rejected = invalid = served = in_spanner = 0
        shed_reasons = {reason: 0 for reason in SHED_REASONS}
        mutations_applied = 0
        batches = 0
        checkpointed_at = 0
        max_depth_seen = 0
        seq = 0
        exhausted = False
        # Queued-but-unapplied writes, per canonical edge in queue order.
        # Admission checks a query's validity against the graph state it
        # will *execute* under (FIFO order guarantees every earlier queued
        # write lands first), not the current graph: the *last* queued write
        # for an edge decides, and applying one write only retires that
        # write — markers of later still-queued writes on the same edge
        # survive.
        pending_writes: Dict[Edge, Deque[str]] = {}
        # Shard telemetry is lifetime-scoped (an engine can run several
        # workloads); baseline it so the report only covers this run.
        shard_baseline = pool.telemetry()

        def edge_admissible(u: int, v: int) -> bool:
            key = canonical_edge(u, v)
            queued = pending_writes.get(key)
            if queued:
                return queued[-1] == "add"
            return has_edge(u, v)

        def serving_replica(shard_id: int) -> Optional[int]:
            """Current live primary of a shard, or None when fully down."""
            if not faults_on:
                return 0
            idx = primary[shard_id]
            if injector.is_up(shard_id, idx):
                return idx
            live = injector.live_replicas(shard_id)
            return live[0] if live else None

        def submit_part(
            shard_id: int, group: List[Edge], positions: List[int]
        ) -> _Part:
            """Serve one shard group on its live primary, applying injected faults."""
            idx = serving_replica(shard_id)
            if idx is None:
                if tracing:
                    tracer.instant(
                        "service.part_down", "fault",
                        shard=shard_id, size=len(group),
                    )
                return _Part(None, positions, group, shard_id, "down", 0)
            delay = 0
            if faults_on:
                if injector.take_flake(shard_id, idx):
                    if tracing:
                        tracer.instant(
                            "service.part_flaky", "fault",
                            shard=shard_id, replica=idx,
                        )
                    return _Part(None, positions, group, shard_id, "flaky", 0)
                delay = injector.take_delay(shard_id, idx)
                if delay >= timeout_ticks:
                    if tracing:
                        tracer.instant(
                            "service.part_timeout", "fault",
                            shard=shard_id, replica=idx, delay=delay,
                        )
                    return _Part(None, positions, group, shard_id, "timeout", delay)
            result = replica_sets[shard_id].replicas[idx].serve_batch(group, False)
            outcomes = list(zip(result.answers, result.probe_totals))
            return _Part(outcomes, positions, group, shard_id, "ok", delay)

        def resolve_part(part: _Part) -> Optional[List[Tuple[bool, int]]]:
            """Outcomes aligned with ``part.positions``, retrying injected failures.

            Returns None when the shard is fully down or the retry budget is
            spent (the degraded path).  Backoff, timeout and slow-batch costs
            are charged as clock readings here, at completion.
            """
            attempt = 0
            while True:
                if part.kind == "down":
                    return None
                if part.kind == "ok":
                    for _ in range(part.delay):
                        clock()
                    return part.outcomes
                if part.kind == "timeout":
                    # The engine waited out the full budget before
                    # abandoning the submission.
                    for _ in range(timeout_ticks):
                        clock()
                    fstats.timeouts += 1
                if attempt >= max_retries:
                    return None
                for _ in range(backoff_ticks(attempt)):
                    clock()
                fstats.retries += 1
                if tracing:
                    tracer.instant(
                        "service.retry", "fault",
                        shard=part.shard_id, kind=part.kind, attempt=attempt,
                    )
                attempt += 1
                # Resubmit to the *current* primary — it may differ from
                # the original target after a failover.
                part = submit_part(part.shard_id, part.group, part.positions)

        def complete(batch: List[_Pending], parts: List[_Part], span) -> None:
            nonlocal served, in_spanner, admitted, rejected
            batch_served = batch_probes = 0
            outcomes: List[object] = [None] * len(batch)
            for part in parts:
                result = resolve_part(part)
                if result is None:
                    for position in part.positions:
                        outcomes[position] = _DEGRADED
                else:
                    for position, outcome in zip(part.positions, result):
                        outcomes[position] = outcome
            # A batch completes as a unit: one stamp once every shard group
            # has resolved.
            done = clock()
            for req, outcome in zip(batch, outcomes):
                degraded = outcome is _DEGRADED
                if degraded:
                    if degraded_shed:
                        # Re-classify: the read was admitted but cannot be
                        # served; it leaves the ledger as a shed with its
                        # own reason code, keeping
                        # offered == admitted + rejected + mutations and
                        # served == admitted intact even in fault runs.
                        admitted -= 1
                        rejected += 1
                        shed_reasons["degraded"] += 1
                        fstats.degraded_sheds += 1
                        continue
                    fstats.degraded_answers += 1
                    answer, probes = False, 0
                else:
                    answer, probes = outcome
                served += 1
                batch_served += 1
                batch_probes += probes
                if answer:
                    in_spanner += 1
                elapsed = done - req.arrival_s
                latency.add(elapsed)
                probe_stats.add(probes)
                workload.observe((req.u, req.v), answer)
                if config.record:
                    records.append(
                        RequestRecord(
                            req.seq, req.u, req.v, answer, probes, elapsed,
                            degraded,
                        )
                    )
            if span is not None:
                tracer.end(span, served=batch_served, probes=batch_probes)

        def apply_write(write: _Pending, shard_id: int, idx: int) -> None:
            nonlocal mutations_applied
            replica_sets[shard_id].replicas[idx].apply_mutation(
                write.op, write.u, write.v
            )
            key = canonical_edge(write.u, write.v)
            queued = pending_writes.get(key)
            if queued:
                queued.popleft()
                if not queued:
                    del pending_writes[key]
            mutations_applied += 1
            if tracing:
                tracer.instant(
                    "service.write", "service",
                    op=write.op, shard=shard_id, cycle=cycle,
                )

        started = clock()
        cycle = -1
        while not exhausted or queue:
            cycle += 1
            if faults_on:
                # ---- fault boundary: expire/activate events, rejoin
                # recovered replicas from the checkpoint, fail over shards
                # whose primary went down, refresh checkpoints.
                for shard_id, replica_idx in injector.begin_cycle(cycle):
                    replica_sets[shard_id].sync(replica_idx)
                for shard_id in range(num_shards):
                    if injector.is_up(shard_id, primary[shard_id]):
                        continue
                    live = injector.live_replicas(shard_id)
                    if live:
                        primary[shard_id] = live[0]
                        fstats.failovers += 1
                        if tracing:
                            tracer.instant(
                                "service.failover", "fault",
                                shard=shard_id, replica=live[0], cycle=cycle,
                            )
                        replica_sets[shard_id].sync(live[0])
                if (
                    replication > 1
                    and batches - checkpointed_at >= CHECKPOINT_BATCHES
                ):
                    for shard_id in range(num_shards):
                        idx = primary[shard_id]
                        if injector.is_up(shard_id, idx):
                            replica_sets[shard_id].checkpoint(idx)
                            fstats.checkpoints += 1
                            if tracing:
                                tracer.instant(
                                    "service.checkpoint", "service",
                                    shard=shard_id, replica=idx, cycle=cycle,
                                )
                    checkpointed_at = batches

            # ---- ingest: up to `burst` arrivals through admission control
            arrivals = 0
            while arrivals < burst and not exhausted:
                request = workload.next_request()
                if request is None:
                    exhausted = True
                    break
                arrivals += 1
                offered += 1
                if isinstance(request, TraceOp) and request.is_mutation:
                    # Writes are never shed: the rest of the stream (the
                    # workload's internal edge mirror, later reads, later
                    # writes) is only valid if every write applies exactly
                    # once, in order.
                    seq += 1
                    queue.append(
                        _Pending(seq, request.u, request.v, clock(), request.op)
                    )
                    key = canonical_edge(request.u, request.v)
                    pending_writes.setdefault(key, deque()).append(request.op)
                    continue
                u, v = request.edge if isinstance(request, TraceOp) else request
                if not edge_admissible(u, v):
                    invalid += 1
                    rejected += 1
                    shed_reasons["invalid"] += 1
                    if tracing:
                        tracer.instant(
                            "service.shed", "service",
                            reason="invalid", cycle=cycle,
                        )
                    continue
                if faults_on and degraded_shed:
                    # Shed-mode degradation starts at the front door: a
                    # read for a fully-down shard is turned away with its
                    # own reason code instead of queueing.
                    shard_id = router.shard_of_edge(u, v)
                    if serving_replica(shard_id) is None:
                        rejected += 1
                        shed_reasons["degraded"] += 1
                        fstats.degraded_sheds += 1
                        if tracing:
                            tracer.instant(
                                "service.shed", "service",
                                reason="degraded", cycle=cycle,
                            )
                        continue
                if len(queue) >= depth_limit:
                    rejected += 1
                    shed_reasons["overload"] += 1
                    if tracing:
                        tracer.instant(
                            "service.shed", "service",
                            reason="overload", cycle=cycle,
                        )
                    continue
                seq += 1
                queue.append(_Pending(seq, u, v, clock()))
                admitted += 1
            if len(queue) > max_depth_seen:
                max_depth_seen = len(queue)

            # ---- dispatch: one FIFO read batch at a time, with writes
            # serialized ahead of the reads that follow them
            write_blocked = False
            open_batch = None
            while queue:
                head = queue[0]
                if head.op != "query":
                    shard_id = router.shard_of_edge(head.u, head.v)
                    idx = serving_replica(shard_id)
                    if idx is None:
                        # The recovery barrier: a write whose shard is fully
                        # down blocks the queue; it is never dropped or
                        # degraded.
                        write_blocked = True
                        fstats.blocked_write_cycles += 1
                        if tracing:
                            tracer.instant(
                                "service.write_blocked", "fault", cycle=cycle
                            )
                        break
                    # Writes are scheduling barriers: the open read batch
                    # completes before the graph changes.
                    if open_batch is not None:
                        complete(*open_batch)
                        open_batch = None
                    apply_write(queue.popleft(), shard_id, idx)
                    continue
                if open_batch is not None:
                    break
                batch: List[_Pending] = []
                while queue and len(batch) < batch_size and queue[0].op == "query":
                    batch.append(queue.popleft())
                batches += 1
                parts = [
                    submit_part(shard_id, group, positions)
                    for shard_id, group, positions in pool.partition(
                        [(req.u, req.v) for req in batch]
                    )
                ]
                span = None
                if tracing:
                    span = tracer.begin(
                        "service.batch",
                        "service",
                        cycle=cycle,
                        batch=batches,
                        size=len(batch),
                        parts=len(parts),
                    )
                open_batch = (batch, parts, span)

            # ---- complete: the batch still open at the end of the cycle
            if open_batch is not None:
                complete(*open_batch)

            # ---- recovery fast-forward: a blocked write with nothing else
            # to do — jump to the injector's next fault transition instead
            # of spinning one cycle at a time.  Finite fault durations
            # guarantee a transition exists, so the barrier always releases
            # and the loop always terminates.
            if write_blocked and exhausted:
                target = injector.next_transition_after(cycle)
                if target is not None and target > cycle + 1:
                    cycle = target - 1
        duration = clock() - started

        report = ServiceReport(
            algorithm=pool.algorithm,
            workload=workload.kind,
            num_shards=num_shards,
            batch_size=batch_size,
            offered=offered,
            admitted=admitted,
            rejected=rejected,
            served=served,
            in_spanner=in_spanner,
            duration_s=duration,
            batches=batches,
            max_queue_depth_seen=max_depth_seen,
            latency=latency,
            probe_stats=probe_stats,
            shard_reports=pool.reports(since=shard_baseline),
            mutations=mutations_applied,
            replication=replication,
        )
        if invalid:
            report.extras["invalid_requests"] = invalid
        if mutations_applied:
            report.extras["graph_epoch"] = self.graph.epoch
        if rejected:
            report.extras["shed_reasons"] = dict(shed_reasons)
        if faults_on:
            report.faults = fstats.as_dict()
        return report


def serve_workload(
    graph: Graph,
    lca_factory: Callable[[Graph], SpannerLCA],
    workload: Workload,
    config: Optional[ServiceConfig] = None,
) -> ServiceReport:
    """One-shot convenience wrapper: build an engine, run one workload."""
    return ServiceEngine(graph, lca_factory, config).run(workload)
