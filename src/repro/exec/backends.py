"""Service execution support: pinned shard workers and bounded retries.

Every LCA query is a pure function of ``(graph, seed, query)``, so the
online service can answer different shards concurrently without changing a
single answer or probe charge.  This module holds the two pieces the
service engine (:mod:`repro.service.engine`) builds on:

* :class:`PinnedWorkers` — key-affine futures where all work for one shard
  runs on one dedicated worker thread, so per-shard memo state stays
  single-threaded while distinct shards execute concurrently.  The
  ``serial`` backend runs submissions inline; ``thread`` gives each worker
  its own single-thread pool.
* :class:`RetryPolicy` / :func:`call_with_retries` — bounded retries with
  capped exponential backoff for :class:`TransientTaskError`, the failure
  class the fault plane (:mod:`repro.faults`) injects.

Offline materialization has no executor: ``SpannerLCA.materialize`` runs one
in-process engine.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional


class TransientTaskError(RuntimeError):
    """A submitted task failed in a way the submitter may safely retry.

    The retry contract: a task raising this error has had **no observable
    effect** (no partial answers folded back, no state mutated), so
    resubmitting it — to the same worker or a replica — yields the same
    result a first-time success would have.  Pure LCA query batches satisfy
    this trivially; the fault-injection layer
    (:class:`repro.faults.TransientFaultError`) subclasses it to model
    transient oracle errors and worker hiccups.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff, in clock *ticks*.

    Backoff is charged by reading the injected clock ``backoff_ticks``
    times — on a wall clock that is a (near-)no-op; on the deterministic
    :class:`~repro.reports.runner.TickClock` it advances virtual time, so
    retried batches show their backoff delay in the latency percentiles
    while the run stays bit-reproducible.

    ``max_retries`` bounds *re*-submissions: a task is attempted at most
    ``max_retries + 1`` times before its :class:`TransientTaskError`
    propagates to the caller.
    """

    max_retries: int = 2
    backoff_base: int = 1
    backoff_cap: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")

    def backoff_ticks(self, attempt: int) -> int:
        """Ticks to wait before re-submission number ``attempt`` (0-based)."""
        return min(self.backoff_cap, self.backoff_base << min(attempt, 62))


#: Default policy for retryable execution paths (3 attempts total).
DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retries(
    fn: Callable,
    args: tuple = (),
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    clock: Optional[Callable[[], float]] = None,
    on_retry: Optional[Callable[[int], None]] = None,
):
    """Run ``fn(*args)``, retrying :class:`TransientTaskError` per ``policy``.

    Backoff between attempts is charged as ``policy.backoff_ticks(attempt)``
    readings of ``clock`` (skipped when no clock is supplied); ``on_retry``
    observes each re-submission (for telemetry).  Any other exception — and
    a transient error past the retry budget — propagates unchanged.
    """
    attempt = 0
    while True:
        try:
            return fn(*args)
        except TransientTaskError:
            if attempt >= policy.max_retries:
                raise
            if clock is not None:
                for _ in range(policy.backoff_ticks(attempt)):
                    clock()
            if on_retry is not None:
                on_retry(attempt)
            attempt += 1


#: Backends usable for key-affine (per-shard) futures.  Shard memo state
#: lives in-process, so the service layer runs on serial or thread workers.
PINNED_BACKENDS = ("serial", "thread")


def resolve_workers(workers: Optional[int], backend: str) -> int:
    """Worker count for a backend: explicit value, or a sensible default.

    Defaults to 1 for the serial backend and to the host's CPU count for
    thread (minimum 2, so the concurrent path is exercised even on
    single-core hosts).
    """
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    if backend == "serial":
        return 1
    return max(2, os.cpu_count() or 1)


def _immediate_future(fn: Callable, args: tuple) -> Future:
    """Run ``fn`` now and wrap the outcome in a resolved Future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except BaseException as exc:  # noqa: BLE001 - mirrored to the caller
        future.set_exception(exc)
    return future


class PinnedWorkers:
    """Key-affine futures: all work for a key runs on one worker thread.

    ``submit(key, fn, *args)`` routes to worker ``key % workers``; each
    worker is a single-thread executor, so submissions for the same key
    execute in submission order with no locking, while different keys
    overlap.  The ``serial`` backend executes submissions inline (still
    returning futures), which keeps the calling code backend-agnostic.

    Used by the service layer: one shard = one key, so shard memo state is
    only ever touched by its own worker.
    """

    def __init__(
        self, num_keys: int, backend: str = "serial", workers: Optional[int] = None
    ) -> None:
        if backend not in PINNED_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; choices: {PINNED_BACKENDS}"
            )
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        self.backend = backend
        self.num_keys = int(num_keys)
        if backend == "serial":
            self._pools: Optional[List[ThreadPoolExecutor]] = None
            self.workers = 1
        else:
            self.workers = min(resolve_workers(workers, backend), self.num_keys)
            self._pools = [
                ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-shard-{i}")
                for i in range(self.workers)
            ]

    def submit(self, key: int, fn: Callable, *args) -> Future:
        if self._pools is None:
            return _immediate_future(fn, args)
        return self._pools[int(key) % self.workers].submit(fn, *args)

    def close(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None

    def __enter__(self) -> "PinnedWorkers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
