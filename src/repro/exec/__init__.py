"""Execution support for the sharded service: pinned workers and retries.

The LCA model makes every ``(u, v) ∈ spanner?`` answer a pure function of
``(graph, seed, query)``, so independent queries may run anywhere.  The
online service uses that freedom through :mod:`repro.exec.backends`:

* :class:`PinnedWorkers` — key-affine futures (one worker per shard) on the
  ``serial`` or ``thread`` backend;
* :class:`RetryPolicy` / :func:`call_with_retries` — bounded retries of
  :class:`TransientTaskError` with capped exponential backoff in clock
  ticks.

Answers and per-query probe totals are identical on every backend — the
cold-schedule accounting contract makes probe charges independent of where
(and next to which cache) a query runs.  Offline materialization
(``SpannerLCA.materialize``) runs in-process and has no executor.
"""

from .backends import (
    DEFAULT_RETRY_POLICY,
    PINNED_BACKENDS,
    PinnedWorkers,
    RetryPolicy,
    TransientTaskError,
    call_with_retries,
    resolve_workers,
)

__all__ = [
    "PINNED_BACKENDS",
    "PinnedWorkers",
    "TransientTaskError",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "call_with_retries",
    "resolve_workers",
]
