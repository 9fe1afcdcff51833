"""Fault-injection plane: deterministic failures for a survivable service.

Chaos engineering needs reproducible chaos: a fault you cannot replay is a
fault you cannot regression-test.  This package provides

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`, a
  seeded, serializable schedule of replica crashes, whole-shard losses,
  slow batches and transient oracle errors, pinned to engine cycles
  (tick-clock boundaries) so injection points are identical across runs;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which plays a
  plan forward along the scheduler's cycle clock and answers the engine's
  dispatch-time questions (who is up, what is slow, what fails), plus
  the :class:`FaultStats` ledger.

The service layer (:mod:`repro.service`) consumes this package to drive
replica failover, bounded retries with capped backoff, per-batch timeout
accounting and degraded-mode serving; chaos scenarios wire plans in via
the ``[faults]`` table (:mod:`repro.reports.spec`) and the CLI's
``--fault-plan`` / storm knobs.  See ``docs/faults.md`` for the fault
model and consistency argument.
"""

from .injector import FaultInjector, FaultStats
from .plan import DOWN_KINDS, FAULT_KINDS, FaultEvent, FaultPlan, FaultPlanError

__all__ = [
    "FAULT_KINDS",
    "DOWN_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "FaultInjector",
    "FaultStats",
]
