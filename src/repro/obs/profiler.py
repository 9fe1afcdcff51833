"""Probe-attribution profiler: where probes go, and why.

The probe counter (:mod:`repro.core.probes`) answers *how many* probes a
query spent; this profiler answers *where* — which exploration kernel — and
*why* — which cache outcome.  Two orthogonal breakdowns:

* **Phases** — per-kernel probe deltas, attributed by snapshotting the
  probe counter at phase boundaries (:meth:`ProbeProfiler.phase`).  The
  kernels mark their hot sections: ``bfs`` (the D^k_L exploration of
  :mod:`repro.spannerk.bfs`), ``voronoi`` (the cell machinery of
  :mod:`repro.spannerk.voronoi`) and ``neighbor-scan`` (the new-cluster
  scan shared by the 3-/5-spanner components).  Probes spent outside any
  marked phase show up as the ``other`` residual at report time.
* **Cache outcomes** — every memoized query-answer call is classified as
  ``cold`` (computed, cold schedule charged), ``memo-hit`` (replayed from
  the memo) or ``epoch-invalidated`` (a stale entry was discarded by the
  mutation plane and the answer recomputed), with the probes each outcome
  charged.

Attribution is pure observation: the profiler never touches the counter or
the cache, so attaching one cannot change answers or probe totals (pinned
by the engine-equivalence test).  Hot paths reach it via
``getattr(oracle, "profiler", None)`` so un-instrumented oracles cost one
attribute lookup; :meth:`merge` folds per-replica profilers into one
deterministic view in shard order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..core.probes import PROBE_KINDS, ProbeSnapshot

#: The kernel phases the constructions mark (plus the report-time residual).
PROBE_PHASES = ("bfs", "voronoi", "neighbor-scan")

#: How a memoized query-answer call was satisfied.
COLD = "cold"
MEMO_HIT = "memo-hit"
EPOCH_INVALIDATED = "epoch-invalidated"
CACHE_OUTCOMES = (COLD, MEMO_HIT, EPOCH_INVALIDATED)


class ProbeProfiler:
    """Accumulates per-phase and per-cache-outcome probe attribution.

    One profiler per LCA (the service engine serves one shard call at a
    time); per-shard/replica profilers are merged into a pool-level view
    with :meth:`merge` in shard order at report time.
    """

    def __init__(self) -> None:
        #: phase -> per-kind probe counts (only phases actually seen).
        self.phase_kinds: Dict[str, Dict[str, int]] = {}
        #: phase -> number of marked sections entered.
        self.phase_calls: Dict[str, int] = {}
        #: outcome -> memoized-call count.
        self.outcome_calls: Dict[str, int] = {o: 0 for o in CACHE_OUTCOMES}
        #: outcome -> probes charged under that outcome (cold schedules for
        #: cold/invalidated recomputes, replayed charges for memo hits).
        self.outcome_probes: Dict[str, int] = {o: 0 for o in CACHE_OUTCOMES}
        #: Monotone count of stale memo entries the epoch check discarded in
        #: a memoized call's own lookup: the misses classified
        #: ``epoch-invalidated``.  Discards of inner per-vertex state that a
        #: computation makes while it runs are not counted, so the count
        #: does not depend on which kernel did the computing.
        self.invalidations = 0
        # Open frames: [label, counter, before-snapshot, children-delta, calls].
        self._frames: List[list] = []

    # -- phase attribution -------------------------------------------------
    def add_phase(self, label: str, delta: ProbeSnapshot, calls: int = 1) -> None:
        """Fold one phase's probe delta into the per-kind breakdown."""
        kinds = self.phase_kinds.setdefault(label, {k: 0 for k in PROBE_KINDS})
        kinds["neighbor"] += delta.neighbor
        kinds["degree"] += delta.degree
        kinds["adjacency"] += delta.adjacency
        self.phase_calls[label] = self.phase_calls.get(label, 0) + calls

    def begin_phase(self, label: str, counter, calls: int = 1) -> list:
        """Open a phase frame; pair with :meth:`end_phase` on every exit path.

        ``calls`` sets how many scalar phase entries the frame stands for —
        a batched kernel that evaluates N scalar scans inside one window
        passes ``calls=N`` so the per-phase call counts stay identical to
        the scalar engine's.
        """
        frame = [label, counter, counter.snapshot(), ProbeSnapshot(), calls]
        self._frames.append(frame)
        return frame

    def end_phase(self, frame: list) -> None:
        """Close a frame: attribute its *exclusive* probe delta.

        Nested frames (a Voronoi cluster computation running BFS
        explorations) subtract their full window from the enclosing frame,
        so phase totals are flame-style self times and sum without overlap.
        """
        label, counter, before, children, calls = frame
        self._frames.pop()
        delta = counter.snapshot() - before
        self.add_phase(label, delta - children, calls=calls)
        if self._frames:
            parent = self._frames[-1]
            parent[3] = parent[3] + delta

    @contextmanager
    def phase(self, label: str, counter) -> Iterator[None]:
        """Attribute probes recorded inside the block to ``label`` (exclusive)."""
        frame = self.begin_phase(label, counter)
        try:
            yield
        finally:
            self.end_phase(frame)

    # -- cache-outcome attribution ----------------------------------------
    def note_invalidation(self) -> None:
        """A stale memo entry was discarded (epoch check failed)."""
        self.invalidations += 1

    def record_hit(self, probes: int) -> None:
        """A memoized call replayed its stored cold schedule."""
        self.outcome_calls[MEMO_HIT] += 1
        self.outcome_probes[MEMO_HIT] += int(probes)

    def record_miss(self, probes: int, invalidated: bool = False) -> None:
        """A memoized call computed fresh (``invalidated``: after a discard)."""
        outcome = EPOCH_INVALIDATED if invalidated else COLD
        self.outcome_calls[outcome] += 1
        self.outcome_probes[outcome] += int(probes)

    # -- aggregation -------------------------------------------------------
    def merge(self, other: "ProbeProfiler") -> None:
        """Fold another profiler's attribution into this one."""
        for label, kinds in other.phase_kinds.items():
            snapshot = ProbeSnapshot(
                neighbor=kinds["neighbor"],
                degree=kinds["degree"],
                adjacency=kinds["adjacency"],
            )
            self.add_phase(label, snapshot, calls=other.phase_calls.get(label, 0))
        for outcome in CACHE_OUTCOMES:
            self.outcome_calls[outcome] += other.outcome_calls[outcome]
            self.outcome_probes[outcome] += other.outcome_probes[outcome]
        self.invalidations += other.invalidations

    def phase_rows(self, total_probes: Optional[int] = None) -> List[Dict[str, object]]:
        """Flame-style rows: one per phase, widest phase first.

        ``total_probes`` (e.g. the run's counter total) adds an ``other``
        residual row for probes spent outside any marked phase and a share
        column per row.
        """
        rows = []
        attributed = 0
        for label in sorted(
            self.phase_kinds, key=lambda l: (-sum(self.phase_kinds[l].values()), l)
        ):
            kinds = self.phase_kinds[label]
            phase_total = sum(kinds.values())
            attributed += phase_total
            rows.append(
                {
                    "phase": label,
                    "calls": self.phase_calls.get(label, 0),
                    "probes": phase_total,
                    **{kind: kinds[kind] for kind in PROBE_KINDS},
                }
            )
        if total_probes is not None:
            rows.append(
                {
                    "phase": "other",
                    "calls": None,
                    "probes": max(0, int(total_probes) - attributed),
                    "neighbor": None,
                    "degree": None,
                    "adjacency": None,
                }
            )
            for row in rows:
                share = row["probes"] / total_probes if total_probes else 0.0
                row["share"] = round(share, 3)
        return rows

    def as_dict(self) -> Dict[str, object]:
        """The deterministic JSON payload (reports/metrics consume this)."""
        return {
            "phases": {
                label: {
                    "calls": self.phase_calls.get(label, 0),
                    **{kind: self.phase_kinds[label][kind] for kind in PROBE_KINDS},
                    "total": sum(self.phase_kinds[label].values()),
                }
                for label in sorted(self.phase_kinds)
            },
            "outcomes": {
                outcome: {
                    "calls": self.outcome_calls[outcome],
                    "probes": self.outcome_probes[outcome],
                }
                for outcome in CACHE_OUTCOMES
            },
            "invalidations": self.invalidations,
        }
