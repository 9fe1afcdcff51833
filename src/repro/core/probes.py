"""Probe accounting.

The central complexity measure of an LCA is its *probe complexity*: the
maximum number of oracle probes used to answer a single query
(Definition 1.4).  :class:`ProbeCounter` tracks the three probe types of the
paper (``Neighbor``, ``Degree``, ``Adjacency``) and supports nested
"checkpoints" so a harness can attribute probes to individual queries or to
individual sub-routines (used to reproduce Tables 4 and 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager

from .errors import ProbeBudgetExceededError

NEIGHBOR = "neighbor"
DEGREE = "degree"
ADJACENCY = "adjacency"

PROBE_KINDS = (NEIGHBOR, DEGREE, ADJACENCY)


def nearest_rank_percentile(ordered, q: float):
    """The ``q``-th percentile (0 <= q <= 100) of an already *sorted* sequence.

    Uses explicit floor-based nearest-rank selection
    (``⌊q/100 · (N-1) + 1/2⌋``): half-way ranks always round up, unlike
    ``round()`` whose banker's rounding rounds ties to the nearest even rank
    and can pick the rank *below* the midpoint.  Works for any ordered values
    (probe counts, latencies, ...); returns an element of the sequence, or 0
    when it is empty.
    """
    if not ordered:
        return 0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be between 0 and 100")
    # Multiply before dividing — (q/100) * (N-1) loses the tie rank to
    # representation error (e.g. (58/100)*25 = 14.499999999999998 would
    # floor to 14, not 15) — then quantize away the remaining sub-1e-9
    # float noise so decimal q values (64.6, ...) hit their exact rank.
    rank = round(q * (len(ordered) - 1) / 100.0, 9)
    return ordered[int(math.floor(rank + 0.5))]


@dataclass
class ProbeSnapshot:
    """Immutable view of probe counts at a moment in time."""

    neighbor: int = 0
    degree: int = 0
    adjacency: int = 0

    @property
    def total(self) -> int:
        return self.neighbor + self.degree + self.adjacency

    def __sub__(self, other: "ProbeSnapshot") -> "ProbeSnapshot":
        return ProbeSnapshot(
            neighbor=self.neighbor - other.neighbor,
            degree=self.degree - other.degree,
            adjacency=self.adjacency - other.adjacency,
        )

    def __add__(self, other: "ProbeSnapshot") -> "ProbeSnapshot":
        # Replica-set telemetry sums per-replica snapshots into one
        # per-shard view (see repro.service.shards.ReplicaSet).
        return ProbeSnapshot(
            neighbor=self.neighbor + other.neighbor,
            degree=self.degree + other.degree,
            adjacency=self.adjacency + other.adjacency,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            NEIGHBOR: self.neighbor,
            DEGREE: self.degree,
            ADJACENCY: self.adjacency,
            "total": self.total,
        }


@dataclass
class ProbeCounter:
    """Mutable probe counter with optional budget enforcement.

    Parameters
    ----------
    budget:
        Optional cap on the *total* number of probes.  When exceeded a
        :class:`ProbeBudgetExceededError` is raised; useful for enforcing the
        sub-linear probe guarantees in tests and for the lower-bound
        experiments where the adversary limits the number of probes.
    """

    budget: Optional[int] = None
    counts: Dict[str, int] = field(
        default_factory=lambda: {NEIGHBOR: 0, DEGREE: 0, ADJACENCY: 0}
    )

    def record(self, kind: str, amount: int = 1) -> None:
        """Record ``amount`` probes of the given kind."""
        if kind not in self.counts:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.counts[kind] += amount
        if self.budget is not None and self.total > self.budget:
            raise ProbeBudgetExceededError(self.budget, self.total)

    @property
    def neighbor(self) -> int:
        return self.counts[NEIGHBOR]

    @property
    def degree(self) -> int:
        return self.counts[DEGREE]

    @property
    def adjacency(self) -> int:
        return self.counts[ADJACENCY]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> ProbeSnapshot:
        """Return an immutable snapshot of the current counts."""
        return ProbeSnapshot(
            neighbor=self.counts[NEIGHBOR],
            degree=self.counts[DEGREE],
            adjacency=self.counts[ADJACENCY],
        )

    def reset(self) -> None:
        """Zero all counters (budget is kept)."""
        for kind in self.counts:
            self.counts[kind] = 0

    @contextmanager
    def measure(self) -> Iterator["ProbeMeasurement"]:
        """Context manager measuring probes used inside the ``with`` block."""
        measurement = ProbeMeasurement(start=self.snapshot())
        try:
            yield measurement
        finally:
            measurement.finish(self.snapshot())


@dataclass
class ProbeMeasurement:
    """Result of a :meth:`ProbeCounter.measure` block."""

    start: ProbeSnapshot
    end: Optional[ProbeSnapshot] = None

    def finish(self, end: ProbeSnapshot) -> None:
        self.end = end

    @property
    def used(self) -> ProbeSnapshot:
        if self.end is None:
            raise RuntimeError("measurement has not finished yet")
        return self.end - self.start

    @property
    def total(self) -> int:
        return self.used.total


@dataclass
class ProbeStatistics:
    """Aggregate probe statistics over many queries (max / mean / count)."""

    query_totals: list = field(default_factory=list)

    def add(self, total: int) -> None:
        self.query_totals.append(int(total))

    @property
    def queries(self) -> int:
        return len(self.query_totals)

    @property
    def max(self) -> int:
        return max(self.query_totals) if self.query_totals else 0

    @property
    def mean(self) -> float:
        if not self.query_totals:
            return 0.0
        return sum(self.query_totals) / len(self.query_totals)

    @property
    def total(self) -> int:
        return sum(self.query_totals)

    def percentile(self, q: float) -> int:
        """Return the ``q``-th percentile (0 <= q <= 100) of per-query probes.

        Delegates to :func:`nearest_rank_percentile` (floor-based nearest
        rank), shared with the service-layer latency statistics.
        """
        return nearest_rank_percentile(sorted(self.query_totals), q)

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "total": self.total,
        }
