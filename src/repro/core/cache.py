"""Cross-query memoization for the probe oracle.

The LCAs of the paper are pure functions of ``(graph, seed, query)``
(Definition 1.4), so every intermediate quantity an LCA derives — degrees,
neighbor-list prefixes, center sets ``S(v)``, cluster memberships,
representative sets — is itself a pure function of ``(graph, seed, vertex)``
and can be cached across queries without changing a single answer.  This is
the same observation the space-efficient-LCA line of work exploits to reuse
previously computed per-vertex state.

The probe-accounting contract
-----------------------------

Probe complexity is the paper's *model* cost, not a wall-clock cost.  The
cached fast path therefore preserves accounting exactly:

* every query is charged the probes of the **cold-cache probe schedule** —
  the sequence of ``Degree`` / ``Neighbor`` / ``Adjacency`` probes the
  algorithm would have made with an empty cache — even when the answer is
  served from memoized state;
* charges are recorded per probe kind, so per-kind breakdowns (Tables 4–5)
  match the cold path, not just totals;
* only the wall-clock work is elided: memoized values are returned from
  dictionaries and the corresponding probes are recorded in bulk.

Concretely, :meth:`~repro.core.lca.SpannerLCA.query_batch` stores each
answer with the per-kind probes its decision charged on the miss and
replays exactly that cost on every later hit.  Because an answer's probe
cost is itself a pure function of ``(graph, seed, query)``, the replayed
cost equals the cold cost, and an equivalence test
(``tests/test_backend_equivalence.py``) enforces identical per-query probe
totals between the cold and cached paths.

One observable difference is *budget* enforcement: charges are recorded in
bulk (a call's hits at its end, misses decided together at once), so a
:class:`~repro.core.probes.ProbeCounter` budget trips inside the call whose
charges pass it rather than on the query and probe the cold path stops at.
Budgeted counters (the lower-bound experiments) use the cold path.

:class:`OracleCache` is the storage: per-vertex read caches for the three
probe primitives plus named memo tables for derived per-vertex state.  It is
owned by a :class:`~repro.core.oracle.CachedOracle` and lives as long as its
LCA, so state is reused across queries *and* across materializations.

Epoch-based invalidation (dynamic graphs)
-----------------------------------------

Graphs mutate (:meth:`~repro.graphs.graph.Graph.add_edge` /
``remove_edge``), and every memoized value is a pure function of the *rows
it read*.  The cache therefore records, per entry, the set of vertices the
computation touched (:class:`MemoEntry`) along with the graph epoch at
store time; a mutation merely bumps the epochs of its two endpoints.  A
dependency set is kept as its sorted ids packed into an ``array("q")`` (a
sorted tuple when an id does not fit in 64 bits), about a fifth of a
``frozenset``'s memory, and membership is a bisection.  On
lookup an entry is served only while none of its touched vertices has a
newer epoch — otherwise it is discarded and the miss path recomputes
against the current graph, re-charging the cold probe schedule of the *new*
graph.  Because computations are deterministic and only read through the
tracked accessors, a fresh entry's value and replayed cold cost are
bit-identical to what a from-scratch rebuild on the post-mutation edge set
would produce — the mutation-plane equivalence the tests pin.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional, Sequence, Set, Tuple

from ..graphs.graph import Graph, Vertex

#: Empty dependency set shared by graph-independent memo entries.
_NO_TOUCHES: tuple = ()


def _pack_ids(ids) -> Sequence[int]:
    """A dependency set as sorted ids: an ``array("q")`` of 8-byte ids.

    A set with an id outside the signed 64-bit range becomes a sorted tuple
    instead.  Either form answers membership by bisection
    (:func:`_has_id`).  Ids that come packed already (an ``array("q")`` of
    sorted distinct ids, as the numpy kernel builds them) are kept as they
    are.
    """
    if isinstance(ids, array):
        return ids
    ordered = sorted(ids)
    try:
        return array("q", ordered)
    except OverflowError:
        return tuple(ordered)


def _has_id(packed: Sequence[int], vertex: int) -> bool:
    """Whether the sorted ids ``packed`` hold ``vertex`` (bisection)."""
    index = bisect_left(packed, vertex)
    return index < len(packed) and packed[index] == vertex


class MemoEntry:
    """One memoized value plus its epoch-invalidation metadata.

    ``touched`` holds the vertices whose neighbor rows (or degrees, or
    adjacency rows) the computation read, packed by :func:`_pack_ids`;
    ``epoch`` is the graph's global mutation epoch when the value was
    stored.  The entry is *fresh* while no touched vertex has mutated since
    — computations are deterministic, so re-running one whose reads are all
    unchanged would retrace the same reads and produce the same value (and
    the same cold probe schedule).  An entry with no touched vertex is a
    pure function of ``(seed, key)`` and never goes stale.
    """

    __slots__ = ("value", "epoch", "touched")

    def __init__(
        self, value, epoch: int = 0, touched: Sequence[int] = _NO_TOUCHES
    ) -> None:
        self.value = value
        self.epoch = epoch
        self.touched = touched

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MemoEntry)
            and self.value == other.value
            and self.epoch == other.epoch
            and self.touched == other.touched
        )

    def __hash__(self):  # pragma: no cover - entries are not used as keys
        return hash((self.value, self.epoch, tuple(self.touched)))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"MemoEntry({self.value!r}, epoch={self.epoch}, touched={len(self.touched)})"


@dataclass
class CacheStats:
    """Hit/miss counters for memoized derived state (reporting only)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


class OracleCache:
    """Memo tables and raw-read facade backing a ``CachedOracle``.

    All accessors are **probe-free**: they read the graph directly and never
    touch a probe counter.  Charging the model cost is the caller's job (see
    the module docstring for the contract).

    Raw reads (neighbor rows, degrees, adjacency rows) delegate to the lazy
    structures the graph already maintains — cached neighbor views
    and per-vertex ``adjacency_row`` dicts — so the adjacency data exists in
    exactly one place per graph; this object only owns the memo tables for
    *derived* per-LCA state.
    """

    __slots__ = ("graph", "stats", "discards", "_memos", "_trackers")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.stats = CacheStats()
        #: Monotone count of stale entries :meth:`lookup` discarded.
        self.discards = 0
        self._memos: Dict[Hashable, dict] = {}
        # Dependency-tracking frames: while a memoized computation runs, the
        # top frame collects the vertices whose rows it reads.
        self._trackers: list = []

    # ------------------------------------------------------------------ #
    # Raw reads (probe-free; served by the graph's own lazy caches)
    # ------------------------------------------------------------------ #
    def degree(self, v: Vertex) -> int:
        # The graph answers degree in O(1) (an indptr difference) without
        # materializing the neighbor view.
        if self._trackers:
            self._trackers[-1].add(int(v))
        return self.graph.degree(v)

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        if self._trackers:
            self._trackers[-1].add(int(v))
        return self.graph.neighbors(v)

    def index_row(self, v: Vertex) -> Dict[Vertex, int]:
        """The ``{neighbor: position}`` row of ``v`` (read-only)."""
        if self._trackers:
            self._trackers[-1].add(int(v))
        return self.graph.adjacency_row(v)

    @property
    def tracking(self) -> bool:
        """Whether a :meth:`track` frame is currently open."""
        return bool(self._trackers)

    def note_read(self, vertices) -> None:
        """Register vertices a batched kernel read outside the accessors.

        Vectorized kernels read adjacency from an epoch-stamped array view
        instead of :meth:`degree`/:meth:`neighbors`; this records the same
        dependency set with the innermost tracker so memoized values built
        over kernel reads still invalidate on exactly the scalar schedule.
        """
        if self._trackers:
            tracker = self._trackers[-1]
            for vertex in vertices:
                tracker.add(int(vertex))

    # ------------------------------------------------------------------ #
    # Memo tables for derived per-vertex state
    # ------------------------------------------------------------------ #
    def memo(self, namespace: Hashable) -> dict:
        """A named memo table (created on first use).

        Callers use ``(system_object, role)`` tuples as namespaces so that
        distinct center systems / samplers (distinct seeds) never share
        entries.  Keeping the object itself in the key also pins it alive,
        ruling out ``id()`` reuse bugs.
        """
        table = self._memos.get(namespace)
        if table is None:
            table = {}
            self._memos[namespace] = table
        return table

    def memo_sizes(self) -> Dict[str, int]:
        """Entry counts per memo namespace (debugging / reporting)."""
        return {repr(namespace): len(table) for namespace, table in self._memos.items()}

    # ------------------------------------------------------------------ #
    # Epoch-aware memoization (the mutation-plane invalidation protocol)
    # ------------------------------------------------------------------ #
    def _entry_fresh(self, entry: MemoEntry) -> bool:
        current = self.graph.epoch
        if current == entry.epoch:
            # Fast path: nothing mutated since the entry was last validated
            # (every lookup on a never-mutated graph, where both sides are 0).
            return True
        if not self._unchanged(entry):
            return False
        # Survived validation: re-stamp so the next lookup takes the fast
        # path until the *next* mutation — validation cost is paid once per
        # (entry, mutation burst), not once per hit.
        entry.epoch = current
        return True

    def _unchanged(self, entry: MemoEntry) -> bool:
        """Whether no vertex ``entry`` touched mutated after its stamp."""
        touched = entry.touched
        if not touched:
            return True
        graph = self.graph
        stored = entry.epoch
        if graph.epoch - stored <= len(touched):
            # Few mutations since: scan the mutation-log suffix against
            # the dependency set (membership by bisection).
            for (u, v) in graph.mutations_since(stored):
                if _has_id(touched, u) or _has_id(touched, v):
                    return False
            return True
        # Many mutations since: per-vertex epoch comparison is the cheaper
        # direction.
        vertex_epoch = graph.vertex_epoch
        return all(vertex_epoch(v) <= stored for v in touched)

    def lookup(self, namespace: Hashable, key: Hashable) -> Optional[MemoEntry]:
        """The fresh :class:`MemoEntry` under ``(namespace, key)``, or ``None``.

        A stale entry — one whose touched vertices mutated after it was
        stored — is discarded here, so the caller's miss path recomputes it
        against the current graph and re-charges the (new) cold probe
        schedule.  On a hit the entry's dependency set is propagated into
        the enclosing tracking frame, keeping outer memoized computations
        invalidatable through the state they consumed indirectly.
        """
        table = self._memos.get(namespace)
        if table is None:
            return None
        entry = table.get(key)
        if entry is None:
            return None
        if not self._entry_fresh(entry):
            del table[key]
            self.discards += 1
            return None
        if self._trackers and entry.touched:
            self._trackers[-1].update(entry.touched)
        return entry

    def store(
        self, namespace: Hashable, key: Hashable, value, touched: Set[Vertex]
    ) -> MemoEntry:
        """Store a value computed under a :meth:`track` frame.

        The dependency set is kept packed (:func:`_pack_ids`); ``touched``
        may also come packed already.
        """
        packed = _pack_ids(touched) if touched else _NO_TOUCHES
        entry = MemoEntry(value, self.graph.epoch, packed)
        self.memo(namespace)[key] = entry
        if self._trackers and touched:
            self._trackers[-1].update(touched)
        return entry

    @contextmanager
    def track(self) -> Iterator[Set[Vertex]]:
        """Collect the vertices read by the computation inside the block."""
        tracker: Set[Vertex] = set()
        self._trackers.append(tracker)
        try:
            yield tracker
        finally:
            self._trackers.pop()

    def memoize(self, namespace: Hashable, key: Hashable, compute):
        """Epoch-aware memoization of a probe-free computation.

        The shared helper behind every per-vertex derived-state memo
        (center sets, elections, representatives, ...): serves fresh
        entries, lazily discards stale ones, and records the dependency set
        of ``compute`` so later mutations of any vertex it read invalidate
        the entry.  Callers charge the cold probe schedule themselves —
        this layer never touches a probe counter (or the hit/miss stats,
        which count ``query_batch``'s answer lookups).
        """
        entry = self.lookup(namespace, key)
        if entry is not None:
            return entry.value
        with self.track() as touched:
            value = compute()
        self.store(namespace, key, value, touched)
        return value

    def clear(self) -> None:
        """Drop all memoized state (answers are unaffected; only speed is)."""
        self._memos.clear()

