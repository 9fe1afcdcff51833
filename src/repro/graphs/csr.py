"""Compressed-sparse-row (CSR) graph storage.

:class:`CSRGraph` stores every neighbor list in one flat ``array`` of vertex
ids behind an offset-pointer array (``indptr``), the classic CSR layout:

* ``indptr[p] .. indptr[p+1]`` delimit the neighbor row of the vertex at
  position ``p`` (positions follow insertion order of the adjacency mapping),
* ``indices[indptr[p] + i]`` is the ``i``-th neighbor, in exactly the same
  fixed order the dict backend would expose.

Because the LCA model only ever reads ``Degree``, ``Neighbor`` and
``Adjacency`` probes, the two backends are observationally identical: same
degrees, same neighbor orderings, same adjacency indices.  The equivalence
test suite (``tests/test_backend_equivalence.py``) asserts this down to
per-query probe totals.

The ``Adjacency``-probe index (a per-vertex ``{neighbor: position}`` dict) is
built lazily, one row at a time, on first use — generators and BFS never pay
for it, and materialization only pays for the rows it actually probes.

Vertices are arbitrary integers (ids need not form ``0..n-1``); an id → row
position map translates between the two.  The flat layout is also what the
on-disk snapshot format dumps verbatim (:mod:`repro.scale.snapshot`), the
one read-only transport for a built graph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..core.errors import GraphError, UnknownVertexError
from .graph import (
    Edge,
    Graph,
    Vertex,
    undeclared_neighbor_error,
    validate_adjacency,
)

#: Default number of pending overlay entries that triggers an automatic
#: :meth:`CSRGraph.compact`.  The overlay keeps single mutations O(Δ-free)
#: cheap; once deltas pile up, one O(m) re-materialization restores flat
#: array scans for every row.
DEFAULT_COMPACT_THRESHOLD = 512


def _in_sorted(values, item: int) -> bool:
    """Membership test on a sorted array (the removal side-arrays)."""
    position = bisect_left(values, item)
    return position < len(values) and values[position] == item


class CSRGraph(Graph):
    """CSR-backed graph with the same interface and semantics as :class:`Graph`."""

    __slots__ = (
        "_ids",
        "_pos",
        "_indptr",
        "_indices",
        "_rows",
        "_delta_add",
        "_delta_removed",
        "_delta_entries",
        "_survivors",
        "compact_threshold",
    )

    backend = "csr"

    def __init__(
        self,
        adjacency: Mapping[Vertex, Sequence[Vertex]],
        validate: bool = True,
    ) -> None:
        ids: List[Vertex] = []
        pos: Dict[Vertex, int] = {}
        for v in adjacency:
            v = int(v)
            if v not in pos:
                pos[v] = len(ids)
                ids.append(v)
        try:
            indices = array("q")
            indptr = array("q", [0])
            offset = 0
            for v in ids:
                row = adjacency[v]
                indices.extend(int(w) for w in row)
                offset += len(row)
                indptr.append(offset)
        except OverflowError:
            # Vertex ids beyond 64 bits: fall back to a plain flat list.
            indices = []  # type: ignore[assignment]
            indptr = array("q", [0])
            offset = 0
            for v in ids:
                row = [int(w) for w in adjacency[v]]
                indices.extend(row)
                offset += len(row)
                indptr.append(offset)
        error = undeclared_neighbor_error(adjacency, pos)
        if error is not None:
            raise error
        if validate:
            validate_adjacency({v: list(adjacency[v]) for v in adjacency})
        self._ids = ids
        self._pos = pos
        self._indptr = indptr
        self._indices = indices
        # Lazy per-vertex {neighbor: position} rows for Adjacency probes.
        self._rows: Dict[int, Dict[Vertex, int]] = {}
        self._views = {}
        self._num_edges = len(indices) // 2
        self._init_mutation_state()
        self._init_overlay()

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert any backend to CSR, preserving neighbor orderings."""
        return graph.to_backend("csr")  # type: ignore[return-value]

    @classmethod
    def from_arrays(
        cls,
        indptr: "array",
        indices: "array",
        ids: Optional[Sequence[int]] = None,
    ) -> "CSRGraph":
        """Adopt pre-built flat CSR arrays without an adjacency-dict pass.

        This is the entry point for the streaming builders
        (:mod:`repro.scale.stream`): they assemble ``indptr``/``indices``
        incrementally from edge chunks and hand the finished arrays over,
        so a million-node graph never exists as a Python edge list or an
        adjacency mapping.  The arrays are adopted, not copied — callers
        must not mutate them afterwards.

        ``ids`` defaults to ``0..n-1`` (position == id).  Row ``p`` of
        ``indices`` must hold the neighbors of ``ids[p]`` in their final,
        probe-visible order; symmetry and simplicity are the builder's
        contract (the streaming builder validates per edge as it fills).
        """
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0:
            raise GraphError("indptr must start at 0 and have n + 1 entries")
        if len(indices) != indptr[n]:
            raise GraphError(
                f"indices length {len(indices)} does not match "
                f"indptr[-1] = {indptr[n]}"
            )
        if ids is None:
            id_list: List[int] = list(range(n))
            pos = {v: v for v in id_list}
        else:
            id_list = [int(v) for v in ids]
            pos = {v: p for p, v in enumerate(id_list)}
            if len(pos) != n:
                raise GraphError(
                    f"ids must be {n} distinct vertex ids, got {len(id_list)}"
                )
        graph = cls.__new__(cls)
        graph._ids = id_list
        graph._pos = pos
        graph._indptr = indptr
        graph._indices = indices
        graph._rows = {}
        graph._views = {}
        graph._num_edges = len(indices) // 2
        graph._init_mutation_state()
        graph._init_overlay()
        return graph

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    def vertices(self) -> List[Vertex]:
        return list(self._ids)

    def has_vertex(self, v: Vertex) -> bool:
        return int(v) in self._pos

    def edges(self) -> Iterator[Edge]:
        if self._delta_entries:
            # _neighbors_of, not neighbors(): the cached-view accessor would
            # permanently materialize a tuple per vertex just to iterate.
            for u in self._ids:
                for v in self._neighbors_of(u):
                    if u < v:
                        yield (u, v)
            return
        indptr, indices = self._indptr, self._indices
        for p, u in enumerate(self._ids):
            for k in range(indptr[p], indptr[p + 1]):
                v = indices[k]
                if u < v:
                    yield (u, v)

    def degree(self, v: Vertex) -> int:
        p = self._position(v)
        base = self._indptr[p + 1] - self._indptr[p]
        if not self._delta_entries:
            return base
        v = int(v)
        removed = self._delta_removed.get(v)
        added = self._delta_add.get(v)
        if removed:
            base -= len(removed)
        if added:
            base += len(added)
        return base

    def neighbor_at(self, v: Vertex, index: int) -> Optional[Vertex]:
        v = int(v)
        if self._delta_entries and (
            v in self._delta_add or v in self._delta_removed
        ):
            row = self.neighbors(v)
            if 0 <= index < len(row):
                return row[index]
            return None
        p = self._position(v)
        start = self._indptr[p]
        if 0 <= index < self._indptr[p + 1] - start:
            return self._indices[start + index]
        return None

    def adjacency_index(self, u: Vertex, v: Vertex) -> Optional[int]:
        return self.adjacency_row(u).get(int(v))

    def adjacency_row(self, v: Vertex) -> Dict[Vertex, int]:
        v = int(v)
        row = self._rows.get(v)
        if row is None:
            row = {w: i for i, w in enumerate(self._neighbors_of(v))}
            self._rows[v] = row
        return row

    def max_degree(self) -> int:
        if self._delta_entries:
            return max((self.degree(v) for v in self._ids), default=0)
        indptr = self._indptr
        if len(indptr) < 2:
            return 0
        return max(indptr[p + 1] - indptr[p] for p in range(len(indptr) - 1))

    def min_degree(self) -> int:
        if self._delta_entries:
            return min((self.degree(v) for v in self._ids), default=0)
        indptr = self._indptr
        if len(indptr) < 2:
            return 0
        return min(indptr[p + 1] - indptr[p] for p in range(len(indptr) - 1))

    # ------------------------------------------------------------------ #
    # Mutation overlay (delta side-arrays + compaction)
    # ------------------------------------------------------------------ #
    def _init_overlay(self) -> None:
        # Per-vertex overlay consulted by every neighbor view while deltas
        # are pending: appended neighbors (in mutation order) and removed
        # neighbor ids (sorted side-arrays probed with bisect).
        self._delta_add: Dict[int, List[int]] = {}
        self._delta_removed: Dict[int, array] = {}
        self._delta_entries = 0
        # Per-vertex survivor rows (base minus removals plus appends),
        # computed once per epoch instead of per probe; a mutation of the
        # vertex drops its entry, compaction drops the whole cache.
        self._survivors: Dict[int, tuple] = {}
        self.compact_threshold = DEFAULT_COMPACT_THRESHOLD

    @property
    def delta_count(self) -> int:
        return self._delta_entries

    def _apply_add(self, u: Vertex, v: Vertex) -> None:
        # A re-added edge whose base occurrence is masked by the removal
        # side-array stays masked: the appended id lands at the end of the
        # row, exactly where the dict backend's remove-then-append puts it.
        for a, b in ((u, v), (v, u)):
            self._delta_add.setdefault(a, []).append(b)
            self._delta_entries += 1

    def _apply_remove(self, u: Vertex, v: Vertex) -> None:
        for a, b in ((u, v), (v, u)):
            added = self._delta_add.get(a)
            if added is not None and b in added:
                added.remove(b)
                self._delta_entries -= 1
                if not added:
                    del self._delta_add[a]
                continue
            removed = self._delta_removed.get(a)
            if removed is None:
                removed = array("q")
                self._delta_removed[a] = removed
            insort(removed, b)
            self._delta_entries += 1

    def _invalidate_rows(self, u: Vertex, v: Vertex) -> None:
        self._rows.pop(u, None)
        self._rows.pop(v, None)
        self._survivors.pop(u, None)
        self._survivors.pop(v, None)

    def _maybe_compact(self) -> None:
        if self._delta_entries > self.compact_threshold:
            self.compact()

    def compact(self) -> "CSRGraph":
        """Re-materialize the flat CSR arrays with all deltas folded in.

        Observable state is untouched: rows, orderings, degrees, epochs and
        cached views all stay exactly as they were — only the storage moves
        from base-plus-overlay back to flat arrays.
        """
        if not self._delta_entries:
            return self
        try:
            indices = array("q")
            indptr = array("q", [0])
            offset = 0
            for v in self._ids:
                row = self._neighbors_of(v)
                indices.extend(row)
                offset += len(row)
                indptr.append(offset)
        except OverflowError:
            indices = []  # type: ignore[assignment]
            indptr = array("q", [0])
            offset = 0
            for v in self._ids:
                row = self._neighbors_of(v)
                indices.extend(row)
                offset += len(row)
                indptr.append(offset)
        self._indices = indices
        self._indptr = indptr
        self._delta_add = {}
        self._delta_removed = {}
        self._delta_entries = 0
        self._survivors = {}
        return self

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _position(self, v: Vertex) -> int:
        try:
            return self._pos[int(v)]
        except KeyError:
            raise UnknownVertexError(v) from None

    def _neighbors_of(self, v: Vertex) -> Sequence[Vertex]:
        # Raw row slice; the inherited Graph.neighbors() turns it into the
        # cached immutable view, keeping the view-memo logic in one place.
        p = self._position(v)
        base = self._indices[self._indptr[p] : self._indptr[p + 1]]
        if not self._delta_entries:
            return base
        v = int(v)
        removed = self._delta_removed.get(v)
        added = self._delta_add.get(v)
        if removed is None and added is None:
            return base
        survivors = self._survivors.get(v)
        if survivors is None:
            if removed:
                row = [w for w in base if not _in_sorted(removed, w)]
            else:
                row = list(base)
            if added:
                row.extend(added)
            survivors = tuple(row)
            self._survivors[v] = survivors
        return survivors

    def _validate(self) -> None:  # pragma: no cover - validation runs in __init__
        validate_adjacency(self.as_adjacency())
