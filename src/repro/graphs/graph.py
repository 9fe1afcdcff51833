"""Static adjacency-list graphs with fixed neighbor orderings, in CSR storage.

The LCA model (Section 1.4 of the paper) assumes the input graph is presented
through an adjacency-list oracle in which *each neighbor set has a fixed, but
arbitrary, ordering*.  :class:`Graph` stores exactly this representation in
compressed-sparse-row (CSR) form — every neighbor list in one flat ``array``
of vertex ids behind an offset-pointer array (``indptr``):

* ``indptr[p] .. indptr[p+1]`` delimit the neighbor row of the vertex at
  position ``p`` (positions follow insertion order),
* ``indices[indptr[p] + i]`` is the ``i``-th neighbor, in the fixed order
  ``Neighbor`` probes expose.

The model reads the graph only through ``Degree``, ``Neighbor`` and
``Adjacency`` probes, so the storage layout can change neither an answer nor
a probe charge.  The ``Adjacency``-probe index (a per-vertex
``{neighbor: position}`` dict) is built lazily, one row at a time, on first
use — generators and BFS never pay for it, and materialization only pays
for the rows it actually probes.

Graphs support live edge mutations (:meth:`Graph.add_edge` /
:meth:`Graph.remove_edge`): added neighbors are appended to the end of both
rows, removals preserve the relative order of the survivors, and every
mutation bumps a per-vertex *epoch* that the derived-state caches
(:mod:`repro.core.cache`) use for lazy invalidation.  Mutations land in a
per-vertex delta overlay that :meth:`Graph.compact` folds back into the flat
arrays.

Vertices are arbitrary integers (ids need not form ``0..n-1``); an id → row
position map translates between the two.  The flat layout is also what the
on-disk snapshot format dumps verbatim (:mod:`repro.scale.snapshot`), the
one read-only transport for a built graph.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import GraphError, UnknownVertexError
from ..core.ids import canonical_edge

Vertex = int
Edge = Tuple[int, int]

#: Default number of pending overlay entries that triggers an automatic
#: :meth:`Graph.compact`.  The overlay keeps single mutations O(Δ-free)
#: cheap; once deltas pile up, one O(m) re-materialization restores flat
#: array scans for every row.
DEFAULT_COMPACT_THRESHOLD = 512


def validate_adjacency(adjacency: Mapping[Vertex, Sequence[Vertex]]) -> None:
    """Check an adjacency mapping for simplicity and symmetry."""
    for v, neighbors in adjacency.items():
        if len(set(neighbors)) != len(neighbors):
            raise GraphError(f"vertex {v} has repeated neighbors")
        if v in neighbors:
            raise GraphError(f"vertex {v} has a self loop")
    for v, neighbors in adjacency.items():
        for w in neighbors:
            if v not in adjacency[w]:
                raise GraphError(
                    f"adjacency is not symmetric: {w} missing neighbor {v}"
                )


def _in_sorted(values, item: int) -> bool:
    """Membership test on a sorted list (the removal side-lists)."""
    position = bisect_left(values, item)
    return position < len(values) and values[position] == item


def _flatten(ids: Sequence[Vertex], row_of: Callable[[Vertex], Sequence[Vertex]]):
    """``(indptr, indices)`` holding ``row_of(v)`` for each ``v`` in order."""
    try:
        indices = array("q")
        indptr = array("q", [0])
        offset = 0
        for v in ids:
            row = row_of(v)
            indices.extend(row)
            offset += len(row)
            indptr.append(offset)
    except OverflowError:
        # Vertex ids beyond 64 bits: fall back to a plain flat list.
        indices = []  # type: ignore[assignment]
        indptr = array("q", [0])
        offset = 0
        for v in ids:
            row = row_of(v)
            indices.extend(row)
            offset += len(row)
            indptr.append(offset)
    return indptr, indices


class Graph:
    """Simple undirected graph with fixed adjacency-list orderings.

    Parameters
    ----------
    adjacency:
        Mapping from each vertex to the sequence of its neighbors in the
        order exposed by ``Neighbor`` probes.  The mapping must be symmetric
        (``v in adjacency[u]`` iff ``u in adjacency[v]``), contain no
        self-loops and no repeated neighbors.
    validate:
        When ``True`` (default) the adjacency structure is checked for
        symmetry and simplicity.  Large generators that construct symmetric
        structures by design may pass ``False`` to skip the O(m) check.
    """

    __slots__ = (
        "_ids",
        "_pos",
        "_indptr",
        "_indices",
        "_rows",
        "_views",
        "_num_edges",
        "_graph_epoch",
        "_vertex_epochs",
        "_mutation_log",
        "_delta_add",
        "_delta_removed",
        "_delta_entries",
        "_survivors",
        "compact_threshold",
        "__weakref__",
    )

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
        indptr, indices = _flatten(ids, lambda v: [int(w) for w in adjacency[v]])
        # Every neighbor must have an adjacency list of its own.
        for v, neighbors in adjacency.items():
            for w in neighbors:
                if int(w) not in pos:
                    raise GraphError(
                        f"vertex {int(w)} appears as a neighbor of {int(v)} but "
                        "has no adjacency list of its own"
                    )
        if validate:
            validate_adjacency({v: list(adjacency[v]) for v in adjacency})
        self._adopt(ids, pos, indptr, indices)

    def _adopt(self, ids, pos: Dict[Vertex, int], indptr, indices) -> None:
        """Take over finished storage arrays and start with no mutations."""
        self._ids = ids
        self._pos = pos
        self._indptr = indptr
        self._indices = indices
        # Lazy per-vertex {neighbor: position} rows for Adjacency probes.
        self._rows: Dict[int, Dict[Vertex, int]] = {}
        # Cached immutable neighbor views handed out by neighbors().
        self._views: Dict[Vertex, Tuple[Vertex, ...]] = {}
        self._num_edges = len(indices) // 2
        self._init_mutation_state()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _adjacency_from_edges(
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Optional[Iterable[Vertex]] = None,
        shuffle_seed: Optional[int] = None,
    ) -> Dict[Vertex, List[Vertex]]:
        adjacency: Dict[Vertex, List[Vertex]] = {}
        if vertices is not None:
            for v in vertices:
                adjacency.setdefault(int(v), [])
        seen = set()
        for (u, v) in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self loop ({u}, {v}) is not allowed")
            key = canonical_edge(u, v)
            if key in seen:
                continue
            seen.add(key)
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        if shuffle_seed is not None:
            rng = random.Random(shuffle_seed)
            for v in adjacency:
                rng.shuffle(adjacency[v])
        return adjacency

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Optional[Iterable[Vertex]] = None,
        shuffle_seed: Optional[int] = None,
    ) -> "Graph":
        """Build a graph from an iterable of undirected edges.

        Neighbor lists are ordered by edge-insertion order, which is
        "arbitrary but fixed" exactly as the model requires.  Passing
        ``shuffle_seed`` randomly permutes every neighbor list (deterministic
        in the seed), which is useful for testing that algorithms do not rely
        on any particular ordering.
        """
        adjacency = cls._adjacency_from_edges(edges, vertices, shuffle_seed)
        return cls(adjacency, validate=False)

    @classmethod
    def from_arrays(
        cls,
        indptr: "array",
        indices: "array",
        ids: Optional[Sequence[int]] = None,
    ) -> "Graph":
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
        graph._adopt(id_list, pos, indptr, indices)
        return graph

    @classmethod
    def from_networkx(cls, nx_graph, shuffle_seed: Optional[int] = None) -> "Graph":
        """Build a :class:`Graph` from a ``networkx`` graph.

        Node labels must be integers (or convertible to integers without
        collision); use ``networkx.convert_node_labels_to_integers`` first if
        necessary.
        """
        edges = ((int(u), int(v)) for u, v in nx_graph.edges())
        vertices = (int(v) for v in nx_graph.nodes())
        return cls.from_edges(edges, vertices=vertices, shuffle_seed=shuffle_seed)

    def to_networkx(self):
        """Return a ``networkx.Graph`` with the same vertices and edges."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self.vertices())
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def as_adjacency(self) -> Dict[Vertex, List[Vertex]]:
        """The adjacency mapping with neighbor orderings preserved."""
        return {v: list(self.neighbors(v)) for v in self.vertices()}

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    def vertices(self) -> List[Vertex]:
        """List of vertices (in insertion order)."""
        return list(self._ids)

    def has_vertex(self, v: Vertex) -> bool:
        return int(v) in self._pos

    def edges(self) -> Iterator[Edge]:
        """Iterate over undirected edges, each reported once canonically."""
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
        """Degree of ``v``."""
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

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """The fixed, ordered neighbor list Γ(v) as a cached immutable view.

        The same tuple object is returned on every call (the list is hot in
        BFS and verification paths), so callers must not rely on getting a
        private copy — the view is immutable by construction.
        """
        v = int(v)
        view = self._views.get(v)
        if view is None:
            view = tuple(self._neighbors_of(v))
            self._views[v] = view
        return view

    def neighbor_at(self, v: Vertex, index: int) -> Optional[Vertex]:
        """The ``index``-th neighbor of ``v`` (0-based), or ``None``."""
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
        """Position of ``v`` inside Γ(u) (0-based), or ``None`` if not adjacent."""
        return self.adjacency_row(u).get(int(v))

    def adjacency_row(self, v: Vertex) -> Dict[Vertex, int]:
        """The ``{neighbor: position}`` row of ``v`` (lazily built).

        The returned mapping is shared internal state — callers must treat
        it as read-only.  It backs both ``Adjacency`` probes and the cached
        oracle, so the index exists in exactly one place per graph.
        """
        v = int(v)
        row = self._rows.get(v)
        if row is None:
            row = {w: i for i, w in enumerate(self._neighbors_of(v))}
            self._rows[v] = row
        return row

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self.adjacency_index(u, v) is not None

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if self._delta_entries:
            return max((self.degree(v) for v in self._ids), default=0)
        indptr = self._indptr
        if len(indptr) < 2:
            return 0
        return max(indptr[p + 1] - indptr[p] for p in range(len(indptr) - 1))

    def min_degree(self) -> int:
        """Minimum degree (0 for the empty graph)."""
        if self._delta_entries:
            return min((self.degree(v) for v in self._ids), default=0)
        indptr = self._indptr
        if len(indptr) < 2:
            return 0
        return min(indptr[p + 1] - indptr[p] for p in range(len(indptr) - 1))

    def average_degree(self) -> float:
        """Average degree 2m / n."""
        n = self.num_vertices
        if not n:
            return 0.0
        return 2.0 * self._num_edges / n

    def edge_list(self) -> List[Edge]:
        """All undirected edges as a list of canonical tuples."""
        return list(self.edges())

    def __contains__(self, v: Vertex) -> bool:
        return self.has_vertex(v)

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.num_vertices}, m={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Mutation plane (dynamic graphs)
    # ------------------------------------------------------------------ #
    def _init_mutation_state(self) -> None:
        self._graph_epoch = 0
        self._vertex_epochs: Dict[Vertex, int] = {}
        # Flat endpoint log: entry ``e - 1`` is the mutation that produced
        # epoch ``e``.  Lets cache validation check "did anything I read
        # change since epoch X?" in O(mutations since X) instead of
        # O(vertices read) — the difference between a per-hit scan of a
        # query's whole dependency set and a handful of set-membership
        # probes (two ints per mutation of memory).
        self._mutation_log: List[Edge] = []
        # Per-vertex overlay consulted by every neighbor view while deltas
        # are pending: appended neighbors (in mutation order) and removed
        # neighbor ids (sorted side-lists probed with bisect; plain lists,
        # so ids beyond 64 bits fit, and short, since compaction bounds the
        # overlay).
        self._delta_add: Dict[int, List[int]] = {}
        self._delta_removed: Dict[int, List[int]] = {}
        self._delta_entries = 0
        # Per-vertex survivor rows (base minus removals plus appends),
        # computed once per epoch instead of per probe; a mutation of the
        # vertex drops its entry, compaction drops the whole cache.
        self._survivors: Dict[int, tuple] = {}
        self.compact_threshold = DEFAULT_COMPACT_THRESHOLD

    @property
    def epoch(self) -> int:
        """Global mutation epoch: 0 for a never-mutated graph, +1 per mutation.

        Derived-state caches (see :mod:`repro.core.cache`) tag entries with
        the epoch they were computed at and compare against
        :meth:`vertex_epoch` of the vertices the computation read, so a
        mutation only bumps counters here — stale entries are discarded
        lazily on their next lookup, never eagerly recomputed.
        """
        return self._graph_epoch

    def vertex_epoch(self, v: Vertex) -> int:
        """Epoch of the last mutation that changed the neighbor row of ``v``."""
        return self._vertex_epochs.get(int(v), 0)

    def mutations_since(self, epoch: int) -> List[Edge]:
        """Endpoint pairs of every mutation applied after ``epoch``."""
        return self._mutation_log[epoch:]

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)`` between two existing vertices.

        The new neighbor is appended to the *end* of both rows — the same
        position :meth:`from_edges` would give it, so a mutated graph and a
        from-scratch build on the post-mutation edge sequence expose
        identical neighbor orderings (and therefore identical probe
        schedules).  Self loops, unknown endpoints and duplicate edges are
        rejected.
        """
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self loop ({u}, {v}) is not allowed")
        for x in (u, v):
            if not self.has_vertex(x):
                raise UnknownVertexError(x)
        if self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is already an edge of this graph")
        # A re-added edge whose base occurrence is masked by the removal
        # side-list stays masked: the appended id lands at the end of the
        # row, after the survivors.
        for a, b in ((u, v), (v, u)):
            self._delta_add.setdefault(a, []).append(b)
            self._delta_entries += 1
        self._num_edges += 1
        self._note_mutation(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        The relative order of the surviving neighbors is preserved on both
        sides.  Removing an edge that does not exist (or touching an unknown
        vertex) raises.
        """
        u, v = int(u), int(v)
        for x in (u, v):
            if not self.has_vertex(x):
                raise UnknownVertexError(x)
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge of this graph")
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
                removed = self._delta_removed[a] = []
            insort(removed, b)
            self._delta_entries += 1
        self._num_edges -= 1
        self._note_mutation(u, v)

    def apply_mutation(self, op: str, u: Vertex, v: Vertex) -> None:
        """Apply one mutation record (``op`` is ``"add"`` or ``"remove"``)."""
        if op == "add":
            self.add_edge(u, v)
        elif op == "remove":
            self.remove_edge(u, v)
        else:
            raise GraphError(
                f"unknown mutation op {op!r}; choices: ('add', 'remove')"
            )

    @property
    def delta_count(self) -> int:
        """Pending overlay entries awaiting :meth:`compact`."""
        return self._delta_entries

    def compact(self) -> "Graph":
        """Re-materialize the flat CSR arrays with all deltas folded in.

        Observable state is untouched: rows, orderings, degrees, epochs and
        cached views all stay exactly as they were — only the storage moves
        from base-plus-overlay back to flat arrays.  Returns ``self``.
        """
        if not self._delta_entries:
            return self
        self._indptr, self._indices = _flatten(self._ids, self._neighbors_of)
        self._delta_add = {}
        self._delta_removed = {}
        self._delta_entries = 0
        self._survivors = {}
        return self

    def _note_mutation(self, u: Vertex, v: Vertex) -> None:
        """Bump epochs, drop both endpoints' derived rows, maybe compact."""
        self._graph_epoch += 1
        stamp = self._graph_epoch
        self._vertex_epochs[u] = stamp
        self._vertex_epochs[v] = stamp
        self._mutation_log.append((u, v))
        for x in (u, v):
            self._views.pop(x, None)
            self._rows.pop(x, None)
            self._survivors.pop(x, None)
        if self._delta_entries > self.compact_threshold:
            self.compact()

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    @classmethod
    def _builder_class(cls) -> type:
        """The class used to build derived graphs (subgraphs).

        Views over external storage (memory-mapped snapshots) override this
        to build ordinary self-owned graphs instead of new views.
        """
        return cls

    def subgraph_with_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Return the spanning subgraph containing all vertices of this graph
        and only the given edges (each of which must exist in this graph)."""
        adjacency: Dict[Vertex, List[Vertex]] = {v: [] for v in self.vertices()}
        seen = set()
        for (u, v) in edges:
            u, v = int(u), int(v)
            if not self.has_edge(u, v):
                raise GraphError(f"({u}, {v}) is not an edge of the host graph")
            key = canonical_edge(u, v)
            if key in seen:
                continue
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        return self._builder_class()(adjacency, validate=False)

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by the given vertex set."""
        keep = {int(v) for v in vertices}
        adjacency = {
            v: [w for w in self.neighbors(v) if w in keep]
            for v in self.vertices()
            if v in keep
        }
        return self._builder_class()(adjacency, validate=False)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _position(self, v: Vertex) -> int:
        try:
            return self._pos[int(v)]
        except KeyError:
            raise UnknownVertexError(v) from None

    def _neighbors_of(self, v: Vertex) -> Sequence[Vertex]:
        # Raw row slice; neighbors() turns it into the cached immutable view.
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
