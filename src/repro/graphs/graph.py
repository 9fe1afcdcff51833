"""Static adjacency-list graphs with fixed neighbor orderings.

The LCA model (Section 1.4 of the paper) assumes the input graph is presented
through an adjacency-list oracle in which *each neighbor set has a fixed, but
arbitrary, ordering*.  :class:`Graph` stores exactly this representation: for
every vertex a list of neighbors in a fixed order, together with a lazily
built index structure giving O(1) ``Adjacency`` probes (the probe returns the
position of ``v`` inside ``Γ(u)``).

Two storage backends implement the same interface:

* :class:`Graph` — the original dict-of-lists backend (this module), and
* :class:`~repro.graphs.csr.CSRGraph` — a compressed-sparse-row backend
  storing all neighbor lists in one flat array behind offset pointers.

``Graph.from_edges(..., backend="csr")`` (or the module-level default set via
:func:`set_default_backend` / the ``REPRO_GRAPH_BACKEND`` environment
variable) selects the backend; :meth:`Graph.to_backend` converts between them
while preserving neighbor orderings exactly, so probe-level behavior is
backend independent.

Both backends support live edge mutations (:meth:`Graph.add_edge` /
:meth:`Graph.remove_edge`): added neighbors are appended to the end of both
rows, removals preserve the relative order of the survivors, and every
mutation bumps a per-vertex *epoch* that the derived-state caches
(:mod:`repro.core.cache`) use for lazy invalidation.

Vertices are arbitrary integers; they need not form ``0..n-1``.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import GraphError, UnknownVertexError
from ..core.ids import canonical_edge

Vertex = int
Edge = Tuple[int, int]

#: Known storage backends, by name (values resolved lazily to avoid cycles).
BACKENDS = ("dict", "csr")


def _backend_from_environment() -> str:
    name = os.environ.get("REPRO_GRAPH_BACKEND", "dict")
    if name not in BACKENDS:
        import warnings

        warnings.warn(
            f"REPRO_GRAPH_BACKEND={name!r} is not a known graph backend "
            f"(choices: {BACKENDS}); falling back to 'dict'",
            stacklevel=2,
        )
        return "dict"
    return name


_default_backend = _backend_from_environment()


def set_default_backend(name: str) -> None:
    """Set the process-wide default storage backend ("dict" or "csr")."""
    global _default_backend
    if name not in BACKENDS:
        raise GraphError(f"unknown graph backend {name!r}; choices: {BACKENDS}")
    _default_backend = name


def default_backend() -> str:
    """The current default storage backend name."""
    return _default_backend


def backend_class(name: Optional[str] = None):
    """Resolve a backend name to its graph class."""
    if name is None:
        name = _default_backend
    if name == "dict":
        return Graph
    if name == "csr":
        from .csr import CSRGraph

        return CSRGraph
    raise GraphError(f"unknown graph backend {name!r}; choices: {BACKENDS}")


def undeclared_neighbor_error(
    adjacency: Mapping[Vertex, Sequence[Vertex]], known: Mapping[Vertex, object]
) -> Optional[GraphError]:
    """The error for a neighbor that has no adjacency list of its own.

    Scans ``adjacency`` for the first neighbor outside ``known`` — a mapping
    keyed by normalized (int) vertex ids, giving O(1) membership — and
    returns the error to raise (``None`` when the mapping is closed).  Shared
    by both storage backends so the check and its message have one source of
    truth.
    """
    for v, neighbors in adjacency.items():
        for w in neighbors:
            if int(w) not in known:
                return GraphError(
                    f"vertex {int(w)} appears as a neighbor of {int(v)} but "
                    "has no adjacency list of its own"
                )
    return None


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
        "_adj",
        "_index",
        "_views",
        "_num_edges",
        "_graph_epoch",
        "_vertex_epochs",
        "_mutation_log",
    )

    #: Name of the storage backend implemented by this class.
    backend = "dict"

    def __init__(
        self,
        adjacency: Mapping[Vertex, Sequence[Vertex]],
        validate: bool = True,
    ) -> None:
        self._adj: Dict[Vertex, List[Vertex]] = {
            int(v): [int(w) for w in neighbors] for v, neighbors in adjacency.items()
        }
        # Make sure every endpoint appears as a key even if isolated on one side.
        error = undeclared_neighbor_error(self._adj, self._adj)
        if error is not None:
            raise error
        if validate:
            self._validate()
        # The Adjacency-probe index is O(m) dicts; generators and BFS never
        # need it, so it is built lazily on the first adjacency_index call.
        self._index: Optional[Dict[Vertex, Dict[Vertex, int]]] = None
        # Cached immutable neighbor views handed out by neighbors().
        self._views: Dict[Vertex, Tuple[Vertex, ...]] = {}
        self._num_edges = sum(len(neighbors) for neighbors in self._adj.values()) // 2
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
        backend: Optional[str] = None,
    ) -> "Graph":
        """Build a graph from an iterable of undirected edges.

        Neighbor lists are ordered by edge-insertion order, which is
        "arbitrary but fixed" exactly as the model requires.  Passing
        ``shuffle_seed`` randomly permutes every neighbor list (deterministic
        in the seed), which is useful for testing that algorithms do not rely
        on any particular ordering.  ``backend`` selects the storage class
        ("dict" or "csr"); when omitted, a subclass builds itself and the
        base class builds the process-wide default backend.
        """
        adjacency = cls._adjacency_from_edges(edges, vertices, shuffle_seed)
        if backend is not None:
            target = backend_class(backend)
        elif cls is Graph:
            target = backend_class(None)
        else:
            target = cls
        return target(adjacency, validate=False)

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

    def to_backend(self, name: str) -> "Graph":
        """Convert to another storage backend, preserving neighbor orderings.

        Returns ``self`` when the graph already uses the requested backend;
        probe-visible behavior (orderings, indices, degrees) is identical
        across backends.
        """
        target = backend_class(name)
        if type(self) is target:
            return self
        return target(self.as_adjacency(), validate=False)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    def vertices(self) -> List[Vertex]:
        """List of vertices (in insertion order)."""
        return list(self._adj.keys())

    def has_vertex(self, v: Vertex) -> bool:
        return int(v) in self._adj

    def edges(self) -> Iterator[Edge]:
        """Iterate over undirected edges, each reported once canonically."""
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if u < v:
                    yield (u, v)

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``."""
        return len(self._neighbors_of(v))

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
        neighbors = self._neighbors_of(v)
        if 0 <= index < len(neighbors):
            return neighbors[index]
        return None

    def adjacency_index(self, u: Vertex, v: Vertex) -> Optional[int]:
        """Position of ``v`` inside Γ(u) (0-based), or ``None`` if not adjacent."""
        return self.adjacency_row(u).get(int(v))

    def adjacency_row(self, v: Vertex) -> Mapping[Vertex, int]:
        """The ``{neighbor: position}`` row of ``v`` (lazily built).

        The returned mapping is shared internal state — callers must treat
        it as read-only.  It backs both ``Adjacency`` probes and the cached
        oracle, so the index exists in exactly one place per graph.
        """
        index = self._index
        if index is None:
            index = self._build_index()
        row = index.get(int(v))
        if row is None:
            raise UnknownVertexError(v)
        return row

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self.adjacency_index(u, v) is not None

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj.values())

    def min_degree(self) -> int:
        """Minimum degree (0 for the empty graph)."""
        if not self._adj:
            return 0
        return min(len(neighbors) for neighbors in self._adj.values())

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
        self._apply_add(u, v)
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
        self._apply_remove(u, v)
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

    def compact(self) -> "Graph":
        """Fold pending mutation deltas into primary storage (returns self).

        A no-op for the dict backend, whose adjacency lists mutate in place;
        the CSR backend re-materializes its flat arrays (see
        :meth:`~repro.graphs.csr.CSRGraph.compact`).  Observable state —
        rows, orderings, epochs — never changes.
        """
        return self

    @property
    def delta_count(self) -> int:
        """Pending overlay entries awaiting :meth:`compact` (0 for dict)."""
        return 0

    def _note_mutation(self, u: Vertex, v: Vertex) -> None:
        """Bump epochs and drop raw per-vertex caches for both endpoints."""
        self._graph_epoch += 1
        stamp = self._graph_epoch
        self._vertex_epochs[u] = stamp
        self._vertex_epochs[v] = stamp
        self._mutation_log.append((u, v))
        self._views.pop(u, None)
        self._views.pop(v, None)
        self._invalidate_rows(u, v)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Hook for backends with a delta overlay (dict storage has none)."""

    def _apply_add(self, u: Vertex, v: Vertex) -> None:
        self._adj[u].append(v)
        self._adj[v].append(u)

    def _apply_remove(self, u: Vertex, v: Vertex) -> None:
        self._adj[u].remove(v)
        self._adj[v].remove(u)

    def _invalidate_rows(self, u: Vertex, v: Vertex) -> None:
        index = self._index
        if index is not None:
            for x in (u, v):
                index[x] = {w: i for i, w in enumerate(self._adj[x])}

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
        and only the given edges (each of which must exist in this graph).

        The subgraph uses the same storage backend as its host."""
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
        """Return the subgraph induced by the given vertex set.

        The subgraph uses the same storage backend as its host."""
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
    def _neighbors_of(self, v: Vertex) -> List[Vertex]:
        try:
            return self._adj[int(v)]
        except KeyError:
            raise UnknownVertexError(v) from None

    def _build_index(self) -> Dict[Vertex, Dict[Vertex, int]]:
        self._index = {
            v: {w: i for i, w in enumerate(neighbors)}
            for v, neighbors in self._adj.items()
        }
        return self._index

    def _validate(self) -> None:
        validate_adjacency(self._adj)
