"""The adjacency-list probe oracle ``O_G``.

Section 1.4 of the paper defines three probe types, all answered in a single
step by the oracle:

* ``Neighbor(v, i)`` — the ``i``-th neighbor of ``v`` (or ``⊥``),
* ``Degree(v)`` — ``deg(v)``,
* ``Adjacency(u, v)`` — the index of ``v`` inside ``Γ(u)`` (or ``⊥``).

:class:`AdjacencyListOracle` exposes exactly these three operations, counts
every call through a :class:`~repro.core.probes.ProbeCounter`, and is the
*only* handle the LCAs in this library receive to the input graph, so probe
accounting cannot be bypassed accidentally.

Indices are 0-based; the paper's "first t neighbors of v" corresponds to
indices ``0 .. t-1`` here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .cache import OracleCache
from .probes import ADJACENCY, DEGREE, NEIGHBOR, ProbeCounter, ProbeSnapshot
from ..graphs.graph import Graph, Vertex


class AdjacencyListOracle:
    """Probe oracle over a static :class:`~repro.graphs.graph.Graph`.

    Parameters
    ----------
    graph:
        The input graph ``G``.
    counter:
        Probe counter; a fresh one is created when omitted.
    """

    #: Whether this oracle supports cross-query memoization (``CachedOracle``
    #: sets this to ``True``; algorithm code may branch on it to pick a
    #: memoized fast path with identical probe accounting).
    supports_memo = False

    def __init__(self, graph: Graph, counter: Optional[ProbeCounter] = None) -> None:
        self._graph = graph
        self.counter = counter if counter is not None else ProbeCounter()
        #: Optional :class:`repro.obs.profiler.ProbeProfiler`.  Kernels reach
        #: it with ``getattr(oracle, "profiler", None)``; ``None`` (the
        #: default) keeps every hot path at one attribute check.
        self.profiler = None
        #: Optional :class:`repro.kernels.engine.NumpyKernel`.  The spanner3
        #: scan call sites branch with ``getattr(oracle, "kernel", None)``;
        #: the cold oracle keeps ``None`` so the reference per-query path
        #: stays scalar.
        self.kernel = None

    # ------------------------------------------------------------------ #
    # The three probe primitives
    # ------------------------------------------------------------------ #
    def degree(self, v: Vertex) -> int:
        """``Degree`` probe: return ``deg(v)``."""
        self.counter.record(DEGREE)
        return self._graph.degree(v)

    def neighbor(self, v: Vertex, index: int) -> Optional[Vertex]:
        """``Neighbor`` probe: the ``index``-th (0-based) neighbor of ``v``.

        Returns ``None`` (the paper's ``⊥``) when ``index`` is out of range.
        """
        self.counter.record(NEIGHBOR)
        return self._graph.neighbor_at(v, index)

    def adjacency(self, u: Vertex, v: Vertex) -> Optional[int]:
        """``Adjacency`` probe on the *ordered* pair ``⟨u, v⟩``.

        Returns the 0-based index of ``v`` inside ``Γ(u)`` when the edge
        exists and ``None`` otherwise.
        """
        self.counter.record(ADJACENCY)
        return self._graph.adjacency_index(u, v)

    # ------------------------------------------------------------------ #
    # Convenience helpers built on the primitives (each probe is counted)
    # ------------------------------------------------------------------ #
    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether ``(u, v)`` is an edge, via a single ``Adjacency`` probe."""
        return self.adjacency(u, v) is not None

    def neighbors_prefix(self, v: Vertex, count: int) -> List[Vertex]:
        """The first ``count`` neighbors of ``v`` (fewer if deg(v) < count).

        Uses one ``Degree`` probe plus ``min(count, deg(v))`` ``Neighbor``
        probes — this is the "Γ_{Δ,1}(v)" block-prefix primitive used all over
        the 3- and 5-spanner constructions.
        """
        deg = self.degree(v)
        limit = min(int(count), deg)
        return [self.neighbor(v, i) for i in range(limit)]

    def all_neighbors(self, v: Vertex) -> List[Vertex]:
        """The entire neighbor list Γ(v) (deg(v) ``Neighbor`` probes + 1 degree)."""
        deg = self.degree(v)
        return [self.neighbor(v, i) for i in range(deg)]

    # ------------------------------------------------------------------ #
    # Metadata that the LCA model allows the algorithm to know for free
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """``n`` — known to the algorithm (standard LCA assumption)."""
        return self._graph.num_vertices

    @property
    def graph(self) -> Graph:
        """The underlying graph.

        Exposed for harness / verification code only; LCA implementations
        must not touch it (doing so would bypass probe accounting).
        """
        return self._graph


class CachedOracle(AdjacencyListOracle):
    """Probe oracle with cross-query memoization and cold-schedule accounting.

    Drop-in replacement for :class:`AdjacencyListOracle`: every probe (and
    every convenience helper) records **exactly** the probes the cold oracle
    would record — per kind, per query — while the data itself is served from
    an :class:`~repro.core.cache.OracleCache`.  See :mod:`repro.core.cache`
    for the full accounting contract.

    The cache is owned by the oracle and persists across queries, which is
    what makes repeated materializations and batched query engines fast.
    """

    supports_memo = True

    def __init__(self, graph: Graph, counter: Optional[ProbeCounter] = None) -> None:
        super().__init__(graph, counter)
        self.cache = OracleCache(graph)

    # ------------------------------------------------------------------ #
    # Probe primitives (identical charging, cached reads)
    # ------------------------------------------------------------------ #
    def degree(self, v: Vertex) -> int:
        self.counter.record(DEGREE)
        return self.cache.degree(v)

    def neighbor(self, v: Vertex, index: int) -> Optional[Vertex]:
        self.counter.record(NEIGHBOR)
        row = self.cache.neighbors(v)
        if 0 <= index < len(row):
            return row[index]
        return None

    def adjacency(self, u: Vertex, v: Vertex) -> Optional[int]:
        self.counter.record(ADJACENCY)
        return self.cache.index_row(u).get(int(v))

    # ------------------------------------------------------------------ #
    # Bulk-charged helpers (same totals as the cold per-probe loops)
    # ------------------------------------------------------------------ #
    def neighbors_prefix(self, v: Vertex, count: int) -> List[Vertex]:
        row = self.cache.neighbors(v)
        limit = min(int(count), len(row))
        self.counter.record(DEGREE)
        if limit:
            self.counter.record(NEIGHBOR, limit)
        return list(row[:limit])

    def all_neighbors(self, v: Vertex) -> List[Vertex]:
        row = self.cache.neighbors(v)
        self.counter.record(DEGREE)
        if row:
            self.counter.record(NEIGHBOR, len(row))
        return list(row)

    # ------------------------------------------------------------------ #
    # Bulk charging (the cold schedule of a memoized value)
    # ------------------------------------------------------------------ #
    def charge(self, neighbor: int = 0, degree: int = 0, adjacency: int = 0) -> None:
        """Record probes in bulk (the cold schedule of a memoized value)."""
        counter = self.counter
        if degree:
            counter.record(DEGREE, degree)
        if neighbor:
            counter.record(NEIGHBOR, neighbor)
        if adjacency:
            counter.record(ADJACENCY, adjacency)

    def replay(self, cost: ProbeSnapshot) -> None:
        """Re-charge a previously measured per-kind probe cost."""
        self.charge(
            neighbor=cost.neighbor, degree=cost.degree, adjacency=cost.adjacency
        )


class SubgraphOracle(AdjacencyListOracle):
    """Oracle restricted to a vertex subset, sharing the parent's counter.

    Used by the local simulation of distributed algorithms, where the LCA has
    already gathered a ball around the query edge and keeps simulating on the
    gathered subgraph without additional probes.  Construction of the ball
    itself must go through the parent oracle so its probes are counted.
    """

    def __init__(self, parent: AdjacencyListOracle, vertices: Sequence[Vertex]) -> None:
        subgraph = parent.graph.induced_subgraph(vertices)
        super().__init__(subgraph, counter=parent.counter)
