"""Multiple-center clustering (Idea I of the paper).

The key trick of the 3-spanner LCA is that every vertex ``v`` joins the
clusters of *all* sampled centers among its first ``t`` neighbors, rather
than a single cluster.  The "multiple-center set"

    S(v) = S ∩ {first min(deg(v), t) neighbors of v}

can then be tested for membership with a *single* ``Adjacency`` probe:
``w`` belongs to the cluster of ``s`` iff ``s`` appears within the first
``t`` positions of ``Γ(w)`` and ``s`` elected itself into ``S`` — the latter
is checked from ``s``'s ID alone (Observation 2.3).

:class:`PrefixCenterSystem` packages a center set together with its prefix
length and provides both operations with explicit probe costs.
"""

from __future__ import annotations

from typing import List

from ..core.oracle import AdjacencyListOracle
from ..core.seed import Seed, SeedLike
from ..rand.sampler import CenterSampler


class PrefixCenterSystem:
    """A center set ``S`` with prefix-based cluster membership.

    Parameters
    ----------
    seed:
        Seed material for the center election coin flips.
    probability:
        Election probability ``p``.
    prefix:
        The prefix length ``t``: ``S(v)`` consists of sampled vertices among
        the first ``min(deg(v), t)`` neighbors of ``v``.
    independence:
        Independence of the underlying hash family.
    """

    def __init__(
        self, seed: SeedLike, probability: float, prefix: int, independence: int
    ) -> None:
        self.prefix = max(1, int(prefix))
        self.sampler = CenterSampler(seed, probability, independence)
        #: Value identity: systems with equal keys elect the same centers and
        #: the same prefix sets on every graph, so kernel tables built for one
        #: serve all of them.
        self.key = (
            Seed.of(seed).value, int(independence), self.sampler.probability, self.prefix
        )

    # ------------------------------------------------------------------ #
    # Probe-free operations
    # ------------------------------------------------------------------ #
    def is_center(self, vertex: int) -> bool:
        """Whether ``vertex ∈ S`` (no probes; Observation 2.3)."""
        return self.sampler.is_center(vertex)

    def is_center_fast(self, oracle: AdjacencyListOracle, vertex: int) -> bool:
        """``is_center`` with the hash evaluation memoized on a cached oracle.

        The election status is a pure function of ``(seed, vertex)`` — its
        memo entry touches no graph state, so mutations never invalidate it;
        the k-wise hash evaluation behind it dominates cold query time, so
        cached oracles remember it per vertex.  Still probe-free.
        """
        if not oracle.supports_memo:
            return self.sampler.is_center(vertex)
        return oracle.cache.memoize(
            (self, "is-center"), vertex, lambda: self.sampler.is_center(vertex)
        )

    def prefix_sets(
        self, oracle: AdjacencyListOracle, vertex: int
    ) -> "tuple[tuple, frozenset, int]":
        """Memoized ``(ordered S(vertex), S(vertex) as a set, prefix length)``.

        Probe-free: reads the neighbor row straight from the oracle cache.
        Callers that expose a probe-counted operation must charge the cold
        schedule themselves (``center_set`` charges 1 Degree + ``scanned``
        Neighbor probes, a cluster-membership test charges 1 Adjacency).
        Requires a cached oracle.  The entry depends on the row of
        ``vertex`` only, so it is lazily invalidated when that row mutates.
        """

        def compute():
            row = oracle.cache.neighbors(vertex)
            scanned = min(len(row), self.prefix)
            ordered = tuple(
                w for w in row[:scanned] if self.is_center_fast(oracle, w)
            )
            return (ordered, frozenset(ordered), scanned)

        return oracle.cache.memoize((self, "prefix-sets"), vertex, compute)

    # ------------------------------------------------------------------ #
    # Probe-counted operations
    # ------------------------------------------------------------------ #
    def center_set(self, oracle: AdjacencyListOracle, vertex: int) -> List[int]:
        """The multiple-center set ``S(vertex)``.

        Costs one ``Degree`` probe plus ``min(deg, prefix)`` ``Neighbor``
        probes.
        """
        if oracle.supports_memo:
            ordered, _, scanned = self.prefix_sets(oracle, vertex)
            oracle.charge(degree=1, neighbor=scanned)
            return list(ordered)
        candidates = oracle.neighbors_prefix(vertex, self.prefix)
        return [w for w in candidates if self.is_center(w)]

    def in_cluster_of(
        self, oracle: AdjacencyListOracle, member: int, center: int
    ) -> bool:
        """Cluster-membership test: is ``center ∈ S(member)``?

        A single ``Adjacency`` probe: ``center`` must appear among the first
        ``prefix`` neighbors of ``member`` (Idea I).  The center's election
        status is checked without probes.
        """
        if not self.is_center_fast(oracle, center):
            return False
        index = oracle.adjacency(member, center)
        return index is not None and index < self.prefix

    def is_center_edge(
        self, oracle: AdjacencyListOracle, u: int, v: int
    ) -> bool:
        """Whether ``(u, v)`` is a center edge: ``v ∈ S(u)`` or ``u ∈ S(v)``.

        These are exactly the "connect every vertex to each of its centers"
        edges of the construction; two ``Adjacency`` probes suffice.
        """
        return self.in_cluster_of(oracle, u, v) or self.in_cluster_of(oracle, v, u)

    # ------------------------------------------------------------------ #
    # Global (probe-free) helpers for the reference construction and tests
    # ------------------------------------------------------------------ #
    def center_set_global(self, graph, vertex: int) -> List[int]:
        """``S(vertex)`` computed directly on the graph (verification only)."""
        neighbors = graph.neighbors(vertex)[: self.prefix]
        return [w for w in neighbors if self.is_center(w)]

    def in_cluster_of_global(self, graph, member: int, center: int) -> bool:
        """Cluster membership computed directly on the graph (verification)."""
        if not self.is_center(center):
            return False
        index = graph.adjacency_index(member, center)
        return index is not None and index < self.prefix
