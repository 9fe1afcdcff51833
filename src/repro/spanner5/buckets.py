"""H_bckt: the cluster-partitioning (bucketing) method (Section 3, Idea III).

Centers ``S`` are sampled only among vertices of degree at most ``Δ_super``
with probability Θ(log n / Δ_med).  Every vertex joins the clusters of all
sampled centers among its first ``Δ_med`` neighbors.  Each cluster ``C(s)``
is partitioned — consistently, by sorting members by ID — into buckets of
size ``Δ_med``, and exactly one edge (the one of minimum ID whose endpoints
both have degree ≥ ``Δ_med``) is kept between every pair of neighboring
buckets.  The resulting subgraph takes care of the deserted–deserted edges
E_bckt with stretch 5: for any omitted edge ``(u, v)`` and centers
``s ∈ S(u)``, ``t ∈ S(v)``, the kept bucket edge ``(u', v')`` closes the path
``u – s – u' – v' – t – v``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.ids import canonical_edge_id
from ..core.lca import SpannerLCA
from ..core.oracle import AdjacencyListOracle
from ..core.seed import SeedLike
from ..graphs.graph import Graph
from ..rand.sampler import CenterSampler
from .params import FiveSpannerParams


class DegreeBoundedCenterSystem:
    """The center set ``S`` of H_bckt: sampled vertices of degree ≤ Δ_super.

    Membership of a *vertex* in ``S`` needs one ``Degree`` probe (for the
    degree bound) plus a probe-free coin flip.  Membership of a *center* in
    ``S(w)`` (the multiple-center set of ``w``) additionally needs one
    ``Adjacency`` probe, exactly as in the 3-spanner construction.
    """

    def __init__(
        self,
        seed: SeedLike,
        probability: float,
        prefix: int,
        degree_bound: int,
        independence: int,
    ) -> None:
        self.prefix = max(1, int(prefix))
        self.degree_bound = int(degree_bound)
        self.sampler = CenterSampler(seed, probability, independence)

    # -- probe-counted operations -------------------------------------- #
    def is_center(self, oracle: AdjacencyListOracle, vertex: int) -> bool:
        """Whether ``vertex ∈ S`` (coin flip + one ``Degree`` probe).

        The ``Degree`` probe is only spent when the coin flip succeeds, so
        the cold probe cost is data dependent; the memoized fast path stores
        the flip outcome next to the answer and replays exactly that cost.
        """
        if oracle.supports_memo:
            elected, flipped = self._election(oracle, vertex)
            if flipped:
                oracle.charge(degree=1)
            return elected
        if not self.sampler.is_center(vertex):
            return False
        return oracle.degree(vertex) <= self.degree_bound

    def _election(self, oracle: AdjacencyListOracle, vertex: int):
        """Memoized ``(elected, coin flip)`` pair (probe-free; cached oracle).

        A successful flip reads the vertex's degree, so the entry depends on
        (and is invalidated with) the vertex's row; a failed flip is pure in
        ``(seed, vertex)`` and survives every mutation.
        """

        def compute():
            flipped = self.sampler.is_center(vertex)
            elected = flipped and oracle.cache.degree(vertex) <= self.degree_bound
            return (elected, flipped)

        return oracle.cache.memoize((self, "election"), vertex, compute)

    def center_set(self, oracle: AdjacencyListOracle, vertex: int) -> List[int]:
        """``S(vertex)``: sampled bounded-degree vertices among the prefix."""
        if oracle.supports_memo:
            ordered, _, scanned, flips = self.prefix_sets(oracle, vertex)
            oracle.charge(degree=1 + flips, neighbor=scanned)
            return list(ordered)
        candidates = oracle.neighbors_prefix(vertex, self.prefix)
        return [w for w in candidates if self.is_center(oracle, w)]

    def prefix_sets(self, oracle: AdjacencyListOracle, vertex: int):
        """Memoized ``(ordered S(v), set, prefix length, #successful flips)``.

        Probe-free (cached oracle only); ``center_set`` charges the cold
        schedule — one ``Degree`` + ``scanned`` ``Neighbor`` probes for the
        prefix, plus one ``Degree`` probe per candidate whose coin flip
        succeeded (the degree-bound check of :meth:`is_center`).
        """
        def compute():
            row = oracle.cache.neighbors(vertex)
            scanned = min(len(row), self.prefix)
            ordered = []
            flips = 0
            for w in row[:scanned]:
                elected, flipped = self._election(oracle, w)
                if flipped:
                    flips += 1
                if elected:
                    ordered.append(w)
            ordered = tuple(ordered)
            return (ordered, frozenset(ordered), scanned, flips)

        return oracle.cache.memoize((self, "prefix-sets"), vertex, compute)

    def in_cluster_of(
        self, oracle: AdjacencyListOracle, member: int, center: int
    ) -> bool:
        """Whether ``center ∈ S(member)`` (one ``Adjacency`` probe + checks)."""
        if not self.is_center(oracle, center):
            return False
        index = oracle.adjacency(member, center)
        return index is not None and index < self.prefix

    def is_center_edge(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        """Rule (A) of H_bckt: ``u ∈ S(v)`` or ``v ∈ S(u)``."""
        return self.in_cluster_of(oracle, u, v) or self.in_cluster_of(oracle, v, u)

    def cluster_members(self, oracle: AdjacencyListOracle, center: int) -> List[int]:
        """The cluster ``C(center) = {center} ∪ {w : center ∈ S(w)}``.

        Costs ``deg(center)`` ``Neighbor`` probes plus one ``Adjacency`` probe
        per neighbor; the degree bound on centers caps this at ``Δ_super``.
        """
        if oracle.supports_memo:

            def compute():
                cache = oracle.cache
                row = cache.neighbors(center)
                members = [center]
                for w in row:
                    index = cache.index_row(w).get(center)
                    if index is not None and index < self.prefix:
                        members.append(w)
                return (tuple(members), len(row))

            members, degree = oracle.cache.memoize(
                (self, "cluster-members"), center, compute
            )
            oracle.charge(degree=1, neighbor=degree, adjacency=degree)
            return list(members)
        members = [center]
        for w in oracle.all_neighbors(center):
            index = oracle.adjacency(w, center)
            if index is not None and index < self.prefix:
                members.append(w)
        return members

    # -- probe-free versions (verification only) ----------------------- #
    def is_center_global(self, graph: Graph, vertex: int) -> bool:
        return (
            self.sampler.is_center(vertex)
            and graph.degree(vertex) <= self.degree_bound
        )

    def center_set_global(self, graph: Graph, vertex: int) -> List[int]:
        prefix = graph.neighbors(vertex)[: self.prefix]
        return [w for w in prefix if self.is_center_global(graph, w)]


def partition_into_buckets(members: List[int], bucket_size: int) -> List[List[int]]:
    """Partition cluster members into buckets of ``bucket_size`` by ID order.

    The partition is a pure function of the member set, so every query that
    reconstructs the same cluster obtains the same buckets (the consistency
    requirement spelled out in the paper's bucketing discussion).
    """
    ordered = sorted(members)
    size = max(1, int(bucket_size))
    return [ordered[i : i + size] for i in range(0, len(ordered), size)]


def bucket_containing(members: List[int], bucket_size: int, vertex: int) -> List[int]:
    """The bucket of ``vertex`` inside its cluster (``vertex`` must belong)."""
    for bucket in partition_into_buckets(members, bucket_size):
        if vertex in bucket:
            return bucket
    return []


class BucketComponent(SpannerLCA):
    """Rule (B) of H_bckt: one edge per pair of neighboring buckets."""

    name = "spanner5-bucket"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        params: FiveSpannerParams,
        centers: DegreeBoundedCenterSystem,
    ) -> None:
        super().__init__(graph, seed)
        self.params = params
        self.centers = centers

    def stretch_bound(self) -> Optional[int]:
        return 5

    def _clusters_of(self, oracle: AdjacencyListOracle, vertex: int) -> List[int]:
        """Centers of all clusters containing ``vertex``.

        A vertex belongs to the cluster of every center in ``S(vertex)`` and,
        if it is itself a center, to its own cluster (``C(s)`` contains ``s``).
        Including the own-cluster case keeps the "minimum-ID bucket edge"
        predicate consistent when the chosen edge happens to touch a center.
        """
        centers = self.centers.center_set(oracle, vertex)
        if self.centers.is_center(oracle, vertex):
            centers = centers + [vertex]
        return centers

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        med = self.params.med_threshold
        if oracle.degree(u) < med or oracle.degree(v) < med:
            return False
        centers_u = self._clusters_of(oracle, u)
        centers_v = self._clusters_of(oracle, v)
        if not centers_u or not centers_v:
            return False

        # Per-query cache so each distinct cluster is scanned only once.
        cluster_cache: Dict[int, List[int]] = {}
        degree_cache: Dict[int, int] = {}

        def cluster(center: int) -> List[int]:
            if center not in cluster_cache:
                cluster_cache[center] = self.centers.cluster_members(oracle, center)
            return cluster_cache[center]

        def degree(vertex: int) -> int:
            if vertex not in degree_cache:
                degree_cache[vertex] = oracle.degree(vertex)
            return degree_cache[vertex]

        target_id = canonical_edge_id(u, v)
        for s in centers_u:
            bucket_u = bucket_containing(cluster(s), med, u)
            for t in centers_v:
                bucket_v = bucket_containing(cluster(t), med, v)
                best = self._min_id_bucket_edge(
                    oracle, bucket_u, bucket_v, degree
                )
                if best is not None and best == target_id:
                    return True
        return False

    def _min_id_bucket_edge(
        self,
        oracle: AdjacencyListOracle,
        bucket_a: List[int],
        bucket_b: List[int],
        degree,
    ) -> Optional[Tuple[int, int]]:
        """The minimum canonical ID among qualifying edges between buckets.

        Qualifying edges have both endpoints of degree ≥ Δ_med (the
        precondition ``E(V[Δ_med, n), V[Δ_med, n))`` of the construction).
        """
        med = self.params.med_threshold
        best: Optional[Tuple[int, int]] = None
        for a in bucket_a:
            if degree(a) < med:
                continue
            for b in bucket_b:
                if a == b or degree(b) < med:
                    continue
                candidate = canonical_edge_id(a, b)
                if best is not None and candidate >= best:
                    continue
                if oracle.adjacency(a, b) is not None:
                    best = candidate
        return best
