"""The three sub-constructions of the 3-spanner LCA (Sections 2.1–2.3).

Each component is itself a :class:`~repro.core.lca.SpannerLCA`; the final
3-spanner LCA is their union (Observation 2.2).  All components derive every
random choice from the master seed, so the union is consistent with one fixed
spanner.

* :class:`LowDegreeComponent` — H_low: keep every edge with a low-degree
  endpoint (two ``Degree`` probes).
* :class:`HighDegreeComponent` — H_high: multiple-center clustering over the
  first √n neighbors; an edge is kept when the far endpoint introduces a new
  cluster among the scanning endpoint's earlier neighbors.
* :class:`SuperBlockComponent` — H_super: neighborhood partitioning into
  blocks of size n^{3/4}; the new-cluster rule is applied within the block
  containing the far endpoint only.  The same component, instantiated with
  threshold ``n^{1-1/(2r)}``, is reused by the 5-spanner construction
  (Section 3) — the paper's "upon replacing the degree threshold" remark.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.lca import SpannerLCA
from ..core.oracle import AdjacencyListOracle
from ..core.seed import Seed, SeedLike
from ..graphs.graph import Graph
from ..rand.kwise import recommended_independence
from ..rand.sampler import hitting_probability
from .centers import PrefixCenterSystem
from .params import ThreeSpannerParams


def _new_cluster_scan_fast(
    oracle: AdjacencyListOracle,
    centers: PrefixCenterSystem,
    w: int,
    x: int,
    index: int,
    start: int,
    block: Optional[int] = None,
) -> bool:
    """The memoized new-cluster scan shared by H_high and H_super.

    Evaluates "does ``x`` (at position ``index`` of Γ(w)) introduce a center
    not covered by the neighbors at positions ``start .. index-1``?" on a
    cached oracle, charging exactly the cold probe schedule: the
    ``center_set(x)`` cost up front, then per scanned neighbor one
    ``Neighbor`` probe plus one ``Adjacency`` probe per still-remaining
    center (every remaining vertex is an elected center, so the cold
    ``in_cluster_of`` filter always spends its ``Adjacency`` probe).  The
    filter itself is a set difference against the memoized ``S(neighbor)``.

    ``block`` names the scan-window variant for the vectorized kernel
    (``None`` = whole-row H_high windows, else the H_super block size with
    ``start == (index // block) * block``); when a kernel is attached the
    answer and the exact charge schedule come from its precomputed tables.
    """
    kern = getattr(oracle, "kernel", None)
    if kern is not None:
        verdict = kern.scan_profile(oracle, centers, w, x, index, block)
        if verdict is not None:
            return verdict
    # Probe attribution: the whole scan window is the "neighbor-scan" phase.
    profiler = getattr(oracle, "profiler", None)
    frame = (
        profiler.begin_phase("neighbor-scan", oracle.counter)
        if profiler is not None
        else None
    )
    _, centers_of_x, scanned = centers.prefix_sets(oracle, x)
    oracle.charge(degree=1, neighbor=scanned)
    if not centers_of_x:
        if frame is not None:
            profiler.end_phase(frame)
        return False
    remaining = set(centers_of_x)
    row = oracle.cache.neighbors(w)
    neighbor_probes = 0
    adjacency_probes = 0
    for j in range(start, index):
        if not remaining:
            break
        neighbor_probes += 1
        adjacency_probes += len(remaining)
        remaining -= centers.prefix_sets(oracle, row[j])[1]
    oracle.charge(neighbor=neighbor_probes, adjacency=adjacency_probes)
    if frame is not None:
        profiler.end_phase(frame)
    return bool(remaining)


class LowDegreeComponent(SpannerLCA):
    """H_low: keep every edge incident to a vertex of degree ≤ threshold."""

    name = "spanner3-low"

    def __init__(self, graph: Graph, seed: SeedLike, threshold: int) -> None:
        super().__init__(graph, seed)
        self.threshold = int(threshold)

    def stretch_bound(self) -> Optional[int]:
        return 1

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        return (
            oracle.degree(u) <= self.threshold
            or oracle.degree(v) <= self.threshold
        )


class CenterEdgeComponent(SpannerLCA):
    """Keep the edges connecting every vertex to each of its centers.

    This corresponds to the "u ∈ S(v) ∪ S'(v) (or vice versa)" clause of the
    final LCA in Section 2.4; it is shared by H_high and H_super, so it is a
    separate component that the combined LCA includes once.
    """

    name = "spanner3-center-edges"

    def __init__(
        self, graph: Graph, seed: SeedLike, systems: List[PrefixCenterSystem]
    ) -> None:
        super().__init__(graph, seed)
        self.systems = list(systems)

    def stretch_bound(self) -> Optional[int]:
        return 1

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        return any(system.is_center_edge(oracle, u, v) for system in self.systems)


class HighDegreeComponent(SpannerLCA):
    """H_high (Section 2.2): new-cluster rule over the full neighbor list.

    The global construction: every vertex ``w`` with ``√n < deg(w) ≤ n^{3/4}``
    scans its neighbor list in order and keeps the edge to a neighbor that
    introduces a center not seen among earlier neighbors.  The LCA answers a
    query ``(u, v)`` by evaluating this rule in both directions.
    """

    name = "spanner3-high"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        params: ThreeSpannerParams,
        centers: PrefixCenterSystem,
    ) -> None:
        super().__init__(graph, seed)
        self.params = params
        self.centers = centers

    def stretch_bound(self) -> Optional[int]:
        return 3

    # The scanning rule, evaluated for scanner ``w`` and far endpoint ``x``.
    def _kept_by_scan(self, oracle: AdjacencyListOracle, w: int, x: int) -> bool:
        if oracle.supports_memo:
            return self._kept_by_scan_fast(oracle, w, x)
        degree_w = oracle.degree(w)
        if not self.params.is_high_degree(degree_w):
            return False
        index = oracle.adjacency(w, x)
        if index is None:
            return False
        centers_of_x = self.centers.center_set(oracle, x)
        if not centers_of_x:
            return False
        remaining = set(centers_of_x)
        for j in range(index):
            if not remaining:
                return False
            earlier = oracle.neighbor(w, j)
            if earlier is None:
                break
            remaining = {
                s for s in remaining
                if not self.centers.in_cluster_of(oracle, earlier, s)
            }
        return bool(remaining)

    def _kept_by_scan_fast(self, oracle: AdjacencyListOracle, w: int, x: int) -> bool:
        """The scanning rule on a cached oracle (see _new_cluster_scan_fast)."""
        degree_w = oracle.degree(w)
        if not self.params.is_high_degree(degree_w):
            return False
        index = oracle.adjacency(w, x)
        if index is None:
            return False
        return _new_cluster_scan_fast(
            oracle, self.centers, w, x, index, 0, block=None
        )

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        return self._kept_by_scan(oracle, u, v) or self._kept_by_scan(oracle, v, u)


class SuperBlockComponent(SpannerLCA):
    """H_super (Section 2.3): the new-cluster rule restricted to one block.

    Parameters
    ----------
    threshold:
        Block size and center-prefix length (``n^{3/4}`` for the 3-spanner,
        ``n^{1-1/(2r)}`` in the generalized use of Section 3).
    centers:
        The prefix center system built from ``S'``.
    """

    name = "spanner3-super"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        threshold: int,
        centers: PrefixCenterSystem,
    ) -> None:
        super().__init__(graph, seed)
        self.threshold = max(1, int(threshold))
        self.centers = centers

    def stretch_bound(self) -> Optional[int]:
        return 3

    @classmethod
    def with_defaults(
        cls,
        graph: Graph,
        seed: SeedLike,
        threshold: int,
        hitting_constant: float = 2.0,
        independence: Optional[int] = None,
        role: str = "super-centers",
    ) -> "SuperBlockComponent":
        """Build a standalone block component with its own center set ``S'``."""
        n = graph.num_vertices
        if independence is None:
            independence = recommended_independence(n)
        probability = hitting_probability(threshold, n, hitting_constant)
        centers = PrefixCenterSystem(
            seed=Seed.of(seed).derive(role),
            probability=probability,
            prefix=threshold,
            independence=independence,
        )
        return cls(graph, seed, threshold, centers)

    def _kept_by_scan(self, oracle: AdjacencyListOracle, w: int, x: int) -> bool:
        if oracle.supports_memo:
            return self._kept_by_scan_fast(oracle, w, x)
        index = oracle.adjacency(w, x)
        if index is None:
            return False
        centers_of_x = self.centers.center_set(oracle, x)
        if not centers_of_x:
            return False
        block_start = (index // self.threshold) * self.threshold
        remaining = set(centers_of_x)
        for j in range(block_start, index):
            if not remaining:
                return False
            earlier = oracle.neighbor(w, j)
            if earlier is None:
                break
            remaining = {
                s for s in remaining
                if not self.centers.in_cluster_of(oracle, earlier, s)
            }
        return bool(remaining)

    def _kept_by_scan_fast(self, oracle: AdjacencyListOracle, w: int, x: int) -> bool:
        """Block-restricted scan on a cached oracle: starts at the block
        boundary instead of position 0 (see _new_cluster_scan_fast)."""
        index = oracle.adjacency(w, x)
        if index is None:
            return False
        block_start = (index // self.threshold) * self.threshold
        return _new_cluster_scan_fast(
            oracle, self.centers, w, x, index, block_start, block=self.threshold
        )

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        return self._kept_by_scan(oracle, u, v) or self._kept_by_scan(oracle, v, u)

