"""H_dense: Voronoi-tree edges and the inter-cell connection rules.

Two components make up the dense side of the O(k²)-spanner:

* :class:`VoronoiTreeComponent` — H^I_dense (Lemma 4.6): the edges of the
  lexicographically-first shortest paths from every dense vertex to its
  first-discovered center.  These form depth-≤k trees spanning the Voronoi
  cells, so every cell has diameter ≤ 2k inside the spanner.
* :class:`DenseConnectorComponent` — H^B_dense (Section 4.3.4, Figure 10):
  edges connecting clusters across cells, chosen by three rules driven by the
  marked cells and the random ranks.  Rule (3)'s rank quota ``q`` is what
  reduces the inductive connection argument from O(log n) steps (Lenzen–Levi)
  to O(k) steps, giving the O(k²) overall stretch.

Both components evaluate their rules in the two query directions, because the
global construction applies them once per ordered (cluster, cluster) pair.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.lca import SpannerLCA
from ..core.oracle import AdjacencyListOracle
from ..core.seed import SeedLike
from ..graphs.graph import Graph
from .params import KSquaredParams
from .voronoi import ClusterInfo, KSquaredRandomness, LocalView

Edge = Tuple[int, int]


class VoronoiTreeComponent(SpannerLCA):
    """H^I_dense: keep the Voronoi-tree edges (Lemma 4.6)."""

    name = "spannerk-voronoi-tree"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        params: KSquaredParams,
        randomness: KSquaredRandomness,
    ) -> None:
        super().__init__(graph, seed)
        self.params = params
        self.randomness = randomness

    def stretch_bound(self) -> Optional[int]:
        return 1

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        view = LocalView(oracle, self.params, self.randomness)
        return view.is_tree_edge(u, v)


class DenseConnectorComponent(SpannerLCA):
    """H^B_dense: the three cluster-connection rules of Figure 10."""

    name = "spannerk-dense-connector"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        params: KSquaredParams,
        randomness: KSquaredRandomness,
    ) -> None:
        super().__init__(graph, seed)
        self.params = params
        self.randomness = randomness

    def stretch_bound(self) -> Optional[int]:
        return None  # O(k²) with high probability; not a deterministic bound.

    # ------------------------------------------------------------------ #
    # Decision rule
    # ------------------------------------------------------------------ #
    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        view = LocalView(oracle, self.params, self.randomness)
        if not (view.is_dense(u) and view.is_dense(v)):
            return False
        center_u = view.center(u)
        center_v = view.center(v)
        if center_u == center_v:
            return False  # same Voronoi cell: H^I_dense takes care of it.
        cluster_u = view.cluster_info(u)
        cluster_v = view.cluster_info(v)
        if cluster_u is None or cluster_v is None:
            return False
        return self._rules(view, u, v, cluster_u, cluster_v) or self._rules(
            view, v, u, cluster_v, cluster_u
        )

    def _rules(
        self,
        view: LocalView,
        u: int,
        v: int,
        cluster_a: ClusterInfo,
        cluster_b: ClusterInfo,
    ) -> bool:
        """Evaluate rules (1)–(3) with A = cluster(u), B = cluster(v)."""
        # ---- Rule (1): marked clusters connect to every adjacent cluster.
        if view.randomness.is_marked_cell(cluster_a.cell_center):
            best = view.min_edge_to_cluster(cluster_a, cluster_b.members)
            if best == (u, v):
                return True

        adjacent_b = view.adjacent_cells(cluster_b)

        # ---- Rule (2): clusters with no marked neighboring cell connect to
        #      every adjacent Voronoi cell.
        marked_cells_near_b = [
            cell
            for cell in adjacent_b
            if view.randomness.is_marked_cell(cell)
        ]
        if not marked_cells_near_b:
            witness = adjacent_b.get(cluster_a.cell_center)
            if witness == (v, u):
                return True

        # ---- Rule (3): rank-based connection towards low-rank cells.
        adjacent_a = view.adjacent_cells(cluster_a)
        own_witness = adjacent_a.get(cluster_b.cell_center)
        if own_witness != (u, v):
            return False  # (u, v) is not A's chosen edge towards Vor(B).
        if not marked_cells_near_b:
            return False
        for marked_cell in sorted(marked_cells_near_b):
            member_b, outside = adjacent_b[marked_cell]
            cluster_c = view.cluster_info(outside)
            if cluster_c is None:
                continue
            # B participates in C(C) by construction: the minimum-ID edge from
            # B towards the marked cell lands on ``outside``, a member of C.
            adjacent_c = view.adjacent_cells(cluster_c)
            common = set(adjacent_a) & set(adjacent_c)
            if cluster_b.cell_center not in common:
                common.add(cluster_b.cell_center)
            lower_ranked = view.rank_position(cluster_b.cell_center, common)
            if lower_ranked < self.params.rank_quota:
                return True
        return False
