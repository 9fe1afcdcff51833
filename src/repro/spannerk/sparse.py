"""H_sparse: local simulation of a distributed (2k−1)-spanner (Section 4.2).

An edge belongs to E_sparse when at least one endpoint is sparse (its D^k_L
exploration finds no center).  For such an edge the k-neighborhoods of both
endpoints are small (Observation 4.2), so the LCA can gather them, restrict
to the subgraph G_sparse, and *exactly* replay the k-round Baswana–Sen
algorithm of Theorem 4.4 on the gathered ball: every vertex's decisions in
the distributed algorithm depend only on its k-neighborhood, so the local
replay returns the same verdict the global run would.

The query edge is kept iff one of its endpoints adds it in the simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..baselines.distributed import ClusterSampler, simulate_baswana_sen
from ..core.lca import SpannerLCA
from ..core.oracle import AdjacencyListOracle
from ..core.seed import SeedLike
from ..graphs.graph import Graph
from .params import KSquaredParams
from .voronoi import KSquaredRandomness, LocalView


class SparseSpannerComponent(SpannerLCA):
    """LCA for H_sparse (Lemma 4.5): a (2k−1)-spanner of G_sparse."""

    name = "spannerk-sparse"

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
        self._sampler = ClusterSampler(
            self._derive_seed("spannerk/baswana-sen"),
            stretch_parameter=max(1, params.stretch_parameter),
            num_vertices_global=params.num_vertices,
            independence=params.independence,
        )

    def stretch_bound(self) -> Optional[int]:
        return max(1, 2 * self.params.stretch_parameter - 1)

    # ------------------------------------------------------------------ #
    # Ball gathering
    # ------------------------------------------------------------------ #
    def _gather_ball(
        self, oracle: AdjacencyListOracle, sources: List[int], radius: int
    ) -> Dict[int, List[int]]:
        """Adjacency of the radius-``radius`` ball around the sources.

        Vertices at distance < radius are fully expanded (their complete
        neighbor lists are recorded); vertices at distance exactly ``radius``
        are present but not expanded.  This is sufficient for the exactness
        argument: the simulation only needs complete adjacency for vertices
        within distance ``radius − 1`` of a query endpoint.
        """
        distance: Dict[int, int] = {}
        adjacency: Dict[int, List[int]] = {}
        frontier: List[int] = []
        for s in sources:
            if s not in distance:
                distance[s] = 0
                frontier.append(s)
        depth = 0
        while frontier and depth < radius:
            next_frontier: List[int] = []
            for x in frontier:
                neighbors = oracle.all_neighbors(x)
                adjacency[x] = neighbors
                for w in neighbors:
                    if w not in distance:
                        distance[w] = depth + 1
                        next_frontier.append(w)
            frontier = next_frontier
            depth += 1
        # Boundary vertices: present, with whatever adjacency is already known.
        for x in distance:
            adjacency.setdefault(x, [])
        return adjacency

    # ------------------------------------------------------------------ #
    # Decision rule
    # ------------------------------------------------------------------ #
    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        view = LocalView(oracle, self.params, self.randomness)
        u_sparse = view.is_sparse(u)
        v_sparse = view.is_sparse(v)
        if not (u_sparse or v_sparse):
            return False

        k = max(1, self.params.stretch_parameter)
        ball = self._gather_ball(oracle, [u, v], radius=k)

        # Sparse/dense labels for every ball vertex (each needs its own
        # exploration); an edge is in G_sparse iff some endpoint is sparse.
        labels: Dict[int, bool] = {x: view.is_sparse(x) for x in ball}

        sparse_adjacency: Dict[int, List[int]] = {}
        for x, neighbors in ball.items():
            kept: List[int] = []
            for w in neighbors:
                if w not in ball:
                    continue
                if labels[x] or labels.get(w, False):
                    kept.append(w)
            sparse_adjacency[x] = kept
        # Symmetrize: an edge known from one side only (the other endpoint was
        # a non-expanded boundary vertex) is added to both lists.
        for x, neighbors in list(sparse_adjacency.items()):
            for w in neighbors:
                if x not in sparse_adjacency.get(w, []):
                    sparse_adjacency.setdefault(w, []).append(x)

        run = simulate_baswana_sen(sparse_adjacency, self._sampler)
        return run.edge_in_spanner(u, v)
