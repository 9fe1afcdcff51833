"""The O(k²)-spanner LCA (Section 4, Theorem 1.2).

The spanner is ``H = H_sparse ∪ H^I_dense ∪ H^B_dense``:

* H_sparse — a (2k−1)-spanner of the sparse region, obtained by locally
  simulating the Baswana–Sen distributed algorithm,
* H^I_dense — the Voronoi trees spanning each Voronoi cell (diameter ≤ 2k),
* H^B_dense — the marked-cell / rank-quota connection rules between clusters.

With L = n^{1/3} and p = 1/L this gives Õ(n^{1+1/k}) edges, O(k²) stretch
w.h.p. and probe complexity Õ(Δ⁴n^{2/3}) (Theorem 1.2), using O(log² n)
random bits (Section 5.2).
"""

from __future__ import annotations

from typing import Optional

from ..core.lca import CombinedLCA
from ..core.registry import register
from ..core.seed import Seed, SeedLike
from ..graphs.graph import Graph
from .dense import DenseConnectorComponent, VoronoiTreeComponent
from .params import KSquaredParams
from .sparse import SparseSpannerComponent
from .voronoi import KSquaredRandomness


class KSquaredSpannerLCA(CombinedLCA):
    """LCA for O(k²)-spanners with Õ(n^{1+1/k}) edges (Theorem 1.2).

    Parameters
    ----------
    graph, seed:
        The input graph and the shared random seed.
    stretch_parameter:
        The ``k`` of the construction; the resulting stretch is O(k²).
    params:
        Optional explicit :class:`KSquaredParams` (tests use this to control
        L and the sampling probabilities at small n).

    The cached engine keeps every D^k_L exploration in the oracle's memo
    layer, shared by the three components, and charges each query the
    exploration's cold probe cost; per-query probe totals equal the cold
    schedule's on every engine.
    """

    name = "spannerk"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        stretch_parameter: int = 2,
        params: Optional[KSquaredParams] = None,
        hitting_constant: float = 2.0,
    ) -> None:
        seed = Seed.of(seed)
        if params is None:
            params = KSquaredParams.for_graph(
                graph.num_vertices,
                stretch_parameter=stretch_parameter,
                hitting_constant=hitting_constant,
            )
        self.params = params
        self.randomness = KSquaredRandomness(seed.derive("spannerk"), params)

        self.sparse_component = SparseSpannerComponent(
            graph, seed, params=params, randomness=self.randomness
        )
        self.tree_component = VoronoiTreeComponent(
            graph, seed, params=params, randomness=self.randomness
        )
        self.connector_component = DenseConnectorComponent(
            graph, seed, params=params, randomness=self.randomness
        )
        super().__init__(
            graph,
            seed,
            [self.sparse_component, self.tree_component, self.connector_component],
        )

    def stretch_bound(self) -> Optional[int]:
        """The nominal O(k²) stretch (a w.h.p. guarantee, reported for tables)."""
        return self.params.nominal_stretch()


@register("spannerk")
def _make_k_squared(graph: Graph, seed: SeedLike, **kwargs) -> KSquaredSpannerLCA:
    return KSquaredSpannerLCA(graph, seed, **kwargs)
