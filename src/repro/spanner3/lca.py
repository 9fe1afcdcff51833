"""The final 3-spanner LCA (Section 2.4, Theorem 1.1 with r = 2).

Given an edge ``(u, v)`` the algorithm answers YES when any of the following
holds:

1. ``deg(u) ≤ √n`` or ``deg(v) ≤ √n``                                  (H_low)
2. ``u ∈ S(v) ∪ S'(v)`` or ``v ∈ S(u) ∪ S'(u)``                (center edges)
3. the H_high scanning rule keeps the edge                            (H_high)
4. the H_super block rule keeps the edge                             (H_super)

The spanner is the union of the four sub-constructions; per Observation 2.2
its stretch is the maximum over components (3) and its size/probe costs add.
"""

from __future__ import annotations

from typing import Optional

from ..core.lca import CombinedLCA
from ..core.registry import register
from ..core.seed import Seed, SeedLike
from ..graphs.graph import Graph
from .centers import PrefixCenterSystem
from .components import (
    CenterEdgeComponent,
    HighDegreeComponent,
    LowDegreeComponent,
    SuperBlockComponent,
)
from .params import ThreeSpannerParams


class ThreeSpannerLCA(CombinedLCA):
    """LCA for 3-spanners with Õ(n^{3/2}) edges and Õ(n^{3/4}) probes."""

    name = "spanner3"

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike,
        params: Optional[ThreeSpannerParams] = None,
        hitting_constant: float = 2.0,
    ) -> None:
        seed = Seed.of(seed)
        if params is None:
            params = ThreeSpannerParams.for_graph(
                graph.num_vertices, hitting_constant=hitting_constant
            )
        self.params = params

        self.high_centers = PrefixCenterSystem(
            seed=seed.derive("spanner3/high-centers"),
            probability=params.high_center_probability,
            prefix=params.low_threshold,
            independence=params.independence,
        )
        self.super_centers = PrefixCenterSystem(
            seed=seed.derive("spanner3/super-centers"),
            probability=params.super_center_probability,
            prefix=params.super_threshold,
            independence=params.independence,
        )

        components = [
            LowDegreeComponent(graph, seed, threshold=params.low_threshold),
            CenterEdgeComponent(
                graph, seed, systems=[self.high_centers, self.super_centers]
            ),
            HighDegreeComponent(graph, seed, params=params, centers=self.high_centers),
            SuperBlockComponent(
                graph,
                seed,
                threshold=params.super_threshold,
                centers=self.super_centers,
            ),
        ]
        super().__init__(graph, seed, components)

    def stretch_bound(self) -> Optional[int]:
        return 3

    def _kernel_materialize(self, result) -> bool:
        """Array-at-once batched materialization via the numpy kernel layer.

        Evaluates all four components for every edge in one pass of array
        arithmetic (see :mod:`repro.kernels.spanner3`); edges, per-query
        probe totals, per-kind counts and phase attribution are bit-identical
        to the scalar batched engine.  Falls back (``False``) when no kernel
        is selected or the view cannot represent the graph.
        """
        oracle = self.ensure_cached_oracle()
        kern = oracle.kernel
        if kern is None:
            return False
        return kern.materialize_spanner3(self, oracle, result)

    def _batch_decider(self, oracle, misses):
        """The numpy kernel's array evaluator for a ``query_batch`` call's misses.

        It decides them in one pass of the arithmetic ``materialize`` uses,
        once at least :data:`repro.kernels.spanner3.CROSSOVER_MISSES` of them
        reach the center-edge rule; ``None`` (no kernel, too few such misses,
        no usable view) decides each miss by the scalar path.
        """
        kern = oracle.kernel
        if kern is None:
            return None
        return kern.spanner3_decider(self, oracle, misses)


@register("spanner3")
def _make_three_spanner(graph: Graph, seed: SeedLike, **kwargs) -> ThreeSpannerLCA:
    return ThreeSpannerLCA(graph, seed, **kwargs)
