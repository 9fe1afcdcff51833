"""Deserted / crowded classification of medium-degree vertices (Def. 3.1).

A vertex ``v`` with ``Δ_med ≤ deg(v) ≤ Δ_super`` is *deserted* when at least
half of its first ``Δ_med`` neighbors have degree at most ``Δ_super`` (such
vertices can be clustered through low-degree centers, handled by H_bckt);
otherwise it is *crowded* (many super-high-degree neighbors, handled through
representatives by H_rep).

The classification costs ``O(Δ_med)`` probes: the first ``Δ_med`` neighbors
plus one ``Degree`` probe each.
"""

from __future__ import annotations

from ..core.oracle import AdjacencyListOracle
from ..graphs.graph import Graph
from .params import FiveSpannerParams

DESERTED = "deserted"
CROWDED = "crowded"
OUTSIDE = "outside"


class DesertedCrowdedClassifier:
    """Classifies vertices of the medium band as deserted or crowded."""

    def __init__(self, params: FiveSpannerParams) -> None:
        self.params = params

    def classify(self, oracle: AdjacencyListOracle, vertex: int) -> str:
        """Return ``'deserted'``, ``'crowded'`` or ``'outside'`` for ``vertex``."""
        degree = oracle.degree(vertex)
        if not self.params.in_medium_band(degree):
            return OUTSIDE
        prefix = oracle.neighbors_prefix(vertex, self.params.med_threshold)
        if not prefix:
            return DESERTED
        bounded = sum(
            1 for w in prefix if oracle.degree(w) <= self.params.super_threshold
        )
        if 2 * bounded >= len(prefix):
            return DESERTED
        return CROWDED

    # ------------------------------------------------------------------ #
    # Probe-free version for reports / verification
    # ------------------------------------------------------------------ #
    def classify_global(self, graph: Graph, vertex: int) -> str:
        degree = graph.degree(vertex)
        if not self.params.in_medium_band(degree):
            return OUTSIDE
        prefix = graph.neighbors(vertex)[: self.params.med_threshold]
        if not prefix:
            return DESERTED
        bounded = sum(
            1 for w in prefix if graph.degree(w) <= self.params.super_threshold
        )
        if 2 * bounded >= len(prefix):
            return DESERTED
        return CROWDED
