"""End-to-end evaluation harness: materialize an LCA and verify/report it.

This is the bridge used by the tests, the examples and every benchmark: it
queries an LCA on every edge (or a sample), verifies the resulting global
object (subgraph / stretch / connectivity), and produces a structured report
with the quantities the paper's tables talk about — number of edges, stretch,
probe complexity — next to the theoretical targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.lca import MaterializedSpanner, SpannerLCA
from ..graphs.graph import Graph
from .verify import StretchReport, density_ratio, measure_stretch, preserves_connectivity

Edge = Tuple[int, int]


@dataclass
class EvaluationReport:
    """Everything measured about one LCA run on one graph."""

    algorithm: str
    num_vertices: int
    num_graph_edges: int
    num_spanner_edges: int
    stretch: StretchReport
    stretch_bound: Optional[int]
    probe_max: int
    probe_mean: float
    connectivity_preserved: bool
    density: float
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def stretch_ok(self) -> bool:
        """Whether the measured stretch respects the declared bound."""
        if self.stretch_bound is None:
            return self.stretch.is_finite
        return self.stretch.satisfies(self.stretch_bound)

    def as_row(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "n": self.num_vertices,
            "m": self.num_graph_edges,
            "|H|": self.num_spanner_edges,
            "stretch": self.stretch.max_stretch,
            "stretch bound": self.stretch_bound,
            "max probes": self.probe_max,
            "mean probes": round(self.probe_mean, 1),
            "density": round(self.density, 4),
            "connected": self.connectivity_preserved,
            **self.extras,
        }


def evaluate_lca(
    lca: SpannerLCA,
    stretch_limit: Optional[int] = None,
    sample_stretch_edges: Optional[int] = None,
    seed: int = 0,
    mutations: Optional[Iterable] = None,
) -> EvaluationReport:
    """Materialize an LCA over every edge of its graph and verify the result.

    The spanner is materialized by the batched engine, whose edges and
    per-query probe statistics equal the cold reference path's.

    Parameters
    ----------
    lca:
        The spanner LCA to evaluate (already bound to a graph and seed).
    stretch_limit:
        BFS depth cap for stretch measurement; defaults to a small multiple
        of the declared bound (or unbounded when there is none).
    sample_stretch_edges:
        When given, only this many randomly chosen edges of ``G`` are checked
        for stretch (the spanner is still materialized over all edges).
    mutations:
        Optional sequence of graph mutations (``(op, u, v)`` triples or
        :class:`~repro.service.trace.TraceOp` records) applied to the LCA's
        graph *before* materializing — the post-mutation spanner is what
        gets verified.  Epoch-based cache invalidation guarantees the
        result is bit-identical to evaluating a fresh LCA on the mutated
        edge set; the applied count lands in ``report.extras``.
    """
    graph = lca.graph
    applied = lca.apply_mutations(mutations) if mutations is not None else 0
    materialized = lca.materialize(mode="batched")
    report = evaluate_materialized(
        graph,
        materialized,
        stretch_limit=stretch_limit,
        sample_stretch_edges=sample_stretch_edges,
        seed=seed,
    )
    if mutations is not None:
        report.extras["mutations"] = applied
        report.extras["graph_epoch"] = graph.epoch
    return report


def evaluate_materialized(
    graph: Graph,
    materialized: MaterializedSpanner,
    stretch_limit: Optional[int] = None,
    sample_stretch_edges: Optional[int] = None,
    seed: int = 0,
) -> EvaluationReport:
    """Verify and summarize an already materialized spanner."""
    if stretch_limit is None and materialized.stretch_bound is not None:
        stretch_limit = 2 * materialized.stretch_bound + 2
    sample: Optional[List[Edge]] = None
    if sample_stretch_edges is not None:
        all_edges = list(graph.edges())
        rng = random.Random(seed)
        count = min(sample_stretch_edges, len(all_edges))
        sample = rng.sample(all_edges, count) if count else []
    stretch = measure_stretch(
        graph, materialized.edges, limit=stretch_limit, sample_edges=sample
    )
    return EvaluationReport(
        algorithm=materialized.algorithm,
        num_vertices=graph.num_vertices,
        num_graph_edges=graph.num_edges,
        num_spanner_edges=materialized.num_edges,
        stretch=stretch,
        stretch_bound=materialized.stretch_bound,
        probe_max=materialized.probe_stats.max,
        probe_mean=materialized.probe_stats.mean,
        connectivity_preserved=preserves_connectivity(graph, materialized.edges),
        density=density_ratio(graph, materialized.edges),
    )


def probe_complexity_sample(
    lca: SpannerLCA, num_queries: int, seed: int = 0
) -> Dict[str, float]:
    """Probe statistics over a random sample of edge queries.

    Used when materializing every edge would be too slow but a faithful
    per-query probe measurement is still wanted (e.g. Table 4/5 rows).
    ``"yes"`` counts the sampled edges the LCA keeps.
    """
    edges = list(lca.graph.edges())
    if not edges:
        return {"queries": 0, "max": 0, "mean": 0.0, "yes": 0}
    rng = random.Random(seed)
    count = min(num_queries, len(edges))
    sample = rng.sample(edges, count)
    totals: List[int] = []
    yes = 0
    for (u, v) in sample:
        outcome = lca.query_with_stats(u, v)
        totals.append(outcome.probe_total)
        yes += outcome.in_spanner
    return {
        "queries": len(totals),
        "max": max(totals),
        "mean": sum(totals) / len(totals),
        "yes": yes,
    }


def check_consistency(
    lca: SpannerLCA, edges: Optional[Iterable[Edge]] = None, repeats: int = 2
) -> bool:
    """Check that repeated / reversed queries return identical answers.

    This exercises the Definition 1.4 consistency contract directly; it
    returns ``True`` when no discrepancy is found.
    """
    edge_list = list(lca.graph.edges() if edges is None else edges)
    for (u, v) in edge_list:
        first = lca.query(u, v)
        for _ in range(max(1, repeats - 1)):
            if lca.query(u, v) != first:
                return False
        if lca.query(v, u) != first:
            return False
    return True
