"""Parameter sweeps: scaling of size / probes / stretch with n, Δ, k.

The paper's claims are asymptotic; the benchmarks therefore measure how the
spanner size and the per-query probe counts grow along a sweep of graph sizes
and compare the growth *shape* against the theoretical exponents
(n^{3/2} / n^{3/4} for the 3-spanner, n^{4/3} / n^{5/6} for the 5-spanner,
n^{1+1/k} for the O(k²)-spanner).  The fitted exponent is reported next to
the target so the "who wins / by how much" comparison is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.lca import SpannerLCA
from ..core.seed import SeedLike
from ..graphs.graph import Graph
from .harness import EvaluationReport, evaluate_lca, probe_complexity_sample

GraphFactory = Callable[[int, int], Graph]
LCAFactory = Callable[[Graph, SeedLike], SpannerLCA]


@dataclass
class SweepPoint:
    """One point of a scaling sweep."""

    num_vertices: int
    num_edges: int
    spanner_edges: int
    max_probes: int
    mean_probes: float
    stretch: Optional[int]

    def as_row(self) -> Dict[str, object]:
        return {
            "n": self.num_vertices,
            "m": self.num_edges,
            "|H|": self.spanner_edges,
            "max probes": self.max_probes,
            "mean probes": round(self.mean_probes, 1),
            "stretch": self.stretch,
        }


@dataclass
class SweepResult:
    """A full sweep with exponent fits."""

    algorithm: str
    points: List[SweepPoint] = field(default_factory=list)

    def fitted_exponent(self, extract: Callable[[SweepPoint], float]) -> Optional[float]:
        """Least-squares slope of log(value) against log(n)."""
        xs: List[float] = []
        ys: List[float] = []
        for point in self.points:
            value = extract(point)
            if value > 0 and point.num_vertices > 1:
                xs.append(math.log(point.num_vertices))
                ys.append(math.log(value))
        if len(xs) < 2:
            return None
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        denominator = sum((x - mean_x) ** 2 for x in xs)
        if denominator == 0:
            return None
        return numerator / denominator

    def size_exponent(self) -> Optional[float]:
        return self.fitted_exponent(lambda p: float(p.spanner_edges))

    def probe_exponent(self) -> Optional[float]:
        return self.fitted_exponent(lambda p: float(p.max_probes))

    def rows(self) -> List[Dict[str, object]]:
        return [point.as_row() for point in self.points]


def run_sweep(
    algorithm_name: str,
    lca_factory: LCAFactory,
    graph_factory: GraphFactory,
    sizes: Sequence[int],
    seed: int = 0,
    materialize: bool = True,
    probe_queries: int = 30,
    stretch_sample: Optional[int] = 200,
) -> SweepResult:
    """Run an LCA over graphs of increasing size and collect scaling data.

    When ``materialize`` is false (used for the more expensive constructions)
    only a sample of queries is issued and the spanner size is estimated from
    the YES-rate of the sample.
    """
    result = SweepResult(algorithm=algorithm_name)
    for index, size in enumerate(sizes):
        graph = graph_factory(size, seed + index)
        lca = lca_factory(graph, seed + index)
        if materialize:
            report: EvaluationReport = evaluate_lca(
                lca, sample_stretch_edges=stretch_sample, seed=seed
            )
            point = SweepPoint(
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                spanner_edges=report.num_spanner_edges,
                max_probes=report.probe_max,
                mean_probes=report.probe_mean,
                stretch=report.stretch.max_stretch,
            )
        else:
            stats = probe_complexity_sample(lca, probe_queries, seed=seed + index)
            yes_rate = stats["yes"] / stats["queries"] if stats["queries"] else 0.0
            point = SweepPoint(
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                spanner_edges=int(round(yes_rate * graph.num_edges)),
                max_probes=int(stats["max"]),
                mean_probes=float(stats["mean"]),
                stretch=None,
            )
        result.points.append(point)
    return result


def exponent_row(
    sweep: SweepResult, target_size_exponent: float, target_probe_exponent: float
) -> Dict[str, object]:
    """Summary row comparing fitted exponents against the paper's targets."""
    return {
        "algorithm": sweep.algorithm,
        "size exponent (fit)": _round(sweep.size_exponent()),
        "size exponent (paper)": target_size_exponent,
        "probe exponent (fit)": _round(sweep.probe_exponent()),
        "probe exponent (paper)": target_probe_exponent,
    }


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 3)
