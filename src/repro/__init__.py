"""repro — Local Computation Algorithms for Graph Spanners.

A faithful, laptop-scale reproduction of

    Parter, Rubinfeld, Vakilian, Yodpinyanee:
    "Local Computation Algorithms for Spanners" (2019).

The public API is re-exported here for convenience:

* graph substrate and generators        — :mod:`repro.graphs`
* probe oracle and LCA framework        — :mod:`repro.core`
* bounded-independence randomness       — :mod:`repro.rand`
* the three spanner LCAs                — :mod:`repro.spanner3`,
                                          :mod:`repro.spanner5`,
                                          :mod:`repro.spannerk`
* global baselines                      — :mod:`repro.baselines`
* classic LCAs (MIS, matching)          — :mod:`repro.lca_classic`
* lower-bound constructions             — :mod:`repro.lowerbound`
* verification / benchmarking harness   — :mod:`repro.analysis`
* online query service (shards, scheduler, workloads)
                                        — :mod:`repro.service`
* experiment & reporting plane (scenario specs, Markdown reports)
                                        — :mod:`repro.reports`

Quickstart
----------
>>> from repro import graphs, ThreeSpannerLCA, evaluate_lca
>>> graph = graphs.gnp_graph(300, 0.2, seed=1)
>>> lca = ThreeSpannerLCA(graph, seed=7)
>>> isinstance(lca.query(*next(iter(graph.edges()))), bool)
True
"""

from . import (
    analysis,
    baselines,
    core,
    graphs,
    lca_classic,
    lowerbound,
    rand,
    reports,
    service,
)
from .analysis import (
    EvaluationReport,
    check_consistency,
    evaluate_lca,
    evaluate_materialized,
    format_table,
    measure_stretch,
    verify_spanner,
)
from .core import (
    AdjacencyListOracle,
    CachedOracle,
    CombinedLCA,
    MaterializedSpanner,
    ProbeCounter,
    ProbeStatistics,
    Seed,
    SpannerLCA,
)
from .core.registry import available as available_lcas
from .core.registry import create as create_lca
from .service import (
    ServiceConfig,
    ServiceEngine,
    ServiceReport,
    ShardedOraclePool,
    make_workload,
    serve_workload,
)
from .graphs import Graph
from .spanner3 import ThreeSpannerLCA, ThreeSpannerParams
from .spanner5 import FiveSpannerLCA, FiveSpannerParams
from .spannerk import KSquaredParams, KSquaredSpannerLCA

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "analysis",
    "baselines",
    "core",
    "graphs",
    "lca_classic",
    "lowerbound",
    "rand",
    "reports",
    "Graph",
    "Seed",
    "SpannerLCA",
    "CombinedLCA",
    "AdjacencyListOracle",
    "CachedOracle",
    "ProbeCounter",
    "ProbeStatistics",
    "MaterializedSpanner",
    "ThreeSpannerLCA",
    "ThreeSpannerParams",
    "FiveSpannerLCA",
    "FiveSpannerParams",
    "KSquaredSpannerLCA",
    "KSquaredParams",
    "EvaluationReport",
    "evaluate_lca",
    "evaluate_materialized",
    "check_consistency",
    "measure_stretch",
    "verify_spanner",
    "format_table",
    "available_lcas",
    "create_lca",
    "service",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceReport",
    "ShardedOraclePool",
    "serve_workload",
    "make_workload",
]
