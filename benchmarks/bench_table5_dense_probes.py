"""Table 5 — probe complexity of the dense-side subroutines.

Table 5 of the paper lists the probes used by the dense-side subroutines:

* finding c(v) and π(v, c(v))                       — O(ΔL),
* testing whether an edge is a Voronoi-tree edge     — O(ΔL),
* computing the children of v in its Voronoi tree    — O(Δ²L),
* heavy/light classification (capped subtree size)   — O(Δ²L²),
* computing the entire cluster of v                  — O(Δ³L²),
* the full H_dense membership test                   — O(pΔ⁴L³ log n).

The benchmark measures each row on a bounded-degree graph with parameters
tuned so that the dense region is populated, and checks the measured numbers
against (generous constant multiples of) the bounds.
"""

from __future__ import annotations

import random

from repro import format_table
from repro.core.oracle import AdjacencyListOracle
from repro.core.probes import ProbeCounter
from repro.spannerk import KSquaredSpannerLCA, LocalView

from conftest import print_section, tuned_k2_params


def _fresh_view(graph, params, randomness):
    return LocalView(AdjacencyListOracle(graph, ProbeCounter()), params, randomness)


def test_table5_dense_subroutine_probes(benchmark, bounded_benchmark_graph):
    graph = bounded_benchmark_graph
    params = tuned_k2_params(graph.num_vertices, k=2)
    lca = KSquaredSpannerLCA(graph, seed=29, params=params)
    randomness = lca.randomness

    delta = graph.max_degree()
    budget = params.exploration_budget

    # Collect some dense vertices and dense-dense edges to measure on.
    scan_view = LocalView(AdjacencyListOracle(graph), params, randomness)
    dense_vertices = [v for v in graph.vertices() if scan_view.is_dense(v)][:40]
    dense_edges = []
    for (u, v) in graph.edges():
        if scan_view.is_dense(u) and scan_view.is_dense(v):
            dense_edges.append((u, v))
        if len(dense_edges) >= 40:
            break
    assert dense_vertices and dense_edges, "tune parameters: dense region empty"

    def measure(callable_per_item, items):
        worst = 0
        for item in items:
            view = _fresh_view(graph, params, randomness)
            callable_per_item(view, item)
            worst = max(worst, view.oracle.counter.total)
        return worst

    center_max = measure(lambda view, v: view.center(v), dense_vertices)
    tree_edge_max = measure(lambda view, e: view.is_tree_edge(*e), dense_edges)
    children_max = measure(lambda view, v: view.children(v), dense_vertices)
    heavy_max = measure(lambda view, v: view.is_heavy(v), dense_vertices)
    cluster_max = measure(lambda view, v: view.cluster_info(v), dense_vertices)

    full_max = 0
    rng = random.Random(11)
    for (u, v) in rng.sample(dense_edges, min(25, len(dense_edges))):
        outcome = lca.connector_component.query_with_stats(u, v)
        full_max = max(full_max, outcome.probe_total)

    rows = [
        {"subroutine": "find c(v) and π(v, c(v))", "paper bound": f"O(ΔL)={delta*budget}", "measured max": center_max},
        {"subroutine": "Voronoi-tree edge test", "paper bound": f"O(ΔL)={delta*budget}", "measured max": tree_edge_max},
        {"subroutine": "children of v in T(c(v))", "paper bound": f"O(Δ²L)={delta**2*budget}", "measured max": children_max},
        {"subroutine": "heavy/light test", "paper bound": f"O(Δ²L²)={delta**2*budget**2}", "measured max": heavy_max},
        {"subroutine": "compute v's entire cluster", "paper bound": f"O(Δ³L²)={delta**3*budget**2}", "measured max": cluster_max},
        {"subroutine": "full H^B_dense membership test", "paper bound": f"O(pΔ⁴L³ log n)", "measured max": full_max},
    ]
    print_section("Table 5 — H_dense subroutine probe complexity (k=2)", format_table(rows))

    assert center_max <= 4 * delta * budget + 20
    assert tree_edge_max <= 8 * delta * budget + 20
    assert children_max <= 8 * delta**2 * budget + 50
    assert heavy_max <= 8 * delta**2 * budget**2 + 50
    assert cluster_max <= 8 * delta**3 * budget**2 + 100
    # The full test is polynomially bounded; compare against the Table 5 form.
    import math

    bound = params.mark_probability * delta**4 * budget**3 * math.log(graph.num_vertices)
    assert full_max <= 40 * bound + 500

    vertex = dense_vertices[0]
    benchmark(lambda: _fresh_view(graph, params, randomness).cluster_info(vertex))
    benchmark.extra_info["table"] = "Table 5"
