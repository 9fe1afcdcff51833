"""Table 3 — edge categorization of the O(k²)-spanner construction.

Table 3 of the paper splits the edges into E_sparse (≥ one sparse endpoint,
handled by H_sparse) and E_dense (both endpoints dense, handled by
H^I_dense ∪ H^B_dense), with their respective size and probe bounds.  This
benchmark measures the split, the contribution of each component to the
spanner and the per-component probe costs on a bounded-degree workload.
"""

from __future__ import annotations

import random

from repro import format_table
from repro.core.oracle import AdjacencyListOracle
from repro.spannerk import KSquaredSpannerLCA, LocalView

from conftest import print_section, tuned_k2_params


def test_table3_k2_edge_classes(benchmark, bounded_benchmark_graph):
    graph = bounded_benchmark_graph
    params = tuned_k2_params(graph.num_vertices, k=2)
    lca = KSquaredSpannerLCA(graph, seed=13, params=params)

    # Sparse/dense classification of every vertex (probe-free view reuse).
    view = LocalView(AdjacencyListOracle(graph), params, lca.randomness)
    sparse_vertices = {v for v in graph.vertices() if view.is_sparse(v)}
    edge_classes = {"E_sparse": 0, "E_dense": 0}
    for (u, v) in graph.edges():
        if u in sparse_vertices or v in sparse_vertices:
            edge_classes["E_sparse"] += 1
        else:
            edge_classes["E_dense"] += 1

    # Component contributions over a sample of edges.
    rng = random.Random(7)
    sample = rng.sample(list(graph.edges()), min(300, graph.num_edges))
    component_rows = []
    for component, label in (
        (lca.sparse_component, "H_sparse (Lemma 4.5)"),
        (lca.tree_component, "H^I_dense (Lemma 4.6)"),
        (lca.connector_component, "H^B_dense (Lemma 4.11/4.14)"),
    ):
        kept = 0
        max_probes = 0
        for (u, v) in sample:
            outcome = component.query_with_stats(u, v)
            kept += int(outcome.in_spanner)
            max_probes = max(max_probes, outcome.probe_total)
        component_rows.append(
            {
                "component": label,
                "kept (of sample)": kept,
                "sample size": len(sample),
                "max probes / query": max_probes,
            }
        )

    class_rows = [
        {"edge class": label, "# input edges": count}
        for label, count in edge_classes.items()
    ]
    class_rows.append(
        {"edge class": "sparse vertices", "# input edges": len(sparse_vertices)}
    )
    print_section(
        "Table 3 — O(k²)-spanner edge categorization (k=2)",
        format_table(class_rows) + "\n\n" + format_table(component_rows),
    )

    assert edge_classes["E_sparse"] + edge_classes["E_dense"] == graph.num_edges

    u, v = sample[0]
    benchmark(lambda: lca.query(u, v))
    benchmark.extra_info["table"] = "Table 3"
