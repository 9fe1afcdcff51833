"""Table 4 — probe complexity of the sparse-side subroutines.

Table 4 of the paper lists the probe complexity of the subroutines used to
compute H_sparse:

* determining whether a vertex is a center               — no probes,
* computing D^k_L(v) / the sparse-dense test              — O(ΔL),
* gathering Γ^k(u) and Γ^k(v) for a sparse edge           — O(Δ²L),
* the full H_sparse membership test                       — O(Δ²L²).

This benchmark measures each row on a bounded-degree graph and checks that
the measured numbers respect (a small constant multiple of) those bounds.
"""

from __future__ import annotations

import random

from repro import format_table
from repro.core.oracle import AdjacencyListOracle
from repro.core.probes import ProbeCounter
from repro.spannerk import KSquaredRandomness, KSquaredSpannerLCA, LocalView

from conftest import print_section, tuned_k2_params


def test_table4_sparse_subroutine_probes(benchmark, bounded_benchmark_graph):
    graph = bounded_benchmark_graph
    params = tuned_k2_params(graph.num_vertices, k=2)
    lca = KSquaredSpannerLCA(graph, seed=21, params=params)
    randomness: KSquaredRandomness = lca.randomness

    delta = graph.max_degree()
    budget = params.exploration_budget
    rng = random.Random(5)
    vertices = rng.sample(graph.vertices(), 60)

    # Row 1: center membership — no probes at all.
    counter = ProbeCounter()
    oracle = AdjacencyListOracle(graph, counter)
    for v in vertices:
        randomness.is_center(v)
    center_probes = counter.total

    # Row 2: D^k_L computation / sparse-dense test.
    explore_max = 0
    for v in vertices:
        counter = ProbeCounter()
        view = LocalView(AdjacencyListOracle(graph, counter), params, randomness)
        view.is_sparse(v)
        explore_max = max(explore_max, counter.total)

    # Row 3: gathering the k-ball around a (preferably sparse) edge.
    gather_max = 0
    sparse_edges = []
    probe_view = LocalView(AdjacencyListOracle(graph), params, randomness)
    for (u, v) in graph.edges():
        if probe_view.is_sparse(u) or probe_view.is_sparse(v):
            sparse_edges.append((u, v))
        if len(sparse_edges) >= 40:
            break
    for (u, v) in sparse_edges:
        counter = ProbeCounter()
        oracle = AdjacencyListOracle(graph, counter)
        lca.sparse_component._gather_ball(oracle, [u, v], radius=params.stretch_parameter)
        gather_max = max(gather_max, counter.total)

    # Row 4: the full H_sparse membership test.
    full_max = 0
    for (u, v) in sparse_edges:
        outcome = lca.sparse_component.query_with_stats(u, v)
        full_max = max(full_max, outcome.probe_total)

    rows = [
        {
            "subroutine": "is v a center?",
            "paper bound": "0 probes",
            "measured max": center_probes,
        },
        {
            "subroutine": "compute D^k_L(v) / sparse-dense test",
            "paper bound": f"O(ΔL) = O({delta * budget})",
            "measured max": explore_max,
        },
        {
            "subroutine": "gather Γ^k(u) ∪ Γ^k(v)",
            "paper bound": f"O(Δ²L) = O({delta**2 * budget})",
            "measured max": gather_max,
        },
        {
            "subroutine": "full H_sparse membership test",
            "paper bound": f"O(Δ²L²) = O({delta**2 * budget**2})",
            "measured max": full_max,
        },
    ]
    print_section("Table 4 — H_sparse subroutine probe complexity (k=2)", format_table(rows))

    assert center_probes == 0
    assert explore_max <= 4 * delta * budget + 10
    assert gather_max <= 8 * delta**2 * budget + 50
    assert full_max <= 20 * delta**2 * budget**2 + 100

    sample_vertex = vertices[0]
    benchmark(
        lambda: LocalView(
            AdjacencyListOracle(graph), params, randomness
        ).is_sparse(sample_vertex)
    )
    benchmark.extra_info["table"] = "Table 4"
