"""End-to-end tests for the O(k²)-spanner LCA (Theorem 1.2)."""

from __future__ import annotations

import pytest

from repro import evaluate_lca, graphs
from repro.analysis import check_consistency, measure_stretch, preserves_connectivity
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA


def tuned_params(n, k, budget, center_p, mark_p, quota=50):
    """Explicit parameters so both the sparse and dense code paths are active
    at test scale (the paper's defaults degenerate for very small n)."""
    return KSquaredParams(
        num_vertices=n,
        stretch_parameter=k,
        exploration_budget=budget,
        center_probability=center_p,
        mark_probability=mark_p,
        rank_quota=quota,
        independence=12,
    )


@pytest.fixture
def bounded_graph():
    return graphs.bounded_degree_expanderish(150, d=4, seed=3)


def test_default_parameters_give_valid_spanner(bounded_graph):
    lca = KSquaredSpannerLCA(bounded_graph, seed=7, stretch_parameter=2)
    report = evaluate_lca(lca)
    assert report.stretch.is_finite
    assert report.stretch.max_stretch <= lca.stretch_bound()
    assert report.connectivity_preserved


def test_all_sparse_regime_matches_baswana_sen_guarantee(bounded_graph):
    """With no centers every vertex is sparse: the whole spanner is the local
    Baswana–Sen simulation and must satisfy the (2k−1) stretch bound."""
    k = 3
    params = tuned_params(bounded_graph.num_vertices, k, budget=10, center_p=0.0, mark_p=0.2)
    lca = KSquaredSpannerLCA(bounded_graph, seed=7, params=params)
    materialized = lca.materialize(mode="batched")
    stretch = measure_stretch(bounded_graph, materialized.edges, limit=2 * k)
    assert stretch.max_stretch <= 2 * k - 1
    assert preserves_connectivity(bounded_graph, materialized.edges)


def test_all_dense_regime_voronoi_only(bounded_graph):
    """With every vertex a center, the dense machinery runs on singleton cells."""
    params = tuned_params(bounded_graph.num_vertices, 2, budget=6, center_p=1.0, mark_p=0.2)
    lca = KSquaredSpannerLCA(bounded_graph, seed=7, params=params)
    report = evaluate_lca(lca)
    assert report.connectivity_preserved
    assert report.stretch.max_stretch <= lca.stretch_bound()


def test_mixed_regime_connectivity_and_stretch(bounded_graph):
    params = tuned_params(bounded_graph.num_vertices, 2, budget=8, center_p=0.25, mark_p=0.25)
    lca = KSquaredSpannerLCA(bounded_graph, seed=11, params=params)
    report = evaluate_lca(lca)
    assert report.connectivity_preserved
    assert report.stretch.is_finite
    assert report.stretch.max_stretch <= lca.stretch_bound()


def test_consistency_of_answers(bounded_graph):
    params = tuned_params(bounded_graph.num_vertices, 2, budget=8, center_p=0.3, mark_p=0.3)
    lca = KSquaredSpannerLCA(bounded_graph, seed=5, params=params)
    sample = list(bounded_graph.edges())[:30]
    assert check_consistency(lca, edges=sample)
    # The cached engine, asked each edge twice and reversed, agrees with it.
    stream = [q for (u, v) in sample for q in ((u, v), (u, v), (v, u))]
    assert lca.query_batch(stream).answers == [
        lca.query(u, v) for (u, v) in sample for _ in range(3)
    ]


def test_deterministic_in_seed():
    graph = graphs.bounded_degree_expanderish(80, d=4, seed=2)
    params = tuned_params(graph.num_vertices, 2, budget=6, center_p=0.3, mark_p=0.3)
    a = KSquaredSpannerLCA(graph, seed=9, params=params).materialize(mode="batched").edges
    b = KSquaredSpannerLCA(graph, seed=9, params=params).materialize(mode="batched").edges
    assert a == b


def test_grid_graph_large_diameter():
    graph = graphs.grid_graph(10, 10)
    params = tuned_params(graph.num_vertices, 3, budget=10, center_p=0.2, mark_p=0.3)
    lca = KSquaredSpannerLCA(graph, seed=3, params=params)
    report = evaluate_lca(lca)
    assert report.connectivity_preserved
    assert report.stretch.max_stretch <= lca.stretch_bound()


def test_disconnected_graph_components_preserved():
    graph = graphs.disjoint_union(
        [graphs.cycle_graph(30), graphs.grid_graph(5, 6)]
    )
    params = tuned_params(graph.num_vertices, 2, budget=6, center_p=0.3, mark_p=0.3)
    lca = KSquaredSpannerLCA(graph, seed=3, params=params)
    materialized = lca.materialize(mode="batched")
    assert preserves_connectivity(graph, materialized.edges)


def test_probe_accounting_of_a_cold_query():
    graph = graphs.bounded_degree_expanderish(60, d=4, seed=1)
    params = tuned_params(graph.num_vertices, 2, budget=6, center_p=0.3, mark_p=0.3)
    lca = KSquaredSpannerLCA(graph, seed=5, params=params)
    u, v = next(iter(graph.edges()))
    outcome = lca.query_with_stats(u, v)
    assert outcome.probe_total > 0
    # far below reading the whole graph
    assert outcome.probe_total < 2 * graph.num_edges


def test_batched_materialize_explores_each_vertex_once(monkeypatch):
    """The cached engine keeps each D^k_L exploration in the oracle's memo
    layer: a batched materialize runs ``explore`` at most once per vertex,
    yet keeps the cold run's edges and per-query probe totals."""
    import repro.spannerk.voronoi as voronoi

    graph = graphs.bounded_degree_expanderish(80, d=4, seed=3)
    params = tuned_params(graph.num_vertices, 2, budget=6, center_p=0.3, mark_p=0.25, quota=20)
    cold = KSquaredSpannerLCA(graph, seed=7, params=params).materialize(mode="cold")

    sources = []
    real_explore = voronoi.explore

    def counting_explore(oracle, source, **kwargs):
        sources.append(source)
        return real_explore(oracle, source, **kwargs)

    monkeypatch.setattr(voronoi, "explore", counting_explore)
    batched = KSquaredSpannerLCA(graph, seed=7, params=params).materialize(mode="batched")
    assert len(sources) == len(set(sources)) <= graph.num_vertices
    assert batched.edges == cold.edges
    assert batched.probe_stats.query_totals == cold.probe_stats.query_totals


def test_stretch_parameter_controls_nominal_bound():
    graph = graphs.cycle_graph(30)
    small_k = KSquaredSpannerLCA(graph, seed=1, stretch_parameter=1)
    large_k = KSquaredSpannerLCA(graph, seed=1, stretch_parameter=4)
    assert small_k.stretch_bound() < large_k.stretch_bound()
