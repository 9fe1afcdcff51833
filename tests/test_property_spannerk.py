"""Property-based tests for the O(k²) construction and the remaining baselines.

Random small bounded-degree graphs with random parameter settings must always
yield spanners that are subgraphs, preserve connectivity of every component
and (in the all-sparse regime) respect the (2k−1) bound of the simulated
distributed algorithm.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import measure_stretch, preserves_connectivity
from repro.baselines import SparseSpanningSubgraphLCA, greedy_spanner
from repro.graphs import Graph
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA


@st.composite
def sparse_graphs(draw, max_vertices=24):
    """Connected-ish sparse graphs: a cycle plus a few random chords."""
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    edges = {(i, (i + 1) % n) for i in range(n)}
    num_chords = draw(st.integers(min_value=0, max_value=n))
    for _ in range(num_chords):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(edges, vertices=range(n))


relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@relaxed
@given(
    graph=sparse_graphs(),
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=3),
    center_p=st.sampled_from([0.0, 0.3, 1.0]),
    mark_p=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_k_squared_spanner_invariants(graph, seed, k, center_p, mark_p):
    params = KSquaredParams(
        num_vertices=graph.num_vertices,
        stretch_parameter=k,
        exploration_budget=6,
        center_probability=center_p,
        mark_probability=mark_p,
        rank_quota=8,
        independence=8,
    )
    lca = KSquaredSpannerLCA(graph, seed=seed, params=params)
    materialized = lca.materialize(mode="batched")
    # subgraph property is enforced by measure_stretch's check
    report = measure_stretch(graph, materialized.edges)
    assert preserves_connectivity(graph, materialized.edges)
    if center_p == 0.0:
        # all-sparse: the Baswana–Sen guarantee applies to the whole graph
        assert report.max_stretch <= max(1, 2 * k - 1)


@relaxed
@given(
    graph=sparse_graphs(max_vertices=20),
    seed=st.integers(min_value=0, max_value=10**6),
    radius=st.integers(min_value=1, max_value=4),
)
def test_sparse_spanning_lca_always_preserves_connectivity(graph, seed, radius):
    lca = SparseSpanningSubgraphLCA(graph, seed=seed, radius=radius)
    materialized = lca.materialize()
    assert preserves_connectivity(graph, materialized.edges)


@relaxed
@given(graph=sparse_graphs(max_vertices=20), k=st.integers(min_value=1, max_value=4))
def test_greedy_spanner_never_larger_than_graph_and_respects_stretch(graph, k):
    spanner = greedy_spanner(graph, stretch_parameter=k)
    assert len(spanner) <= graph.num_edges
    report = measure_stretch(graph, spanner, limit=2 * k)
    assert report.max_stretch <= 2 * k - 1
