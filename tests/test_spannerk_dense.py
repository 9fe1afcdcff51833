"""Unit tests for the dense-side components (H^I_dense, H^B_dense rules)."""

from __future__ import annotations


from repro.core.seed import Seed
from repro.graphs import Graph, cycle_graph, grid_graph, path_graph
from repro.spannerk import (
    KSquaredParams,
    KSquaredRandomness,
    KSquaredSpannerLCA,
)
from repro.spannerk.dense import DenseConnectorComponent, VoronoiTreeComponent


def make_params(n, *, k=2, budget=8, center_p=1.0, mark_p=1.0, quota=100):
    return KSquaredParams(
        num_vertices=n,
        stretch_parameter=k,
        exploration_budget=budget,
        center_probability=center_p,
        mark_probability=mark_p,
        rank_quota=quota,
        independence=10,
    )


def build_components(graph, params, seed=5):
    randomness = KSquaredRandomness(Seed.of(seed), params)
    tree = VoronoiTreeComponent(graph, seed, params=params, randomness=randomness)
    connector = DenseConnectorComponent(
        graph, seed, params=params, randomness=randomness
    )
    return tree, connector, randomness


# --------------------------------------------------------------------------- #
# H^I_dense: Voronoi-tree edges
# --------------------------------------------------------------------------- #
def test_tree_component_in_all_centers_regime_keeps_nothing():
    """Singleton cells have empty Voronoi trees: no tree edges at all."""
    graph = grid_graph(4, 4)
    params = make_params(graph.num_vertices, center_p=1.0)
    tree, _, _ = build_components(graph, params)
    assert not any(tree.query(u, v) for (u, v) in graph.edges())


def test_tree_component_keeps_paths_to_forced_center():
    graph = path_graph(7)
    params = make_params(7, k=3, center_p=0.0)
    tree, _, randomness = build_components(graph, params)
    randomness.centers.is_center = lambda v: v == 0  # type: ignore[assignment]
    # dense vertices: 0, 1, 2, 3 — tree edges are exactly the path edges between them
    assert tree.query(0, 1) and tree.query(1, 2) and tree.query(2, 3)
    assert not tree.query(4, 5)
    assert tree.stretch_bound() == 1


# --------------------------------------------------------------------------- #
# H^B_dense rules in the all-centers regime (singleton cells and clusters)
# --------------------------------------------------------------------------- #
def test_connector_requires_both_endpoints_dense():
    graph = cycle_graph(12)
    params = make_params(12, center_p=0.0)  # nothing is dense
    _, connector, _ = build_components(graph, params)
    assert not any(connector.query(u, v) for (u, v) in graph.edges())


def test_connector_skips_intra_cell_edges():
    graph = path_graph(6)
    params = make_params(6, k=3, center_p=0.0)
    _, connector, randomness = build_components(graph, params)
    randomness.centers.is_center = lambda v: v == 0  # type: ignore[assignment]
    # vertices 0..3 share the cell of center 0: the connector never keeps
    # intra-cell edges (H^I_dense is responsible for them)
    assert not connector.query(1, 2)
    assert not connector.query(2, 3)


def test_connector_rule1_marked_cluster_keeps_minimum_edge():
    """All cells marked, all clusters singletons: rule (1) keeps every edge
    between dense vertices (the minimum-ID edge between two singletons is the
    edge itself)."""
    graph = cycle_graph(10)
    params = make_params(10, center_p=1.0, mark_p=1.0)
    _, connector, _ = build_components(graph, params)
    for (u, v) in graph.edges():
        assert connector.query(u, v)


def test_connector_rule2_without_marked_cells():
    """No cell marked: rule (2) applies (clusters with no marked neighbor
    connect to every adjacent cell), again keeping every dense-dense edge in
    the singleton regime."""
    graph = cycle_graph(10)
    params = make_params(10, center_p=1.0, mark_p=0.0, quota=0)
    _, connector, _ = build_components(graph, params)
    for (u, v) in graph.edges():
        assert connector.query(u, v)


def test_connector_rule3_respects_rank_quota():
    """With a zero rank quota only rules (1) and (2) can keep edges: every
    kept edge either touches a marked cell (rule 1) or one of its endpoint
    clusters has no marked neighboring cell at all (rule 2)."""
    graph = cycle_graph(10)
    params_no_quota = make_params(10, center_p=1.0, mark_p=0.3, quota=0)
    _, connector, randomness = build_components(graph, params_no_quota)
    kept = {edge for edge in graph.edges() if connector.query(*edge)}

    def no_marked_neighbor_cell(vertex):
        return all(
            not randomness.is_marked_cell(w) for w in graph.neighbors(vertex)
        )

    for (u, v) in kept:
        rule1_possible = randomness.is_marked_cell(u) or randomness.is_marked_cell(v)
        rule2_possible = no_marked_neighbor_cell(u) or no_marked_neighbor_cell(v)
        assert rule1_possible or rule2_possible

    params_big_quota = make_params(10, center_p=1.0, mark_p=0.3, quota=100)
    _, connector_big, _ = build_components(graph, params_big_quota)
    kept_big = {edge for edge in graph.edges() if connector_big.query(*edge)}
    assert kept <= kept_big  # a larger quota only adds edges


def test_connector_direction_symmetry():
    graph = grid_graph(4, 5)
    params = make_params(graph.num_vertices, center_p=0.6, mark_p=0.4, quota=3)
    _, connector, _ = build_components(graph, params)
    for (u, v) in list(graph.edges())[:25]:
        assert connector.query(u, v) == connector.query(v, u)


def test_connector_stretch_bound_is_probabilistic():
    graph = cycle_graph(8)
    params = make_params(8)
    _, connector, _ = build_components(graph, params)
    assert connector.stretch_bound() is None


# --------------------------------------------------------------------------- #
# Union behaviour
# --------------------------------------------------------------------------- #
def test_components_union_equals_full_lca():
    graph = grid_graph(5, 5)
    params = make_params(graph.num_vertices, center_p=0.5, mark_p=0.3, quota=5)
    lca = KSquaredSpannerLCA(graph, seed=5, params=params)
    for (u, v) in list(graph.edges())[:30]:
        expected = any(
            component._decide(lca._oracle, u, v) for component in lca.components
        )
        assert lca.query(u, v) == expected
        assert lca.query_batch([(u, v)]).answers == [expected]


def test_isolated_vertex_handled():
    graph = Graph({0: [1], 1: [0], 2: []})
    params = make_params(3, center_p=0.5)
    lca = KSquaredSpannerLCA(graph, seed=5, params=params)
    assert isinstance(lca.query(0, 1), bool)
