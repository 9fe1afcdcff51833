"""Tests for the graph generators."""

from __future__ import annotations

import hashlib
from array import array

import pytest

from repro.core.errors import ParameterError
from repro.graphs import (
    FAMILY_BUILDERS,
    GRAPH_FAMILIES,
    bounded_degree_expanderish,
    build_family,
    circulant_graph,
    complete_graph,
    cycle_graph,
    dense_cluster_graph,
    disjoint_union,
    gnm_graph,
    gnp_graph,
    grid_graph,
    is_connected,
    path_graph,
    planted_hub_graph,
    power_law_graph,
    random_regular_graph,
    relabel_randomly,
    star_graph,
)

#: sha256 of the ``array("q")`` bytes of ids, indptr and indices of
#: ``build_family(name, 60, density=0.1, seed=3)`` for every registered
#: family (``grid`` rounds n up to 64).  An LCA reads its input only through
#: the adjacency-list oracle, so a digest that moves moves every answer,
#: probe ledger and report row built on that family.
FAMILY_DIGESTS = {
    "bounded": "ac6231159997257981780bcbf75a851f1db312c19f1eae26572be739044005fa",
    "clustered": "2af3f985b43f9021beb360b67a6fc9c6de564460855f2b537753aa02b97cd875",
    "gnp": "63bc0ad71c76cd7aa85e080dc011f737c9b1f177a995760a2c7f78ccd0dc00ab",
    "gnp-stream": "63bc0ad71c76cd7aa85e080dc011f737c9b1f177a995760a2c7f78ccd0dc00ab",
    "grid": "b7efaf04883c657461d1fff2b8572ce019bb7811da96e783b1bf5c020de28e46",
    "hubs": "6915479cbbad8976a7fd8e9c5189a925f3aed6f3e5cb9cabdc63a8c02bceb0b6",
    "power-law": "0842edbe7d6d7e3b8687b86dafc631d51ee29ded10e512ec4a07f21659b93404",
}


def test_complete_graph():
    g = complete_graph(6)
    assert g.num_edges == 15
    assert g.max_degree() == 5


def test_cycle_and_path():
    assert cycle_graph(10).num_edges == 10
    assert path_graph(10).num_edges == 9
    assert cycle_graph(10).max_degree() == 2
    with pytest.raises(ParameterError):
        cycle_graph(2)


def test_star_graph():
    g = star_graph(12)
    assert g.degree(0) == 11
    assert g.num_edges == 11


def test_grid_graph():
    g = grid_graph(4, 5)
    assert g.num_vertices == 20
    assert g.num_edges == 4 * 4 + 3 * 5
    assert g.max_degree() <= 4
    assert is_connected(g)


def test_gnp_graph_density_tracks_p():
    g = gnp_graph(200, 0.1, seed=3)
    expected = 0.1 * 200 * 199 / 2
    assert abs(g.num_edges - expected) < 0.35 * expected
    assert gnp_graph(50, 0.0, seed=1).num_edges == 0
    assert gnp_graph(10, 1.0, seed=1).num_edges == 45


def test_gnp_graph_deterministic_in_seed():
    a = gnp_graph(80, 0.2, seed=7)
    b = gnp_graph(80, 0.2, seed=7)
    assert set(a.edges()) == set(b.edges())


def test_gnm_graph_exact_edge_count():
    g = gnm_graph(50, 100, seed=2)
    assert g.num_edges == 100
    with pytest.raises(ParameterError):
        gnm_graph(5, 100)


def test_random_regular_graph_is_regular():
    g = random_regular_graph(40, 4, seed=5)
    degrees = {g.degree(v) for v in g.vertices()}
    assert degrees == {4}
    with pytest.raises(ParameterError):
        random_regular_graph(5, 5)
    with pytest.raises(ParameterError):
        random_regular_graph(5, 3)  # odd n * d


def test_circulant_graph_structure():
    g = circulant_graph(10, [1, 2])
    assert g.degree(0) == 4
    assert is_connected(g)


def test_power_law_graph_has_degree_skew():
    g = power_law_graph(300, exponent=2.3, min_degree=2, seed=8)
    assert g.num_vertices == 300
    assert g.max_degree() > 3 * max(1, g.min_degree())
    with pytest.raises(ParameterError):
        power_law_graph(10, exponent=0.5)


def test_planted_hub_graph_hubs_have_high_degree():
    g = planted_hub_graph(150, num_hubs=3, hub_degree=60, seed=1)
    hub_degrees = [g.degree(v) for v in range(3)]
    other_degrees = [g.degree(v) for v in range(10, 150)]
    assert min(hub_degrees) > 3 * (sum(other_degrees) / len(other_degrees))
    assert is_connected(g)


def test_dense_cluster_graph_structure():
    g = dense_cluster_graph(60, 6, inter_probability=0.05, seed=2)
    assert g.num_vertices == 60
    # each cluster of 10 vertices is a clique: at least 6 * C(10,2) edges
    assert g.num_edges >= 6 * 45


def test_bounded_degree_expanderish():
    g = bounded_degree_expanderish(100, d=6, seed=4)
    assert g.max_degree() <= 6 + 2
    assert is_connected(g)
    with pytest.raises(ParameterError):
        bounded_degree_expanderish(101, d=6)
    with pytest.raises(ParameterError):
        bounded_degree_expanderish(100, d=5)


def test_disjoint_union_relabels():
    a = cycle_graph(5)
    b = cycle_graph(7)
    union = disjoint_union([a, b])
    assert union.num_vertices == 12
    assert union.num_edges == 12
    assert not is_connected(union)


def test_relabel_randomly_is_isomorphic():
    g = gnp_graph(40, 0.2, seed=3)
    relabeled = relabel_randomly(g, seed=9)
    assert relabeled.num_vertices == g.num_vertices
    assert relabeled.num_edges == g.num_edges
    assert sorted(relabeled.degree(v) for v in relabeled.vertices()) == sorted(
        g.degree(v) for v in g.vertices()
    )
    # IDs are no longer 0..n-1
    assert max(relabeled.vertices()) > g.num_vertices


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_family_builds_its_pinned_graph(family):
    graph = build_family(family, 60, density=0.1, seed=3)
    digest = hashlib.sha256()
    for values in (graph._ids, graph._indptr, graph._indices):
        digest.update(array("q", values).tobytes())
    assert digest.hexdigest() == FAMILY_DIGESTS[family]


def test_one_builder_per_family():
    assert sorted(FAMILY_BUILDERS) == sorted(FAMILY_DIGESTS)
    assert FAMILY_BUILDERS["gnp-stream"] is FAMILY_BUILDERS["gnp"]
