"""Graph-level mutation plane: overlay semantics, epochs, edge cases.

Appends land at the end of both rows, removals preserve the survivors'
order, and every mutation bumps the endpoints' epochs.  Mutations go to a
delta overlay over the flat CSR arrays, whose compaction must be observably
invisible; a list-of-rows model kept in this file is the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import GraphError, UnknownVertexError
from repro.graphs import Graph


@pytest.fixture(params=["csr"])
def build(request):
    """Builds the graph under test (one row: CSR is the one storage)."""
    return Graph.from_edges


# --------------------------------------------------------------------------- #
# Basic semantics
# --------------------------------------------------------------------------- #
def test_add_edge_appends_to_the_end_of_both_rows(build):
    graph = build([(0, 1), (1, 2), (2, 3)])
    graph.add_edge(0, 3)
    assert graph.neighbors(0) == (1, 3)
    assert graph.neighbors(3) == (2, 0)
    assert graph.num_edges == 4
    assert graph.has_edge(0, 3) and graph.has_edge(3, 0)
    assert graph.adjacency_index(0, 3) == 1
    assert graph.adjacency_index(3, 0) == 1


def test_remove_edge_preserves_survivor_order(build):
    graph = build([(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)])
    graph.remove_edge(0, 2)
    assert graph.neighbors(0) == (1, 3, 4)
    assert graph.neighbors(2) == (3,)
    assert graph.num_edges == 4
    assert not graph.has_edge(0, 2)
    assert graph.adjacency_index(0, 3) == 1  # shifted down


def test_readding_a_removed_edge_moves_it_to_the_row_end(build):
    graph = build([(0, 1), (0, 2), (0, 3)])
    graph.remove_edge(0, 1)
    graph.add_edge(0, 1)
    assert graph.neighbors(0) == (2, 3, 1)
    assert graph.degree(0) == 3


def test_mutation_bumps_epochs_of_exactly_the_endpoints(build):
    graph = build([(0, 1), (1, 2), (2, 3)])
    assert graph.epoch == 0
    assert all(graph.vertex_epoch(v) == 0 for v in graph.vertices())
    graph.add_edge(0, 3)
    assert graph.epoch == 1
    assert graph.vertex_epoch(0) == 1 and graph.vertex_epoch(3) == 1
    assert graph.vertex_epoch(1) == 0 and graph.vertex_epoch(2) == 0
    graph.remove_edge(1, 2)
    assert graph.epoch == 2
    assert graph.vertex_epoch(1) == 2 and graph.vertex_epoch(2) == 2
    assert graph.vertex_epoch(0) == 1  # untouched by the second mutation


def test_apply_mutation_routes_by_op_and_rejects_unknown_kinds(build):
    graph = build([(0, 1), (1, 2)])
    graph.apply_mutation("add", 0, 2)
    graph.apply_mutation("remove", 0, 1)
    assert sorted(graph.edges()) == [(0, 2), (1, 2)]
    with pytest.raises(GraphError, match="unknown mutation op"):
        graph.apply_mutation("toggle", 0, 2)


# --------------------------------------------------------------------------- #
# Edge cases (satellite: mutation edge cases)
# --------------------------------------------------------------------------- #
def test_removing_a_nonexistent_edge_raises(build):
    graph = build([(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="not an edge"):
        graph.remove_edge(0, 2)
    # The failed call must not corrupt state or bump epochs.
    assert graph.epoch == 0
    assert graph.num_edges == 2


def test_adding_a_duplicate_edge_raises(build):
    graph = build([(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="already an edge"):
        graph.add_edge(1, 0)  # either orientation is a duplicate
    # A delta-overlay duplicate (added, not yet compacted) is caught too.
    graph.add_edge(0, 2)
    with pytest.raises(GraphError, match="already an edge"):
        graph.add_edge(2, 0)
    assert graph.epoch == 1


def test_self_loops_and_unknown_vertices_are_rejected(build):
    graph = build([(0, 1)])
    with pytest.raises(GraphError, match="self loop"):
        graph.add_edge(1, 1)
    with pytest.raises(UnknownVertexError):
        graph.add_edge(0, 99)
    with pytest.raises(UnknownVertexError):
        graph.remove_edge(0, 99)


def test_mutating_an_isolated_vertex(build):
    graph = build([(0, 1)], vertices=[0, 1, 2, 3])
    assert graph.degree(2) == 0
    graph.add_edge(2, 0)
    assert graph.neighbors(2) == (0,)
    assert graph.neighbors(0) == (1, 2)
    graph.remove_edge(2, 0)
    assert graph.degree(2) == 0
    assert graph.neighbors(2) == ()
    assert graph.has_vertex(2)  # removal never deletes the vertex
    # Vertex 3 stayed isolated and untouched throughout.
    assert graph.degree(3) == 0 and graph.vertex_epoch(3) == 0


def test_removing_a_vertexs_last_edge_leaves_it_isolated(build):
    graph = build([(0, 1), (1, 2)])
    graph.remove_edge(0, 1)
    assert graph.degree(0) == 0
    assert graph.num_vertices == 3
    assert sorted(graph.edges()) == [(1, 2)]


# --------------------------------------------------------------------------- #
# CSR overlay + compaction
# --------------------------------------------------------------------------- #
def test_csr_compact_then_mutate_interleavings_match_dict_reference():
    rng = random.Random(77)
    edges = [(i, (i + 1) % 25) for i in range(25)]
    csr = Graph.from_edges(edges)
    # Reference model: plain rows, append on add, order-preserving remove.
    ref = {v: list(csr.neighbors(v)) for v in csr.vertices()}
    edge_set = {tuple(sorted(e)) for e in csr.edges()}
    for step in range(300):
        if rng.random() < 0.5 and len(edge_set) > 5:
            u, v = rng.choice(sorted(edge_set))
            edge_set.discard((u, v))
            csr.remove_edge(u, v)
            ref[u].remove(v)
            ref[v].remove(u)
        else:
            while True:
                u, v = rng.randrange(25), rng.randrange(25)
                if u != v and tuple(sorted((u, v))) not in edge_set:
                    break
            edge_set.add(tuple(sorted((u, v))))
            csr.add_edge(u, v)
            ref[u].append(v)
            ref[v].append(u)
        if step % 37 == 0:
            csr.compact()
            assert csr.delta_count == 0
    assert csr.as_adjacency() == ref
    assert csr.num_edges == len(edge_set)
    assert csr.epoch == 300
    csr.compact()
    assert csr.as_adjacency() == ref


def test_csr_compact_is_observably_invisible():
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    graph.add_edge(0, 2)
    graph.remove_edge(1, 2)
    before = {
        "adjacency": graph.as_adjacency(),
        "edges": sorted(graph.edges()),
        "epoch": graph.epoch,
        "epochs": {v: graph.vertex_epoch(v) for v in graph.vertices()},
        "degrees": {v: graph.degree(v) for v in graph.vertices()},
        "max": graph.max_degree(),
        "min": graph.min_degree(),
    }
    assert graph.delta_count > 0
    graph.compact()
    assert graph.delta_count == 0
    after = {
        "adjacency": graph.as_adjacency(),
        "edges": sorted(graph.edges()),
        "epoch": graph.epoch,
        "epochs": {v: graph.vertex_epoch(v) for v in graph.vertices()},
        "degrees": {v: graph.degree(v) for v in graph.vertices()},
        "max": graph.max_degree(),
        "min": graph.min_degree(),
    }
    assert before == after


def test_csr_auto_compacts_past_the_threshold():
    graph = Graph.from_edges([(i, (i + 1) % 60) for i in range(60)])
    graph.compact_threshold = 16
    for i in range(20):
        graph.add_edge(i, (i + 2) % 60)
    assert graph.delta_count <= 16
    assert graph.num_edges == 80


def test_mutated_subgraphs_and_backend_conversion_see_current_rows(build):
    graph = build([(0, 1), (1, 2), (2, 3)])
    graph.add_edge(0, 3)
    graph.remove_edge(1, 2)
    assert graph.as_adjacency() == {0: [1, 3], 1: [0], 2: [3], 3: [2, 0]}
    other = Graph(graph.as_adjacency())
    assert other.as_adjacency() == graph.as_adjacency()
    sub = graph.induced_subgraph([0, 1, 3])
    assert sorted(sub.edges()) == [(0, 1), (0, 3)]
    assert isinstance(graph.subgraph_with_edges([(0, 3)]), Graph)


def test_csr_overlay_iteration_does_not_materialize_view_tuples():
    """compact()/edges() on the delta path use the cache-free row accessor
    (regression: iterating self.neighbors(v) for every vertex pinned an
    O(m) tuple copy of the adjacency in the view cache)."""
    graph = Graph.from_edges([(i, (i + 1) % 50) for i in range(50)])
    graph.add_edge(0, 25)
    views_before = len(graph._views)
    list(graph.edges())
    graph.max_degree(), graph.min_degree()
    graph.compact()
    assert len(graph._views) == views_before
