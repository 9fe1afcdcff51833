"""Tests for the probe oracle: answers and probe accounting."""

from __future__ import annotations

from repro.core.oracle import AdjacencyListOracle, SubgraphOracle
from repro.core.probes import ProbeCounter
from repro.graphs import Graph


def make_graph():
    return Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])


def test_degree_probe_counts():
    oracle = AdjacencyListOracle(make_graph())
    assert oracle.degree(0) == 3
    assert oracle.counter.degree == 1
    assert oracle.counter.total == 1


def test_neighbor_probe_returns_bottom_out_of_range():
    oracle = AdjacencyListOracle(make_graph())
    assert oracle.neighbor(1, 0) in {0, 2}
    assert oracle.neighbor(1, 5) is None
    assert oracle.counter.neighbor == 2


def test_adjacency_probe_returns_index_or_none():
    graph = make_graph()
    oracle = AdjacencyListOracle(graph)
    index = oracle.adjacency(0, 2)
    assert index is not None
    assert graph.neighbor_at(0, index) == 2
    assert oracle.adjacency(1, 3) is None
    assert oracle.counter.adjacency == 2


def test_has_edge_uses_single_adjacency_probe():
    oracle = AdjacencyListOracle(make_graph())
    assert oracle.has_edge(0, 1)
    assert not oracle.has_edge(1, 3)
    assert oracle.counter.adjacency == 2
    assert oracle.counter.total == 2


def test_neighbors_prefix_probe_cost():
    oracle = AdjacencyListOracle(make_graph())
    prefix = oracle.neighbors_prefix(0, 2)
    assert len(prefix) == 2
    # one Degree probe + two Neighbor probes
    assert oracle.counter.degree == 1
    assert oracle.counter.neighbor == 2


def test_neighbors_prefix_clamps_to_degree():
    oracle = AdjacencyListOracle(make_graph())
    prefix = oracle.neighbors_prefix(1, 100)
    assert len(prefix) == 2


def test_all_neighbors_counts_degree_plus_neighbors():
    oracle = AdjacencyListOracle(make_graph())
    neighbors = oracle.all_neighbors(0)
    assert set(neighbors) == {1, 2, 3}
    assert oracle.counter.degree == 1
    assert oracle.counter.neighbor == 3


def test_shared_counter_between_oracles():
    counter = ProbeCounter()
    graph = make_graph()
    oracle = AdjacencyListOracle(graph, counter)
    sub = SubgraphOracle(oracle, [0, 1, 2])
    sub.degree(0)
    oracle.degree(0)
    assert counter.degree == 2
    # the subgraph oracle sees the induced subgraph only
    assert sub.graph.num_vertices == 3
    assert sub.degree(0) == 2  # vertex 3 removed


def test_num_vertices_is_free():
    oracle = AdjacencyListOracle(make_graph())
    assert oracle.num_vertices == 4
    assert oracle.counter.total == 0
