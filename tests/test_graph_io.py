"""Tests for graph I/O round trips."""

from __future__ import annotations

import pytest

from repro.core.errors import GraphError
from repro.graphs import (
    Graph,
    gnp_graph,
    read_adjacency_json,
    read_edge_list,
    write_adjacency_json,
    write_edge_list,
)
from repro.graphs.io import edges_to_lines


def test_edge_list_round_trip(tmp_path):
    g = gnp_graph(40, 0.15, seed=6)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert set(back.edges()) == set(g.edges())
    assert back.num_vertices == g.num_vertices


def test_edge_list_preserves_isolated_vertices(tmp_path):
    g = Graph.from_edges([(0, 1)], vertices=[0, 1, 2, 3])
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.num_vertices == 4
    assert back.degree(3) == 0


def test_edge_list_without_header(tmp_path):
    g = Graph.from_edges([(0, 1), (1, 2)])
    path = tmp_path / "plain.txt"
    write_edge_list(g, path, header=False)
    content = path.read_text()
    assert not content.startswith("#")
    back = read_edge_list(path)
    assert back.num_edges == 2


def test_read_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\n")
    with pytest.raises(GraphError):
        read_edge_list(path)
    path.write_text("v 1 2\n")
    with pytest.raises(GraphError):
        read_edge_list(path)
    path.write_text("0 1\nx y\n")
    with pytest.raises(GraphError, match="malformed edge line: 'x y'"):
        read_edge_list(path)


def test_adjacency_json_round_trip_preserves_order(tmp_path):
    g = gnp_graph(30, 0.3, seed=6)
    path = tmp_path / "graph.json"
    write_adjacency_json(g, path)
    back = read_adjacency_json(path)
    for v in g.vertices():
        assert list(back.neighbors(v)) == list(g.neighbors(v))


def test_edges_to_lines():
    assert edges_to_lines([(1, 2), (3, 4)]) == ["1 2", "3 4"]
