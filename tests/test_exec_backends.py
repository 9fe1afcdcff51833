"""Edge-subset materialization on a real construction.

``materialize(edges=...)`` answers each given edge locally, so on a subset it
must keep exactly the edges that the whole-graph run keeps there, with the
same per-query probe totals, whichever in-process engine runs it: the
per-query ``cold`` engine or the streaming ``batched`` engine (the
whole-graph run takes the kernel path instead).  A given subset is
validated edge by edge.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.errors import NotAnEdgeError
from repro.core.lca import QUERY_MODES
from repro.core.registry import create


def _spanner3(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


def _signature(materialized):
    return (
        frozenset(materialized.edges),
        tuple(materialized.probe_stats.query_totals),
    )


def test_edge_subset_materialization_matches_and_validates():
    graph = graphs.gnp_graph(50, 0.2, seed=2)
    subset = list(graph.edges())[10:40]
    whole = _spanner3(graph).materialize(mode="batched")
    expected_edges = {edge for edge in subset if whole.contains(*edge)}
    reference = None
    for mode in QUERY_MODES:
        materialized = _spanner3(graph).materialize(edges=subset, mode=mode)
        assert set(materialized.edges) == expected_edges, mode
        assert materialized.probe_stats.queries == len(subset), mode
        assert reference in (None, _signature(materialized)), mode
        reference = _signature(materialized)
        with pytest.raises(NotAnEdgeError):
            _spanner3(graph).materialize(
                edges=[(0, graph.num_vertices + 3)], mode=mode
            )


def test_empty_edge_subset_yields_empty_spanner():
    graph = graphs.gnp_graph(20, 0.3, seed=1)
    for mode in QUERY_MODES:
        materialized = _spanner3(graph).materialize(edges=[], mode=mode)
        assert materialized.num_edges == 0, mode
        assert materialized.probe_stats.queries == 0, mode
