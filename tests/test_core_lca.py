"""Tests for the SpannerLCA base machinery (contract, materialization, union)."""

from __future__ import annotations

import pytest

from repro.core import (
    CombinedLCA,
    KeepAllLCA,
    NotAnEdgeError,
    SpannerLCA,
)
from repro.core.lca import PAPER_RESULTS, QUERY_MODES, LCADescription
from repro.graphs import gnp_graph


class ModuloLCA(SpannerLCA):
    """Toy LCA keeping edges whose endpoint sum is divisible by ``modulus``."""

    name = "modulo"

    def __init__(self, graph, seed, modulus):
        super().__init__(graph, seed)
        self.modulus = modulus

    def stretch_bound(self):
        return None

    def _decide(self, oracle, u, v):
        oracle.degree(u)  # exercise probe accounting
        return (u + v) % self.modulus == 0


@pytest.fixture
def graph():
    return gnp_graph(30, 0.3, seed=4)


def test_query_requires_an_edge(graph):
    lca = KeepAllLCA(graph, seed=1)
    u, v = next(iter(graph.edges()))
    assert lca.query(u, v) is True
    non_edge = None
    vertices = graph.vertices()
    for a in vertices:
        for b in vertices:
            if a != b and not graph.has_edge(a, b):
                non_edge = (a, b)
                break
        if non_edge:
            break
    with pytest.raises(NotAnEdgeError):
        lca.query(*non_edge)


def test_keep_all_materializes_whole_graph(graph):
    lca = KeepAllLCA(graph, seed=1)
    result = lca.materialize()
    assert result.num_edges == graph.num_edges
    assert result.stretch_bound == 1
    assert result.algorithm == "keep-all"
    u, v = next(iter(graph.edges()))
    assert result.contains(u, v)
    assert result.contains(v, u)


def test_query_with_stats_counts_probes(graph):
    lca = ModuloLCA(graph, seed=1, modulus=2)
    u, v = next(iter(graph.edges()))
    outcome = lca.query_with_stats(u, v)
    assert outcome.probe_total == 1
    assert outcome.probes.degree == 1
    assert lca.probe_stats.queries == 1


def test_materialize_respects_decision_rule(graph):
    lca = ModuloLCA(graph, seed=1, modulus=2)
    result = lca.materialize()
    for (u, v) in graph.edges():
        assert ((u + v) % 2 == 0) == result.contains(u, v)


def test_materialize_subset_of_edges(graph):
    subset = list(graph.edges())[:5]
    reference = None
    for mode in QUERY_MODES:
        result = KeepAllLCA(graph, seed=1).materialize(edges=subset, mode=mode)
        assert result.num_edges == 5
        assert result.probe_stats.queries == 5
        # Every engine keeps the same edges and charges the same probes.
        probed = ModuloLCA(graph, seed=1, modulus=3).materialize(
            edges=subset, mode=mode
        )
        signature = (probed.edges, probed.probe_stats.query_totals)
        assert reference in (None, signature), mode
        reference = signature
        # A given subset is validated edge by edge, batched engine included.
        with pytest.raises(NotAnEdgeError):
            KeepAllLCA(graph, seed=1).materialize(
                edges=[(0, graph.num_vertices + 3)], mode=mode
            )
        empty = KeepAllLCA(graph, seed=1).materialize(edges=[], mode=mode)
        assert empty.num_edges == 0
        assert empty.probe_stats.queries == 0


def test_as_graph_builds_spanning_subgraph(graph):
    lca = ModuloLCA(graph, seed=1, modulus=3)
    result = lca.materialize()
    spanner = result.as_graph(graph)
    assert spanner.num_vertices == graph.num_vertices
    assert spanner.num_edges == result.num_edges


def test_combined_lca_is_union(graph):
    a = ModuloLCA(graph, seed=1, modulus=2)
    b = ModuloLCA(graph, seed=1, modulus=3)
    union = CombinedLCA(graph, seed=1, components=[a, b])
    for (u, v) in graph.edges():
        expected = (u + v) % 2 == 0 or (u + v) % 3 == 0
        assert union.query(u, v) == expected


def test_combined_lca_stretch_bound_is_max(graph):
    class Bounded(KeepAllLCA):
        def __init__(self, graph, seed, bound):
            super().__init__(graph, seed)
            self._bound = bound

        def stretch_bound(self):
            return self._bound

    union = CombinedLCA(
        graph, seed=1, components=[Bounded(graph, 1, 3), Bounded(graph, 1, 5)]
    )
    assert union.stretch_bound() == 5
    with_unbounded = CombinedLCA(
        graph, seed=1, components=[Bounded(graph, 1, 3), ModuloLCA(graph, 1, 2)]
    )
    assert with_unbounded.stretch_bound() is None


def test_combined_lca_requires_components(graph):
    with pytest.raises(ValueError):
        CombinedLCA(graph, seed=1, components=[])


def test_queries_are_consistent_between_orientations(graph):
    lca = ModuloLCA(graph, seed=1, modulus=2)
    for (u, v) in list(graph.edges())[:20]:
        assert lca.query(u, v) == lca.query(v, u)


def test_paper_results_table_is_well_formed():
    assert len(PAPER_RESULTS) == 4
    for entry in PAPER_RESULTS:
        assert isinstance(entry, LCADescription)
        row = entry.as_row()
        assert "algorithm" in row and "stretch" in row


def test_answer_namespace_is_built_once_of_primitives(graph):
    """The answer-memo namespace is one tuple per LCA, equal across LCAs of
    the same name, seed and parameters, and holds no dataclass, so a memo
    lookup hashes primitives only."""
    from repro.core.registry import create

    lca = create("spanner3", graph, seed=3)
    namespace = lca.query_answer_namespace()
    assert lca.query_answer_namespace() is namespace
    replica = create("spanner3", gnp_graph(30, 0.3, seed=4), seed=3)
    assert replica.query_answer_namespace() == namespace
    other = create("spanner3", graph, seed=3, hitting_constant=1.0)
    assert other.query_answer_namespace() != namespace

    def leaves(value):
        if isinstance(value, tuple):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    assert all(isinstance(leaf, (str, int, float, type(None))) for leaf in leaves(namespace))
    assert ModuloLCA(graph, seed=1, modulus=2).query_answer_namespace()[3] is None
