"""Robustness and failure-injection tests.

These cover the operational corners a downstream user hits: probe budgets,
oracle/graph agreement under arbitrary inputs, degenerate graphs, and
reproducibility of whole spanners across independently constructed LCA
instances.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import AdjacencyListOracle
from repro.core.errors import ProbeBudgetExceededError
from repro.graphs import Graph, complete_graph, gnp_graph
from repro.kernels import ENV_KERNEL
from repro.spanner3 import ThreeSpannerLCA
from repro.spanner5 import FiveSpannerLCA


# --------------------------------------------------------------------------- #
# Probe budgets as failure injection
# --------------------------------------------------------------------------- #
def test_lca_query_respects_probe_budget():
    graph = gnp_graph(120, 0.3, seed=4)
    lca = ThreeSpannerLCA(graph, seed=2)
    # Replace the counter with a budgeted one: a tiny budget must interrupt
    # a query on a high-degree edge (deciding such an edge needs more than
    # the two Degree probes the budget allows).
    lca._counter.budget = 2
    dense_edge = max(
        graph.edges(), key=lambda e: min(graph.degree(e[0]), graph.degree(e[1]))
    )
    assert min(graph.degree(dense_edge[0]), graph.degree(dense_edge[1])) > (
        lca.params.low_threshold
    )
    with pytest.raises(ProbeBudgetExceededError):
        lca.query(*dense_edge)


def test_budget_failure_does_not_corrupt_later_queries():
    graph = gnp_graph(100, 0.25, seed=4)
    reference = ThreeSpannerLCA(graph, seed=2)
    budgeted = ThreeSpannerLCA(graph, seed=2)
    edges = list(graph.edges())[:20]
    expected = [reference.query(u, v) for (u, v) in edges]

    budgeted._counter.budget = 3
    for (u, v) in edges:
        try:
            budgeted.query(u, v)
        except ProbeBudgetExceededError:
            pass
    budgeted._counter.budget = None
    budgeted._counter.reset()
    assert [budgeted.query(u, v) for (u, v) in edges] == expected


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_budget_failure_does_not_corrupt_later_query_batch_calls(kernel, monkeypatch):
    """The ``query_batch`` twin of the test above: the budget trips while
    the call decides its misses, and the call stores nothing, so once the
    budget is lifted and the counter reset the same call answers, charges
    and memoizes like a fresh LCA's.  Under numpy the call's 20 misses are
    decided together, under python one at a time."""
    if kernel == "numpy":
        pytest.importorskip("numpy")
    monkeypatch.setenv(ENV_KERNEL, kernel)
    graph = gnp_graph(100, 0.25, seed=4)
    reference = ThreeSpannerLCA(graph, seed=2)
    budgeted = ThreeSpannerLCA(graph, seed=2)
    edges = list(graph.edges())[:20]
    expected = reference.query_batch(edges)

    budgeted._counter.budget = 3
    with pytest.raises(ProbeBudgetExceededError):
        budgeted.query_batch(edges)
    budgeted._counter.budget = None
    budgeted._counter.reset()
    result = budgeted.query_batch(edges)
    assert result.answers == expected.answers
    assert result.probe_totals == expected.probe_totals
    assert budgeted.probe_counter.snapshot() == reference.probe_counter.snapshot()
    namespace = reference.query_answer_namespace()
    assert budgeted.oracle_cache.memo(namespace) == reference.oracle_cache.memo(namespace)
    stats, fresh = budgeted.oracle_cache.stats, reference.oracle_cache.stats
    assert (stats.hits, stats.misses) == (fresh.hits, fresh.misses) == (0, 20)


# --------------------------------------------------------------------------- #
# Oracle answers always agree with the graph
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    edge_set=st.sets(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40
    ),
    probes=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 20)), max_size=30),
)
def test_oracle_matches_graph_on_arbitrary_probes(edge_set, probes):
    edges = [(u, v) for (u, v) in edge_set if u != v]
    if not edges:
        return
    graph = Graph.from_edges(edges)
    oracle = AdjacencyListOracle(graph)
    for (v, index) in probes:
        if not graph.has_vertex(v):
            continue
        assert oracle.neighbor(v, index) == graph.neighbor_at(v, index)
        assert oracle.degree(v) == graph.degree(v)
    for (u, v) in edges:
        assert oracle.adjacency(u, v) == graph.adjacency_index(u, v)


# --------------------------------------------------------------------------- #
# Degenerate graphs
# --------------------------------------------------------------------------- #
def test_complete_graph_spanners():
    graph = complete_graph(30)
    for lca_cls, bound in ((ThreeSpannerLCA, 3), (FiveSpannerLCA, 5)):
        lca = lca_cls(graph, seed=1)
        materialized = lca.materialize()
        from repro.analysis import measure_stretch

        report = measure_stretch(graph, materialized.edges, limit=bound + 1)
        assert report.max_stretch <= bound


def test_single_edge_graph():
    graph = Graph.from_edges([(7, 9)])
    lca = ThreeSpannerLCA(graph, seed=1)
    assert lca.query(7, 9) is True  # both endpoints are low degree


def test_empty_neighbor_lists_do_not_crash_materialize():
    graph = Graph({0: [1], 1: [0], 5: []})
    lca = FiveSpannerLCA(graph, seed=1)
    assert lca.materialize().num_edges == 1


# --------------------------------------------------------------------------- #
# Reproducibility across independently constructed instances
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("lca_cls", [ThreeSpannerLCA, FiveSpannerLCA])
def test_independent_instances_agree_edge_by_edge(lca_cls):
    graph = gnp_graph(80, 0.2, seed=6)
    first = lca_cls(graph, seed=42)
    second = lca_cls(graph, seed=42)
    for (u, v) in list(graph.edges())[:50]:
        assert first.query(u, v) == second.query(v, u)


def test_probe_counts_are_deterministic_for_identical_queries():
    graph = gnp_graph(90, 0.25, seed=3)
    lca_a = ThreeSpannerLCA(graph, seed=4)
    lca_b = ThreeSpannerLCA(graph, seed=4)
    for (u, v) in list(graph.edges())[:20]:
        assert (
            lca_a.query_with_stats(u, v).probe_total
            == lca_b.query_with_stats(u, v).probe_total
        )
