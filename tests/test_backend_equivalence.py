"""Query-engine equivalence: the correctness anchor of the fast path.

The cached engine (``query_batch`` and a batched ``materialize``) promises
*observational equivalence* with the cold per-query path: identical spanner
edge sets and identical per-query probe accounting (totals and per-kind
counts).  These tests pin that promise down for all three paper
constructions.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.lca import QUERY_MODES
from repro.core.oracle import AdjacencyListOracle, CachedOracle
from repro.core.registry import create
from repro.kernels import ENV_KERNEL, _numpy_or_none
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA


def _spanner3(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


def _spanner5(graph):
    return create("spanner5", graph, seed=5, hitting_constant=1.0)


def _spannerk(graph):
    params = KSquaredParams(
        num_vertices=graph.num_vertices,
        stretch_parameter=2,
        exploration_budget=6,
        center_probability=0.3,
        mark_probability=0.25,
        rank_quota=20,
        independence=12,
    )
    return KSquaredSpannerLCA(graph, seed=7, params=params)


CASES = {
    "spanner3": (_spanner3, lambda: graphs.gnp_graph(70, 0.25, seed=11)),
    "spanner5": (
        _spanner5,
        lambda: graphs.dense_cluster_graph(80, 10, inter_probability=0.05, seed=5),
    ),
    "spannerk": (_spannerk, lambda: graphs.bounded_degree_expanderish(80, d=4, seed=3)),
}


def _materialize(factory, graph, mode):
    lca = factory(graph)
    materialized = lca.materialize(mode=mode)
    return materialized.edges, list(materialized.probe_stats.query_totals)


@pytest.mark.parametrize("name", sorted(CASES))
def test_identical_edges_and_probes_across_backends_and_modes(name):
    """Same seeds ⇒ same spanner and same per-query probe totals everywhere."""
    factory, make_graph = CASES[name]
    graph = make_graph()
    ref_edges, ref_totals = _materialize(factory, graph, "cold")
    assert ref_edges, "degenerate fixture: empty spanner"
    for mode in QUERY_MODES:
        edges, totals = _materialize(factory, graph, mode)
        assert edges == ref_edges, mode
        assert totals == ref_totals, mode


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_kind_probe_counts_match_cold_schedule(name):
    """The cached engine charges per *kind* exactly like the cold oracle."""
    factory, make_graph = CASES[name]
    graph = make_graph()
    cold = factory(graph)
    cold.materialize(mode="cold")
    cached = factory(graph)
    cached.materialize(mode="batched")
    assert cold._counter.snapshot() == cached._counter.snapshot()


def test_query_with_stats_matches_across_modes():
    """A one-edge ``query_batch`` call charges the cold probe snapshot of
    ``query_with_stats``, on a miss and again on a memo hit."""
    graph = graphs.gnp_graph(70, 0.25, seed=11)
    cold = _spanner3(graph)
    cached = _spanner3(graph)

    def served(u, v):
        before = cached.probe_counter.snapshot()
        (answer,) = cached.query_batch([(u, v)]).answers
        return answer, cached.probe_counter.snapshot() - before

    for (u, v) in list(graph.edges())[:80]:
        a = cold.query_with_stats(u, v)
        answer, probes = served(u, v)
        assert a.in_spanner == answer
        assert a.probes == probes
    # Repeating the queries hits the memo and must charge the same again.
    for (u, v) in list(graph.edges())[:80]:
        a = cold.query_with_stats(u, v)
        answer, probes = served(u, v)
        assert a.in_spanner == answer
        assert a.probes == probes


def test_cached_oracle_primitives_charge_like_cold():
    """Primitive-level contract: per-kind charges match call by call."""
    graph = graphs.gnp_graph(40, 0.3, seed=2)
    cold = AdjacencyListOracle(graph)
    cached = CachedOracle(graph)
    v = graph.vertices()[0]
    w = graph.neighbors(v)[0]
    for _ in range(2):  # second round exercises warm caches
        for op in (
            lambda o: o.degree(v),
            lambda o: o.neighbor(v, 0),
            lambda o: o.neighbor(v, 10 ** 6),
            lambda o: o.adjacency(v, w),
            lambda o: o.adjacency(v, -1),
            lambda o: o.neighbors_prefix(v, 3),
            lambda o: o.neighbors_prefix(v, 10 ** 6),
            lambda o: o.all_neighbors(v),
        ):
            assert op(cold) == op(cached)
            assert cold.counter.snapshot() == cached.counter.snapshot()


def test_memoized_replays_measured_cost(monkeypatch):
    """A repeat ``query_batch`` call replays exactly the per-kind cost the
    first call measured, which is the cold schedule, under every kernel."""
    graph = graphs.gnp_graph(30, 0.3, seed=4)
    reference = _spanner3(graph)
    edge = max(graph.edges(), key=lambda e: reference.query_with_stats(*e).probe_total)
    cold = _spanner3(graph).query_with_stats(*edge).probes
    assert cold.neighbor and cold.adjacency  # the decision scans a row
    for kernel in ["python"] + (["numpy"] if _numpy_or_none() else []):
        monkeypatch.setenv(ENV_KERNEL, kernel)
        lca = _spanner3(graph)
        first = lca.query_batch([edge])
        cost_after_miss = lca.probe_counter.snapshot()
        second = lca.query_batch([edge])
        assert second.answers == first.answers
        assert cost_after_miss == cold
        replayed = lca.probe_counter.snapshot() - cost_after_miss
        assert replayed == cost_after_miss  # hit replays exactly the miss cost
        assert second.probe_totals == first.probe_totals == [cold.total]
        stats = lca.oracle_cache.stats
        assert stats.hits == 1 and stats.misses == 1

