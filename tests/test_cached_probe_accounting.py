"""Cold-schedule charging is order-independent under interleaved queries.

The accounting contract of :mod:`repro.core.cache` says every query is
charged the probes of its *cold-cache* schedule — a pure function of
``(graph, seed, query)`` — no matter which queries ran before it and warmed
the memo tables.  The backend-equivalence suite pins this end-to-end for
materializations (one fixed edge order); these tests attack the contract
where it is actually at risk: per-query charges under *interleaved* and
*reordered* query streams, including streams interleaved across different
constructions, which is exactly the access pattern the service layer's
sharded pool produces.  Forgetting memo state mid-stream must not move a
charge either, and a memo entry's packed dependency set must invalidate on
exactly the vertices it read.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro import graphs
from repro.core.cache import OracleCache
from repro.core.registry import create
from repro.reports.runner import churn_ops
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


FACTORIES = {"spanner3": _spanner3, "spanner5": _spanner5, "spannerk": _spannerk}


@pytest.fixture(scope="module")
def graph():
    """One shared graph for all constructions, so streams can interleave."""
    return graphs.gnp_graph(60, 0.25, seed=11)


@pytest.fixture(scope="module")
def cold_reference(graph):
    """Per-construction map ``edge -> cold per-kind probe snapshot``."""
    reference = {}
    for name, factory in FACTORIES.items():
        lca = factory(graph)  # query_with_stats re-derives every query from scratch
        reference[name] = {
            (u, v): lca.query_with_stats(u, v).probes for (u, v) in graph.edges()
        }
    return reference


def _served(lca, u, v):
    """Answer ``(u, v)`` in a one-edge ``query_batch`` call; return the answer
    and the per-kind charge the call added to the probe counter."""
    before = lca.probe_counter.snapshot()
    (answer,) = lca.query_batch([(u, v)]).answers
    return answer, lca.probe_counter.snapshot() - before


def _orders(edges):
    shuffled = list(edges)
    random.Random("interleave:1").shuffle(shuffled)
    return {
        "forward": list(edges),
        "reverse": list(reversed(edges)),
        "shuffled": shuffled,
    }


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_per_query_charges_are_independent_of_query_order(
    name, graph, cold_reference
):
    """Any permutation of the stream charges each edge its cold snapshot."""
    edges = list(graph.edges())
    for label, order in _orders(edges).items():
        lca = FACTORIES[name](graph)
        for (u, v) in order:
            _, snapshot = _served(lca, u, v)
            assert snapshot == cold_reference[name][(u, v)], (name, label, (u, v))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_repeats_interleaved_with_new_queries_recharge_identically(
    name, graph, cold_reference
):
    """A hot repeat sandwiched between cold first-touches charges the same
    cold schedule both times."""
    edges = list(graph.edges())[:60]
    lca = FACTORIES[name](graph)
    first_charge = {}
    for index, (u, v) in enumerate(edges):
        _, snapshot = _served(lca, u, v)
        first_charge[(u, v)] = snapshot
        if index >= 1:  # repeat an earlier (now memoized) query immediately
            prev = edges[index // 2]
            _, again = _served(lca, *prev)
            assert again == first_charge[prev], (name, prev)
            assert again == cold_reference[name][prev], (name, prev)


def test_interleaving_across_constructions_does_not_cross_charge(
    graph, cold_reference
):
    """Round-robin the same stream through all three constructions at once;
    every construction still charges its own cold schedule per query."""
    edges = list(graph.edges())
    lcas = {name: factory(graph) for name, factory in FACTORIES.items()}
    rotation = sorted(FACTORIES)
    for index, (u, v) in enumerate(edges):
        # One construction answers this edge; the others answer neighbors of
        # the stream position, so all memo tables warm out of lockstep.
        for offset, name in enumerate(rotation):
            (a, b) = edges[(index + offset) % len(edges)]
            _, snapshot = _served(lcas[name], a, b)
            assert snapshot == cold_reference[name][(a, b)], (name, (a, b))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_orientation_has_its_own_cold_schedule(name, graph, cold_reference):
    """(u, v) and (v, u) may probe differently; each orientation must be
    charged its own cold schedule even when the other is already memoized."""
    edges = list(graph.edges())[:40]
    cold = FACTORIES[name](graph)
    reversed_reference = {
        (v, u): cold.query_with_stats(v, u).probes for (u, v) in edges
    }
    cached = FACTORIES[name](graph)
    for (u, v) in edges:
        _, forward = _served(cached, u, v)
        _, backward = _served(cached, v, u)
        assert forward == cold_reference[name][(u, v)], (name, (u, v))
        assert backward == reversed_reference[(v, u)], (name, (v, u))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_query_batch_totals_match_interleaved_per_query_path(name, graph):
    """One call over an interleaved, repeat-heavy stream answers and charges
    each request what one-edge calls on a fresh LCA do, and both match the
    cold reference per kind."""
    edges = list(graph.edges())[:50]
    stream = edges + [(v, u) for (u, v) in edges[:20]] + edges[:10]
    batch = FACTORIES[name](graph).query_batch(stream)
    per_query = FACTORIES[name](graph)
    cold = FACTORIES[name](graph)
    for (u, v), answer, total in batch:
        served, charge = _served(per_query, u, v)
        reference = cold.query_with_stats(u, v)
        assert served == answer == reference.in_spanner, (name, (u, v))
        assert charge == reference.probes, (name, (u, v))
        assert charge.total == total, (name, (u, v))


@pytest.mark.parametrize("kernel", ["python", "numpy"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_clearing_the_memo_changes_no_answer_or_probe(name, kernel, pin_kernel):
    """Every memo entry is a pure function of (graph, seed, key), so
    forgetting one is safe: a batched LCA whose memo is cleared between
    query_batch calls and across mutation epochs answers and charges, per
    query and per kind, exactly what a cold LCA does."""
    if kernel == "numpy":
        pytest.importorskip("numpy")
    pin_kernel(kernel)
    graph = graphs.gnp_graph(60, 0.25, seed=11)
    cold = FACTORIES[name](graph)
    lca = FACTORIES[name](graph)
    calls = 0
    for epoch in range(3):
        edges = sorted(graph.edges())[:40]
        # A repeat inside a call, and the other orientation (its own memo key).
        for call in (
            edges[:20],
            edges[10:30] + edges[10:15],
            edges[20:] + [(v, u) for (u, v) in edges[:12]],
        ):
            if calls % 2:
                assert lca.oracle_cache.memo_sizes()
                lca.oracle_cache.clear()
            calls += 1
            result = lca.query_batch(call)
            expected = [cold.query_with_stats(u, v) for (u, v) in call]
            assert result.answers == [e.in_spanner for e in expected], (name, epoch)
            assert result.probe_totals == [e.probe_total for e in expected], (name, epoch)
            assert (
                lca.probe_counter.snapshot().as_dict()
                == cold.probe_counter.snapshot().as_dict()
            ), (name, epoch)
        lca.apply_mutations(churn_ops(graph, 6, seed=100 + epoch))


WIDE = 1 << 64
WIDE_READS = [1, 2, 1 << 62, WIDE, WIDE + 1]


def _wide_id_graph():
    """Read vertices below 2^63 and at or above 2^64; 3 and WIDE + 2 are not read."""
    edges = [(1, 2), (2, 1 << 62), (1 << 62, WIDE), (WIDE, WIDE + 1), (WIDE + 2, WIDE + 3)]
    return graphs.Graph.from_edges(edges, vertices=[3, *WIDE_READS, WIDE + 2, WIDE + 3])


@pytest.mark.parametrize("replica", [False, True], ids=["own", "merged"])
def test_dependency_sets_past_64_bits_invalidate_on_exactly_their_reads(replica):
    """A memo entry whose reads span ids below 2^63 and at or above 2^64 is
    stored as a sorted tuple.  A write to any vertex it read invalidates it
    and a write elsewhere does not, whether few writes (mutation-log scan)
    or more writes than reads (per-vertex epochs) came in between, in the
    cache that stored it and in a replica cache its table was copied into
    (as a replica checkpoint copies the answer table)."""

    def stored(graph):
        cache = OracleCache(graph)
        cache.memoize("answers", "wide", lambda: [cache.degree(v) for v in WIDE_READS])
        cache.memoize("answers", "narrow", lambda: cache.degree(2))
        if replica:
            merged = OracleCache(graph)
            merged.memo("answers").update(cache.memo("answers"))
            cache = merged
        assert cache.lookup("answers", "wide").touched == tuple(sorted(WIDE_READS))
        assert cache.lookup("answers", "narrow").touched == array("q", [2])
        return cache

    def write_elsewhere(graph, times):
        for _ in range(times):
            if graph.has_edge(3, WIDE + 2):
                graph.remove_edge(3, WIDE + 2)
            else:
                graph.add_edge(3, WIDE + 2)

    graph = _wide_id_graph()
    cache = stored(graph)
    for times in (1, len(WIDE_READS) + 1):
        write_elsewhere(graph, times)
        assert cache.lookup("answers", "wide") is not None
    for vertex in WIDE_READS:
        for times in (0, len(WIDE_READS) + 1):
            graph = _wide_id_graph()
            cache = stored(graph)
            write_elsewhere(graph, times)
            graph.add_edge(vertex, 3)
            assert cache.lookup("answers", "wide") is None, (vertex, times)
            assert (cache.lookup("answers", "narrow") is None) == (vertex == 2)
