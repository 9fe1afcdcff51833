"""The mutation-plane equivalence oracle.

The correctness backbone of the dynamic graph support: after *any* mutation
sequence, a live LCA — with all its epoch-tagged memo state accumulated
across earlier queries and earlier graph versions — must answer exactly
like a from-scratch LCA built on the post-mutation edge set.  "Exactly"
means bit-identical spanner edge sets, bit-identical per-query probe
totals, and identical per-kind probe counts, across all three spanner
families.
"""

from __future__ import annotations

import random

import pytest

from repro import graphs
from repro.core.registry import create
from repro.graphs import Graph

ALGORITHMS = ("spanner3", "spanner5", "spannerk")


def _signature(lca):
    """Everything equivalence cares about, from one full materialization."""
    before = lca.probe_counter.snapshot()
    materialized = lca.materialize(mode="batched")
    per_kind = lca.probe_counter.snapshot() - before
    return (
        frozenset(materialized.edges),
        tuple(materialized.probe_stats.query_totals),
        (per_kind.neighbor, per_kind.degree, per_kind.adjacency),
    )


def _mutate_randomly(graph, rng, steps, min_edges=15):
    edge_set = {tuple(sorted(e)) for e in graph.edges()}
    vertices = graph.vertices()
    for _ in range(steps):
        if rng.random() < 0.5 and len(edge_set) > min_edges:
            u, v = rng.choice(sorted(edge_set))
            edge_set.discard((u, v))
            graph.remove_edge(u, v)
        else:
            while True:
                u = vertices[rng.randrange(len(vertices))]
                v = vertices[rng.randrange(len(vertices))]
                if u != v and tuple(sorted((u, v))) not in edge_set:
                    break
            edge_set.add(tuple(sorted((u, v))))
            graph.add_edge(u, v)


def _fresh_rebuild(graph, algorithm, seed, **kwargs):
    """A from-scratch LCA on a from-scratch graph with the current rows."""
    rebuilt = type(graph)(graph.as_adjacency(), validate=True)
    return create(algorithm, rebuilt, seed=seed, **kwargs)


# One storage row: CSR is the only graph storage; the row keeps the test ids
# and the mutation seeds.
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("storage", ["csr"])
def test_mutated_lca_matches_from_scratch_rebuild(algorithm, storage):
    graph = graphs.gnp_graph(45, 0.12, seed=21)
    lca = create(algorithm, graph, seed=9)
    lca.materialize(mode="batched")  # warm every memo layer pre-mutation

    rng = random.Random(f"{algorithm}:{storage}")
    for round_index in range(4):
        _mutate_randomly(graph, rng, steps=7)
        # Interleave reads so the cache keeps re-warming between rounds.
        lca.query_batch(list(graph.edges())[: 12 + round_index])

    assert lca.graph_epoch == 28
    live = _signature(lca)
    fresh = _signature(_fresh_rebuild(graph, algorithm, seed=9))
    assert live[0] == fresh[0], "spanner edge sets diverged after mutations"
    assert live[1] == fresh[1], "per-query probe totals diverged"
    assert live[2] == fresh[2], "per-kind probe counts diverged"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_mutations_invalidate_exactly_what_they_touch(algorithm):
    """Add one edge, remove one edge: answers track the graph immediately."""
    graph = graphs.gnp_graph(36, 0.15, seed=4)
    lca = create(algorithm, graph, seed=3)
    lca.materialize(mode="batched")

    edges = list(graph.edges())
    victim = edges[len(edges) // 2]
    graph.remove_edge(*victim)
    live = _signature(lca)
    fresh = _signature(_fresh_rebuild(graph, algorithm, seed=3))
    assert live == fresh

    graph.add_edge(*victim)  # re-added at the end of both rows
    live = _signature(lca)
    fresh = _signature(_fresh_rebuild(graph, algorithm, seed=3))
    assert live == fresh


def test_compaction_never_changes_answers_or_probes():
    graph = graphs.gnp_graph(40, 0.15, seed=13)
    lca = create("spanner3", graph, seed=5)
    rng = random.Random(99)
    _mutate_randomly(graph, rng, steps=10)
    before = _signature(lca)
    assert graph.delta_count > 0
    graph.compact()
    assert graph.delta_count == 0
    assert _signature(lca) == before


def test_spannerk_exploration_memo_survives_mutations():
    """spannerk's memoized D^k_L explorations are recomputed once a row they
    read mutates: a live LCA's batched answers and per-query probe totals
    after random mutations match a from-scratch rebuild."""
    graph = graphs.bounded_degree_expanderish(60, d=4, seed=6)
    lca = create("spannerk", graph, seed=4)
    lca.materialize(mode="batched")
    rng = random.Random(17)
    _mutate_randomly(graph, rng, steps=6)
    live = lca.materialize(mode="batched")
    fresh = create(
        "spannerk", Graph(graph.as_adjacency(), validate=True), seed=4
    ).materialize(mode="batched")
    assert live.edges == fresh.edges
    assert live.probe_stats.query_totals == fresh.probe_stats.query_totals
