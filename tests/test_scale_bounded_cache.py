"""Bounded-memory oracle mode: eviction is answer- and probe-invisible.

The scale plane's bounded :class:`~repro.core.cache.BoundedOracleCache`
forgets memo entries under an LRU cap and recomputes them on demand.  Since
every memoized value is a pure function of ``(graph, seed, key)`` and every
recompute re-charges the exact cold probe schedule a hit would have
replayed, a capped oracle must be *bit-identical* to the unbounded one in
answers and per-kind probe accounting — across algorithms and mutation
epochs.  These tests pin that equivalence, plus the honesty of
the accounting (evicted-then-recomputed work is charged, never dropped) and
k-wise tape compression.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.core.cache import BoundedOracleCache, OracleCache
from repro.core.registry import create
from repro.reports.runner import churn_ops

CAPS = [1, 2, 8]
ALGORITHMS = ["spanner3", "spanner5", "spannerk"]

def _graph(seed=5):
    return graphs.gnp_graph(40, 0.18, seed=seed)


def _trace(lca, edges):
    """(answer, probe-total, per-kind counter) per query — the full ledger."""
    out = []
    for (u, v) in edges:
        result = lca.query_with_stats(u, v)
        out.append((result.in_spanner, result.probes, lca.probe_counter.snapshot().as_dict()))
    return out


# --------------------------------------------------------------------------- #
# Equivalence: capped ≡ unbounded, across algorithms × epochs
# --------------------------------------------------------------------------- #
# One storage row: CSR is the only graph storage; the row keeps the test ids.
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("storage", ["csr"])
@pytest.mark.parametrize("cap", CAPS)
def test_bounded_oracle_bit_identical_across_epochs(algorithm, storage, cap):
    reference = create(algorithm, _graph(), seed=7)
    bounded = create(algorithm, _graph(), seed=7).set_memo_cap(cap)
    reference.set_query_mode("batched")
    bounded.set_query_mode("batched")

    for epoch in range(3):
        edges = sorted(reference.graph.edges())[:30]
        assert _trace(reference, edges) == _trace(bounded, edges)
        # Re-query half of them (hits on one side, possible re-derivations
        # on the other — the ledger must still agree entry for entry).
        assert _trace(reference, edges[:15]) == _trace(bounded, edges[:15])
        ops = churn_ops(reference.graph, 6, seed=100 + epoch)
        assert reference.apply_mutations(ops) == bounded.apply_mutations(ops)


@pytest.mark.parametrize("cap", CAPS)
def test_bounded_oracle_materialize_matches_unbounded(cap):
    reference = create("spanner3", _graph(), seed=3)
    bounded = create("spanner3", _graph(), seed=3).set_memo_cap(cap)
    mat_r = reference.materialize(mode="batched")
    mat_b = bounded.materialize(mode="batched")
    assert mat_b.edges == mat_r.edges
    assert mat_b.probe_stats.query_totals == mat_r.probe_stats.query_totals
    assert (
        bounded.probe_counter.snapshot().as_dict()
        == reference.probe_counter.snapshot().as_dict()
    )


# --------------------------------------------------------------------------- #
# Eviction mechanics and honest accounting (scalar kernel: the memo path)
# --------------------------------------------------------------------------- #
@pytest.fixture
def scalar_bounded_lca(pin_kernel):
    """A cap-1 spanner3 LCA pinned to the scalar kernel.

    The vectorized kernels keep their own array tables and bypass the
    OracleCache memo entirely; only the scalar path exercises store/evict.
    """
    pin_kernel("python")
    lca = create("spanner3", _graph(), seed=11)
    lca.set_memo_cap(1)
    lca.set_query_mode("batched")
    return lca


def test_eviction_counts_and_resident_bound(scalar_bounded_lca):
    lca = scalar_bounded_lca
    edges = sorted(lca.graph.edges())[:20]
    cache = lca.ensure_cached_oracle().cache
    assert isinstance(cache, BoundedOracleCache)
    lca.query_batch(edges)
    assert cache.resident_entries <= 1
    # Every stored answer past the first displaced its predecessor.
    assert cache.evictions == len(edges) - 1
    assert cache.stats.misses == len(edges)


def test_evicted_work_is_recharged_not_dropped(scalar_bounded_lca):
    """Alternate two queries under cap=1: every re-touch pays full cold cost."""
    lca = scalar_bounded_lca
    edges = sorted(lca.graph.edges())[:2]
    cache = lca.ensure_cached_oracle().cache
    first = lca.query_batch(edges)
    baseline = first.probe_totals
    evictions = cache.evictions
    misses = cache.stats.misses
    for _ in range(3):
        again = lca.query_batch(edges)
        # Identical answers AND identical per-query charges: the recompute
        # after an eviction re-pays exactly the cold schedule — work is
        # re-charged, never silently dropped (and never double-counted).
        assert again.answers == first.answers
        assert again.probe_totals == baseline
        assert cache.evictions > evictions
        assert cache.stats.misses > misses
        evictions = cache.evictions
        misses = cache.stats.misses
    assert cache.resident_entries <= 1


def test_unbounded_cache_untouched_by_default():
    lca = create("spanner3", _graph(), seed=11)
    assert lca.memo_cap is None
    cache = lca.ensure_cached_oracle().cache
    assert isinstance(cache, OracleCache)
    assert not isinstance(cache, BoundedOracleCache)


# --------------------------------------------------------------------------- #
# k-wise tape compression: probe-free entries are never resident
# --------------------------------------------------------------------------- #
def test_probe_free_entries_not_stored_but_recomputed_identically():
    graph = _graph()
    bounded = BoundedOracleCache(graph, memo_cap=4)
    unbounded = OracleCache(graph)
    calls = {"bounded": 0, "unbounded": 0}

    def compute_for(name):
        def compute():
            calls[name] += 1
            return ("tape", name == name)  # pure function of the key

        return compute

    # Probe-free computes (empty dependency set): the bounded cache
    # recomputes from the seed family instead of keeping them resident.
    for _ in range(2):
        value_b = bounded.memoize("coins", 7, compute_for("bounded"))
        value_u = unbounded.memoize("coins", 7, compute_for("unbounded"))
        assert value_b == value_u
    assert calls["bounded"] == 2  # recomputed on demand, never resident
    assert calls["unbounded"] == 1  # memoized once
    assert bounded.resident_entries == 0


# --------------------------------------------------------------------------- #
# Packed dependency sets: ids past 64 bits fall back to a sorted tuple
# --------------------------------------------------------------------------- #
WIDE = 1 << 64
WIDE_READS = [1, 2, 1 << 62, WIDE, WIDE + 1]


def _wide_id_graph():
    """Read vertices below 2^63 and at or above 2^64; 3 and WIDE + 2 are not read."""
    edges = [(1, 2), (2, 1 << 62), (1 << 62, WIDE), (WIDE, WIDE + 1), (WIDE + 2, WIDE + 3)]
    return graphs.Graph.from_edges(edges, vertices=[3, *WIDE_READS, WIDE + 2, WIDE + 3])


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("replica", [False, True], ids=["own", "merged"])
def test_dependency_sets_past_64_bits_invalidate_on_exactly_their_reads(
    bounded, replica
):
    """A memo entry whose reads span ids below 2^63 and at or above 2^64 is
    stored as a sorted tuple.  A write to any vertex it read invalidates it
    and a write elsewhere does not, whether few writes (mutation-log scan)
    or more writes than reads (per-vertex epochs) came in between, in the
    cache that stored it and in a replica cache it was merged into."""
    from array import array

    def stored(graph):
        def cache_for():
            return BoundedOracleCache(graph, memo_cap=4) if bounded else OracleCache(graph)

        cache = cache_for()
        cache.memoize("answers", "wide", lambda: [cache.degree(v) for v in WIDE_READS])
        cache.memoize("answers", "narrow", lambda: cache.degree(2))
        if replica:
            merged = cache_for()
            merged.merge(cache.snapshot())
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


def test_memo_cap_validation():
    graph = _graph()
    for bad in (0, -3, True, 2.5, "8"):
        with pytest.raises(ValueError):
            BoundedOracleCache(graph, memo_cap=bad)
    lca = create("spanner3", graph, seed=1)
    for bad in (0, -1, True, 1.5):
        with pytest.raises(ValueError):
            lca.set_memo_cap(bad)
    assert lca.set_memo_cap(4).memo_cap == 4
    assert lca.set_memo_cap(None).memo_cap is None
