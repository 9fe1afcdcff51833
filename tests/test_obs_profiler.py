"""Probe-attribution profiler (repro.obs.profiler) + kernel/cache hooks."""

from __future__ import annotations

from repro.core.probes import ProbeCounter
from repro.core.registry import create
from repro.graphs import bounded_degree_expanderish, gnp_graph
from repro.obs import CACHE_OUTCOMES, PROBE_PHASES, ProbeProfiler
from repro.spannerk import KSquaredSpannerLCA


def burn(graph, counter, vertex, probes):
    """Spend exactly ``probes`` neighbor probes on the counter."""
    for _ in range(probes):
        counter.record("neighbor")


# ---------------------------------------------------------------------------
# exclusive (flame-style) phase attribution
# ---------------------------------------------------------------------------


def test_nested_phases_attribute_self_time_only():
    counter = ProbeCounter()
    profiler = ProbeProfiler()
    with profiler.phase("voronoi", counter):
        counter.record("neighbor")
        counter.record("neighbor")
        with profiler.phase("bfs", counter):
            counter.record("neighbor")
            counter.record("degree")
        counter.record("adjacency")
    phases = profiler.as_dict()["phases"]
    assert phases["bfs"]["total"] == 2
    assert phases["voronoi"]["total"] == 3  # 2 neighbor + 1 adjacency, not bfs's
    assert phases["voronoi"]["adjacency"] == 1
    # Flame invariant: exclusive times sum to the counter total.
    assert phases["bfs"]["total"] + phases["voronoi"]["total"] == counter.snapshot().total


def test_begin_end_phase_safe_on_every_exit_path():
    counter = ProbeCounter()
    profiler = ProbeProfiler()
    frame = profiler.begin_phase("bfs", counter)
    counter.record("neighbor")
    try:
        raise RuntimeError("early exit")
    except RuntimeError:
        pass
    finally:
        profiler.end_phase(frame)
    assert profiler.as_dict()["phases"]["bfs"]["total"] == 1
    assert profiler.phase_calls["bfs"] == 1


def test_outcome_classification_and_invalidations():
    profiler = ProbeProfiler()
    profiler.record_miss(10)
    profiler.record_hit(10)
    profiler.note_invalidation()
    profiler.record_miss(12, invalidated=True)
    payload = profiler.as_dict()
    assert payload["outcomes"]["cold"] == {"calls": 1, "probes": 10}
    assert payload["outcomes"]["memo-hit"] == {"calls": 1, "probes": 10}
    assert payload["outcomes"]["epoch-invalidated"] == {"calls": 1, "probes": 12}
    assert payload["invalidations"] == 1
    assert set(payload["outcomes"]) == set(CACHE_OUTCOMES)


def test_merge_folds_phases_and_outcomes():
    left, right = ProbeProfiler(), ProbeProfiler()
    counter = ProbeCounter()
    with left.phase("bfs", counter):
        counter.record("neighbor")
    with right.phase("bfs", counter):
        counter.record("neighbor")
        counter.record("neighbor")
    with right.phase("neighbor-scan", counter):
        counter.record("adjacency")
    right.record_hit(5)
    right.note_invalidation()
    left.merge(right)
    phases = left.as_dict()["phases"]
    assert phases["bfs"]["total"] == 3
    assert phases["bfs"]["calls"] == 2
    assert phases["neighbor-scan"]["total"] == 1
    assert left.outcome_calls["memo-hit"] == 1
    assert left.invalidations == 1


def test_phase_rows_residual_and_share():
    counter = ProbeCounter()
    profiler = ProbeProfiler()
    with profiler.phase("bfs", counter):
        burn(None, counter, None, 3)
    rows = profiler.phase_rows(total_probes=4)
    by_phase = {row["phase"]: row for row in rows}
    assert by_phase["bfs"]["share"] == 0.75
    assert by_phase["other"]["probes"] == 1
    assert by_phase["other"]["share"] == 0.25


# ---------------------------------------------------------------------------
# kernel hooks: a real LCA populates real phases
# ---------------------------------------------------------------------------


def test_spannerk_queries_populate_bfs_and_voronoi():
    graph = bounded_degree_expanderish(60, d=6, seed=7)
    lca = KSquaredSpannerLCA(graph, seed=3)
    profiler = ProbeProfiler()
    lca.attach_profiler(profiler)
    try:
        for u, v in list(graph.edges())[:12]:
            lca.query(u, v)
    finally:
        lca.attach_profiler(None)
    phases = profiler.as_dict()["phases"]
    assert "bfs" in phases and phases["bfs"]["total"] > 0
    assert set(phases) <= set(PROBE_PHASES)


def test_spanner3_service_path_populates_scan_and_outcomes():
    graph = gnp_graph(60, 0.5, seed=11)
    lca = create("spanner3", graph, seed=5, hitting_constant=1.0)
    profiler = ProbeProfiler()
    lca.attach_profiler(profiler)
    edges = list(graph.edges())[:30]
    try:
        # query_batch memoizes whole answers; the repeat replays the memo.
        lca.query_batch(edges)
        lca.query_batch(edges)
    finally:
        lca.attach_profiler(None)
    payload = profiler.as_dict()
    assert payload["phases"].get("neighbor-scan", {}).get("total", 0) > 0
    assert payload["outcomes"]["cold"]["calls"] > 0
    assert payload["outcomes"]["memo-hit"]["calls"] > 0


def test_attached_profiler_never_changes_answers_or_probes():
    graph = gnp_graph(60, 0.3, seed=11)
    plain = create("spanner3", graph, seed=5, hitting_constant=1.0)
    observed = create("spanner3", graph, seed=5, hitting_constant=1.0)
    observed.attach_profiler(ProbeProfiler())
    edges = list(graph.edges())[:40]
    plain_batch = plain.query_batch(edges)
    observed_batch = observed.query_batch(edges)
    assert plain_batch.answers == observed_batch.answers
    assert plain_batch.probe_totals == observed_batch.probe_totals
