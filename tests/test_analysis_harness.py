"""Tests for the evaluation harness, sweeps and table formatting."""

from __future__ import annotations

import pytest

from repro.analysis import (
    check_consistency,
    evaluate_lca,
    evaluate_materialized,
    exponent_row,
    format_comparison,
    format_table,
    probe_complexity_sample,
    run_sweep,
)
from repro.core.lca import KeepAllLCA
from repro.graphs import cycle_graph, gnp_graph
from repro.spanner3 import ThreeSpannerLCA


def test_evaluate_keep_all_lca():
    graph = gnp_graph(40, 0.2, seed=1)
    report = evaluate_lca(KeepAllLCA(graph, seed=1))
    assert report.num_spanner_edges == graph.num_edges
    assert report.stretch.max_stretch == 1
    assert report.stretch_ok
    assert report.connectivity_preserved
    assert report.density == pytest.approx(1.0)
    row = report.as_row()
    assert row["n"] == 40 and row["|H|"] == graph.num_edges


def test_evaluate_materialized_with_sampled_stretch():
    graph = gnp_graph(50, 0.2, seed=2)
    lca = ThreeSpannerLCA(graph, seed=3)
    materialized = lca.materialize()
    report = evaluate_materialized(graph, materialized, sample_stretch_edges=20)
    assert report.stretch.checked_edges == 20
    assert report.stretch_ok


def test_probe_complexity_sample():
    graph = gnp_graph(60, 0.2, seed=4)
    lca = ThreeSpannerLCA(graph, seed=3)
    stats = probe_complexity_sample(lca, num_queries=15, seed=1)
    assert stats["queries"] == 15
    assert stats["max"] >= stats["mean"] > 0


def test_probe_complexity_sample_empty_graph():
    from repro.graphs import Graph

    graph = Graph({0: [], 1: []})
    lca = KeepAllLCA(graph, seed=1)
    assert probe_complexity_sample(lca, 5)["queries"] == 0


def test_check_consistency_detects_inconsistent_lca():
    graph = cycle_graph(10)

    class FlakyLCA(KeepAllLCA):
        def __init__(self, graph, seed):
            super().__init__(graph, seed)
            self._toggle = False

        def _decide(self, oracle, u, v):
            self._toggle = not self._toggle
            return self._toggle

    assert not check_consistency(FlakyLCA(graph, seed=1))
    assert check_consistency(KeepAllLCA(graph, seed=1))


def test_run_sweep_and_exponent_fit():
    sweep = run_sweep(
        "keep-all",
        lca_factory=lambda g, s: KeepAllLCA(g, s),
        graph_factory=lambda n, s: gnp_graph(n, 0.3, seed=s),
        sizes=[20, 40, 80],
        materialize=True,
        stretch_sample=30,
    )
    assert len(sweep.points) == 3
    # keep-all spanner size grows roughly like m ~ n² for fixed p
    exponent = sweep.size_exponent()
    assert exponent is not None and 1.5 < exponent < 2.5
    rows = sweep.rows()
    assert rows[0]["n"] == 20
    summary = exponent_row(sweep, target_size_exponent=2.0, target_probe_exponent=0.0)
    assert summary["algorithm"] == "keep-all"


def test_run_sweep_sampled_mode():
    sweep = run_sweep(
        "spanner3-sampled",
        lca_factory=lambda g, s: ThreeSpannerLCA(g, seed=s),
        graph_factory=lambda n, s: gnp_graph(n, 0.3, seed=s),
        sizes=[30, 60],
        materialize=False,
        probe_queries=10,
    )
    assert len(sweep.points) == 2
    assert all(p.stretch is None for p in sweep.points)
    assert all(p.spanner_edges <= p.num_edges for p in sweep.points)


def test_sampled_sweep_answers_each_sampled_edge_once():
    """The sampled sweep takes its YES-rate from the probe sample's answers,
    so each size's LCA answers min(probe_queries, m) queries, not twice that."""
    built = []

    def factory(graph, seed):
        built.append(ThreeSpannerLCA(graph, seed=seed))
        return built[-1]

    sweep = run_sweep(
        "spanner3-sampled",
        lca_factory=factory,
        graph_factory=lambda n, s: gnp_graph(n, 0.3, seed=s),
        sizes=[8, 60],
        seed=2,
        materialize=False,
        probe_queries=10,
    )
    small, large = built
    assert small.graph.num_edges < 10 < large.graph.num_edges
    for lca in built:
        assert lca.probe_stats.queries == min(10, lca.graph.num_edges)
    # The small graph's sample is every edge, so its size estimate is exact.
    assert sweep.points[0].spanner_edges == small.materialize().num_edges


def test_format_table_alignment_and_values():
    rows = [
        {"algorithm": "a", "n": 10, "ok": True, "x": None},
        {"algorithm": "bb", "n": 2000, "ok": False, "x": 1.23456},
    ]
    text = format_table(rows, title="Demo")
    assert "Demo" in text
    assert "algorithm" in text and "bb" in text
    assert "yes" in text and "no" in text and "-" in text
    assert format_table([], title="Empty").startswith("Empty")


def test_format_comparison_adds_ratio():
    rows = [{"name": "x", "measured": 50, "target": 100}]
    text = format_comparison(rows, "measured", "target", title="Cmp")
    assert "ratio" in text
    assert "0.5" in text
