"""Scenario runner determinism and faithfulness (repro.reports.runner)."""

from __future__ import annotations

import json

import pytest

from repro.core.registry import create
from repro.graphs import build_family
from repro.reports import (
    ScenarioSpec,
    TickClock,
    churn_ops,
    run_scenario,
    spec_for_smoke,
)
from repro.reports.runner import SMOKE_MAX_REQUESTS, SMOKE_MAX_SIZE


def _spec(**overrides):
    data = {
        "name": "runner-test",
        "algorithm": "spanner3",
        "seed": 7,
        "graph": {"family": "gnp", "sizes": [50], "density": 0.15, "seed": 3},
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def test_result_payload_is_deterministic():
    spec = _spec(
        graph={"family": "gnp", "sizes": [40, 60], "density": 0.15, "seed": 3},
        mutations={"ops": 6, "seed": 2},
        workload={"kind": "zipf", "requests": 80, "seed": 1, "skew": 1.1},
        service={"shards": 2, "batch_size": 8},
    )
    first = json.dumps(run_scenario(spec).as_dict(), sort_keys=True)
    second = json.dumps(run_scenario(spec).as_dict(), sort_keys=True)
    assert first == second


def test_offline_rows_match_direct_harness_run():
    spec = _spec()
    result = run_scenario(spec)
    (row,) = result.sizes
    graph = build_family("gnp", 50, density=0.15, seed=3)
    lca = create("spanner3", graph, seed=7)
    materialized = lca.materialize(mode="batched")
    assert row.n == graph.num_vertices
    assert row.m == graph.num_edges
    assert row.spanner_edges == materialized.num_edges
    assert row.probes["total"] == materialized.probe_stats.total
    assert row.probes["max"] == materialized.probe_stats.max
    kinds = lca.probe_counter.snapshot().as_dict()
    assert row.probe_kinds == kinds
    assert row.stretch_ok
    assert result.service is None


def test_mutation_burst_is_applied_and_recorded():
    spec = _spec(mutations={"ops": 8, "seed": 5})
    (row,) = run_scenario(spec).sizes
    assert row.mutations == 8
    assert row.graph_epoch >= 8
    assert row.stretch_ok


def test_service_phase_runs_on_largest_size_with_virtual_clock():
    spec = _spec(
        graph={"family": "gnp", "sizes": [40, 60], "density": 0.15, "seed": 3},
        workload={"kind": "uniform", "requests": 60, "seed": 4},
        service={"shards": 2, "batch_size": 8},
    )
    result = run_scenario(spec)
    service = result.service
    assert service is not None
    assert service["n"] == 60
    assert service["clock"] == "virtual-ticks"
    assert service["served"] == 60
    assert service["latency"]["p50_ms"] > 0


def test_churn_workload_serves_writes():
    spec = _spec(
        graph={"family": "gnp", "sizes": [60], "density": 0.15, "seed": 3},
        workload={"kind": "churn", "requests": 120, "seed": 9, "write_ratio": 0.2},
        service={"shards": 2, "batch_size": 8},
    )
    service = run_scenario(spec).service
    assert service["mutations"] > 0
    assert service["served"] + service["mutations"] + service["rejected"] == 120


def test_smoke_shrinks_sizes_requests_and_churn():
    spec = _spec(
        graph={"family": "gnp", "sizes": [400, 800], "density": 0.05, "seed": 3},
        mutations={"ops": 500, "seed": 1},
        workload={"kind": "uniform", "requests": 5000, "seed": 2},
    )
    shrunk = spec_for_smoke(spec)
    assert shrunk.graph.sizes == (SMOKE_MAX_SIZE,)
    assert shrunk.workload.requests == SMOKE_MAX_REQUESTS
    assert shrunk.mutations.ops <= 10
    result = run_scenario(spec, smoke=True)
    assert result.smoke
    assert result.as_dict()["smoke"] is True
    assert [row.n for row in result.sizes] == [SMOKE_MAX_SIZE]


def test_algorithm_options_reach_the_factory():
    spec = _spec(
        name="k3",
        algorithm="spannerk",
        algorithm_options={"stretch_parameter": 3},
        graph={"family": "bounded", "sizes": [40], "seed": 5},
    )
    (row,) = run_scenario(spec).sizes
    graph = build_family("bounded", 40, seed=5)
    expected = create("spannerk", graph, seed=7, stretch_parameter=3)
    assert row.stretch_bound == expected.stretch_bound()


def test_churn_ops_are_valid_in_sequence():
    graph = build_family("gnp", 40, density=0.2, seed=1)
    ops = churn_ops(graph, 25, seed=3)
    assert len(ops) == 25
    # Replaying against the live graph must never raise (removes hit existing
    # edges, adds create new ones).
    for (op, u, v) in ops:
        graph.apply_mutation(op, u, v)
    assert churn_ops(build_family("gnp", 40, density=0.2, seed=1), 25, seed=3) == ops


def test_tick_clock_is_monotone_and_deterministic():
    clock = TickClock()
    readings = [clock() for _ in range(5)]
    assert readings == sorted(readings)
    assert readings == [pytest.approx(0.001 * i) for i in range(1, 6)]
