"""Profiler phase attribution under the vectorized kernels.

The :class:`~repro.obs.profiler.ProbeProfiler` attributes probes to
algorithmic phases (``bfs``, ``voronoi``, ``neighbor-scan``).  The numpy
spanner3 scan kernels replay the ``neighbor-scan`` phase boundaries in bulk —
one frame covering many scalar-equivalent calls, with the call count carried
explicitly — so the attribution a profiler reports must be *identical* to the
scalar path: same per-phase probe totals, same per-kind splits, same call
counts.  spanner5 reaches those kernels through its spanner3 components;
spannerk runs its scalar ``bfs``/``voronoi`` code under every kernel, and its
row pins that attribution, also against the cold engine, whose explorations
the batched engine replays from its memo.  Across a mutated epoch the
cache-outcome rows (cold, memo hit, epoch-invalidated) and the invalidation
count must not depend on the kernel either.  That parity is what keeps
flame-style probe attribution trustworthy regardless of which kernel or
engine produced the numbers.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro import graphs
from repro.core.registry import create
from repro.obs import ProbeProfiler
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA


def _profile(pin_kernel, make_lca, kernel, mode="batched"):
    pin_kernel(kernel)
    lca = make_lca()
    profiler = ProbeProfiler()
    lca.attach_profiler(profiler)
    lca.materialize(mode=mode)
    payload = profiler.as_dict()
    return payload["phases"], dict(profiler.phase_calls)


def _outcomes_across_writes(pin_kernel, make_lca, kernel):
    """Cache outcomes of answers asked before and after a mutated epoch.

    Half the edges are asked first; after the writes every edge is asked,
    so the second batch mixes memo hits, answers discarded by the epoch
    check, and answers never asked before (cold first touches).
    """
    pin_kernel(kernel)
    lca = make_lca()
    profiler = ProbeProfiler()
    lca.attach_profiler(profiler)
    edges = sorted(lca.graph.edges())
    lca.query_batch(edges[::2])
    lca.apply_mutations([("remove", u, v) for (u, v) in edges[::40]])
    lca.query_batch(sorted(lca.graph.edges()))
    return profiler.outcome_calls, profiler.outcome_probes, profiler.invalidations


def test_spanner3_neighbor_scan_attribution_matches_scalar(pin_kernel):
    def make_lca():
        graph = graphs.gnp_graph(70, 0.25, seed=11)
        return create("spanner3", graph, seed=5, hitting_constant=1.0)

    scalar_phases, scalar_calls = _profile(pin_kernel, make_lca, "python")
    numpy_phases, numpy_calls = _profile(pin_kernel, make_lca, "numpy")
    assert scalar_phases == numpy_phases
    assert scalar_calls == numpy_calls
    assert scalar_phases.get("neighbor-scan", {}).get("total", 0) > 0
    # Across a mutated epoch the outcome rows must not depend on the kernel:
    # the scalar scans discard stale per-vertex memo entries inside a cold
    # answer's computation, and that must not relabel the answer.
    scalar = _outcomes_across_writes(pin_kernel, make_lca, "python")
    assert scalar == _outcomes_across_writes(pin_kernel, make_lca, "numpy")
    calls, _, invalidations = scalar
    assert calls["cold"] and calls["memo-hit"] and calls["epoch-invalidated"]
    assert invalidations == calls["epoch-invalidated"]


def test_spannerk_bfs_and_voronoi_attribution_matches_scalar(pin_kernel):
    def make_lca():
        graph = graphs.bounded_degree_expanderish(80, d=4, seed=3)
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

    scalar_phases, scalar_calls = _profile(pin_kernel, make_lca, "python")
    numpy_phases, numpy_calls = _profile(pin_kernel, make_lca, "numpy")
    cold_phases, cold_calls = _profile(pin_kernel, make_lca, "python", mode="cold")
    assert scalar_phases == numpy_phases == cold_phases
    assert scalar_calls == numpy_calls == cold_calls
    assert scalar_phases.get("bfs", {}).get("total", 0) > 0


def test_spanner5_attribution_matches_scalar(pin_kernel):
    def make_lca():
        graph = graphs.dense_cluster_graph(
            80, 10, inter_probability=0.05, seed=5
        )
        return create("spanner5", graph, seed=5, hitting_constant=1.0)

    scalar_phases, scalar_calls = _profile(pin_kernel, make_lca, "python")
    numpy_phases, numpy_calls = _profile(pin_kernel, make_lca, "numpy")
    assert scalar_phases == numpy_phases
    assert scalar_calls == numpy_calls
