"""Property-based scalar-vs-vectorized kernel equivalence (hypothesis).

The hand-picked fixtures in ``test_kernels.py`` pin the equivalence on a few
known graph shapes; this module hammers the same contract on *arbitrary*
small graphs and seeds, including a randomly chosen mutation epoch: for every
generated instance, the numpy kernels must produce the same spanner edges,
the same per-query probe totals and the same per-kind probe counts as the
scalar reference path, before and after mutations.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import create
from repro.graphs import Graph


@pytest.fixture(autouse=True)
def force_kernel_paths(monkeypatch):
    """Drop the minimum-workload floors so hypothesis-sized graphs vectorize."""
    from repro.kernels import bfs as kernel_bfs
    from repro.kernels import spanner5 as kernel_spanner5
    from repro.kernels.engine import NumpyKernel

    monkeypatch.setattr(kernel_bfs, "_MIN_BATCH_WORK", 0)
    monkeypatch.setattr(kernel_spanner5, "_MIN_GRID", 0)
    monkeypatch.setattr(NumpyKernel, "min_explore_work", 0)


@st.composite
def graph_and_mutations(draw, max_vertices=20):
    """A small random graph plus a random batch of remove/add mutations."""
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=2, max_size=3 * n, unique=True)
    )
    removals = draw(
        st.lists(st.sampled_from(edges), min_size=0, max_size=3, unique=True)
    )
    additions = draw(
        st.lists(st.sampled_from(possible), min_size=0, max_size=3, unique=True)
    )
    mutations = [("remove", u, v) for (u, v) in removals]
    mutations += [("add", u, v) for (u, v) in additions if (u, v) not in edges]
    return list(range(n)), edges, mutations


relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)


def _run(algorithm, vertices, edges, mutations, seed, kernel):
    graph = Graph.from_edges(edges, vertices=vertices)
    lca = create(algorithm, graph, seed=seed).set_kernel(kernel)
    fingerprints = []
    for batch in ([], mutations):
        lca.apply_mutations(batch)
        materialized = lca.materialize(mode="batched")
        counter = lca.probe_counter.snapshot()
        fingerprints.append(
            (
                frozenset(materialized.edges),
                tuple(materialized.probe_stats.query_totals),
                (counter.degree, counter.neighbor, counter.adjacency),
            )
        )
    return fingerprints


@pytest.mark.parametrize("algorithm", ["spanner3", "spanner5", "spannerk"])
@relaxed
@given(
    instance=graph_and_mutations(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_kernels_match_scalar_on_random_graphs_and_epochs(
    algorithm, instance, seed
):
    vertices, edges, mutations = instance
    scalar = _run(algorithm, vertices, edges, mutations, seed, "python")
    vectorized = _run(algorithm, vertices, edges, mutations, seed, "numpy")
    assert scalar == vectorized
