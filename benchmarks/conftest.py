"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables (or the empirical
counterpart of one of its theorems) and prints the rows with
``repro.analysis.format_table``; run with ``-s`` to see them, e.g.::

    pytest benchmarks/ --benchmark-only -s

Graph sizes are chosen so the whole suite runs in a few minutes on a laptop
while still being large enough for the asymptotic shapes (who wins, by what
factor, where the crossovers are) to be visible.
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.spannerk import KSquaredParams


def print_section(title: str, body: str) -> None:
    """Print a titled block (visible with ``pytest -s``)."""
    line = "=" * max(20, len(title))
    print(f"\n{line}\n{title}\n{line}\n{body}\n")


@pytest.fixture(scope="session")
def dense_benchmark_graph():
    """A dense graph for the 3-spanner benchmarks (degrees well above √n)."""
    return graphs.gnp_graph(400, 0.10, seed=101)


@pytest.fixture(scope="session")
def clustered_benchmark_graph():
    """Medium-degree clustered graph: the 5-spanner's bucket/representative
    machinery is fully active and full materialization stays affordable."""
    return graphs.dense_cluster_graph(160, 16, inter_probability=0.03, seed=55)


@pytest.fixture(scope="session")
def skewed_benchmark_graph():
    """Degree-skewed graph populating all edge classes of Tables 1–2."""
    return graphs.planted_hub_graph(400, num_hubs=8, hub_degree=180, seed=33)


@pytest.fixture(scope="session")
def bounded_benchmark_graph():
    """Bounded-degree graph for the O(k²)-spanner benchmarks."""
    return graphs.bounded_degree_expanderish(600, d=6, seed=7)


def tuned_k2_params(n: int, k: int = 2) -> KSquaredParams:
    """O(k²) parameters that keep both regimes (sparse + dense) active at
    benchmark scale; the paper defaults degenerate below n ≈ 10⁴."""
    budget = max(4, round(n ** (1 / 3)))
    return KSquaredParams(
        num_vertices=n,
        stretch_parameter=k,
        exploration_budget=budget,
        center_probability=min(1.0, 3.0 / budget),
        mark_probability=min(1.0, 1.0 / budget),
        rank_quota=max(4, round(2 * n ** (1.0 / k))),
        independence=12,
    )
