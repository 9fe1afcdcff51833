"""Scaling of the O(k²)-spanner LCA (Theorem 1.2).

Targets: Õ(n^{1+1/k}) edges and probe complexity polynomial in Δ and n^{2/3}.
The sweep runs on bounded-degree graphs (the construction's habitat: it is
sublinear for Δ = O(n^{1/12-ε})), estimating spanner size from the query
YES-rate and charging every query its cold probe schedule.  A second
experiment varies k at fixed n and checks that larger k yields (weakly)
sparser spanners — the size/stretch trade-off the theorem describes.
"""

from __future__ import annotations

import random

from repro import format_table, graphs
from repro.analysis import exponent_row, run_sweep
from repro.spannerk import KSquaredSpannerLCA

from conftest import print_section, tuned_k2_params

SIZES = [200, 400, 800]
DEGREE = 6


def _factory(k):
    def build(graph, seed):
        return KSquaredSpannerLCA(
            graph, seed=seed, params=tuned_k2_params(graph.num_vertices, k=k)
        )

    return build


def test_scaling_k2(benchmark):
    sweep = run_sweep(
        "O(k^2)-spanner LCA (k=2)",
        lca_factory=_factory(2),
        graph_factory=lambda n, s: graphs.bounded_degree_expanderish(n, d=DEGREE, seed=s),
        sizes=SIZES,
        seed=41,
        materialize=False,
        probe_queries=40,
    )
    summary = exponent_row(sweep, target_size_exponent=1.5, target_probe_exponent=2 / 3)
    print_section(
        "Scaling SK — O(k²)-spanner size / probe growth (k=2, Δ≈6)",
        format_table(sweep.rows()) + "\n\n" + format_table([summary]),
    )
    size_exponent = sweep.size_exponent()
    assert size_exponent is not None
    # On bounded-degree graphs m = Θ(n); the spanner grows roughly linearly
    # and must certainly not grow super-quadratically.
    assert size_exponent < 1.6

    graph = graphs.bounded_degree_expanderish(SIZES[-1], d=DEGREE, seed=43)
    lca = _factory(2)(graph, 41)
    u, v = next(iter(graph.edges()))
    benchmark(lambda: lca.query(u, v))
    benchmark.extra_info["size_exponent"] = size_exponent


def test_k_tradeoff_at_fixed_size(benchmark):
    """Larger k → (weakly) fewer edges kept, at higher stretch budget."""
    graph = graphs.bounded_degree_expanderish(400, d=DEGREE, seed=47)
    rng = random.Random(3)
    sample = rng.sample(list(graph.edges()), 150)
    rows = []
    estimates = {}
    for k in (1, 2, 3):
        lca = KSquaredSpannerLCA(
            graph, seed=9, params=tuned_k2_params(graph.num_vertices, k=k)
        )
        kept = sum(lca.query_batch(sample).answers)
        estimate = kept / len(sample) * graph.num_edges
        estimates[k] = estimate
        rows.append(
            {
                "k": k,
                "stretch budget": lca.stretch_bound(),
                "estimated |H|": int(estimate),
                "target |H|": f"~O(n^(1+1/{k}))",
            }
        )
    print_section("O(k²)-spanner — size vs stretch trade-off", format_table(rows))
    assert estimates[3] <= estimates[1] + 0.05 * graph.num_edges

    lca = KSquaredSpannerLCA(
        graph, seed=9, params=tuned_k2_params(graph.num_vertices, k=2)
    )
    u, v = sample[0]
    benchmark(lambda: lca.query_batch([(u, v)]))
