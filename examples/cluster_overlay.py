#!/usr/bin/env python3
"""Building a bounded-stretch overlay for a clustered data-center topology.

Scenario: a system of dense server racks (cliques) with a sparse mesh of
inter-rack links wants a *sparse overlay* — each link asks locally "should I
be part of the overlay?" — while guaranteeing that any two directly connected
servers stay within a small constant number of overlay hops.

The 5-spanner LCA answers exactly that question.  The script materializes the
overlay (to verify it), compares it to the global greedy spanner and to the
O(k²) construction, and reports size, worst stretch and probe cost.

Run:  python examples/cluster_overlay.py [racks] [rack_size] [seed]
"""

from __future__ import annotations

import sys

from repro import FiveSpannerLCA, KSquaredSpannerLCA, evaluate_lca, format_table, graphs
from repro.analysis import measure_stretch
from repro.baselines import greedy_spanner
from repro.spannerk import KSquaredParams


def main(argv: list[str]) -> int:
    racks = int(argv[1]) if len(argv) > 1 else 14
    rack_size = int(argv[2]) if len(argv) > 2 else 10
    seed = int(argv[3]) if len(argv) > 3 else 3

    n = racks * rack_size
    print(f"Building {racks} racks of {rack_size} servers each (n={n}) ...")
    graph = graphs.dense_cluster_graph(n, racks, inter_probability=0.04, seed=seed)
    print(f"  {graph}; max degree {graph.max_degree()}")

    rows = []

    overlay_lca = FiveSpannerLCA(graph, seed=seed, hitting_constant=1.0)
    report5 = evaluate_lca(overlay_lca)
    rows.append(
        {
            "overlay": "5-spanner LCA",
            "links kept": report5.num_spanner_edges,
            "of": graph.num_edges,
            "worst stretch": report5.stretch.max_stretch,
            "stretch budget": 5,
            "max probes/query": report5.probe_max,
        }
    )

    k2_params = KSquaredParams(
        num_vertices=n,
        stretch_parameter=2,
        exploration_budget=max(4, round(n ** (1 / 3))),
        center_probability=0.4,
        mark_probability=0.2,
        rank_quota=max(4, 2 * int(n ** 0.5)),
        independence=12,
    )
    k2_lca = KSquaredSpannerLCA(graph, seed=seed, params=k2_params)
    report_k2 = evaluate_lca(k2_lca)
    rows.append(
        {
            "overlay": "O(k^2)-spanner LCA (k=2)",
            "links kept": report_k2.num_spanner_edges,
            "of": graph.num_edges,
            "worst stretch": report_k2.stretch.max_stretch,
            "stretch budget": k2_lca.stretch_bound(),
            "max probes/query": report_k2.probe_max,
        }
    )

    greedy = greedy_spanner(graph, stretch_parameter=3)
    greedy_stretch = measure_stretch(graph, greedy, limit=6).max_stretch
    rows.append(
        {
            "overlay": "global greedy 5-spanner (reads everything)",
            "links kept": len(greedy),
            "of": graph.num_edges,
            "worst stretch": greedy_stretch,
            "stretch budget": 5,
            "max probes/query": None,
        }
    )

    print()
    print(format_table(rows, title="Overlay candidates"))

    ok = report5.stretch_ok and report5.connectivity_preserved
    print(
        "\n5-spanner overlay preserves rack-to-rack connectivity:"
        f" {report5.connectivity_preserved}; stretch within budget: {report5.stretch_ok}"
    )
    print(
        "The LCA overlays cost probes per link decision; the greedy overlay"
        " needs the entire topology in one place."
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
