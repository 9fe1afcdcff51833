"""Query-engine benchmark: cold vs. batched vs. numpy kernels.

The batched query engine (cross-query memoization + streaming
materialization) promises identical answers and identical per-query
probe accounting at a fraction of the wall-clock cost, and the vectorized
kernel layer (:mod:`repro.kernels`) promises the same again on top of the
batched engine.  This benchmark times all engines on the four fixture
workloads, checks the equivalence while it is at it, and writes the
measurements to ``BENCH_query_engine.json`` at the repository root — the
perf trajectory that later scaling PRs extend.

Shapes to check on the dense (n=400, p=0.10) fixture:

* batched must be ≥5× faster than the cold per-query path, and
* the numpy kernels must be ≥5× faster than the batched pure-Python path,

with byte-identical spanner edges and probe totals everywhere.  The two
scalar engine rows are pinned to ``kernel="python"`` so they stay comparable
across machines with and without numpy; the kernel row is skipped (not
failed) when numpy is absent.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import create_lca, format_table
from repro.kernels import resolve_kernel
from repro.spannerk import KSquaredSpannerLCA

from bench_common import payload_header
from conftest import print_section, tuned_k2_params

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_query_engine.json"

#: Acceptance floor for the headline speedup (dense fixture, spanner3).
#: Measured headroom is ~3.5x (typical ratios are 15-20x); the environment
#: override exists for pathologically noisy shared runners, not for local use.
MIN_BATCHED_SPEEDUP = float(os.environ.get("BENCH_MIN_BATCHED_SPEEDUP", "5.0"))

#: Acceptance floor for the vectorized-kernel speedup over the batched
#: pure-Python engine (dense fixture, spanner3).  Measured ratios on the
#: dense fixture are ~6-7x.
MIN_KERNEL_SPEEDUP = float(os.environ.get("BENCH_MIN_KERNEL_SPEEDUP", "5.0"))

MODES = ("cold", "batched")

#: Whether the numpy kernel layer is importable in this environment.
HAVE_NUMPY_KERNEL = resolve_kernel("auto") is not None


def _time_modes(name, graph, make_lca):
    """Materialize with every engine; return (row dict, per-mode results).

    The two scalar engines run with the probe kernels pinned to "python"
    (the default "auto" would silently vectorize them wherever numpy is
    installed); a third "kernel" measurement reruns the batched engine
    under ``kernel="numpy"`` when available and is held to the same
    edges-and-probes equivalence key.
    """
    timings = {}
    reference = None
    for mode in MODES:
        lca = make_lca(graph).set_kernel("python")
        start = time.perf_counter()
        materialized = lca.materialize(mode=mode)
        elapsed = time.perf_counter() - start
        key = (
            frozenset(materialized.edges),
            tuple(materialized.probe_stats.query_totals),
        )
        if reference is None:
            reference = key
        else:
            assert key == reference, (name, mode, "equivalence broken")
        timings[mode] = {
            "seconds": elapsed,
            "spanner_edges": materialized.num_edges,
            "probe_total": materialized.probe_stats.total,
            "probe_max": materialized.probe_stats.max,
        }
    if HAVE_NUMPY_KERNEL:
        lca = make_lca(graph).set_kernel("numpy")
        start = time.perf_counter()
        materialized = lca.materialize(mode="batched")
        elapsed = time.perf_counter() - start
        key = (
            frozenset(materialized.edges),
            tuple(materialized.probe_stats.query_totals),
        )
        assert key == reference, (name, "numpy-kernel", "equivalence broken")
        timings["kernel"] = {
            "seconds": elapsed,
            "spanner_edges": materialized.num_edges,
            "probe_total": materialized.probe_stats.total,
            "probe_max": materialized.probe_stats.max,
        }
    row = {
        "workload": name,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "cold_s": round(timings["cold"]["seconds"], 4),
        "batched_s": round(timings["batched"]["seconds"], 4),
        "speedup_batched": round(
            timings["cold"]["seconds"] / max(timings["batched"]["seconds"], 1e-9), 2
        ),
        "probe_total": timings["cold"]["probe_total"],
        "|H|": timings["cold"]["spanner_edges"],
    }
    if "kernel" in timings:
        row["kernel_s"] = round(timings["kernel"]["seconds"], 4)
        row["speedup_kernel"] = round(
            timings["batched"]["seconds"] / max(timings["kernel"]["seconds"], 1e-9), 2
        )
    return row, timings


def test_query_engine_speedups(
    dense_benchmark_graph,
    clustered_benchmark_graph,
    skewed_benchmark_graph,
    bounded_benchmark_graph,
):
    workloads = [
        (
            "spanner3 / dense gnp(400, 0.10)",
            dense_benchmark_graph,
            lambda g: create_lca("spanner3", g, seed=5, hitting_constant=1.0),
        ),
        (
            "spanner3 / skewed hubs(400)",
            skewed_benchmark_graph,
            lambda g: create_lca("spanner3", g, seed=5, hitting_constant=1.0),
        ),
        (
            "spanner5 / clustered(160)",
            clustered_benchmark_graph,
            lambda g: create_lca("spanner5", g, seed=5, hitting_constant=1.0),
        ),
        (
            "spannerk / bounded(600, d=6)",
            bounded_benchmark_graph,
            lambda g: KSquaredSpannerLCA(
                g, seed=5, params=tuned_k2_params(g.num_vertices, k=2)
            ),
        ),
    ]

    rows = []
    records = []
    for name, graph, make_lca in workloads:
        row, timings = _time_modes(name, graph, make_lca)
        rows.append(row)
        records.append({**row, "modes": timings})

    print_section(
        "Query engines: cold vs. batched vs. numpy kernels "
        "(identical probes)",
        format_table(rows),
    )

    payload = {
        **payload_header("bench_query_engine"),
        "min_batched_speedup_required": MIN_BATCHED_SPEEDUP,
        "min_kernel_speedup_required": MIN_KERNEL_SPEEDUP,
        "numpy_kernel_available": HAVE_NUMPY_KERNEL,
        "workloads": records,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    headline = [r for r in rows if r["workload"].startswith("spanner3 / dense")]
    assert headline, "dense headline workload missing"
    assert headline[0]["speedup_batched"] >= MIN_BATCHED_SPEEDUP, (
        "batched materialization must be at least "
        f"{MIN_BATCHED_SPEEDUP}x faster than the cold per-query path on the "
        f"dense fixture, measured {headline[0]['speedup_batched']}x"
    )
    if HAVE_NUMPY_KERNEL:
        assert headline[0]["speedup_kernel"] >= MIN_KERNEL_SPEEDUP, (
            "the numpy kernels must be at least "
            f"{MIN_KERNEL_SPEEDUP}x faster than the batched pure-Python "
            f"engine on the dense fixture, measured "
            f"{headline[0]['speedup_kernel']}x"
        )
