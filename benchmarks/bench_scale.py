"""Million-node scale benchmark: streaming build, mmap load, queries.

Sweeps ``n`` over {10^4, 10^5, 10^6} (override with ``BENCH_SCALE_SIZES``)
at a fixed expected degree and measures, per size:

* **streaming build** — wall time and tracemalloc peak of
  ``build_stream_family("gnp-stream", ...)``, which goes straight into flat
  CSR arrays with no Python edge list;
* **legacy build** (only at n ≤ 10^5, where it is affordable) — the same
  graph through ``gnp_graph()``, asserted bit-identical to the streamed
  arrays, and the headline **peak-memory ratio** legacy/stream, with an
  acceptance floor (``BENCH_MIN_STREAM_RSS_RATIO``, relaxed to 1 on CI
  smoke runs);
* **snapshot save / mmap load** — the load's tracemalloc peak is O(n)
  (the id → position map), never O(m): the adjacency pages stay on disk
  until the kernel faults them in;
* **queries** — spanner3 probe totals over a deterministic edge sample of
  the mapped graph, answered by one ``query_batch`` call on a fresh LCA
  whose cached engine is built before the clock starts.

Every ``*_s`` field is the median of ``TIMING_REPEATS`` (3) untraced calls
of its phase: one call's time varies between runs by as much as the
effects it is read for.  Every ``*_peak_bytes`` field comes from one
separate call of the same phase under ``tracemalloc``, so tracing never
inflates a time; a peak repeats between runs to within 0.01%, so one call
suffices.
Results go to ``BENCH_scale.json`` at the repository root; ``ru_maxrss``
is recorded per phase so the whole-process RSS curve is inspectable too.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

from repro import format_table, graphs
from repro.core.registry import create
from repro.scale import build_stream_family, load_csr_snapshot, save_csr_snapshot

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

#: Swept sizes.  The default covers four orders of magnitude; CI smoke runs
#: override with two small sizes so the job finishes in seconds.
SIZES = [int(s) for s in os.environ.get("BENCH_SCALE_SIZES", "10000,100000,1000000").split(",")]

#: Expected degree of the swept G(n, p) instances (p = DEGREE_TARGET / n).
DEGREE_TARGET = 6.0

#: Largest n at which the legacy in-memory builder is also run (its Python
#: edge list and per-edge tuples are exactly the cost being measured).
LEGACY_MAX_N = 100_000

#: Acceptance floor for peak-build-memory legacy/stream at LEGACY_MAX_N
#: scale.  The streamed path must hold at least this factor; measured
#: locally it is >5x.  CI smoke runs (tiny n, fixed costs dominate) relax
#: it via the environment.
MIN_STREAM_RSS_RATIO = float(os.environ.get("BENCH_MIN_STREAM_RSS_RATIO", "2.0"))

SEED = 101
NUM_QUERIES = int(os.environ.get("BENCH_SCALE_QUERIES", "16"))

#: Untraced calls per timed phase; each ``*_s`` field is their median.
TIMING_REPEATS = 3


def _timed(fn, prepare=None):
    """(median wall seconds, last result) of ``TIMING_REPEATS`` untraced
    calls of ``fn``.

    Each call's result is dropped before the next call starts, so two never
    live at once.  ``prepare``, when given, runs untimed before each call
    and its result is the call's argument.
    """
    seconds = []
    for _ in range(TIMING_REPEATS):
        result = None
        args = () if prepare is None else (prepare(),)
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


def _peak_bytes(fn):
    """tracemalloc peak of one call; its result is dropped, so it never
    lives beside the timed call's."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _sample_edges(graph, count):
    """A deterministic edge sample straight off the CSR arrays.

    Entries are picked at fixed strides through ``indices`` and mapped back
    to their source row by bisecting ``indptr`` — no edge list, no per-edge
    tuples beyond the sample itself.
    """
    indptr = graph._indptr
    indices = graph._indices
    nnz = len(indices)
    if not nnz:
        return []
    edges = []
    for k in range(count):
        entry = (k * nnz) // count
        u = bisect.bisect_right(indptr, entry) - 1
        edges.append((u, indices[entry]))
    return edges


def _mb(num_bytes):
    return round(num_bytes / 1e6, 2)


def test_scale_streaming_mmap_queries(tmp_path):
    rows = []
    results = []
    for n in SIZES:
        p = min(1.0, DEGREE_TARGET / n)
        entry = {"n": n, "p": p}

        def build():
            return build_stream_family("gnp-stream", n, density=p, seed=SEED)

        build_peak = _peak_bytes(build)
        build_s, streamed = _timed(build)
        entry["m"] = streamed.num_edges
        entry["stream_build_s"] = round(build_s, 3)
        entry["stream_build_peak_bytes"] = build_peak
        entry["maxrss_kb_after_stream"] = _maxrss_kb()

        ratio = None
        if n <= LEGACY_MAX_N:
            def legacy_build():
                return graphs.gnp_graph(n, p, seed=SEED)

            legacy_peak = _peak_bytes(legacy_build)
            legacy_s, legacy = _timed(legacy_build)
            legacy.compact()
            assert list(legacy._indptr) == list(streamed._indptr)
            assert list(legacy._indices) == list(streamed._indices)
            ratio = legacy_peak / build_peak
            entry["legacy_build_s"] = round(legacy_s, 3)
            entry["legacy_build_peak_bytes"] = legacy_peak
            entry["stream_rss_ratio"] = round(ratio, 2)
            del legacy

        path = tmp_path / f"scale-{n}.csr"
        save_s, _ = _timed(lambda: save_csr_snapshot(streamed, path))
        entry["snapshot_bytes"] = path.stat().st_size
        entry["snapshot_save_s"] = round(save_s, 3)
        del streamed

        # Detaching closes the mapping; it cannot raise the load's peak.
        load_peak = _peak_bytes(lambda: load_csr_snapshot(path).detach())
        load_s, mapped = _timed(lambda: load_csr_snapshot(path))
        entry["mmap_load_s"] = round(load_s, 3)
        entry["mmap_load_peak_bytes"] = load_peak

        edges = _sample_edges(mapped, NUM_QUERIES)

        def fresh_lca():
            lca = create("spanner3", mapped, seed=7)
            lca.ensure_cached_oracle()  # picks the kernel, importing numpy
            return lca

        query_s, batch = _timed(lambda lca: lca.query_batch(edges), fresh_lca)
        entry["queries"] = len(edges)
        entry["query_s"] = round(query_s, 6)  # a call takes well under 1 ms
        entry["probe_total"] = sum(batch.probe_totals)
        entry["probe_max"] = max(batch.probe_totals, default=0)
        mapped.detach()
        entry["maxrss_kb"] = _maxrss_kb()
        results.append(entry)

        rows.append(
            {
                "n": n,
                "m": entry["m"],
                "stream s": entry["stream_build_s"],
                "stream peak MB": _mb(build_peak),
                "legacy/stream": "-" if ratio is None else round(ratio, 2),
                "load peak MB": _mb(load_peak),
                "probes/query": round(entry["probe_total"] / max(1, len(edges)), 1),
            }
        )

    floor_checked = any(n <= LEGACY_MAX_N for n in SIZES)
    print_section(
        "Scale plane: streaming build, mmap load, probes vs n",
        format_table(rows)
        + f"\n\npeak-memory floor legacy/stream >= {MIN_STREAM_RSS_RATIO}"
        + ("" if floor_checked else "  [no legacy-sized n swept: floor not checked]"),
    )

    payload = {
        **payload_header("bench_scale", floor_enforced=floor_checked),
        "degree_target": DEGREE_TARGET,
        "seed": SEED,
        "min_stream_rss_ratio_required": MIN_STREAM_RSS_RATIO,
        "sizes": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    for entry in results:
        ratio = entry.get("stream_rss_ratio")
        if ratio is not None:
            assert ratio >= MIN_STREAM_RSS_RATIO, (
                f"streaming build must hold a >={MIN_STREAM_RSS_RATIO}x peak-memory "
                f"advantage over the legacy edge-list build at n={entry['n']}, "
                f"measured {ratio:.2f}x"
            )
