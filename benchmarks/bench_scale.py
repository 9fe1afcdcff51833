"""Million-node scale benchmark: streaming build, mmap load, queries.

Sweeps ``n`` over {10^4, 10^5, 10^6} at a fixed expected degree and
measures, per size:

* **streaming build** — wall time and tracemalloc peak of
  ``build_family("gnp", ...)``, which builds its edge chunks straight into
  flat CSR arrays with no Python edge list;
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
The script records numbers and asserts none; its sizes are constants, so
any run rewrites the committed file at the committed sizes.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

from repro import format_table, graphs
from repro.core.registry import create
from repro.scale import load_csr_snapshot, save_csr_snapshot

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

#: Swept sizes, a factor of 10 apart.
SIZES = [10_000, 100_000, 1_000_000]

#: Expected degree of the swept G(n, p) instances (p = DEGREE_TARGET / n).
DEGREE_TARGET = 6.0

SEED = 101
NUM_QUERIES = 16

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
            return graphs.build_family("gnp", n, density=p, seed=SEED)

        build_peak = _peak_bytes(build)
        build_s, streamed = _timed(build)
        entry["m"] = streamed.num_edges
        entry["stream_build_s"] = round(build_s, 3)
        entry["stream_build_peak_bytes"] = build_peak
        entry["maxrss_kb_after_stream"] = _maxrss_kb()

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
                "load peak MB": _mb(load_peak),
                "probes/query": round(entry["probe_total"] / max(1, len(edges)), 1),
            }
        )

    print_section(
        "Scale plane: streaming build, mmap load, probes vs n", format_table(rows)
    )

    payload = {
        **payload_header("bench_scale", floor_enforced=False),
        "degree_target": DEGREE_TARGET,
        "seed": SEED,
        "sizes": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
