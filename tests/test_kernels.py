"""Vectorized probe kernels (repro.kernels): selection, fallback, equivalence.

The kernel layer promises *observational equivalence* with the scalar query
engines: identical spanner edge sets, identical per-query probe totals and
identical per-kind probe counts, with numpy strictly a wall-clock
optimization.  These tests pin the selection through ``REPRO_KERNEL`` and
its fallback (including the one-line error when numpy is forced without
numpy) and the equivalence promise for all three paper constructions, also
across mutation epochs; every row selects its kernel through the
environment, as a deployment does.  The numpy kernels vectorize spanner3's
neighbor-prefix scans, which spanner5 reaches through its spanner3
components; each numpy row checks that it reached the scan tables, and the
spannerk rows check that spannerk, which runs scalar code under every
kernel, never did.
"""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro import graphs
from repro.analysis import evaluate_lca
from repro.cli import main as cli_main
from repro.core.errors import ReproError
from repro.core.registry import create
from repro.kernels import ENV_KERNEL, KernelUnavailableError, resolve_kernel
from repro.kernels.engine import _STORES
from repro.spannerk import KSquaredParams, KSquaredSpannerLCA


def _spanner3(graph):
    return create("spanner3", graph, seed=5, hitting_constant=1.0)


def _spanner5(graph):
    return create("spanner5", graph, seed=5, hitting_constant=1.0)


def _spannerk(graph):
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


CASES = {
    "spanner3": (_spanner3, lambda: graphs.gnp_graph(70, 0.25, seed=11)),
    "spanner5": (
        _spanner5,
        lambda: graphs.dense_cluster_graph(80, 10, inter_probability=0.05, seed=5),
    ),
    "spannerk": (_spannerk, lambda: graphs.bounded_degree_expanderish(80, d=4, seed=3)),
}


def _assert_numpy_run_reached_the_kernel(name, graph):
    """spanner3 and spanner5 answer their scans from the graph's spanner3
    scan tables; spannerk never touches the kernel layer, so its graph has no
    table store.  Without this an equivalence row could compare scalar with
    scalar and pass."""
    store = _STORES.get(graph)
    if name == "spannerk":
        assert store is None
    else:
        assert store is not None and len(store.scan) >= 1


def _fingerprint(lca, materialized):
    counter = lca.probe_counter.snapshot()
    return (
        frozenset(materialized.edges),
        tuple(materialized.probe_stats.query_totals),
        (counter.degree, counter.neighbor, counter.adjacency),
    )


# --------------------------------------------------------------------------- #
# Selection and fallback
# --------------------------------------------------------------------------- #


def test_resolve_python_is_scalar_path(pin_kernel):
    pin_kernel("python")
    assert resolve_kernel() is None
    lca = _spanner3(graphs.gnp_graph(30, 0.2, seed=1))
    assert lca.kernel_name == "python"
    assert lca.ensure_cached_oracle().kernel is None


def test_resolve_numpy_without_numpy_is_one_line_error(monkeypatch, pin_kernel):
    monkeypatch.setattr(kernels, "_numpy_or_none", lambda: None)
    pin_kernel("numpy")
    with pytest.raises(KernelUnavailableError) as excinfo:
        resolve_kernel()
    message = str(excinfo.value)
    assert "\n" not in message
    assert "pip install repro-spanner-lca[fast]" in message


def test_auto_without_numpy_falls_back_to_scalar(monkeypatch, pin_kernel):
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    monkeypatch.setattr(kernels, "_numpy_or_none", lambda: None)
    assert resolve_kernel() is None
    pin_kernel("")
    assert resolve_kernel() is None


def test_auto_with_numpy_picks_the_vectorized_kernel(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    kernel = resolve_kernel()
    assert kernel is not None and kernel.name == "numpy"


def test_env_var_overrides_auto(pin_kernel):
    pin_kernel("python")
    assert resolve_kernel() is None


def test_resolve_rejects_unknown_names(pin_kernel):
    """A name outside ``KERNELS`` is refused with one line that lists the
    choices; ``auto`` is not a value, unset is."""
    for name in ("cython", "auto"):
        pin_kernel(name)
        with pytest.raises(KernelUnavailableError, match="not a valid kernel") as excinfo:
            resolve_kernel()
        assert isinstance(excinfo.value, ReproError)
        message = str(excinfo.value)
        assert "\n" not in message
        assert all(choice in message for choice in kernels.KERNELS)


def test_invalid_env_var_fails_loudly(pin_kernel):
    pin_kernel("fortran")
    with pytest.raises(KernelUnavailableError, match="REPRO_KERNEL"):
        resolve_kernel()


def test_cli_kernel_error_is_one_line_systemexit(monkeypatch, pin_kernel, tmp_path):
    monkeypatch.setattr(kernels, "_numpy_or_none", lambda: None)
    pin_kernel("numpy")
    path = tmp_path / "g.txt"
    graphs.write_edge_list(graphs.gnp_graph(30, 0.2, seed=1), path)
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["materialize", "--graph", str(path)])
    message = str(excinfo.value)
    assert message.startswith("materialize:") and "\n" not in message


# --------------------------------------------------------------------------- #
# Equivalence: scalar vs. vectorized
# --------------------------------------------------------------------------- #


# One storage row: CSR is the only graph storage; the row keeps the test ids.
@pytest.mark.parametrize("storage", ["csr"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_identical_edges_and_probes_across_kernels(name, storage, pin_kernel):
    """Same seeds ⇒ same spanner, probe totals and per-kind counts."""
    pytest.importorskip("numpy")
    factory, make_graph = CASES[name]

    def run(kernel):
        pin_kernel(kernel)
        graph = make_graph()
        lca = factory(graph)
        assert lca.kernel_name == kernel
        fingerprint = _fingerprint(lca, lca.materialize(mode="batched"))
        if kernel == "numpy":
            _assert_numpy_run_reached_the_kernel(name, graph)
        return fingerprint

    assert run("python") == run("numpy")


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_equivalence_survives_mutation_epochs(name, pin_kernel):
    """Post-mutation epochs re-run through the kernels bit-identically."""
    pytest.importorskip("numpy")
    factory, make_graph = CASES[name]

    def run(kernel):
        pin_kernel(kernel)
        graph = make_graph()
        lca = factory(graph)
        edges = sorted(graph.edges())
        fingerprints = [_fingerprint(lca, lca.materialize(mode="batched"))]
        # Epoch 1: drop a few edges; epoch 2: add one back plus a fresh edge.
        victims = edges[:: max(1, len(edges) // 3)][:3]
        for (u, v) in victims:
            graph.remove_edge(u, v)
        fingerprints.append(_fingerprint(lca, lca.materialize(mode="batched")))
        graph.add_edge(*victims[0])
        fingerprints.append(_fingerprint(lca, lca.materialize(mode="batched")))
        if kernel == "numpy":
            _assert_numpy_run_reached_the_kernel(name, graph)
        return fingerprints

    assert run("python") == run("numpy")


@pytest.mark.parametrize("slice_entries", [1, 7])
def test_materialize_slices_match_the_scalar_path(slice_entries, monkeypatch, pin_kernel):
    """The batched materializer decides edges a slice of CSR entries at a
    time; slices that split rows or hold no forward entry at all still give
    the scalar spanner, per-query probe totals and per-kind counts."""
    pytest.importorskip("numpy")
    from repro.kernels import spanner3 as kernel_spanner3

    monkeypatch.setattr(kernel_spanner3, "SLICE_ENTRIES", slice_entries)
    factory, make_graph = CASES["spanner3"]

    def run(kernel):
        pin_kernel(kernel)
        lca = factory(make_graph())
        return _fingerprint(lca, lca.materialize(mode="batched"))

    assert run("python") == run("numpy")


def test_evaluate_lca_kernel_parameter_is_probe_invariant(pin_kernel):
    pytest.importorskip("numpy")
    pin_kernel("python")
    graph = graphs.gnp_graph(60, 0.2, seed=9)
    scalar = evaluate_lca(_spanner3(graph))
    pin_kernel("numpy")
    graph2 = graphs.gnp_graph(60, 0.2, seed=9)
    vectorized = evaluate_lca(_spanner3(graph2))
    _assert_numpy_run_reached_the_kernel("spanner3", graph2)
    assert scalar.num_spanner_edges == vectorized.num_spanner_edges
    assert scalar.probe_max == vectorized.probe_max
    assert scalar.probe_mean == vectorized.probe_mean


def test_cold_queries_stay_scalar_and_identical(pin_kernel):
    """The cold engine is the reference path; kernels must not touch it."""
    pytest.importorskip("numpy")

    def run(kernel):
        pin_kernel(kernel)
        graph = graphs.gnp_graph(50, 0.2, seed=3)
        lca = _spanner3(graph)
        outcomes = [lca.query_with_stats(u, v) for (u, v) in sorted(graph.edges())[:40]]
        return [(o.in_spanner, o.probe_total) for o in outcomes]

    assert run("python") == run("numpy")


def test_service_engine_kernel_config_is_probe_invariant(pin_kernel):
    pytest.importorskip("numpy")
    from repro.service import ServiceConfig, ServiceEngine, make_workload

    def run(kernel):
        pin_kernel(kernel)
        graph = graphs.gnp_graph(60, 0.2, seed=9)
        config = ServiceConfig(num_shards=2, batch_size=8)
        workload = make_workload("uniform", graph, num_requests=200, seed=1)
        engine = ServiceEngine(graph, _spanner3, config)
        report = engine.run(workload)
        if kernel == "numpy":
            _assert_numpy_run_reached_the_kernel("spanner3", graph)
        return report.served, report.in_spanner, report.probe_stats.total

    assert run("python") == run("numpy")


def test_shards_and_replicas_share_one_table_store(monkeypatch, pin_kernel):
    """Same-seed shard replicas read one store per graph, patched per write,
    so a 4 × 2 pool rebuilds exactly the scan rows one shard rebuilds.

    The one shard's 16-request calls are large enough to decide their
    misses together, which rebuilds the stale rows a call reads in one
    build per scan, while the pool's smaller calls rebuild a row per scan;
    so the rows each table rebuilt are compared, not the number of builds.
    """
    np = pytest.importorskip("numpy")
    pin_kernel("numpy")
    from repro.kernels import spanner3 as kernel_spanner3
    from repro.service import ServiceConfig, ServiceEngine, make_workload

    build_scan_tables = kernel_spanner3.build_scan_tables
    decide_queries = kernel_spanner3.decide_queries

    def run(num_shards, replication):
        scans, together = [], []

        def counted(np_module, view, prefix, block, rows=None, into=None):
            scans.append((block, None if rows is None else np.asarray(rows).tolist()))
            return build_scan_tables(np_module, view, prefix, block, rows, into)

        def counted_decide(*args):
            together.append(len(args[-1]))
            return decide_queries(*args)

        monkeypatch.setattr(kernel_spanner3, "build_scan_tables", counted)
        monkeypatch.setattr(kernel_spanner3, "decide_queries", counted_decide)
        graph = graphs.gnp_graph(70, 0.25, seed=11)
        config = ServiceConfig(
            num_shards=num_shards, replication=replication, batch_size=16
        )
        workload = make_workload(
            "churn", graph, num_requests=300, seed=4, write_ratio=0.1
        )
        engine = ServiceEngine(graph, _spanner3, config)
        report = engine.run(workload)
        rebuilt = {}
        for block, rows in scans:
            rebuilt.setdefault(block, []).extend([-1] if rows is None else rows)
        return {block: sorted(rows) for block, rows in rebuilt.items()}, report.mutations, together

    rebuilt, writes, together = run(1, 1)
    assert writes > 0 and together
    # Every scan table was built whole once and then had stale rows rebuilt.
    assert len(rebuilt) == 2
    assert all(rows.count(-1) == 1 and len(rows) > 1 for rows in rebuilt.values())
    pool_rebuilt, pool_writes, pool_together = run(4, 2)
    assert pool_writes == writes and not pool_together
    assert pool_rebuilt == rebuilt


def test_a_write_builds_nothing_until_a_read_needs_its_rows(monkeypatch, pin_kernel):
    """Advancing the store past a write patches the view and marks dirty
    scan rows stale without building either; a scan of a stale row rebuilds
    exactly that row, and a batched materialize flushes exactly the other
    stale rows in one call per table and still matches the scalar path."""
    np = pytest.importorskip("numpy")
    from repro.kernels import engine as kernel_engine, spanner3 as kernel_spanner3

    views, scans = [], []
    build_view = kernel_engine.build_view
    build_scan_tables = kernel_spanner3.build_scan_tables

    def counted_view(*args, **kwargs):
        views.append(1)
        return build_view(*args, **kwargs)

    def counted_scan(np_module, view, prefix, block, rows=None, into=None):
        scans.append((block, None if rows is None else np.asarray(rows).tolist()))
        return build_scan_tables(np_module, view, prefix, block, rows, into)

    monkeypatch.setattr(kernel_engine, "build_view", counted_view)
    monkeypatch.setattr(kernel_spanner3, "build_scan_tables", counted_scan)

    def run(kernel):
        pin_kernel(kernel)
        graph = graphs.gnp_graph(70, 0.25, seed=11)
        lca = _spanner3(graph)
        fingerprints = [_fingerprint(lca, lca.materialize(mode="batched"))]
        (u, v) = sorted(graph.edges())[5]
        lca.apply_mutations([("remove", u, v)])
        if kernel == "numpy":
            assert len(views) == 1 and len(scans) == 2
            del views[:], scans[:]
            store = lca.ensure_cached_oracle().kernel.store(graph)
            assert views == [] and scans == []
            tables = store.scan[(lca.high_centers.key, None)]
            row = store.view.pos[u]
            assert tables.stale[row]
            store.scan_tables(lca.high_centers, None, row)
            assert scans == [(None, [row])] and not tables.stale[row]
            stale = {
                block: np.flatnonzero(each.stale).tolist()
                for (key, block), each in store.scan.items()
            }
            del scans[:]
            fingerprints.append(_fingerprint(lca, lca.materialize(mode="batched")))
            assert views == [] and len(scans) == len(stale) == 2
            assert dict(scans) == stale
        else:
            fingerprints.append(_fingerprint(lca, lca.materialize(mode="batched")))
        return fingerprints

    assert run("python") == run("numpy")


def _count_table_builds(monkeypatch):
    """Record every prefix-table build (``"prefix"``) and every scan-table
    build (its block variant) from here on."""
    from repro.kernels import spanner3 as kernel_spanner3

    builds = []
    build_prefix_tables = kernel_spanner3.build_prefix_tables
    build_scan_tables = kernel_spanner3.build_scan_tables

    def counted_prefix(*args, **kwargs):
        builds.append("prefix")
        return build_prefix_tables(*args, **kwargs)

    def counted_scan(np_module, view, prefix, block, rows=None, into=None):
        builds.append(block)
        return build_scan_tables(np_module, view, prefix, block, rows, into)

    monkeypatch.setattr(kernel_spanner3, "build_prefix_tables", counted_prefix)
    monkeypatch.setattr(kernel_spanner3, "build_scan_tables", counted_scan)
    return builds


def test_a_call_of_low_class_misses_builds_no_table(monkeypatch, pin_kernel):
    """Every vertex of a 40-cycle is low-class, so H_low decides each edge
    from degrees alone: none of a call's 20 misses reaches the center-edge
    rule, so they are decided one at a time, with no table store built for
    the graph, and answered like python.  A numpy materialize of the same
    cycle decides every edge by the array path and builds no table either."""
    pytest.importorskip("numpy")
    from repro.kernels import spanner3 as kernel_spanner3

    builds = _count_table_builds(monkeypatch)
    together = []
    decide_queries = kernel_spanner3.decide_queries

    def counted_decide(*args):
        together.append(len(args[-1]))
        return decide_queries(*args)

    monkeypatch.setattr(kernel_spanner3, "decide_queries", counted_decide)

    def run(kernel):
        pin_kernel(kernel)
        graph = graphs.cycle_graph(40)
        queries = sorted(graph.edges())[:20]
        result = _spanner3(graph).query_batch(queries)
        assert graph not in _STORES
        return result.answers, result.probe_totals

    assert run("python") == run("numpy")
    assert together == []
    assert builds == []

    def materialized(kernel):
        pin_kernel(kernel)
        graph = graphs.cycle_graph(40)
        lca = _spanner3(graph)
        fingerprint = _fingerprint(lca, lca.materialize(mode="batched"))
        assert (graph in _STORES) == (kernel == "numpy")
        return fingerprint

    assert materialized("python") == materialized("numpy")
    assert builds == []


@pytest.mark.parametrize("crossover", [1, 10**6], ids=["together", "one-at-a-time"])
@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_an_unvalidated_non_edge_raises_after_the_edge_before_it(
    kernel, crossover, monkeypatch, pin_kernel
):
    """``validate=False`` skips the edge check of hits only: a miss is
    checked before it is decided, so ``[edge, non-edge]`` raises
    NotAnEdgeError after answering, charging and storing ``edge`` alone,
    and memoizes no answer for the non-edge."""
    if kernel == "numpy":
        pytest.importorskip("numpy")
    from repro.core.errors import NotAnEdgeError
    from repro.kernels import spanner3 as kernel_spanner3

    pin_kernel(kernel)
    monkeypatch.setattr(kernel_spanner3, "CROSSOVER_MISSES", crossover)
    graph = graphs.gnp_graph(40, 0.3, seed=2)
    edge = max(graph.edges(), key=lambda e: min(graph.degree(e[0]), graph.degree(e[1])))
    non_edge = next(
        (u, v) for u in graph.vertices() for v in graph.vertices()
        if u < v and not graph.has_edge(u, v)
    )
    lca = _spanner3(graph)
    assert min(graph.degree(x) for x in edge) > lca.params.low_threshold
    with pytest.raises(NotAnEdgeError):
        lca.query_batch([edge, non_edge], False)
    expected = _spanner3(graphs.gnp_graph(40, 0.3, seed=2)).query_batch([edge])
    answers = lca.oracle_cache.memo(lca.query_answer_namespace())
    assert list(answers) == [edge]
    assert [answers[edge].value[0]] == expected.answers
    assert lca.probe_stats.query_totals == expected.probe_totals
    stats = lca.oracle_cache.stats
    assert (stats.hits, stats.misses) == (0, 1)
    # The stored edge is a hit now, served without the edge check.
    assert lca.query_batch([edge], False).answers == expected.answers


def test_materialize_builds_no_table_no_vertex_class_reads(monkeypatch, pin_kernel):
    """In K_30 every vertex is above n^{3/4}, so no H_high scan can run: a
    batched materialize builds the two prefix tables and the H_super table
    only, after a write too, and matches python."""
    pytest.importorskip("numpy")
    builds = _count_table_builds(monkeypatch)

    def run(kernel):
        pin_kernel(kernel)
        graph = graphs.complete_graph(30)
        lca = _spanner3(graph)
        fingerprints = [_fingerprint(lca, lca.materialize(mode="batched"))]
        lca.apply_mutations([("remove", 0, 1)])
        fingerprints.append(_fingerprint(lca, lca.materialize(mode="batched")))
        if kernel == "numpy":
            block = lca.components[3].threshold
            assert sorted(_STORES[graph].scan) == [(lca.super_centers.key, block)]
            # One build of each table, and the flush of the write's stale
            # rows of the H_super table.
            assert builds.count("prefix") == 2
            assert [each for each in builds if each != "prefix"] == [block, block]
        return fingerprints

    assert run("python") == run("numpy")


def test_a_removal_patches_the_store_without_per_entry_arrays(pin_kernel):
    """After one removal the store moves rows inside the arrays it holds:
    on gnp(400, 0.22), with both scan tables built, carrying the store to
    the new epoch peaks below one int64 array per entry (8·nnz bytes) under
    tracemalloc.  Allocating every per-entry array anew peaked near
    2.4 MB there, about 8.6 such arrays."""
    pytest.importorskip("numpy")
    import tracemalloc

    pin_kernel("numpy")
    graph = graphs.gnp_graph(400, 0.22, seed=3)
    lca = create("spanner3", graph, seed=5)
    kernel = lca.ensure_cached_oracle().kernel
    store = kernel.store(graph)
    store.scan_tables(lca.high_centers, None)
    store.scan_tables(lca.super_centers, lca.components[3].threshold)
    edges = sorted(graph.edges())
    lca.apply_mutations([("remove", *edges[len(edges) // 2])])
    tracemalloc.start()
    try:
        assert kernel.store(graph) is store
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.epoch == graph.epoch and len(store.scan) == 2
    assert peak < 8 * store.view.nnz, (peak, store.view.nnz)


def test_scan_table_builds_peak_at_one_slab(pin_kernel):
    """A scan-table build expands one slab of (entry, center) pairs at a
    time.  On gnp(400, 0.3) each build's traced peak (numpy reports its
    buffers to tracemalloc) stays under 16 MB, for 0.78 MB of output; a
    whole-table expansion peaks at about 69 and 82 MB there."""
    pytest.importorskip("numpy")
    import tracemalloc

    pin_kernel("numpy")
    graph = graphs.gnp_graph(400, 0.3, seed=3)
    lca = create("spanner3", graph, seed=5)
    store = lca.ensure_cached_oracle().kernel.store(graph)
    block = lca.components[3].threshold
    for system, variant in ((lca.high_centers, None), (lca.super_centers, block)):
        store.prefix_tables(system)
        tracemalloc.start()
        try:
            store.scan_tables(system, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (variant, peak)


def test_ids_beyond_64_bits_mutate_and_fall_back_to_scalar(pin_kernel):
    """Ids past int64 have no numpy view, so the numpy selection answers with
    scalar code, across a removal and a re-add, and matches python."""
    pytest.importorskip("numpy")
    shift = 1 << 70

    def run(kernel):
        pin_kernel(kernel)
        base = graphs.gnp_graph(40, 0.2, seed=3)
        graph = graphs.Graph.from_edges(
            [(u + shift, v + shift) for (u, v) in base.edges()],
            vertices=[v + shift for v in base.vertices()],
        )
        lca = _spanner3(graph)
        (u, v) = sorted(graph.edges())[0]
        lca.apply_mutations([("remove", u, v)])
        fingerprint = [_fingerprint(lca, lca.materialize(mode="batched"))]
        lca.apply_mutations([("add", u, v)])
        outcome = lca.query_with_stats(u, v)
        fingerprint.append((outcome.in_spanner, outcome.probe_total))
        if kernel == "numpy":
            assert _STORES[graph].view is None
        return fingerprint

    assert run("python") == run("numpy")
