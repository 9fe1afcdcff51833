"""Property-based scalar-vs-vectorized kernel equivalence (hypothesis).

The hand-picked fixtures in ``test_kernels.py`` pin the equivalence on a few
known graph shapes; this module hammers the same contract on *arbitrary*
small graphs and seeds, including a randomly chosen mutation epoch: for every
generated instance, the numpy kernels must produce the same spanner edges,
the same per-query probe totals and the same per-kind probe counts as the
scalar reference path, before and after mutations.  The graph's shared
kernel table store, patched in place after each round of writes (unchanged
rows moved inside their buffers, dirty scan rows marked stale and rebuilt
on read), must equal a fresh build on every entry once its stale rows are
flushed, whatever the slab size the scan-table builder cuts its rows by and
whether or not the buffers have spare room.

Scan tables are also checked against a slow reference that walks each row
in Python, ``move_rows`` against concatenating the unchanged rows into a
fresh array, and ``rev_entry`` against the lexsort pairing it replaced.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import create
from repro.graphs import Graph
from repro.kernels import ENV_KERNEL, spanner3 as kernel_spanner3, view as kernel_view


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
    ],
)


def _run(algorithm, vertices, edges, mutations, seed, kernel):
    graph = Graph.from_edges(edges, vertices=vertices)
    lca = create(algorithm, graph, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_KERNEL, kernel)
        # Builds the cached engine, which keeps the kernel read here.
        assert lca.kernel_name == kernel
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


@st.composite
def graph_and_write_rounds(draw, max_vertices=20):
    """A small random graph plus rounds of 1–3 writes each.

    A write names a vertex pair: it removes the edge when present and adds it
    otherwise, so any pair sequence replays validly.  The compaction
    threshold is drawn too: 1 folds the overlay into the flat arrays after
    nearly every write, 512 never does.
    """
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=2, max_size=4 * n, unique=True)
    )
    rounds = draw(
        st.lists(
            st.lists(st.sampled_from(possible), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    compact_threshold = draw(st.sampled_from([1, 512]))
    return list(range(n)), edges, rounds, compact_threshold


def _single_slab_build(np, view, prefix, block):
    """A scan table built with every row in one slab."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_spanner3, "SLAB_ELEMENTS", 1 << 62)
        return kernel_spanner3.build_scan_tables(np, view, prefix, block)


def _assert_store_matches_fresh_build(np, graph, kernel):
    """Every table in the graph's store equals a build on a fresh view.

    The scan tables are flushed first (a whole-graph read rebuilds every
    stale row), after which no row may be stale.  The reference scan tables
    are built in one slab.
    """
    from repro.kernels.view import build_view

    store = kernel.store(graph)
    view = build_view(np, graph)
    assert store.epoch == graph.epoch
    for name in ("indptr", "deg", "nbr_id", "nbr_pos", "entry_src", "entry_j", "rev_entry"):
        assert np.array_equal(getattr(store.view, name), getattr(view, name)), name
    fresh = {}
    for key, (system, tables) in store.prefix.items():
        fresh[key] = kernel_spanner3.build_prefix_tables(np, view, system)
        for name in kernel_spanner3.PrefixTables.__slots__:
            assert np.array_equal(getattr(tables, name), getattr(fresh[key], name)), name
    for (key, block), tables in list(store.scan.items()):
        system = store.prefix[key][0]
        assert store.scan_tables(system, block) is tables
        assert tables.stale is None
        rebuilt = _single_slab_build(np, view, fresh[key], block)
        for name in ("kept", "steps", "adj"):
            assert np.array_equal(getattr(tables, name), getattr(rebuilt, name)), name


@relaxed
@given(
    instance=graph_and_write_rounds(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_patched_tables_equal_fresh_builds_after_every_write_round(instance, seed):
    _check_write_rounds(instance, seed)


@pytest.mark.parametrize("slab", [1, 1 << 40], ids=["row-per-slab", "one-slab"])
@relaxed
@given(
    instance=graph_and_write_rounds(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_slab_size_never_changes_a_scan_table(slab, instance, seed):
    """Whole builds, stale-row flushes and single-row rebuilds cut into
    slabs of one row (a 1-element budget) or of the whole graph equal a
    single-slab build on every entry."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_spanner3, "SLAB_ELEMENTS", slab)
        _check_write_rounds(instance, seed)


@pytest.mark.parametrize(
    "spare", [0, kernel_view.SPARE_ENTRIES], ids=["reallocate", "in-place"]
)
@relaxed
@given(
    instance=graph_and_write_rounds(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_spare_room_never_changes_a_patched_table(spare, instance, seed):
    """With no spare room every add outgrows its buffers and reallocates
    them; with the default room the adds after the first move rows in
    place.  Both leave every table equal to a fresh build."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_view, "SPARE_ENTRIES", spare)
        _check_write_rounds(instance, seed)


def _check_write_rounds(instance, seed):
    """Replay write rounds under both kernels; after each, compare answers
    and probes, and the store with a fresh build."""
    import numpy as np

    vertices, edges, rounds, compact_threshold = instance
    lcas = {}
    for kernel in ("python", "numpy"):
        graph = Graph.from_edges(edges, vertices=vertices)
        graph.compact_threshold = compact_threshold
        lcas[kernel] = create("spanner3", graph, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(ENV_KERNEL, kernel)
            # Builds the cached engine, which keeps the kernel read here.
            assert lcas[kernel].kernel_name == kernel
    lca = lcas["numpy"]
    kernel = lca.ensure_cached_oracle().kernel
    store = kernel.store(lca.graph)
    # Build all four tables up front, so every round patches each of them.
    store.scan_tables(lca.high_centers, None)
    store.scan_tables(lca.super_centers, lca.components[3].threshold)
    for writes in rounds:
        for pair in writes:
            for each in lcas.values():
                op = "remove" if each.graph.has_edge(*pair) else "add"
                each.apply_mutations([(op, *pair)])
        reads = sorted(lca.graph.edges())
        results = {name: each.query_batch(reads) for name, each in lcas.items()}
        assert results["numpy"].answers == results["python"].answers
        assert results["numpy"].probe_totals == results["python"].probe_totals
        _assert_store_matches_fresh_build(np, lca.graph, kernel)


# --------------------------------------------------------------------------- #
# query_batch: a call's misses decided together equal the per-query path
# --------------------------------------------------------------------------- #


@st.composite
def query_call_rounds(draw, max_vertices=22):
    """A random graph, then rounds of 0–2 writes followed by 1–3 calls.

    A call names edges by index into the graph's current edge list (modulo
    its length) plus an orientation flag, so it replays validly after any
    write; indices repeat inside a call and across calls.  Vertices with
    few neighbors make low-class edges, whose read set is {u} alone.
    """
    n = draw(st.integers(min_value=5, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=3, max_size=len(possible), unique=True)
    )
    call = st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), st.booleans()),
        min_size=1,
        max_size=24,
    )
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(possible), max_size=2),
                st.lists(call, min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return list(range(n)), edges, rounds


def _query_rounds(vertices, edges, rounds, seed, hitting_constant, kernel, crossover):
    """Serve the rounds' calls on a fresh LCA: everything a caller can see,
    then per call whether its misses were decided together, and whether a
    miss decided one at a time reached the center-edge rule."""
    from repro.obs.profiler import ProbeProfiler
    from repro.spanner3.components import CenterEdgeComponent

    together, reached = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_KERNEL, kernel)
        patch.setattr(kernel_spanner3, "CROSSOVER_MISSES", crossover)
        decide_queries = kernel_spanner3.decide_queries
        center_edge_decide = CenterEdgeComponent._decide

        def counted(*args):
            together[-1] = True
            return decide_queries(*args)

        def reaching(self, oracle, u, v):
            reached[-1] = True
            return center_edge_decide(self, oracle, u, v)

        patch.setattr(kernel_spanner3, "decide_queries", counted)
        patch.setattr(CenterEdgeComponent, "_decide", reaching)
        graph = Graph.from_edges(edges, vertices=vertices)
        lca = create("spanner3", graph, seed=seed, hitting_constant=hitting_constant)
        profiler = ProbeProfiler()
        lca.attach_profiler(profiler)
        served = []
        for writes, calls in rounds:
            for pair in writes:
                op = "remove" if graph.has_edge(*pair) else "add"
                if op == "add" or graph.num_edges > 1:
                    lca.apply_mutations([(op, *pair)])
            live = sorted(graph.edges())
            for call in calls:
                picks = [(live[index % len(live)], flip) for index, flip in call]
                queries = [(v, u) if flip else (u, v) for (u, v), flip in picks]
                together.append(False)
                reached.append(False)
                result = lca.query_batch(queries)
                served.append((result.answers, result.probe_totals))
        cache = lca.oracle_cache
        memo = {
            key: (entry.value, entry.epoch, list(entry.touched))
            for key, entry in cache.memo(lca.query_answer_namespace()).items()
        }
        return (
            served,
            lca.probe_stats.query_totals,
            lca.probe_counter.snapshot(),
            profiler.as_dict(),
            (cache.stats.hits, cache.stats.misses),
            memo,
        ), together, reached


@relaxed
@given(
    instance=query_call_rounds(),
    seed=st.integers(min_value=0, max_value=10**6),
    hitting_constant=st.sampled_from([0.3, 1.0]),
)
def test_query_batch_decides_misses_together_like_one_at_a_time(
    instance, seed, hitting_constant
):
    """Under both kernels and on both sides of the crossover, query_batch
    gives the same answers, per-query totals, per-kind counts, profiler
    attribution, cache statistics and answer-memo entries (value, epoch
    stamp and dependency ids) as the scalar per-query path, across writes,
    repeats inside a call and hits across calls."""
    vertices, edges, rounds = instance
    reference, _, reached = _query_rounds(
        vertices, edges, rounds, seed, hitting_constant, "python", 1
    )
    for crossover in (1, 10**6):
        outcome, together, _ = _query_rounds(
            vertices, edges, rounds, seed, hitting_constant, "numpy", crossover
        )
        assert outcome == reference
        # Below the crossover the array path never runs; at 1 it decides a
        # call exactly when one of its misses reaches the center-edge rule,
        # which the python run shows by invoking that rule.
        assert together == (reached if crossover == 1 else [False] * len(reached))


@pytest.mark.parametrize("crossover", [1, 10**6], ids=["together", "one-at-a-time"])
@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_a_non_edge_raises_after_the_queries_before_it(kernel, crossover, monkeypatch):
    """``[e1, e2, non-edge, e3]`` raises NotAnEdgeError after answering,
    charging and storing exactly e1 and e2, as a call of ``[e1, e2]`` would."""
    from repro import graphs
    from repro.core.errors import NotAnEdgeError

    monkeypatch.setenv(ENV_KERNEL, kernel)
    monkeypatch.setattr(kernel_spanner3, "CROSSOVER_MISSES", crossover)
    graph = graphs.gnp_graph(40, 0.3, seed=2)
    edges = sorted(graph.edges())
    e1, e2, e3 = edges[3], edges[17], edges[29]
    non_edge = next(
        (u, v) for u in graph.vertices() for v in graph.vertices()
        if u < v and not graph.has_edge(u, v)
    )
    lca = create("spanner3", graph, seed=4)
    with pytest.raises(NotAnEdgeError):
        lca.query_batch([e1, e2, non_edge, e3])
    reference = create("spanner3", graphs.gnp_graph(40, 0.3, seed=2), seed=4)
    expected = reference.query_batch([e1, e2])
    answers = lca.oracle_cache.memo(lca.query_answer_namespace())
    assert list(answers) == [e1, e2]
    assert [entry.value[0] for entry in answers.values()] == expected.answers
    assert lca.probe_stats.query_totals == expected.probe_totals
    assert lca.probe_counter.snapshot() == reference.probe_counter.snapshot()
    stats = lca.oracle_cache.stats
    assert (stats.hits, stats.misses) == (0, 2)


@pytest.mark.parametrize("query_slice", [7, 1 << 10], ids=["slices-of-7", "one-slice"])
@pytest.mark.parametrize("n, p, seed", [(40, 0.7, 3), (60, 0.45, 8)])
def test_query_batch_decides_misses_together_on_dense_graphs(
    n, p, seed, query_slice, monkeypatch
):
    """The hypothesis graphs are small and mostly sparse; these are dense
    enough for super-class edges whose H_super window starts past the first
    block, with writes between calls and repeated, re-invalidated keys.  A
    call's misses are decided in slices of 7 or in one slice."""
    from repro import graphs

    monkeypatch.setattr(kernel_spanner3, "QUERY_SLICE", query_slice)

    graph = graphs.gnp_graph(n, p, seed=seed)
    edges = sorted(graph.edges())
    stride = len(edges) // 40
    call = [(index * stride, index % 3 == 0) for index in range(40)]
    repeat = call[:10] + call[:10]
    writes = [edges[0], edges[stride], (0, n - 1)]
    rounds = [([], [call]), (writes[:2], [repeat, call]), (writes[2:], [call + repeat])]
    reference, _, _ = _query_rounds(list(range(n)), edges, rounds, seed, 1.0, "python", 1)
    assert reference[3]["invalidations"] > 0
    for crossover in (1, 10**6):
        outcome, together, _ = _query_rounds(
            list(range(n)), edges, rounds, seed, 1.0, "numpy", crossover
        )
        assert outcome == reference
        assert any(together) == (crossover == 1)


# --------------------------------------------------------------------------- #
# Scan tables and reverse entries against test-local references
# --------------------------------------------------------------------------- #


def _reference_scan_tables(view, system, block):
    """Kept/steps/adjacency per entry, walking each row in Python.

    Follows the kernel module docstring's derivation, independently of the
    prefix tables: S(y) is the set of elected vertices among the first
    ``system.prefix`` neighbors of y, and the first cover of a center s at
    entry ``(w, j)`` is the smallest offset of j's scan window (the whole
    row, or j's ``block``-sized window) whose neighbor's S holds s.
    """
    elected = [bool(system.sampler.is_center(v)) for v in view.ids.tolist()]
    rows = [
        view.nbr_pos[view.indptr[w] : view.indptr[w + 1]].tolist() for w in range(view.n)
    ]
    centers = [[y for y in row[: system.prefix] if elected[y]] for row in rows]
    outcomes = []
    for row in rows:
        first_cover = {}
        for j, x in enumerate(row):
            start = 0 if block is None else (j // block) * block
            if j == start:
                first_cover = {}
            for s in centers[x]:
                first_cover.setdefault(s, j)
            covers = [first_cover[s] for s in centers[x]]
            if not covers:
                outcomes.append((False, 0, 0))
                continue
            uncovered = j in covers
            end = j if uncovered else max(covers) + 1
            adjacency = sum(min(cover + 1, end) - start for cover in covers)
            outcomes.append((uncovered, end - start, adjacency))
    return [[outcome[k] for outcome in outcomes] for k in range(3)]


def _assert_tables_equal(np, built, reference, entries=None):
    """``built`` equals ``reference`` on ``entries`` (every entry when None)."""
    for name, expected in zip(("kept", "steps", "adj"), reference):
        got = getattr(built, name)
        expected = np.array(expected, dtype=got.dtype)
        if entries is not None:
            got, expected = got[entries], expected[entries]
        assert np.array_equal(got, expected), name


@st.composite
def graph_with_writes(draw, max_vertices=24):
    """A random graph, some add/remove writes and a random row subset."""
    vertices, edges, mutations = draw(graph_and_mutations(max_vertices))
    rows = draw(st.lists(st.sampled_from(vertices), unique=True, max_size=len(vertices)))
    return vertices, edges, mutations, sorted(rows)


@relaxed
@given(
    instance=graph_with_writes(),
    seed=st.integers(min_value=0, max_value=10**6),
    hitting_constant=st.sampled_from([0.3, 1.0, 2.0]),
    which=st.sampled_from(["high", "super"]),
    block=st.sampled_from(["scan", None, 1, 2, 3]),
)
def test_scan_tables_match_a_row_walking_reference(
    instance, seed, hitting_constant, which, block
):
    """Whole builds, builds cut into slabs of one row (a 1-element budget)
    or of the whole graph, and row-subset builds equal the reference on
    every entry, for both center systems and block widths beyond the one
    each scan uses ("scan")."""
    import numpy as np

    from repro.kernels.view import build_view

    vertices, edges, mutations, subset = instance
    graph = Graph.from_edges(edges, vertices=vertices)
    lca = create("spanner3", graph, seed=seed, hitting_constant=hitting_constant)
    lca.apply_mutations(mutations)
    system = lca.high_centers if which == "high" else lca.super_centers
    if block == "scan":
        block = None if which == "high" else lca.components[3].threshold
    view = build_view(np, graph)
    prefix = kernel_spanner3.build_prefix_tables(np, view, system)
    reference = _reference_scan_tables(view, system, block)
    rows = np.array(subset, dtype=np.int64)
    entries = kernel_spanner3.row_entries(np, view, rows)
    with pytest.MonkeyPatch.context() as patch:
        for slab in (1, 1 << 40):
            patch.setattr(kernel_spanner3, "SLAB_ELEMENTS", slab)
            whole = kernel_spanner3.build_scan_tables(np, view, prefix, block)
            _assert_tables_equal(np, whole, reference)
            part = kernel_spanner3.build_scan_tables(np, view, prefix, block, rows)
            _assert_tables_equal(np, part, reference, entries)
            rest = np.ones(view.nnz, dtype=bool)
            rest[entries] = False
            assert not part.kept[rest].any()
            assert not part.steps[rest].any() and not part.adj[rest].any()


def test_scan_tables_over_65536_centers_sort_wide_ranks_alike():
    """gnp(700, 0.2)'s H_high system elects over 256 centers, so its ranks
    are 16-bit.  Its table equals the reference, and a build on 64-bit
    ranks, the sort a system of more than 65,536 centers takes, equals it."""
    import numpy as np

    from repro import graphs
    from repro.kernels.view import build_view

    graph = graphs.gnp_graph(700, 0.2, seed=1)
    lca = create("spanner3", graph, seed=1)
    view = build_view(np, graph)
    prefix = kernel_spanner3.build_prefix_tables(np, view, lca.high_centers)
    assert int(prefix.elected.sum()) > 256
    assert prefix.rank.dtype == np.uint16
    built = kernel_spanner3.build_scan_tables(np, view, prefix, None)
    _assert_tables_equal(np, built, _reference_scan_tables(view, lca.high_centers, None))
    wide = kernel_spanner3.PrefixTables(
        prefix.elected, prefix.rank.astype(np.int64), prefix.pc_indptr, prefix.pc_val
    )
    rebuilt = kernel_spanner3.build_scan_tables(np, view, wide, None)
    for name in ("kept", "steps", "adj"):
        assert np.array_equal(getattr(rebuilt, name), getattr(built, name)), name


@st.composite
def row_rewrites(draw, max_rows=12, max_length=6):
    """Row lengths, rounds that each rewrite a set of rows, and the spare
    room of the first buffer.

    A rewritten row may grow, shrink or keep its length; every other row
    keeps its length.
    """
    n = draw(st.integers(min_value=1, max_value=max_rows))
    length = st.integers(min_value=0, max_value=max_length)
    lengths = draw(st.lists(length, min_size=n, max_size=n))
    rounds = draw(
        st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=n - 1), length, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
    room = draw(st.integers(min_value=0, max_value=16))
    return lengths, rounds, room


@settings(relaxed, max_examples=300)
@given(instance=row_rewrites(), spare=st.sampled_from([0, 3, kernel_view.SPARE_ENTRIES]))
def test_move_rows_equals_concatenating_the_unchanged_rows(instance, spare):
    """Round after round on one buffer, ``move_rows`` lays out the rows it
    did not rewrite exactly as concatenating them into a fresh array would,
    with the rewritten rows zero.  It moves them inside the buffer while
    the buffer has room, and otherwise copies them into a new buffer with
    ``SPARE_ENTRIES`` to spare."""
    import itertools

    import numpy as np

    lengths, rounds, room = instance
    label = itertools.count(1)

    def layout(lengths):
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return indptr

    indptr = layout(lengths)
    values = np.zeros(int(indptr[-1]) + room, dtype=np.int64)[: int(indptr[-1])]
    values[:] = [next(label) for _ in range(len(values))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_view, "SPARE_ENTRIES", spare)
        for rewrite in rounds:
            new_lengths = [rewrite.get(row, length) for row, length in enumerate(lengths)]
            new_indptr = layout(new_lengths)
            expected = np.concatenate([np.zeros(0, dtype=np.int64)] + [
                np.zeros(new_lengths[row], dtype=np.int64)
                if row in rewrite
                else values[indptr[row] : indptr[row + 1]].copy()
                for row in range(len(lengths))
            ])
            buffer = values.base
            rows = np.array(sorted(rewrite), dtype=np.int64)
            moved = kernel_view.move_rows(np, values, indptr, new_indptr, rows)
            assert np.array_equal(moved, expected)
            if len(buffer) >= new_indptr[-1]:
                assert moved.base is buffer
            else:
                assert len(moved.base) == new_indptr[-1] + spare
            for row in rewrite:
                lo, hi = new_indptr[row], new_indptr[row + 1]
                moved[lo:hi] = [next(label) for _ in range(hi - lo)]
            values, indptr, lengths = moved, new_indptr, new_lengths


def _lexsort_rev_entry(np, view):
    """Each entry's reverse entry by matching (src, nbr) and (nbr, src) lexsorts."""
    by_src = np.lexsort((view.nbr_pos, view.entry_src))
    by_nbr = np.lexsort((view.entry_src, view.nbr_pos))
    rev = np.empty(view.nnz, dtype=np.int64)
    rev[by_src] = by_nbr
    return rev


@relaxed
@given(instance=graph_and_write_rounds())
def test_rev_entry_pairs_arcs_like_lexsort_before_and_after_patches(instance):
    """``rev_entry`` equals the lexsort pairing and maps every arc to its
    reverse, on a fresh view and on the view patched after each round of
    writes."""
    import numpy as np

    from repro.kernels.view import build_view, patch_view

    vertices, edges, rounds, compact_threshold = instance
    graph = Graph.from_edges(edges, vertices=vertices)
    graph.compact_threshold = compact_threshold
    view = build_view(np, graph)
    for writes in [[]] + rounds:
        epoch = graph.epoch
        for pair in writes:
            graph.apply_mutation("remove" if graph.has_edge(*pair) else "add", *pair)
        ends = {x for edge in graph.mutations_since(epoch) for x in edge}
        touched = np.array(sorted(view.pos[x] for x in ends), dtype=np.int64)
        patch_view(np, view, graph, touched)
        rev = view.rev_entry
        assert np.array_equal(rev, _lexsort_rev_entry(np, view))
        assert np.array_equal(view.entry_src[rev], view.nbr_pos)
        assert np.array_equal(view.nbr_pos[rev], view.entry_src)
