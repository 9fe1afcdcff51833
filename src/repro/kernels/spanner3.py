"""Vectorized spanner3 probe kernels: prefix-center tables and neighbor scans.

The spanner3 scanning rules (H_high and H_super, Section 2) repeatedly walk a
prefix of a vertex's neighbor row, subtracting prefix-center sets until a
query-specific window is exhausted.  This module precomputes, per graph epoch
and per center system, a closed form of every possible scan: for each CSR
entry ``e = (w → x)`` it derives whether the scan at ``(w, x)`` keeps the
edge, how many row steps it performs, and how many adjacency probes it
charges — so both the per-query scan and the whole-graph batched
materializer become O(1) table lookups with the exact scalar probe schedule.
:func:`build_scan_tables` builds the scan tables a slab of whole rows at a
time, so its peak memory is that of one slab, not of the (entry, center)
expansion of the whole graph; the materializer decides edges one slice at a
time for the same reason.  After a write, :func:`patch_tables` carries the
tables to the new epoch: it rebuilds the prefix rows, copies every scan row
the write cannot have changed and marks the others stale.  A stale row is
rebuilt the first time a read needs it, through the same
:func:`build_scan_tables` that builds whole tables, so no stale entry is
ever read.

Derivation (matching ``_new_cluster_scan_fast``): for every element ``s`` of
the prefix-center set S(x), its *first cover* ``fc`` is the smallest row
offset ``j`` in the scan group (whole row for H_high, the block of ``e`` for
H_super) with ``s ∈ S(row_w[j])``.  The scalar loop stops at
``E = index`` when some ``s`` stays uncovered (``fc == index``), else at
``E = max(fc) + 1``; it performs ``E - start`` row steps and
``Σ_s (min(fc+1, E) - start)`` adjacency probes, and keeps the edge iff some
element stayed uncovered (or the window was empty with S(x) nonempty).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .view import copy_rows


class PrefixTables:
    """Election bitmap + prefix-center rows for one center system × epoch."""

    __slots__ = ("elected", "pc_indptr", "pc_val")

    def __init__(self, elected, pc_indptr, pc_val):
        self.elected = elected
        self.pc_indptr = pc_indptr
        self.pc_val = pc_val


class ScanTables:
    """Closed-form scan outcome per CSR entry (one block variant).

    ``stale`` is a per-row mask of rows whose entries await a rebuild, or
    ``None`` when no write has marked a row since the last full flush.
    """

    __slots__ = ("kept", "steps", "adj", "stale")

    def __init__(self, kept, steps, adj, stale=None):
        self.kept = kept
        self.steps = steps
        self.adj = adj
        self.stale = stale


def build_prefix_tables(np, view, system, elected=None) -> PrefixTables:
    """Evaluate the (pure, probe-free) center election over a whole view.

    ``elected`` reuses the election bitmap of an earlier epoch of the same
    graph: it depends on the vertex id alone, and the vertex set never
    changes.
    """
    if elected is None:
        elected = np.fromiter(
            (bool(system.sampler.is_center(vertex)) for vertex in view.ids.tolist()),
            dtype=bool,
            count=view.n,
        )
    prefix = system.prefix
    if view.nnz:
        mask = (view.entry_j < prefix) & elected[view.nbr_pos]
        sel = np.flatnonzero(mask)
        pc_val = view.nbr_pos[sel]
        counts = np.bincount(view.entry_src[sel], minlength=view.n)
    else:
        pc_val = np.zeros(0, dtype=np.int64)
        counts = np.zeros(view.n, dtype=np.int64)
    pc_indptr = np.zeros(view.n + 1, dtype=np.int64)
    np.cumsum(counts, out=pc_indptr[1:])
    return PrefixTables(elected, pc_indptr, pc_val)


#: Most (entry, center) elements one slab of a scan-table build expands at
#: once.  A slab holds whole rows, so a row with more elements is built alone.
SLAB_ELEMENTS = 1 << 14

def build_scan_tables(
    np, view, tables: PrefixTables, block: Optional[int], rows=None, into=None
) -> ScanTables:
    """Build kept/steps/adjacency for the scan rows ``rows``, slab by slab.

    ``rows`` holds sorted row positions (every row when ``None``), and the
    outcomes are written into ``into`` (new zeroed tables over every entry
    when ``None``), which is returned.  :func:`_slabs` cuts the rows into
    slabs, and each slab is built by :func:`_build_slab`, so the build's
    peak memory is that of one slab.  The first build, the flush of stale
    rows and a scan's rebuild of the one stale row it reads all come here.
    """
    if into is None:
        into = ScanTables(
            np.zeros(view.nnz, dtype=bool),
            np.zeros(view.nnz, dtype=np.int64),
            np.zeros(view.nnz, dtype=np.int64),
        )
    for part in _slabs(np, view, tables, rows):
        into.kept[part], into.steps[part], into.adj[part] = _build_slab(
            np, view, tables, block, part
        )
    return into


def _slabs(np, view, tables: PrefixTables, rows):
    """The entries of ``rows`` in runs of whole rows, one run per slab.

    A run's (entry, center) element count fits :data:`SLAB_ELEMENTS` unless
    it is a single row: a row is never split, because first covers group
    elements by source row.  Runs are slices when ``rows`` is ``None`` and
    sorted entry indices otherwise.  One row goes straight through without
    the sizing pass.
    """
    if rows is None:
        entries, bounds = None, view.indptr
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 1:
            row = int(rows[0])
            yield slice(int(view.indptr[row]), int(view.indptr[row + 1]))
            return
        entries = row_entries(np, view, rows)
        bounds = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(view.deg[rows], out=bounds[1:])
    at_row = _elements_before(np, view, tables, entries, bounds)
    start, count = 0, len(bounds) - 1
    while start < count:
        limit = at_row[start] + SLAB_ELEMENTS
        stop = max(int(np.searchsorted(at_row, limit, side="right")) - 1, start + 1)
        lo, hi = int(bounds[start]), int(bounds[stop])
        yield slice(lo, hi) if entries is None else entries[lo:hi]
        start = stop


def _elements_before(np, view, tables: PrefixTables, entries, bounds):
    """The sizing pass: the element count before each row boundary.

    ``entries`` (all entries when ``None``) are the rows' entries in order,
    and ``bounds`` the offsets of the row boundaries among them.  It is a
    function of its own so that its per-entry temporaries are freed before
    the first slab is built: a generator's locals live until it ends.
    """
    nbr_pos = view.nbr_pos if entries is None else view.nbr_pos[entries]
    elements = np.zeros(len(nbr_pos) + 1, dtype=np.int64)
    np.cumsum(np.diff(tables.pc_indptr)[nbr_pos], out=elements[1:])
    return elements[bounds]


def _build_slab(np, view, tables: PrefixTables, block, part):
    """Kept/steps/adjacency of the whole rows whose entries are ``part``.

    ``part`` (a slice or sorted entry indices) covers whole rows, and every
    grouping below is keyed by source row, so a slab is exact on its own.
    Returns the three arrays, aligned with ``part``.
    """
    nbr_pos = view.nbr_pos[part]
    entry_src = view.entry_src[part]
    entry_j = view.entry_j[part]
    nnz = len(nbr_pos)
    kept = np.zeros(nnz, dtype=bool)
    steps = np.zeros(nnz, dtype=np.int64)
    adj = np.zeros(nnz, dtype=np.int64)
    if not nnz:
        return kept, steps, adj
    # One "element" per (entry e, center s ∈ S(x_e)) pair, laid out entry-major.
    sizes = tables.pc_indptr[nbr_pos + 1] - tables.pc_indptr[nbr_pos]
    offsets = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    if not total:
        return kept, steps, adj
    eid = np.repeat(np.arange(nnz, dtype=np.int64), sizes)
    inner = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], sizes)
    cpos = tables.pc_val[tables.pc_indptr[nbr_pos[eid]] + inner]
    src = entry_src[eid]
    j_el = entry_j[eid]
    # Group elements sharing (src, [block,] s): the group's minimum j is the
    # first cover.  lexsort is stable, elements were built in entry (hence j)
    # order, so the head of each group carries the minimum j.
    if block is None:
        order = np.lexsort((cpos, src))
        k1, k2 = src[order], cpos[order]
        head = np.empty(total, dtype=bool)
        head[0] = True
        head[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
    else:
        blk = j_el // block
        order = np.lexsort((cpos, blk, src))
        k1, k2, k3 = src[order], blk[order], cpos[order]
        head = np.empty(total, dtype=bool)
        head[0] = True
        head[1:] = (
            (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1]) | (k3[1:] != k3[:-1])
        )
    head_idx = np.maximum.accumulate(
        np.where(head, np.arange(total, dtype=np.int64), 0)
    )
    fc_sorted = j_el[order][head_idx]
    fc = np.empty(total, dtype=np.int64)
    fc[order] = fc_sorted
    start_el = (
        np.zeros(total, dtype=np.int64) if block is None else (j_el // block) * block
    )
    # Aggregate per entry; reduceat only over entries with S(x) nonempty.
    nonempty = sizes > 0
    off_ne = offsets[:-1][nonempty]
    uncovered = fc == j_el
    any_unc = np.logical_or.reduceat(uncovered, off_ne)
    max_fc = np.maximum.reduceat(fc, off_ne)
    scan_end_ne = np.where(any_unc, entry_j[nonempty], max_fc + 1)
    scan_end = np.zeros(nnz, dtype=np.int64)
    scan_end[nonempty] = scan_end_ne
    contrib = np.minimum(fc + 1, scan_end[eid]) - start_el
    adj[nonempty] = np.add.reduceat(contrib, off_ne)
    start_ne = (
        np.zeros(len(off_ne), dtype=np.int64)
        if block is None
        else (entry_j[nonempty] // block) * block
    )
    steps[nonempty] = scan_end_ne - start_ne
    kept[nonempty] = any_unc
    return kept, steps, adj


def row_entries(np, view, rows):
    """Entry indices of the rows at positions ``rows`` (sorted), row by row."""
    lengths = view.deg[rows]
    starts = view.indptr[rows] - (np.cumsum(lengths) - lengths)
    return np.repeat(starts, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def patch_tables(np, old_view, view, system, prefix: PrefixTables, scans, touched):
    """Carry one center system's tables from ``old_view`` to ``view``.

    ``touched`` holds the sorted positions of every row a write changed in
    between, and ``scans`` maps each block variant to its scan tables.  The
    prefix rows are rebuilt from ``view`` on the old election bitmap.  A scan
    entry ``w → x`` reads S(x) and the S of w's earlier neighbors, and S(y)
    depends on y's row alone, so only touched rows and the rows listing a
    touched vertex whose S changed are dirty.  Every row is re-laid out for
    the new ``indptr`` and the dirty rows are marked stale; no scan row is
    built here.  Returns the new prefix tables and the new
    ``{block: ScanTables}``.
    """
    fresh = build_prefix_tables(np, view, system, elected=prefix.elected)
    dirty = np.zeros(view.n, dtype=bool)
    dirty[touched] = True
    moved = [
        x for x in touched.tolist()
        if not np.array_equal(
            prefix.pc_val[prefix.pc_indptr[x] : prefix.pc_indptr[x + 1]],
            fresh.pc_val[fresh.pc_indptr[x] : fresh.pc_indptr[x + 1]],
        )
    ]
    if moved:
        listed = row_entries(np, view, np.array(moved, dtype=np.int64))
        dirty[view.nbr_pos[listed]] = True
    patched = {}
    for block, old in scans.items():
        arrays = [
            copy_rows(np, getattr(old, name), old_view.indptr, view.indptr, touched)
            for name in ("kept", "steps", "adj")
        ]
        stale = dirty.copy() if old.stale is None else dirty | old.stale
        patched[block] = ScanTables(*arrays, stale=stale)
    return fresh, patched


def scan_profile(kernel, oracle, system, w, x, index, block):
    """Answer one ``_new_cluster_scan_fast`` call from the precomputed tables.

    Charges the exact scalar schedule (degree 1 + neighbor ``scanned + steps``
    + adjacency ``adj``) inside a ``"neighbor-scan"`` profiler frame and
    registers the scalar path's read set with the memo tracker.  Returns the
    kept verdict, or ``None`` when the view is unavailable (scalar fallback).
    """
    store = kernel.store(oracle.graph)
    view = store.view
    if view is None:
        return None
    pw = view.pos.get(w)
    px = view.pos.get(x)
    if pw is None or px is None:
        return None
    tables = store.scan_tables(system, block, pw)
    entry = int(view.indptr[pw]) + int(index)
    kept = bool(tables.kept[entry])
    steps = int(tables.steps[entry])
    adj = int(tables.adj[entry])
    scanned = min(int(view.deg[px]), system.prefix)
    profiler = oracle.profiler
    if profiler is not None:
        frame = profiler.begin_phase("neighbor-scan", oracle.counter)
        oracle.charge(degree=1, neighbor=scanned + steps, adjacency=adj)
        profiler.end_phase(frame)
    else:
        oracle.charge(degree=1, neighbor=scanned + steps, adjacency=adj)
    cache = oracle.cache
    if cache.tracking:
        touched = [int(x)]
        if kept or steps > 0:
            # The scalar scan reads w's row exactly when S(x) is nonempty.
            start = 0 if block is None else (int(index) // block) * block
            lo = int(view.indptr[pw])
            touched.append(int(w))
            touched.extend(view.nbr_id[lo + start : lo + start + steps].tolist())
        cache.note_read(touched)
    return kept


#: Most CSR entries one slice of :func:`materialize_batched` evaluates at
#: once (about half of them are forward entries, one per edge).
SLICE_ENTRIES = 1 << 14


class EdgeCharges(NamedTuple):
    """spanner3's verdict and probe charges per edge, for a set of edges.

    Every array is aligned with the forward entries evaluated.  ``degree``,
    ``neighbor`` and ``adjacency`` are each edge's cold charges by probe
    kind.  Part of them is made inside ``"neighbor-scan"`` frames: one
    degree probe per scan call (``scan_calls``), every neighbor probe, and
    ``scan_adjacency`` adjacency probes.
    """

    kept: Any
    degree: Any
    neighbor: Any
    adjacency: Any
    scan_calls: Any
    scan_adjacency: Any


def evaluate_edges(np, store, components, e_fwd) -> EdgeCharges:
    """Decide the edges of the forward entries ``e_fwd`` by array arithmetic.

    Evaluates all four components (H_low, center edges, H_high, H_super) of
    ``components`` for every edge, replicating the scalar short-circuit
    order, so each edge's charges by kind and by phase equal the scalar
    path's.  The tables come from ``store`` (stale rows are flushed first).
    """
    low, _, high, super_block = components
    view = store.view
    i8 = np.int64
    params = high.params
    t_low = low.threshold
    block = super_block.threshold
    hi_sys = high.centers
    su_sys = super_block.centers
    hi_pt = store.prefix_tables(hi_sys)
    su_pt = store.prefix_tables(su_sys)
    hi_scan = store.scan_tables(hi_sys, None)
    su_scan = store.scan_tables(su_sys, block)

    e_rev = view.rev_entry[e_fwd]
    up = view.entry_src[e_fwd]
    vp = view.nbr_pos[e_fwd]
    du = view.deg[up]
    dv = view.deg[vp]
    jf = view.entry_j[e_fwd]
    jr = view.entry_j[e_rev]

    # H_low: degree(u); degree(v) only when u is not low.
    low_u = du <= t_low
    c1 = low_u | (dv <= t_low)
    deg_c1 = 1 + (~low_u).astype(i8)

    # Center edges: four in_cluster_of probes with scalar short-circuiting.
    act2 = ~c1
    p_hi = hi_sys.prefix
    p_su = su_sys.prefix
    a1 = hi_pt.elected[vp]
    r1 = a1 & (jf < p_hi)
    a2 = hi_pt.elected[up]
    r2 = a2 & (jr < p_hi)
    a3 = su_pt.elected[vp]
    r3 = a3 & (jf < p_su)
    a4 = su_pt.elected[up]
    r4 = a4 & (jr < p_su)
    adj_c2 = a1.astype(i8) + (~r1) * (
        a2.astype(i8) + (~r2) * (a3.astype(i8) + (~r3) * a4.astype(i8))
    )
    c2 = r1 | r2 | r3 | r4

    # H_high: gate on is_high_degree(w), then the closed-form scan.
    act3 = act2 & ~c2
    gh_u = (du > params.low_threshold) & (du <= params.super_threshold)
    gh_v = (dv > params.low_threshold) & (dv <= params.super_threshold)
    ghu = gh_u.astype(i8)
    ghv = gh_v.astype(i8)
    hi_adj_f = hi_scan.adj[e_fwd]
    hi_adj_r = hi_scan.adj[e_rev]
    d1 = gh_u & hi_scan.kept[e_fwd]
    n1 = (~d1).astype(i8)
    c3 = d1 | (gh_v & hi_scan.kept[e_rev])
    c3_deg = (1 + ghu) + n1 * (1 + ghv)
    c3_nei = ghu * (np.minimum(dv, p_hi) + hi_scan.steps[e_fwd]) + n1 * ghv * (
        np.minimum(du, p_hi) + hi_scan.steps[e_rev]
    )
    c3_adj = ghu * (1 + hi_adj_f) + n1 * ghv * (1 + hi_adj_r)

    # H_super: ungated adjacency + block scan in both directions.
    act4 = act3 & ~c3
    su_adj_f = su_scan.adj[e_fwd]
    su_adj_r = su_scan.adj[e_rev]
    s1 = su_scan.kept[e_fwd]
    ns = (~s1).astype(i8)
    c4 = s1 | su_scan.kept[e_rev]
    c4_deg = 1 + ns
    c4_nei = (np.minimum(dv, p_su) + su_scan.steps[e_fwd]) + ns * (
        np.minimum(du, p_su) + su_scan.steps[e_rev]
    )
    c4_adj = (1 + su_adj_f) + ns * (1 + su_adj_r)

    a2m = act2.astype(i8)
    a3m = act3.astype(i8)
    a4m = act4.astype(i8)
    # Phase attribution: every scan invocation runs inside a "neighbor-scan"
    # frame; its in-frame charges are degree 1, the full neighbor cost, and
    # the scan's adjacency probes (the index probe stays outside).
    inv1 = act3 & gh_u
    inv2 = act3 & ~d1 & gh_v
    inv3 = act4
    inv4 = act4 & ~s1
    return EdgeCharges(
        kept=c1 | (act2 & c2) | (act3 & c3) | (act4 & c4),
        degree=deg_c1 + a3m * c3_deg + a4m * c4_deg,
        neighbor=a3m * c3_nei + a4m * c4_nei,
        adjacency=a2m * adj_c2 + a3m * c3_adj + a4m * c4_adj,
        scan_calls=(
            inv1.astype(i8) + inv2.astype(i8) + inv3.astype(i8) + inv4.astype(i8)
        ),
        scan_adjacency=(
            inv1 * hi_adj_f + inv2 * hi_adj_r + inv3 * su_adj_f + inv4 * su_adj_r
        ),
    )


def materialize_batched(lca, oracle, kernel, result) -> bool:
    """Array-at-once batched materializer for the full spanner3 edge set.

    Decides every edge of the graph by :func:`evaluate_edges`, one slice of
    :data:`SLICE_ENTRIES` CSR entries at a time, so the peak memory beyond
    the tables is that of one slice.  Per-query probe totals, per-kind
    counts and the ``"neighbor-scan"`` phase attribution are bit-identical
    to the scalar path.  Returns ``True`` when handled; ``False`` falls back
    to the scalar engine.
    """
    from ..spanner3.components import (
        CenterEdgeComponent,
        HighDegreeComponent,
        LowDegreeComponent,
        SuperBlockComponent,
    )

    components = getattr(lca, "components", None)
    if not components or len(components) != 4:
        return False
    low, center_edges, high, super_block = components
    if not (
        isinstance(low, LowDegreeComponent)
        and isinstance(center_edges, CenterEdgeComponent)
        and isinstance(high, HighDegreeComponent)
        and isinstance(super_block, SuperBlockComponent)
    ):
        return False
    if not (
        len(center_edges.systems) == 2
        and center_edges.systems[0] is high.centers
        and center_edges.systems[1] is super_block.centers
    ):
        return False
    store = kernel.store(oracle.graph)
    view = store.view
    if view is None:
        return False
    if not view.nnz:
        return True
    np = kernel.np
    degree = neighbor = adjacency = calls = phase_adj = 0
    for lo in range(0, view.nnz, SLICE_ENTRIES):
        hi = min(lo + SLICE_ENTRIES, view.nnz)
        forward = view.ids[view.entry_src[lo:hi]] < view.nbr_id[lo:hi]
        e_fwd = lo + np.flatnonzero(forward)
        if not len(e_fwd):
            continue
        edges = evaluate_edges(np, store, components, e_fwd)
        degree += int(edges.degree.sum())
        neighbor += int(edges.neighbor.sum())
        adjacency += int(edges.adjacency.sum())
        calls += int(edges.scan_calls.sum())
        phase_adj += int(edges.scan_adjacency.sum())
        totals = (edges.degree + edges.neighbor + edges.adjacency).tolist()
        result.probe_stats.query_totals.extend(totals)
        lca.probe_stats.query_totals.extend(totals)
        kept = e_fwd[edges.kept]
        kept_u = view.ids[view.entry_src[kept]].tolist()
        result.edges.update(zip(kept_u, view.nbr_id[kept].tolist()))
    profiler = oracle.profiler
    if profiler is not None and calls:
        oracle.charge(degree=degree - calls, adjacency=adjacency - phase_adj)
        frame = profiler.begin_phase("neighbor-scan", oracle.counter, calls=calls)
        oracle.charge(degree=calls, neighbor=neighbor, adjacency=phase_adj)
        profiler.end_phase(frame)
    else:
        oracle.charge(degree=degree, neighbor=neighbor, adjacency=adjacency)
    return True
