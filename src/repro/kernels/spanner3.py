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
time for the same reason.  :func:`evaluate_edges` is the one array
evaluator: the materializer runs it over every edge, and ``query_batch``
over a call's distinct answer-memo misses once :data:`CROSSOVER_MISSES` of
them reach the center-edge rule (:func:`query_decider`), with each
answer's exact read set for the memo's dependency ids; it asks for no table
that none of its edges reads.  After a write, :func:`patch_tables` carries
the tables to the new epoch in place: it re-derives the touched vertices'
prefix rows, moves every scan row the write cannot have changed and marks
the others stale.  A stale row is rebuilt the first time a read needs it,
through the same :func:`build_scan_tables` that builds whole tables, so no
stale entry is ever read.

Derivation (matching ``_new_cluster_scan_fast``): for every element ``s`` of
the prefix-center set S(x), its *first cover* ``fc`` is the smallest row
offset ``j`` in the scan group (whole row for H_high, the block of ``e`` for
H_super) with ``s ∈ S(row_w[j])``.  The scalar loop stops at
``E = index`` when some ``s`` stays uncovered (``fc == index``), else at
``E = max(fc) + 1``; it performs ``E - start`` row steps and
``Σ_s (min(fc+1, E) - start)`` adjacency probes, and keeps the edge iff some
element stayed uncovered (or the window was empty with S(x) nonempty).

A slab (:func:`_build_slab`) expands each of its entries ``e`` into one
element per ``s ∈ S(x_e)`` and finds every first cover with one stable sort
of the elements by the rank of ``s`` among the system's centers
(``PrefixTables.rank``): the element leading each run of one rank and one
scan window sits at that window's first cover of ``s``.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import islice
from typing import Any, NamedTuple, Optional

from ..core.probes import ProbeSnapshot
from ..spanner3.components import (
    CenterEdgeComponent,
    HighDegreeComponent,
    LowDegreeComponent,
    SuperBlockComponent,
)
from .view import move_rows


class PrefixTables:
    """Election bitmap, center ranks and prefix-center rows for one center
    system, at the epoch of the store that holds them (a write patches the
    rows in place, :func:`patch_tables`).

    ``rank`` holds each elected position's index among the elected
    positions, in the narrowest unsigned dtype that fits, so a scan-table
    slab groups its elements by one radix sort (:func:`_build_slab`).
    """

    __slots__ = ("elected", "rank", "pc_indptr", "pc_val")

    def __init__(self, elected, rank, pc_indptr, pc_val):
        self.elected = elected
        self.rank = rank
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


def build_prefix_tables(np, view, system) -> PrefixTables:
    """Evaluate the (pure, probe-free) center election over a whole view."""
    elected = np.fromiter(
        (bool(system.sampler.is_center(vertex)) for vertex in view.ids.tolist()),
        dtype=bool,
        count=view.n,
    )
    count = int(elected.sum())
    rank = np.zeros(view.n, dtype=np.min_scalar_type(max(count - 1, 0)))
    rank[elected] = np.arange(count, dtype=rank.dtype)
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
    return PrefixTables(elected, rank, pc_indptr, pc_val)


#: Most (entry, center) elements one slab of a scan-table build expands at
#: once.  A slab holds whole rows, so a row with more elements is built alone.
#: On G_dense (gnp 1000, p 0.18; 2 vCPUs) both tables built fastest at 2^14
#: and 2^15 (medians 0.25 and 0.27 s over 7 interleaved sweeps) and about
#: 1.5× slower at 2^12 and 2^16.
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
    grouping below is keyed by a window of one row, so a slab is exact on
    its own.  Returns the three arrays, aligned with ``part``.

    The elements of one scan window and center form one group, whose
    minimum row offset is the center's first cover.  They come entry-major
    over whole rows in increasing entry order, so one stable sort on the
    center's rank leaves each rank's elements in (window, offset) order: a
    group is a run of equal rank and window, and the element leading it
    sits at the first cover.  Ranks are as narrow as the center count
    allows (16 bits up to 65,536 centers), and numpy sorts such keys by a
    radix sort.
    """
    nbr_pos = view.nbr_pos[part]
    entry_j = view.entry_j[part]
    nnz = len(nbr_pos)
    kept = np.zeros(nnz, dtype=bool)
    steps = np.zeros(nnz, dtype=np.int64)
    adj = np.zeros(nnz, dtype=np.int64)
    if not nnz:
        return kept, steps, adj
    # One "element" per (entry e, center s ∈ S(x_e)) pair, laid out entry-major.
    first = tables.pc_indptr[nbr_pos]
    sizes = tables.pc_indptr[nbr_pos + 1] - first
    offsets = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    if not total:
        return kept, steps, adj
    eid = np.repeat(np.arange(nnz, dtype=np.int64), sizes)
    at = np.arange(total, dtype=np.int64) + (first - offsets[:-1])[eid]
    rank = tables.rank[tables.pc_val[at]]
    # A window is named by its first entry's index in the slab: the row's
    # (H_high) or the block's (H_super).
    start = np.zeros(nnz, dtype=np.int64) if block is None else (entry_j // block) * block
    window = (np.arange(nnz, dtype=np.int64) - (entry_j - start))[eid]
    order = np.argsort(rank, kind="stable")
    by_rank, by_window = rank[order], window[order]
    head = np.empty(total, dtype=bool)
    head[0] = True
    head[1:] = (by_rank[1:] != by_rank[:-1]) | (by_window[1:] != by_window[:-1])
    heads = np.flatnonzero(head)
    leaders = order[heads]
    fc = np.empty(total, dtype=np.int64)
    fc[order] = np.repeat(entry_j[eid[leaders]], np.diff(heads, append=total))
    # An element is uncovered (fc == its own offset) iff it leads its group.
    uncovered = np.zeros(total, dtype=bool)
    uncovered[leaders] = True
    # Aggregate per entry; reduceat only over entries with S(x) nonempty.
    nonempty = sizes > 0
    off_ne = offsets[:-1][nonempty]
    any_unc = np.logical_or.reduceat(uncovered, off_ne)
    max_fc = np.maximum.reduceat(fc, off_ne)
    scan_end_ne = np.where(any_unc, entry_j[nonempty], max_fc + 1)
    scan_end = np.zeros(nnz, dtype=np.int64)
    scan_end[nonempty] = scan_end_ne
    start_ne = start[nonempty]
    reach = np.add.reduceat(np.minimum(fc + 1, scan_end[eid]), off_ne)
    adj[nonempty] = reach - start_ne * sizes[nonempty]
    steps[nonempty] = scan_end_ne - start_ne
    kept[nonempty] = any_unc
    return kept, steps, adj


def row_entries(np, view, rows):
    """Entry indices of the rows at positions ``rows`` (sorted), row by row."""
    lengths = view.deg[rows]
    starts = view.indptr[rows] - (np.cumsum(lengths) - lengths)
    return np.repeat(starts, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def patch_tables(np, view, old_indptr, system, prefix: PrefixTables, scans, touched):
    """Carry one center system's tables to ``view``'s epoch, in place.

    ``view`` was just patched from the row offsets ``old_indptr``,
    ``touched`` holds the sorted positions of every row that changed, and
    ``scans`` lists the system's scan tables.  S(x) depends on x's row
    alone, so only the touched vertices' prefix rows are re-derived, on the
    election bitmap (which depends on the vertex ids alone), and spliced
    into ``pc_val``.  A scan entry ``w → x`` reads S(x) and the S of w's
    earlier neighbors, so only touched rows and the rows listing a touched
    vertex whose S changed are dirty.  ``pc_val`` and every scan table's
    ``kept``/``steps``/``adj`` move their unchanged rows by
    :func:`~repro.kernels.view.move_rows`; the touched scan rows are left
    zero, and every dirty row is marked stale.  No scan row is built here.
    """
    elected = prefix.elected
    rows = []
    for x in touched.tolist():
        lo = int(view.indptr[x])
        head = view.nbr_pos[lo : lo + min(int(view.deg[x]), system.prefix)]
        rows.append(head[elected[head]])
    old = prefix.pc_indptr
    moved = [
        x for x, row in zip(touched.tolist(), rows)
        if not np.array_equal(prefix.pc_val[old[x] : old[x + 1]], row)
    ]
    counts = np.diff(old)
    counts[touched] = [len(row) for row in rows]
    pc_indptr = np.zeros(view.n + 1, dtype=np.int64)
    np.cumsum(counts, out=pc_indptr[1:])
    prefix.pc_val = move_rows(np, prefix.pc_val, old, pc_indptr, touched)
    for x, row in zip(touched.tolist(), rows):
        prefix.pc_val[pc_indptr[x] : pc_indptr[x + 1]] = row
    prefix.pc_indptr = pc_indptr
    dirty = np.zeros(view.n, dtype=bool)
    dirty[touched] = True
    if moved:
        listed = row_entries(np, view, np.array(moved, dtype=np.int64))
        dirty[view.nbr_pos[listed]] = True
    for tables in scans:
        for name in ("kept", "steps", "adj"):
            setattr(tables, name, move_rows(
                np, getattr(tables, name), old_indptr, view.indptr, touched
            ))
        if tables.stale is None:
            tables.stale = dirty.copy()
        else:
            tables.stale |= dirty


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

#: Fewest distinct answer-memo misses reaching the center-edge rule (both
#: endpoints above H_low's threshold) a ``query_batch`` call needs before
#: its misses are decided together by :func:`decide_queries`; a call with
#: fewer decides each miss by the scalar ``_decide``.  A miss H_low decides
#: costs the scalar path two degree reads, so it does not count, and a call
#: of such misses builds no view.  The array path costs about 220-300 µs a
#: call however few edges it decides, the scalar path 45-85 µs a miss.
#: Timed in interleaved pairs on first-touch calls, they broke even at
#: about 4 misses on G_dense (gnp 1000, p 0.18) and 6 on G_churn (gnp 400,
#: p 0.22).  Misses decided together leave the per-vertex election memo
#: cold for later per-query misses: at 8, the 4-shard zipf and churn
#: services lost 5.5% and 4.1% of their throughput (10 pairs).  At 12 the
#: array path still wins 2.04× and 1.66×, and the service's shard calls,
#: about 8 requests each, are decided one at a time.
CROSSOVER_MISSES = 12

#: Most misses one :func:`evaluate_edges` call of :func:`decide_queries`
#: decides, so a call over a whole edge set expands its read sets a slice
#: at a time.
QUERY_SLICE = 1 << 10


class EdgeCharges(NamedTuple):
    """spanner3's verdict and probe charges per edge, for a set of edges.

    Every array is aligned with the forward entries evaluated.  ``degree``,
    ``neighbor`` and ``adjacency`` are each edge's cold charges by probe
    kind.  Part of them is made inside ``"neighbor-scan"`` frames: one
    degree probe per scan call (``scan_calls``), every neighbor probe, and
    ``scan_adjacency`` adjacency probes.  ``reads``, when asked for, holds
    each edge's read set as ``(ids, bounds)``: edge ``i`` read the sorted
    distinct vertex ids ``ids[bounds[i]:bounds[i + 1]]``.
    """

    kept: Any
    degree: Any
    neighbor: Any
    adjacency: Any
    scan_calls: Any
    scan_adjacency: Any
    reads: Any = None


def plain_components(lca):
    """The four components of a plain spanner3 LCA, or ``None``.

    :func:`evaluate_edges` replicates the scalar decision of exactly four
    components in this order: H_low, the center edges of two center
    systems, H_high on the first system and H_super on the second.  Both
    array paths (``materialize`` and ``query_batch``) run only on an LCA
    whose components are those.
    """
    components = getattr(lca, "components", None)
    if not components or len(components) != 4:
        return None
    low, center_edges, high, super_block = components
    if not (
        isinstance(low, LowDegreeComponent)
        and isinstance(center_edges, CenterEdgeComponent)
        and isinstance(high, HighDegreeComponent)
        and isinstance(super_block, SuperBlockComponent)
        and len(center_edges.systems) == 2
        and center_edges.systems[0] is high.centers
        and center_edges.systems[1] is super_block.centers
    ):
        return None
    return components


def evaluate_edges(np, store, components, e_fwd, e_rev, reads=False) -> EdgeCharges:
    """Decide the edges of the forward entries ``e_fwd`` by array arithmetic.

    ``e_rev`` holds each edge's reverse entry.  Evaluates all four
    components (H_low, center edges, H_high, H_super) of ``components`` for
    every edge, replicating the scalar short-circuit order, so each edge's
    charges by kind and by phase equal the scalar path's.  The tables come
    from ``store``, and only those some edge reads: the prefix tables when
    an edge reaches the center-edge rule, a scan table when an edge invokes
    its scan (:func:`_scans`).  With ``reads`` the result carries each
    edge's read set (:func:`_read_sets`).
    """
    low, _, high, super_block = components
    view = store.view
    i8 = np.int64
    params = high.params
    t_low = low.threshold
    block = super_block.threshold
    hi_sys = high.centers
    su_sys = super_block.centers

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
    adj_c2 = np.zeros(len(e_fwd), dtype=i8)
    c2 = np.zeros(len(e_fwd), dtype=bool)
    if act2.any():
        hi_pt = store.prefix_tables(hi_sys)
        su_pt = store.prefix_tables(su_sys)
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
    inv1 = act3 & gh_u
    d1, inv2, hi_kept_r, hi_steps_f, hi_steps_r, hi_adj_f, hi_adj_r = _scans(
        np, store, hi_sys, None, inv1, act3 & gh_v, up, vp, e_fwd, e_rev
    )
    n1 = (~d1).astype(i8)
    c3 = d1 | hi_kept_r
    c3_deg = (1 + ghu) + n1 * (1 + ghv)
    c3_nei = ghu * (np.minimum(dv, p_hi) + hi_steps_f) + n1 * ghv * (
        np.minimum(du, p_hi) + hi_steps_r
    )
    c3_adj = ghu * (1 + hi_adj_f) + n1 * ghv * (1 + hi_adj_r)

    # H_super: ungated adjacency + block scan in both directions.
    act4 = act3 & ~c3
    s1, inv4, su_kept_r, su_steps_f, su_steps_r, su_adj_f, su_adj_r = _scans(
        np, store, su_sys, block, act4, act4, up, vp, e_fwd, e_rev
    )
    ns = (~s1).astype(i8)
    c4 = s1 | su_kept_r
    c4_deg = 1 + ns
    c4_nei = (np.minimum(dv, p_su) + su_steps_f) + ns * (np.minimum(du, p_su) + su_steps_r)
    c4_adj = (1 + su_adj_f) + ns * (1 + su_adj_r)

    a2m = act2.astype(i8)
    a3m = act3.astype(i8)
    a4m = act4.astype(i8)
    read_sets = None
    if reads:
        # A scan's window starts at its row (H_high) or its block (H_super).
        row_u = view.indptr[up]
        row_v = view.indptr[vp]
        read_sets = _read_sets(np, store, low_u, up, vp, (
            (inv1, row_u, hi_steps_f),
            (inv2, row_v, hi_steps_r),
            (act4, row_u + (jf // block) * block, su_steps_f),
            (inv4, row_v + (jr // block) * block, su_steps_r),
        ))
    # Phase attribution: every scan invocation runs inside a "neighbor-scan"
    # frame; its in-frame charges are degree 1, the full neighbor cost, and
    # the scan's adjacency probes (the index probe stays outside).
    return EdgeCharges(
        kept=c1 | (act2 & c2) | (act3 & c3) | (act4 & c4),
        degree=deg_c1 + a3m * c3_deg + a4m * c4_deg,
        neighbor=a3m * c3_nei + a4m * c4_nei,
        adjacency=a2m * adj_c2 + a3m * c3_adj + a4m * c4_adj,
        scan_calls=(
            inv1.astype(i8) + inv2.astype(i8) + a4m + inv4.astype(i8)
        ),
        scan_adjacency=(
            inv1 * hi_adj_f + inv2 * hi_adj_r + act4 * su_adj_f + inv4 * su_adj_r
        ),
        reads=read_sets,
    )


def _scans(np, store, system, block, first, second, up, vp, e_fwd, e_rev):
    """The outcomes of one rule's scans: from u for the edges ``first``,
    then from v for the edges of ``second`` whose scan from u did not keep
    them.

    Returns ``(kept by u's scan, scanned from v, kept by v's scan)`` as edge
    masks, then the table's ``steps`` and ``adj`` at ``e_fwd`` and at
    ``e_rev``.  Before each direction is read, the stale rows its scans
    read are rebuilt, as a scalar scan rebuilds the one row it reads.  When
    no edge scans, the table is not asked for (so a first request does not
    build it whole) and every outcome is zero.
    """
    if not (first.any() or second.any()):
        none = np.zeros(len(first), dtype=bool)
        zero = np.zeros(len(first), dtype=np.int64)
        return none, none, none, zero, zero, zero, zero
    tables = store.scan_tables(system, block, up[first])
    kept_u = first & tables.kept[e_fwd]
    from_v = second & ~kept_u
    if from_v.any():
        store.scan_tables(system, block, vp[from_v])
    return (
        kept_u,
        from_v,
        from_v & tables.kept[e_rev],
        tables.steps[e_fwd],
        tables.steps[e_rev],
        tables.adj[e_fwd],
        tables.adj[e_rev],
    )


def _read_sets(np, store, low_u, up, vp, windows):
    """Each edge's read set: the vertices the scalar path reads deciding it.

    The scalar path reads u (its degree) and, unless u is low, v.  Each scan
    it invokes reads the scanner and the far endpoint (u and v again) and
    the ``steps`` neighbors of the scanner's row from the window's first
    entry; steps is 0 exactly when the far endpoint has no centers.
    ``windows`` lists the scans as (invoked mask, first entry, steps), each
    aligned with the edges.  Returns ``(ids, bounds)`` as
    :class:`EdgeCharges` documents.  One sort of ``edge · n + rank`` keys
    orders every read set by id at once.
    """
    view = store.view
    i8 = np.int64
    rank, ascending = store.id_order()
    count, n = len(up), view.n
    edge = np.arange(count, dtype=i8)
    # Every window at once: a scan that is not invoked reads no entry.
    length = np.concatenate([steps * invoked for invoked, _, steps in windows])
    first = np.concatenate([start for _, start, _ in windows])
    total = int(length.sum())
    at = np.repeat(first - (np.cumsum(length) - length), length)
    at += np.arange(total, dtype=i8)
    owner = np.repeat(np.tile(edge, len(windows)), length)
    not_low = edge[~low_u]
    keys = np.concatenate((
        edge * n + rank[up],
        not_low * n + rank[vp[not_low]],
        owner * n + rank[view.nbr_pos[at]],
    ))
    keys.sort()
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    bounds = np.searchsorted(keys, np.append(edge, count) * n)
    return ascending[keys % n], bounds


def _sums(edges: EdgeCharges):
    """The charges :func:`_charge` takes, summed over ``edges``."""
    parts = (edges.degree, edges.neighbor, edges.adjacency, edges.scan_calls, edges.scan_adjacency)
    return [int(part.sum()) for part in parts]


def _charge(oracle, degree, neighbor, adjacency, calls, scan_adjacency) -> None:
    """Charge decided edges' probes in bulk with the scalar phase split.

    One ``"neighbor-scan"`` frame stands for the ``calls`` scalar scans and
    holds their charges: a degree probe each, every neighbor probe and the
    ``scan_adjacency`` adjacency probes.  The rest is charged outside it.
    """
    profiler = oracle.profiler
    if profiler is not None and calls:
        oracle.charge(degree=degree - calls, adjacency=adjacency - scan_adjacency)
        frame = profiler.begin_phase("neighbor-scan", oracle.counter, calls=calls)
        oracle.charge(degree=calls, neighbor=neighbor, adjacency=scan_adjacency)
        profiler.end_phase(frame)
    else:
        oracle.charge(degree=degree, neighbor=neighbor, adjacency=adjacency)


def query_decider(kernel, lca, oracle, misses):
    """How ``query_batch`` decides the distinct misses ``misses`` of a call.

    Returns a function that decides them together (:func:`decide_queries`),
    or ``None`` to decide each by the scalar path.  The array path needs a
    plain spanner3 LCA (:func:`plain_components`), at least
    :data:`CROSSOVER_MISSES` misses whose endpoints' degrees (read
    probe-free) both pass H_low's threshold, and a usable view.
    """
    if len(misses) < CROSSOVER_MISSES:
        return None
    components = plain_components(lca)
    if components is None:
        return None
    threshold = components[0].threshold
    degree = oracle.graph.degree
    reaching = (1 for (u, v) in misses if degree(u) > threshold and degree(v) > threshold)
    if sum(islice(reaching, CROSSOVER_MISSES)) < CROSSOVER_MISSES:
        return None
    store = kernel.store(oracle.graph)
    if store.view is None:
        return None
    return partial(decide_queries, kernel.np, store, components, oracle)


def decide_queries(np, store, components, oracle, queries):
    """Decide the distinct edge queries ``queries`` by array arithmetic.

    A query (u, v)'s forward entry is ``indptr[pos[u]]`` plus v's index in
    u's adjacency row, and its reverse entry the same for (v, u), so no
    reverse-entry table is built.  :func:`evaluate_edges` decides them
    :data:`QUERY_SLICE` at a time, and their probes are charged in one go
    with the scalar phase split.  Returns, per query, its answer, its cold
    :class:`~repro.core.probes.ProbeSnapshot` and its read set as sorted ids
    packed in an ``array("q")``, the memo's dependency-set format.
    """
    view = store.view
    pos = view.pos
    index_row = oracle.graph.adjacency_row
    decided = []
    sums = [0] * 5
    for lo in range(0, len(queries), QUERY_SLICE):
        part = queries[lo : lo + QUERY_SLICE]
        places = np.array(
            [(pos[u], index_row(u)[v], pos[v], index_row(v)[u]) for (u, v) in part],
            dtype=np.int64,
        )
        e_fwd = view.indptr[places[:, 0]] + places[:, 1]
        e_rev = view.indptr[places[:, 2]] + places[:, 3]
        edges = evaluate_edges(np, store, components, e_fwd, e_rev, reads=True)
        sums = [total + part for total, part in zip(sums, _sums(edges))]
        ids, bounds = edges.reads
        packed = array("q", ids.tobytes())
        bounds = bounds.tolist()
        decided.extend(
            (answer, ProbeSnapshot(neighbor=n, degree=d, adjacency=a), packed[b:e])
            for answer, n, d, a, b, e in zip(
                edges.kept.tolist(),
                edges.neighbor.tolist(),
                edges.degree.tolist(),
                edges.adjacency.tolist(),
                bounds,
                bounds[1:],
            )
        )
    _charge(oracle, *sums)
    return decided


def materialize_batched(lca, oracle, kernel, result) -> bool:
    """Array-at-once batched materializer for the full spanner3 edge set.

    Decides every edge of the graph by :func:`evaluate_edges`, one slice of
    :data:`SLICE_ENTRIES` CSR entries at a time, so the peak memory beyond
    the tables is that of one slice.  Per-query probe totals, per-kind
    counts and the ``"neighbor-scan"`` phase attribution are bit-identical
    to the scalar path.  Returns ``True`` when handled; ``False`` falls back
    to the scalar engine.
    """
    components = plain_components(lca)
    if components is None:
        return False
    store = kernel.store(oracle.graph)
    view = store.view
    if view is None:
        return False
    if not view.nnz:
        return True
    np = kernel.np
    low, _, high, super_block = components
    # A whole-graph read: flush every stale scan row first, one call a
    # table, for each table whose scan some vertex's degree class reaches.
    # H_high scans run from the high class and H_super scans from any
    # vertex above the low threshold.
    params = high.params
    deg = view.deg
    if ((deg > params.low_threshold) & (deg <= params.super_threshold)).any():
        store.scan_tables(high.centers, None)
    if (deg > low.threshold).any():
        store.scan_tables(super_block.centers, super_block.threshold)
    rev_entry = view.rev_entry
    sums = [0] * 5
    for lo in range(0, view.nnz, SLICE_ENTRIES):
        hi = min(lo + SLICE_ENTRIES, view.nnz)
        forward = view.ids[view.entry_src[lo:hi]] < view.nbr_id[lo:hi]
        e_fwd = lo + np.flatnonzero(forward)
        if not len(e_fwd):
            continue
        edges = evaluate_edges(np, store, components, e_fwd, rev_entry[e_fwd])
        sums = [total + part for total, part in zip(sums, _sums(edges))]
        totals = (edges.degree + edges.neighbor + edges.adjacency).tolist()
        result.probe_stats.query_totals.extend(totals)
        lca.probe_stats.query_totals.extend(totals)
        kept = e_fwd[edges.kept]
        kept_u = view.ids[view.entry_src[kept]].tolist()
        result.edges.update(zip(kept_u, view.nbr_id[kept].tolist()))
    _charge(oracle, *sums)
    return True
