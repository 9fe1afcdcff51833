"""The numpy kernel engine: one table store per graph plus the spanner3 kernels.

A :class:`NumpyKernel` is created per LCA (by
:func:`repro.kernels.resolve_kernel`) and attached to that LCA's cached
oracle as ``oracle.kernel``.  The spanner3 scan call sites branch on the
attribute: when a kernel is present *and* can build a view of the current
graph epoch, the vectorized path answers with the exact scalar probe
schedule; otherwise the scalar loop runs unchanged.  No other construction
reads the attribute.

The state the kernels read lives in one :class:`TableStore` per graph, held
in a weak-keyed map so it dies with the graph: the epoch's
:class:`~repro.kernels.view.CSRView` plus the spanner3 prefix and scan
tables.  An answer is a pure function of (graph, seed, query), so every LCA
on the graph — every shard and replica — reads the same store, and tables are
keyed by the center system's value key rather than its identity.  When a
write moves the epoch, the store patches its one view
(:func:`~repro.kernels.view.patch_view`) and its tables
(:func:`repro.kernels.spanner3.patch_tables`) in place for the rows it
changed: each per-entry array moves its unchanged rows inside its own
buffer, so a write allocates no per-entry array unless an add outgrows a
buffer.  Nothing else is built: a scan row the write may have changed is
marked stale and rebuilt the first time a scan reads it (a batch of scans
rebuilds the stale rows it reads in one call), and a whole-graph read
flushes every stale row in one call.
"""

from __future__ import annotations

import weakref
from typing import Optional

from . import spanner3 as _spanner3
from .view import build_view, patch_view

#: graph -> its :class:`TableStore`; an entry dies with its graph.
_STORES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class TableStore:
    """One graph's view and spanner3 tables at the latest epoch a kernel read.

    ``prefix`` maps a center system's value key to ``(system, PrefixTables)``
    and ``scan`` maps ``(key, block)`` to :class:`~repro.kernels.spanner3.ScanTables`.
    """

    __slots__ = ("np", "epoch", "view", "prefix", "scan", "_id_order")

    def __init__(self, np_module, graph) -> None:
        self.np = np_module
        self.epoch = graph.epoch
        self.view = build_view(np_module, graph)
        self.prefix = {}
        self.scan = {}
        self._id_order = None

    def id_order(self):
        """``(rank, ascending)``: each position's rank among the vertex ids,
        and the ids in ascending order.

        Built on first use; the vertex set never changes, so both outlive
        every write.
        """
        if self._id_order is None:
            np = self.np
            ids = self.view.ids
            order = np.argsort(ids, kind="stable")
            rank = np.empty(len(ids), dtype=np.int64)
            rank[order] = np.arange(len(ids), dtype=np.int64)
            self._id_order = (rank, ids[order])
        return self._id_order

    def prefix_tables(self, system) -> "_spanner3.PrefixTables":
        """Election bitmap + prefix-center rows for ``system``."""
        entry = self.prefix.get(system.key)
        if entry is None:
            entry = (system, _spanner3.build_prefix_tables(self.np, self.view, system))
            self.prefix[system.key] = entry
        return entry[1]

    def scan_tables(self, system, block: Optional[int], rows=None) -> "_spanner3.ScanTables":
        """Closed-form scan outcomes for ``system`` (per block variant).

        Stale rows are rebuilt first, in place, in one call: those among
        ``rows`` when given (the one row position a scan reads, or an array
        of the positions a batch of scans reads), otherwise every stale row.
        """
        key = (system.key, block)
        tables = self.scan.get(key)
        if tables is None:
            prefix = self.prefix_tables(system)
            tables = _spanner3.build_scan_tables(self.np, self.view, prefix, block)
            self.scan[key] = tables
            return tables
        stale = tables.stale
        if stale is None:
            return tables
        if rows is None:
            rows, tables.stale = self.np.flatnonzero(stale), None
        elif isinstance(rows, int):
            if not stale[rows]:
                return tables
            rows, stale[rows] = [rows], False
        else:
            rows = self.np.unique(rows[stale[rows]])
            if not len(rows):
                return tables
            stale[rows] = False
        _spanner3.build_scan_tables(
            self.np, self.view, self.prefix_tables(system), block, rows, tables
        )
        return tables

    def advance(self, graph) -> None:
        """Move to ``graph``'s current epoch, patching the view and tables in place."""
        np = self.np
        view = self.view
        ends = {x for edge in graph.mutations_since(self.epoch) for x in edge}
        self.epoch = graph.epoch
        if view is None:
            return
        touched = np.array(sorted(view.pos[x] for x in ends), dtype=np.int64)
        old_indptr = view.indptr
        patch_view(np, view, graph, touched)
        for key, (system, tables) in self.prefix.items():
            scans = [each for (k, _), each in self.scan.items() if k == key]
            _spanner3.patch_tables(np, view, old_indptr, system, tables, scans, touched)


class NumpyKernel:
    """Vectorized probe kernels bound to one LCA.

    The kernel owns no tables: it keeps a one-slot ``(graph, epoch, store)``
    pointer to the graph's shared :class:`TableStore`, so the per-scan lookup
    is an identity and epoch check.
    """

    name = "numpy"

    def __init__(self, np_module) -> None:
        self.np = np_module
        self._slot = None

    def store(self, graph) -> TableStore:
        """The table store of ``graph``, advanced to its current epoch."""
        slot = self._slot
        epoch = graph.epoch
        if slot is not None and slot[0] is graph and slot[1] == epoch:
            return slot[2]
        store = _STORES.get(graph)
        if store is None:
            store = _STORES[graph] = TableStore(self.np, graph)
        elif store.epoch != epoch:
            store.advance(graph)
        self._slot = (graph, epoch, store)
        return store

    # ------------------------------------------------------------------ #
    # spanner3 scan kernels
    # ------------------------------------------------------------------ #
    def scan_profile(self, oracle, system, w, x, index, block):
        """One ``_new_cluster_scan_fast`` answer from the precomputed tables."""
        return _spanner3.scan_profile(self, oracle, system, w, x, index, block)

    def materialize_spanner3(self, lca, oracle, result) -> bool:
        """Whole-graph batched spanner3 materialization (True when handled)."""
        return _spanner3.materialize_batched(lca, oracle, self, result)

    def spanner3_decider(self, lca, oracle, misses):
        """A function deciding a spanner3 ``query_batch`` call's misses
        together, or ``None`` to decide them one at a time."""
        return _spanner3.query_decider(self, lca, oracle, misses)
