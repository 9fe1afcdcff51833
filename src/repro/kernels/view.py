"""Numpy image of a graph's adjacency at its latest epoch (the kernel substrate).

A :class:`CSRView` holds one graph epoch's adjacency as flat int64 arrays —
exactly the CSR layout, plus the derived per-entry tables the spanner3 scan
kernels index into (entry source, in-row offset, reverse-entry permutation).
The table store owns one view per graph and patches it at every epoch a
kernel reads, so a view is the store's working state, not a snapshot.

A write changes two rows, so :func:`patch_view` carries a view to a later
epoch in place: each per-entry array moves its runs of unchanged rows once,
inside its own buffer (:func:`move_rows`), and only the touched rows are read
from the graph.  A buffer gets spare room only when an add outgrows it.
:func:`build_view` converts the flat arrays at once and patches in the rows
of any pending delta overlay the same way.

Building a view performs **zero probes**: it reads the adjacency structure
directly, the same way :meth:`repro.graphs.graph.Graph.edges` does.  All
probe charging stays in the kernels, which replicate the scalar schedule.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import UnknownVertexError


class CSRView:
    """Numpy adjacency image of a graph at the epoch it was last patched to.

    Vertices are addressed by *position* (row index); ``ids``/``pos`` map
    between positions and vertex ids.  For every CSR entry ``e`` (one
    directed arc), ``entry_src[e]`` is the source position, ``entry_j[e]``
    the offset of ``e`` inside its row, ``nbr_id``/``nbr_pos`` the target.
    ``rev_entry`` (lazy) maps each entry to its reverse arc's entry index.
    :func:`patch_view` rewrites the arrays in place, so a caller reads them
    only while the graph stays at the view's epoch.
    """

    __slots__ = (
        "np",
        "n",
        "nnz",
        "ids",
        "pos",
        "deg",
        "indptr",
        "nbr_id",
        "nbr_pos",
        "entry_src",
        "entry_j",
        "_rev_entry",
    )

    def __init__(self, np_module, ids, pos, deg, indptr, nbr_id, nbr_pos,
                 entry_src, entry_j):
        self.np = np_module
        self.n = len(ids)
        self.nnz = len(nbr_id)
        self.ids = ids
        self.pos = pos
        self.deg = deg
        self.indptr = indptr
        self.nbr_id = nbr_id
        self.nbr_pos = nbr_pos
        self.entry_src = entry_src
        self.entry_j = entry_j
        self._rev_entry = None

    @property
    def rev_entry(self):
        """Entry index of each entry's reverse arc (lazy, two argsorts).

        Sorting entries by ``(src, nbr)`` and by ``(nbr, src)`` yields the
        same rank for an arc and its reverse (arcs are distinct, the graph is
        simple), so matching the two orders position-by-position pairs every
        arc with its reverse in two O(nnz log nnz) sorts.  Each order sorts
        one int64 key per entry, ``src · n + nbr`` or ``nbr · n + src``;
        the keys are distinct, so any sort gives the same permutation.
        """
        if self._rev_entry is None:
            np = self.np
            by_src = np.argsort(self.entry_src * self.n + self.nbr_pos)
            by_nbr = np.argsort(self.nbr_pos * self.n + self.entry_src)
            rev = np.empty(self.nnz, dtype=np.int64)
            rev[by_src] = by_nbr
            self._rev_entry = rev
        return self._rev_entry


def build_view(np_module, graph) -> Optional[CSRView]:
    """Build a :class:`CSRView` of ``graph`` at its current epoch.

    The flat base arrays are converted array-at-once; the rows of a pending
    delta overlay are then patched in by :func:`patch_view`.  Returns
    ``None`` when vertex ids do not fit int64 — callers then fall back to
    the scalar path.  A neighbor id in the base arrays that names no vertex
    (a corrupted snapshot) raises
    :class:`~repro.core.errors.UnknownVertexError`.
    """
    np = np_module
    ids_list = list(graph.vertices())
    n = len(ids_list)
    try:
        ids = np.array(ids_list, dtype=np.int64)
        if isinstance(graph._indices, memoryview):
            # Read-only storage (mmap snapshots): alias the buffers instead
            # of copying — safe because these graphs refuse mutation, so the
            # view can never drift from the arrays it wraps.
            indptr = np.frombuffer(graph._indptr, dtype=np.int64)
            nbr_id = np.frombuffer(graph._indices, dtype=np.int64)
        else:
            indptr = np.array(graph._indptr, dtype=np.int64)
            nbr_id = np.array(graph._indices, dtype=np.int64)
    except OverflowError:
        return None
    pos = {vertex: index for index, vertex in enumerate(ids_list)}
    nnz = int(indptr[-1]) if n else 0
    if nnz:
        order = np.argsort(ids, kind="stable")
        found = np.searchsorted(ids[order], nbr_id)
        nbr_pos = order[np.minimum(found, n - 1)]
        bad = np.flatnonzero(ids[nbr_pos] != nbr_id)
        if len(bad):
            raise UnknownVertexError(int(nbr_id[bad[0]]))
    else:
        nbr_pos = np.zeros(0, dtype=np.int64)
    view = _view(np, ids, pos, indptr, nbr_id, nbr_pos)
    if graph.delta_count:
        overlay = set(graph._delta_add) | set(graph._delta_removed)
        rows = np.array(sorted(pos[v] for v in overlay), dtype=np.int64)
        patch_view(np, view, graph, rows)
    return view


def patch_view(np_module, view: CSRView, graph, rows) -> None:
    """Carry ``view`` to ``graph``'s current epoch in place, re-reading only ``rows``.

    ``rows`` holds the sorted positions of every row that changed since the
    view's epoch.  Each per-entry array moves its runs of unchanged rows by
    :func:`move_rows`, and only the entries of ``rows`` are written, from
    ``graph.neighbors``.  ``indptr`` is replaced, not rewritten, so a caller
    that kept the old one can re-lay out its own per-entry arrays the same
    way.  ``ids``/``pos`` never change (the vertex set is fixed), and
    ``rev_entry`` is rebuilt lazily on first use.
    """
    np = np_module
    lists = [graph.neighbors(vertex) for vertex in view.ids[rows].tolist()]
    old_indptr = view.indptr
    view.deg[rows] = [len(row) for row in lists]
    indptr = np.zeros(view.n + 1, dtype=np.int64)
    np.cumsum(view.deg, out=indptr[1:])
    for name in ("nbr_id", "nbr_pos", "entry_src", "entry_j"):
        setattr(view, name, move_rows(np, getattr(view, name), old_indptr, indptr, rows))
    pos = view.pos
    for row, neighbors in zip(rows.tolist(), lists):
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        view.nbr_id[lo:hi] = neighbors
        view.nbr_pos[lo:hi] = [pos[w] for w in neighbors]
        view.entry_src[lo:hi] = row
        view.entry_j[lo:hi] = range(hi - lo)
    view.indptr = indptr
    view.nnz = int(indptr[-1])
    view._rev_entry = None


#: Spare entries a per-entry array's new buffer gets when an add outgrows
#: the old one, so that later adds move rows in place.  A buffer no add has
#: outgrown holds exactly its entries.
SPARE_ENTRIES = 1 << 12


def move_rows(np_module, values, old_indptr, indptr, rows):
    """``values``, one value per entry laid out by ``old_indptr``, moved in
    place to the layout ``indptr``.

    ``rows`` holds the sorted positions of the rows whose length may have
    changed.  Every run of rows between two of them keeps its length and
    moves once, inside the buffer ``values`` is a prefix of (its ``base``,
    or itself when it owns its data): left shifts in ascending order and
    right shifts in descending order, so no run overwrites one that has not
    moved yet.  The entries of ``rows`` are then zeroed for the caller to
    fill.  A buffer too small for the new layout, or read-only, is replaced
    by a zeroed one with :data:`SPARE_ENTRIES` to spare, into which the
    runs are copied.  Returns the new entries: a prefix of the buffer.
    """
    np = np_module
    size = int(indptr[-1])
    runs = []
    start = 0
    for stop in rows.tolist() + [len(indptr) - 1]:
        if stop > start:
            src = int(old_indptr[start])
            runs.append((src, int(indptr[start]), int(old_indptr[stop]) - src))
        start = stop + 1
    buffer = values.base if isinstance(values.base, np.ndarray) else values
    if len(buffer) < size or not buffer.flags.writeable:
        buffer = np.zeros(size + SPARE_ENTRIES, dtype=values.dtype)
        for src, dst, length in runs:
            buffer[dst : dst + length] = values[src : src + length]
        return buffer[:size]
    left = [run for run in runs if run[1] < run[0]]
    right = [run for run in runs if run[1] > run[0]]
    for src, dst, length in left + right[::-1]:
        buffer[dst : dst + length] = buffer[src : src + length]
    for row in rows.tolist():
        buffer[int(indptr[row]) : int(indptr[row + 1])] = 0
    return buffer[:size]


def _view(np, ids, pos, indptr, nbr_id, nbr_pos) -> CSRView:
    """A :class:`CSRView` over finished CSR arrays (derives the entry tables)."""
    n = len(ids)
    deg = indptr[1:] - indptr[:-1]
    nnz = len(nbr_id)
    entry_src = np.repeat(np.arange(n, dtype=np.int64), deg)
    entry_j = np.arange(nnz, dtype=np.int64) - indptr[entry_src]
    return CSRView(np, ids, pos, deg, indptr, nbr_id, nbr_pos, entry_src, entry_j)
