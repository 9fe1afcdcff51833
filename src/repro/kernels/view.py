"""Numpy images of one graph epoch's adjacency (the kernel substrate).

A :class:`CSRView` freezes one mutation epoch of a graph into flat int64
arrays — exactly the CSR layout, plus the derived per-entry tables the
spanner3 scan kernels index into (entry source, in-row offset,
reverse-entry permutation).  Views are read-only copies: mutating the graph
never corrupts a view, and the table store that holds the view records its
epoch, so a stale view is replaced on the next kernel call.

A write changes two rows, so a view is carried to a later epoch by
:func:`patch_view`, which copies the unchanged rows as slices and reads only
the touched rows from the graph.  :func:`build_view` converts the flat
arrays at once and patches in the rows of any pending delta overlay the
same way.

Building a view performs **zero probes**: it reads the adjacency structure
directly, the same way :meth:`repro.graphs.graph.Graph.edges` does.  All
probe charging stays in the kernels, which replicate the scalar schedule.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import UnknownVertexError


class CSRView:
    """Immutable numpy adjacency image of one graph epoch.

    Vertices are addressed by *position* (row index); ``ids``/``pos`` map
    between positions and vertex ids.  For every CSR entry ``e`` (one
    directed arc), ``entry_src[e]`` is the source position, ``entry_j[e]``
    the offset of ``e`` inside its row, ``nbr_id``/``nbr_pos`` the target.
    ``rev_entry`` (lazy) maps each entry to its reverse arc's entry index.
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
        view = patch_view(np, view, graph, rows)
    return view


def patch_view(np_module, view: CSRView, graph, rows) -> CSRView:
    """Carry ``view`` to ``graph``'s current epoch, re-reading only ``rows``.

    ``rows`` holds the sorted positions of every row that changed since the
    view's epoch.  Their new contents come from ``graph.neighbors``; every
    run of unchanged rows is copied as one slice.  ``ids``/``pos`` are
    shared with ``view`` (the vertex set never changes), and ``rev_entry``
    is rebuilt lazily on first use.
    """
    np = np_module
    deg = view.deg.copy()
    lists = [graph.neighbors(vertex) for vertex in view.ids[rows].tolist()]
    deg[rows] = [len(row) for row in lists]
    indptr = np.zeros(view.n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    nbr_id = copy_rows(np, view.nbr_id, view.indptr, indptr, rows)
    nbr_pos = copy_rows(np, view.nbr_pos, view.indptr, indptr, rows)
    pos = view.pos
    for row, neighbors in zip(rows.tolist(), lists):
        lo, hi = indptr[row], indptr[row + 1]
        nbr_id[lo:hi] = neighbors
        nbr_pos[lo:hi] = [pos[w] for w in neighbors]
    return _view(np, view.ids, pos, indptr, nbr_id, nbr_pos)


def copy_rows(np_module, old, old_indptr, indptr, rows):
    """``old``'s per-entry values re-laid out for ``indptr``, minus ``rows``.

    Every run of rows between two of the sorted positions ``rows`` keeps its
    length, so it moves as one slice.  The entries of ``rows`` themselves
    are left zero for the caller to fill.
    """
    np = np_module
    out = np.zeros(int(indptr[-1]), dtype=old.dtype)
    start = 0
    for stop in rows.tolist() + [len(indptr) - 1]:
        if stop > start:
            out[indptr[start] : indptr[stop]] = old[old_indptr[start] : old_indptr[stop]]
        start = stop + 1
    return out


def _view(np, ids, pos, indptr, nbr_id, nbr_pos) -> CSRView:
    """A :class:`CSRView` over finished CSR arrays (derives the entry tables)."""
    n = len(ids)
    deg = indptr[1:] - indptr[:-1]
    nnz = len(nbr_id)
    entry_src = np.repeat(np.arange(n, dtype=np.int64), deg)
    entry_j = np.arange(nnz, dtype=np.int64) - indptr[entry_src]
    return CSRView(np, ids, pos, deg, indptr, nbr_id, nbr_pos, entry_src, entry_j)
