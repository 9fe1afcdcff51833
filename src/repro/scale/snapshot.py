"""Disk-backed CSR snapshots with a read-only memory-mapped loader.

The snapshot format is deliberately raw — a fixed header followed by the
three flat int64 arrays exactly as :class:`~repro.graphs.Graph` holds
them in memory::

    [ header : 32 bytes ][ ids : n ][ indptr : n + 1 ][ indices : nnz ]

    header = magic ``b"reprocsr"`` (8) · format version (1) ·
             endianness flag (1: 0 = little, 1 = big) · padding (6) ·
             n (u64) · nnz (u64)

Arrays are written in the *native* byte order of the writing host (the
flag records which), so loading is a pure ``mmap`` — no parsing, no
byte-swapping, and O(n) per-element work: one pass that checks ``indptr``
(starts at 0, never decreases, ends at nnz) and the id → position map.
Neighbor ids in ``indices`` are not checked at load, which would cost
O(nnz); a query or kernel view that reads one naming no vertex fails then.
This is the library's one read-only graph transport.  Its conventions are
pinned in ``tests/test_scale_mmap.py``: saving snapshots the *current* rows
(pending mutation deltas are compacted first), vertex ids beyond 64 bits
fail with a one-line :class:`~repro.core.errors.GraphError`,
:class:`MappedCSRGraph` has zero-copy ``memoryview`` rows, read-only
mutation errors, idempotent detach and owned-storage subgraphs, missing,
truncated or malformed-``indptr`` files fail with one-line errors, and the
picklable :class:`MappedCSRHandle` stands in for the unpicklable graph.
"""

from __future__ import annotations

import mmap
import operator
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, count
from pathlib import Path
from typing import Optional, Union

from ..core.errors import GraphError
from ..graphs.graph import Graph, Vertex

PathLike = Union[str, Path]

#: Fixed-size snapshot header: magic, version, endian flag, pad, n, nnz.
_HEADER = struct.Struct("<8sBB6xQQ")
_MAGIC = b"reprocsr"
_VERSION = 1


def _endian_flag() -> int:
    return 0 if sys.byteorder == "little" else 1


def save_csr_snapshot(graph: Graph, path: PathLike) -> "MappedCSRHandle":
    """Write a graph's CSR arrays to ``path`` and return the load handle.

    Pending mutation deltas are compacted first, so the snapshot always
    describes the current rows.  The write is a straight dump of the flat
    arrays — O(n + m) bytes, no per-edge Python objects.
    """
    graph.compact()
    if isinstance(graph._indices, list):
        # The plain-list fallback only engages for ids beyond 64 bits,
        # which the fixed-width format cannot hold.
        raise GraphError(
            "graphs with vertex ids beyond 64 bits cannot be snapshotted"
        )
    path = Path(path)
    n = len(graph._ids)
    nnz = len(graph._indices)
    try:
        ids = array("q", graph._ids)
    except OverflowError:
        raise GraphError(
            "graphs with vertex ids beyond 64 bits cannot be snapshotted"
        ) from None
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, _endian_flag(), n, nnz))
        handle.write(ids.tobytes())
        handle.write(array("q", graph._indptr).tobytes())
        handle.write(graph._indices.tobytes())
    return MappedCSRHandle(path=str(path), num_vertices=n, num_entries=nnz)


def load_csr_snapshot(path: PathLike) -> "MappedCSRGraph":
    """Map a snapshot written by :func:`save_csr_snapshot` (read-only).

    A missing file raises a one-line :class:`RuntimeError` naming the path;
    a malformed or truncated file, or one whose ``indptr`` is not a valid
    row-offset array, raises :class:`~repro.core.errors.GraphError`.
    """
    path = Path(path)
    if not path.exists():
        raise RuntimeError(
            f"CSR snapshot {str(path)!r} does not exist (never saved, or "
            "removed since)"
        )
    size = path.stat().st_size
    if size < _HEADER.size:
        raise GraphError(
            f"CSR snapshot {str(path)!r} is too small to hold a header "
            f"({size} bytes)"
        )
    with path.open("rb") as handle:
        magic, version, endian, n, nnz = _HEADER.unpack(handle.read(_HEADER.size))
    if magic != _MAGIC:
        raise GraphError(f"{str(path)!r} is not a CSR snapshot (bad magic)")
    if version != _VERSION:
        raise GraphError(
            f"CSR snapshot {str(path)!r} has unsupported format version {version}"
        )
    if endian != _endian_flag():
        raise GraphError(
            f"CSR snapshot {str(path)!r} was written on a "
            f"{'big' if endian else 'little'}-endian host and cannot be "
            "mapped on this one"
        )
    return MappedCSRHandle(path=str(path), num_vertices=n, num_entries=nnz).attach()


def _indptr_problem(indptr, nnz: int) -> Optional[str]:
    """Why ``indptr`` is not a valid row-offset array over ``nnz`` entries.

    Valid offsets start at 0, never decrease and end at ``nnz``, so every row
    slice lies inside ``indices``.  One pass of C-level iterators, O(n);
    returns ``None`` when the offsets are valid.
    """
    if indptr[0] != 0:
        return f"indptr[0] is {indptr[0]}, not 0"
    drop = next(compress(count(), map(operator.gt, indptr, indptr[1:])), None)
    if drop is not None:
        return (
            f"indptr decreases from {indptr[drop]} to {indptr[drop + 1]} "
            f"at row {drop}"
        )
    if indptr[-1] != nnz:
        return f"indptr ends at {indptr[-1]}, not at nnz={nnz}"
    return None


@dataclass(frozen=True)
class MappedCSRHandle:
    """Picklable descriptor of an on-disk CSR snapshot.

    A few dozen bytes regardless of graph size, valid for as long as the
    snapshot file exists.  Any process calls :meth:`attach` to map it.
    """

    path: str
    num_vertices: int
    num_entries: int

    @property
    def total_items(self) -> int:
        return 2 * self.num_vertices + 1 + self.num_entries

    def attach(self) -> "MappedCSRGraph":
        """Map the snapshot and return a zero-copy read-only graph view."""
        return MappedCSRGraph(self)


class MappedCSRGraph(Graph):
    """Read-only CSR graph memory-mapped from a snapshot file.

    The adjacency arrays are ``memoryview``s over the page cache — loading
    a million-node graph touches O(n) Python objects (the id → position
    map) and zero per-edge objects; the kernel pages ``indices`` in on
    demand.  Probe-visible behavior (orderings, degrees, adjacency
    indices) is identical to the graph that was saved, so answers and
    probe accounting cannot depend on whether a graph is resident or
    mapped.  Mutations raise: rebuild and re-save instead.
    """

    __slots__ = ("_mmap", "_view")

    def __init__(self, handle: MappedCSRHandle) -> None:
        path = Path(handle.path)
        try:
            with path.open("rb") as stream:
                mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError:
            raise RuntimeError(
                f"CSR snapshot {handle.path!r} does not exist (never saved, "
                "or removed since)"
            ) from None
        n = handle.num_vertices
        nnz = handle.num_entries
        needed = _HEADER.size + 8 * handle.total_items
        if len(mapped) < needed:
            # Checked on the raw byte length *before* the int64 cast — a
            # truncated file whose tail is not a multiple of 8 would make
            # the cast itself raise an unhelpful TypeError.
            mapped.close()
            raise GraphError(
                f"CSR snapshot {handle.path!r} is too small for the "
                f"declared CSR shape (n={n}, nnz={nnz})"
            )
        view = memoryview(mapped)[_HEADER.size : needed].cast("q")
        indptr = view[n : 2 * n + 1]
        problem = _indptr_problem(indptr, nnz)
        if problem is not None:
            indptr.release()
            view.release()
            mapped.close()
            raise GraphError(
                f"CSR snapshot {handle.path!r} has a malformed indptr: {problem}"
            )
        self._mmap = mapped
        self._view = view
        ids = view[0:n]
        self._adopt(
            ids,
            {v: p for p, v in enumerate(ids)},
            indptr,
            view[2 * n + 1 : 2 * n + 1 + nnz],
        )

    @classmethod
    def _builder_class(cls) -> type:
        # Derived graphs (subgraphs) own their storage instead of aliasing
        # someone else's mapping.
        return Graph

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        raise GraphError(
            "memory-mapped CSR snapshots are read-only views; mutate a "
            "mutable copy and re-save the snapshot instead"
        )

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        raise GraphError(
            "memory-mapped CSR snapshots are read-only views; mutate a "
            "mutable copy and re-save the snapshot instead"
        )

    def detach(self) -> None:
        """Release the memoryviews and close this attachment's mapping.

        The graph is unusable afterwards; the snapshot file is untouched.
        Detaching twice (or detaching an attachment whose construction
        failed partway) is a no-op — the ``getattr`` default covers
        ``__init__`` raising before ``_mmap`` is bound, e.g. on a
        truncated file.
        """
        if getattr(self, "_mmap", None) is None:
            return
        for name in ("_ids", "_indptr", "_indices", "_view"):
            view = getattr(self, name, None)
            if isinstance(view, memoryview):
                view.release()
        self._ids = []
        self._pos = {}
        self._indptr = array("q", [0])
        self._indices = array("q")
        mapped, self._mmap = self._mmap, None
        try:
            mapped.close()
        except BufferError:
            # A zero-copy kernel view (``np.frombuffer`` over the mapping,
            # see :func:`repro.kernels.view.build_view`) is still alive.
            # Dropping our reference is enough: the mapping is released
            # when the last such view dies, and the graph object itself is
            # already unusable either way.
            pass

    def __enter__(self) -> "MappedCSRGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    def __reduce__(self):
        raise TypeError(
            "MappedCSRGraph is a process-local view; pickle its "
            "MappedCSRHandle and attach on the other side instead"
        )
