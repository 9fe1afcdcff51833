"""Million-node scale plane: streaming CSR builds, mmap snapshots.

This package holds the pieces that let a 10^6-node, 10^7-entry graph be
generated, persisted and served without ever materializing a Python edge
list (ROADMAP: "Million-node graphs"):

* :mod:`repro.scale.stream` — a two-pass incremental CSR builder fed by
  re-iterable edge-chunk streams (:class:`repro.graphs.EdgeChunkStream`),
  plus the ``*-stream`` family front door used by ``FAMILY_BUILDERS``.
* :mod:`repro.scale.snapshot` — a raw-array on-disk CSR snapshot format
  with a read-only memory-mapped loader (:class:`MappedCSRGraph`) that
  plugs in wherever a :class:`~repro.graphs.Graph` does — the one
  read-only graph transport.

See ``docs/scale.md``.
"""

from .snapshot import (
    MappedCSRGraph,
    MappedCSRHandle,
    load_csr_snapshot,
    save_csr_snapshot,
)
from .stream import build_csr_from_chunks, build_stream_family, stream_family

__all__ = [
    "build_csr_from_chunks",
    "build_stream_family",
    "stream_family",
    "save_csr_snapshot",
    "load_csr_snapshot",
    "MappedCSRGraph",
    "MappedCSRHandle",
]
