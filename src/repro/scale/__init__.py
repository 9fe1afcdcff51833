"""Disk-backed CSR snapshots: the million-node graph transport.

:mod:`repro.scale.snapshot` holds a raw-array on-disk CSR snapshot format
with a read-only memory-mapped loader (:class:`MappedCSRGraph`) that plugs
in wherever a :class:`~repro.graphs.Graph` does — the one read-only graph
transport.  Graphs too large for an edge list are generated by
:func:`repro.graphs.gnp_graph`, which builds its edge chunks straight into
CSR arrays (:func:`repro.graphs.build_csr_from_chunks`).

See ``docs/scale.md``.
"""

from .snapshot import (
    MappedCSRGraph,
    MappedCSRHandle,
    load_csr_snapshot,
    save_csr_snapshot,
)

__all__ = [
    "save_csr_snapshot",
    "load_csr_snapshot",
    "MappedCSRGraph",
    "MappedCSRHandle",
]
