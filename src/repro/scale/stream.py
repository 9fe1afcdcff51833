"""Incremental CSR construction from edge-chunk streams.

The in-memory path (``Graph.from_edges`` → adjacency dict → flat arrays)
costs several Python objects per edge — tuples, list cells, dict slots —
which is what caps the benchmarks at n ≈ 900.  The builder here consumes a
re-iterable :class:`~repro.graphs.EdgeChunkStream` in two passes over flat
``array('q')`` chunks instead:

1. **count** — accumulate per-vertex degrees and prefix-sum them into
   ``indptr``;
2. **fill** — place each endpoint at its row cursor, reproducing exactly
   the append order ``from_edges`` would have produced.

An optional ``shuffle_seed`` then performs the same per-row
``random.Random(seed)`` shuffle ``from_edges`` applies (rows of length < 2
consume no randomness, in both paths), so for the *same edge sequence and
seed* the streamed arrays are bit-identical to the in-memory build — the
property pinned by ``tests/test_scale_stream.py``.

Peak memory is the three int64 arrays plus one chunk, O(n + m) *bytes*
rather than O(m) Python objects.
"""

from __future__ import annotations

import random
from array import array
from typing import Optional

from ..core.errors import GraphError, ParameterError
from ..graphs.graph import Graph
from ..graphs.generators import (
    DEFAULT_CHUNK_EDGES,
    EdgeChunkStream,
    cluster_edge_chunks,
    gnp_edge_chunks,
    power_law_edge_chunks,
)

#: Builders for the chunk-emitting scenario families, keyed by the names
#: registered in :data:`repro.graphs.FAMILY_BUILDERS`.  ``density`` means
#: what it means for the in-memory sibling (edge probability for gnp,
#: inter-cluster probability for clustered, ignored by power-law).
_STREAM_EMITTERS = {
    "gnp-stream": lambda n, density, seed, chunk_edges: gnp_edge_chunks(
        n, density, seed=seed, chunk_edges=chunk_edges
    ),
    "power-law-stream": lambda n, density, seed, chunk_edges: power_law_edge_chunks(
        n, seed=seed, chunk_edges=chunk_edges
    ),
    "clustered-stream": lambda n, density, seed, chunk_edges: cluster_edge_chunks(
        n, max(2, n // 10), inter_probability=density, seed=seed, chunk_edges=chunk_edges
    ),
}


def stream_family(
    family: str,
    n: int,
    density: float = 0.1,
    seed: Optional[int] = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> EdgeChunkStream:
    """Return the edge-chunk stream for a named ``*-stream`` family."""
    key = family.strip().lower()
    if key not in _STREAM_EMITTERS:
        raise ParameterError(
            f"unknown streaming family {family!r}; "
            f"choices: {sorted(_STREAM_EMITTERS)}"
        )
    return _STREAM_EMITTERS[key](n, density, seed, chunk_edges)


def build_stream_family(
    family: str,
    n: int,
    density: float = 0.1,
    seed: Optional[int] = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Graph:
    """Build a ``*-stream`` family instance straight into CSR arrays.

    This is what :data:`repro.graphs.FAMILY_BUILDERS` routes the streaming
    family names to; the graph's neighbor orderings are shuffled with the
    family ``seed`` exactly as the in-memory builders shuffle theirs.
    """
    chunks = stream_family(family, n, density=density, seed=seed, chunk_edges=chunk_edges)
    return build_csr_from_chunks(chunks, shuffle_seed=seed)


def build_csr_from_chunks(
    chunks: EdgeChunkStream,
    shuffle_seed: Optional[int] = None,
    num_vertices: Optional[int] = None,
) -> Graph:
    """Two-pass incremental CSR build over a re-iterable chunk stream.

    ``chunks`` yields flat ``array('q')`` buffers of ``[u, v, u, v, ...]``
    pairs and must yield the identical sequence on every iteration (the
    :class:`~repro.graphs.EdgeChunkStream` contract).  Vertex ids must lie
    in ``0..n-1``; self-loops, out-of-range ids and odd-length chunks raise
    :class:`~repro.core.errors.GraphError`.  Duplicate-freeness is the
    emitter's contract — the builder does not dedup (a dedup structure is
    exactly the O(m)-objects cost this path exists to avoid).

    With a ``shuffle_seed``, per-row shuffles replay ``from_edges``'s
    schedule bit for bit: one ``random.Random(shuffle_seed)`` over rows in
    id order.
    """
    n = chunks.num_vertices if num_vertices is None else int(num_vertices)
    if n < 0:
        raise ParameterError("num_vertices must be non-negative")

    counts = array("q", bytes(8 * n)) if n else array("q")
    total = 0
    for chunk in chunks:
        length = len(chunk)
        if length % 2:
            raise GraphError(
                f"edge chunk has odd length {length}; chunks are flat [u, v, ...] pairs"
            )
        for i in range(0, length, 2):
            u = chunk[i]
            v = chunk[i + 1]
            if u == v:
                raise GraphError(f"self-loop at vertex {u} in edge chunk")
            if u < 0 or u >= n or v < 0 or v >= n:
                raise GraphError(
                    f"edge ({u}, {v}) outside the declared vertex range 0..{n - 1}"
                )
            counts[u] += 1
            counts[v] += 1
        total += length

    indptr = array("q", bytes(8 * (n + 1)))
    offset = 0
    for p in range(n):
        indptr[p] = offset
        offset += counts[p]
    indptr[n] = offset

    indices = array("q", bytes(8 * total)) if total else array("q")
    cursor = counts  # reuse the degree array as the per-row fill cursor
    cursor[:] = indptr[:n]
    try:
        for chunk in chunks:
            for i in range(0, len(chunk), 2):
                u = chunk[i]
                v = chunk[i + 1]
                indices[cursor[u]] = v
                cursor[u] += 1
                indices[cursor[v]] = u
                cursor[v] += 1
    except IndexError:
        # The fill pass saw more entries than the count pass sized for.
        raise GraphError(
            "edge-chunk stream changed between passes; streams must be "
            "re-iterable and deterministic"
        ) from None
    for p in range(n):
        if cursor[p] != indptr[p + 1]:
            raise GraphError(
                "edge-chunk stream changed between passes; streams must be "
                "re-iterable and deterministic"
            )

    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        for p in range(n):
            start, stop = indptr[p], indptr[p + 1]
            if stop - start < 2:
                continue  # from_edges shuffles these too, consuming no randomness
            row = indices[start:stop].tolist()
            rng.shuffle(row)
            indices[start:stop] = array("q", row)

    return Graph.from_arrays(indptr, indices)
