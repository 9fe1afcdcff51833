"""Disk-backed CSR snapshots: round trip, read-only enforcement, lifecycle.

:func:`~repro.scale.snapshot.save_csr_snapshot` /
:func:`~repro.scale.snapshot.load_csr_snapshot` are the library's one
read-only graph transport: one flat file, mapped read-only, with the graph's
CSR arrays viewed in place.  These tests pin the format round trip
(including non-contiguous vertex ids), what gets saved (the current rows,
pending deltas included; ids beyond 64 bits fail with one line), the
conventions of the mapped view (read-only errors, idempotent detach,
one-line lifecycle errors, no pickling, owned-storage subgraphs), and the
equivalence of LCA answers and probe counts between a mapped snapshot and
the owned graph it was saved from.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro import graphs
from repro.core.errors import GraphError
from repro.core.registry import create
from repro.graphs import Graph
from repro.scale import (
    MappedCSRGraph,
    MappedCSRHandle,
    load_csr_snapshot,
    save_csr_snapshot,
)
from repro.scale.snapshot import _HEADER


@pytest.fixture
def snapshot_pair(tmp_path):
    """(owned CSR graph, path of its saved snapshot)."""
    graph = graphs.gnp_graph(50, 0.15, seed=8)
    path = tmp_path / "g.csr"
    save_csr_snapshot(graph, path)
    return graph, path


# --------------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------------- #
def test_round_trip_structure(snapshot_pair):
    graph, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        assert isinstance(mapped, MappedCSRGraph)
        assert mapped.num_vertices == graph.num_vertices
        assert mapped.num_edges == graph.num_edges
        for v in graph.vertices():
            assert list(mapped.neighbors(v)) == list(graph.neighbors(v))
            assert mapped.degree(v) == graph.degree(v)
        assert sorted(mapped.edges()) == sorted(graph.edges())


def test_round_trip_non_contiguous_ids(tmp_path):
    base = graphs.Graph.from_edges(
        [(10, 20), (20, 31), (10, 31), (31, 47)], vertices=[10, 20, 31, 47]
    )
    path = tmp_path / "ids.csr"
    save_csr_snapshot(base, path)
    with load_csr_snapshot(path) as mapped:
        assert sorted(mapped.vertices()) == [10, 20, 31, 47]
        assert sorted(mapped.edges()) == sorted(base.edges())


def test_save_returns_attachable_handle(snapshot_pair, tmp_path):
    graph, _ = snapshot_pair
    handle = save_csr_snapshot(graph, tmp_path / "again.csr")
    assert isinstance(handle, MappedCSRHandle)
    assert handle.num_vertices == graph.num_vertices
    with handle.attach() as mapped:
        assert mapped.num_edges == graph.num_edges
    # Handles are tiny and picklable, unlike the mapped graph itself.
    clone = pickle.loads(pickle.dumps(handle))
    with clone.attach() as mapped:
        assert sorted(mapped.edges()) == sorted(graph.edges())


def test_mapped_graph_can_be_saved_again(snapshot_pair, tmp_path):
    graph, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        save_csr_snapshot(mapped, tmp_path / "copy.csr")
    with load_csr_snapshot(tmp_path / "copy.csr") as copy:
        assert copy.as_adjacency() == graph.as_adjacency()


# One storage row: CSR is the only graph storage; the row keeps the test ids.
@pytest.mark.parametrize("storage", ["csr"])
def test_save_snapshots_the_current_rows(tmp_path, storage):
    """Pending deltas are compacted first, so the file always holds the
    rows the graph shows right now."""
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    graph.add_edge(0, 2)
    graph.remove_edge(0, 1)
    assert graph.delta_count > 0
    save_csr_snapshot(graph, tmp_path / "current.csr")
    assert graph.delta_count == 0  # compacted on save
    with load_csr_snapshot(tmp_path / "current.csr") as mapped:
        assert mapped.as_adjacency() == graph.as_adjacency()
        for v in graph.vertices():
            assert mapped.neighbors(v) == graph.neighbors(v)


# One storage row: CSR is the only graph storage; the row keeps the test ids.
@pytest.mark.parametrize("storage", ["csr"])
def test_ids_beyond_64_bits_fail_with_one_line_error(tmp_path, storage):
    huge = 2 ** 70
    graph = Graph.from_edges([(huge, huge + 1)])
    with pytest.raises(GraphError, match="64 bits") as excinfo:
        save_csr_snapshot(graph, tmp_path / "huge.csr")
    assert "\n" not in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Read-only enforcement and lifecycle
# --------------------------------------------------------------------------- #
def test_mapped_graph_is_read_only(snapshot_pair):
    _, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        with pytest.raises(GraphError, match="read-only"):
            mapped.add_edge(0, 1)
        with pytest.raises(GraphError, match="read-only"):
            mapped.remove_edge(0, 1)


def test_double_detach_is_idempotent(snapshot_pair):
    _, path = snapshot_pair
    mapped = load_csr_snapshot(path)
    mapped.detach()
    mapped.detach()  # second detach is a no-op, not an error


def test_missing_file_is_one_line_runtime_error(tmp_path):
    path = tmp_path / "never-saved.csr"
    with pytest.raises(RuntimeError) as excinfo:
        load_csr_snapshot(path)
    message = str(excinfo.value)
    assert "never saved, or removed since" in message
    assert "\n" not in message


def test_truncated_snapshot_is_named_error(snapshot_pair):
    _, path = snapshot_pair
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GraphError, match="too small for the declared CSR shape"):
        load_csr_snapshot(path)


@pytest.mark.parametrize("case", ["first", "decrease", "last"])
def test_malformed_indptr_is_named_error(snapshot_pair, case):
    graph, path = snapshot_pair
    n, nnz = graph.num_vertices, 2 * graph.num_edges
    row, value, reason = {
        "first": (0, 1, r"indptr\[0\] is 1, not 0"),
        "decrease": (5, 10**9, "indptr decreases from 1000000000 to "),
        "last": (n, nnz + 1, f"indptr ends at {nnz + 1}, not at nnz={nnz}"),
    }[case]
    data = bytearray(path.read_bytes())
    at = _HEADER.size + 8 * (n + row)  # the n ids come first, then indptr
    data[at : at + 8] = value.to_bytes(8, sys.byteorder, signed=True)
    path.write_bytes(bytes(data))
    with pytest.raises(GraphError, match=reason) as excinfo:
        load_csr_snapshot(path)
    message = str(excinfo.value)
    assert str(path) in message and "\n" not in message


def test_corrupt_magic_is_named_error(snapshot_pair, tmp_path):
    _, path = snapshot_pair
    data = bytearray(path.read_bytes())
    data[:8] = b"notacsr!"
    bad = tmp_path / "bad.csr"
    bad.write_bytes(bytes(data))
    with pytest.raises(GraphError, match="snapshot"):
        load_csr_snapshot(bad)


def test_derived_subgraphs_own_their_storage(snapshot_pair):
    _, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        some = list(mapped.vertices())[:12]
        induced = mapped.induced_subgraph(some)
        spanning = mapped.subgraph_with_edges(list(mapped.edges())[:5])
        expected = sorted(spanning.edges())
    # Derived graphs are ordinary CSR graphs and outlive the mapping.
    for derived in (induced, spanning):
        assert type(derived) is Graph
    assert induced.num_vertices == 12
    assert spanning.num_edges == 5
    assert sorted(spanning.edges()) == expected


def test_mapped_graph_refuses_pickling(snapshot_pair):
    _, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        with pytest.raises(TypeError, match="MappedCSRHandle"):
            pickle.dumps(mapped)


# --------------------------------------------------------------------------- #
# Equivalence: a mapped snapshot answers exactly like the graph it froze
# --------------------------------------------------------------------------- #
def test_lca_equivalence_mapped_vs_owned(snapshot_pair):
    graph, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        owned_lca = create("spanner3", graph, seed=13)
        mapped_lca = create("spanner3", mapped, seed=13)
        mat_o = owned_lca.materialize(mode="batched")
        mat_m = mapped_lca.materialize(mode="batched")
        assert mat_m.edges == mat_o.edges
        assert mat_m.probe_stats.query_totals == mat_o.probe_stats.query_totals
        assert (
            mapped_lca.probe_counter.snapshot().as_dict()
            == owned_lca.probe_counter.snapshot().as_dict()
        )


def test_build_view_aliases_mapped_buffers(snapshot_pair):
    """The numpy kernel substrate wraps mapped buffers without copying."""
    np = pytest.importorskip("numpy")
    from repro.kernels.view import build_view

    _, path = snapshot_pair
    with load_csr_snapshot(path) as mapped:
        view = build_view(np, mapped)
        assert view is not None
        assert not view.nbr_id.flags.owndata  # aliases the mmap, no copy
        assert not view.nbr_id.flags.writeable
