"""Streaming graph builders ≡ in-memory construction (the scale-plane pin).

The scale plane's entire value proposition is that the chunked path is a
*pure refactor* of graph construction: same seed → bit-identical CSR arrays,
neighbor orderings and kernel probe counts, with no Python edge list in
between.  These tests pin that equivalence across every streaming family,
exercise the re-iterability contract of :class:`~repro.graphs.EdgeChunkStream`,
and check the one-line error surface of the chunk builder, the streaming
edge-list reader and the scenario-spec validation.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphs
from repro.core.errors import GraphError, ParameterError
from repro.core.registry import create
from repro.graphs import (
    EdgeChunkStream,
    Graph,
    build_family,
    cluster_edge_chunks,
    gnp_edge_chunks,
    power_law_edge_chunks,
    read_edge_list,
    read_edge_list_stream,
    write_edge_list,
)
from repro.reports.spec import SpecError, load_scenario_file
from repro.scale import build_csr_from_chunks, build_stream_family, stream_family

relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

STREAM_PARAMS = [
    ("gnp-stream", 0.15),
    ("power-law-stream", 0.1),
    ("clustered-stream", 0.08),
]


def _chunk_edges(chunks: EdgeChunkStream):
    """Flatten a chunk stream back into (u, v) pairs (test-side only)."""
    for chunk in chunks:
        for i in range(0, len(chunk), 2):
            yield (chunk[i], chunk[i + 1])


def _csr_arrays(graph):
    graph.compact()
    return (list(graph._ids), list(graph._indptr), list(graph._indices))


# --------------------------------------------------------------------------- #
# Stream build ≡ from_edges over the same chunk sequence
# --------------------------------------------------------------------------- #
@relaxed
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
    chunk_edges=st.integers(min_value=1, max_value=17),
    family_index=st.integers(min_value=0, max_value=len(STREAM_PARAMS) - 1),
)
def test_stream_build_matches_from_edges(n, seed, chunk_edges, family_index):
    family, density = STREAM_PARAMS[family_index]
    chunks = stream_family(family, n, density=density, seed=seed, chunk_edges=chunk_edges)
    streamed = build_csr_from_chunks(chunks, shuffle_seed=seed)
    reference = Graph.from_edges(
        list(_chunk_edges(chunks)), vertices=range(n), shuffle_seed=seed
    )
    assert _csr_arrays(streamed) == _csr_arrays(reference)
    for v in streamed.vertices():
        assert list(streamed.neighbors(v)) == list(reference.neighbors(v))


@relaxed
@given(
    n=st.integers(min_value=2, max_value=80),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_gnp_stream_bit_identical_to_legacy_gnp(n, p, seed):
    """The legacy family and its streamed variant share one rng schedule."""
    legacy = graphs.gnp_graph(n, p, seed=seed)
    streamed = build_stream_family("gnp-stream", n, density=p, seed=seed)
    assert _csr_arrays(streamed) == _csr_arrays(legacy)


def test_stream_families_registered_and_equal_via_build_family():
    for family, density in STREAM_PARAMS:
        assert family in graphs.FAMILY_BUILDERS
        assert family in graphs.STREAM_FAMILIES
        via_registry = build_family(family, 50, density=density, seed=9)
        direct = build_stream_family(family, 50, density=density, seed=9)
        assert _csr_arrays(via_registry) == _csr_arrays(direct)


@pytest.mark.parametrize("family,density", STREAM_PARAMS)
def test_stream_build_probe_counts_match_from_edges(family, density):
    """Same arrays → same kernel probe counts, query by query."""
    n, seed = 48, 4
    chunks = stream_family(family, n, density=density, seed=seed, chunk_edges=11)
    streamed = build_csr_from_chunks(chunks, shuffle_seed=seed)
    reference = Graph.from_edges(
        list(_chunk_edges(chunks)), vertices=range(n), shuffle_seed=seed
    )
    lca_s = create("spanner3", streamed, seed=7)
    lca_r = create("spanner3", reference, seed=7)
    mat_s = lca_s.materialize(mode="batched")
    mat_r = lca_r.materialize(mode="batched")
    assert mat_s.edges == mat_r.edges
    assert mat_s.probe_stats.query_totals == mat_r.probe_stats.query_totals
    assert (
        lca_s.probe_counter.snapshot().as_dict()
        == lca_r.probe_counter.snapshot().as_dict()
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: gnp_edge_chunks(40, 0.3, seed=12, chunk_edges=5),
        lambda: power_law_edge_chunks(40, seed=12, chunk_edges=5),
        lambda: cluster_edge_chunks(40, 4, inter_probability=0.1, seed=12, chunk_edges=5),
    ],
    ids=["gnp", "power-law", "clustered"],
)
def test_chunk_stream_is_reiterable_and_chunk_sized(make):
    chunks = make()
    first = [array("q", c) for c in chunks]
    second = [array("q", c) for c in chunks]
    assert first == second
    assert sum(len(c) for c in first) > 0
    assert all(len(c) <= 2 * 5 for c in first)
    assert all(len(c) % 2 == 0 for c in first)


def test_chunk_stream_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        EdgeChunkStream(-1, lambda: iter(()))
    with pytest.raises(ParameterError):
        EdgeChunkStream(4, lambda: iter(()), chunk_edges=0)
    with pytest.raises(ParameterError):
        stream_family("grid", 10)


# --------------------------------------------------------------------------- #
# Chunk-builder error surface
# --------------------------------------------------------------------------- #
def _stream_of(n, pairs, chunk_edges=4):
    return EdgeChunkStream(n, lambda: iter(pairs), chunk_edges=chunk_edges)


def test_builder_rejects_self_loops_and_out_of_range():
    with pytest.raises(GraphError, match="self-loop"):
        build_csr_from_chunks(_stream_of(4, [(1, 1)]))
    with pytest.raises(GraphError, match="outside the declared vertex range"):
        build_csr_from_chunks(_stream_of(4, [(0, 9)]))
    with pytest.raises(GraphError, match="outside the declared vertex range"):
        build_csr_from_chunks(_stream_of(4, [(-1, 2)]))


def test_builder_rejects_odd_chunks_and_unstable_streams():
    class OddChunks:
        num_vertices = 4

        def __iter__(self):
            yield array("q", [0, 1, 2])

    with pytest.raises(GraphError, match="odd length"):
        build_csr_from_chunks(OddChunks())

    class Unstable:
        """Yields a different edge set on the second pass."""

        num_vertices = 4

        def __init__(self):
            self.passes = 0

        def __iter__(self):
            self.passes += 1
            pairs = [(0, 1)] if self.passes == 1 else [(2, 3)]
            yield array("q", [x for pair in pairs for x in pair])

    with pytest.raises(GraphError, match="changed between passes"):
        build_csr_from_chunks(Unstable())


def test_builder_empty_and_isolated_vertices():
    empty = build_csr_from_chunks(_stream_of(5, []))
    assert empty.num_vertices == 5
    assert empty.num_edges == 0
    assert list(empty.neighbors(3)) == []


# --------------------------------------------------------------------------- #
# Streaming edge-list reader
# --------------------------------------------------------------------------- #
def test_read_edge_list_stream_round_trip(tmp_path):
    graph = graphs.gnp_graph(30, 0.2, seed=6)
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    chunks = read_edge_list_stream(path, chunk_edges=7)
    rebuilt = build_csr_from_chunks(chunks)
    reference = read_edge_list(path)
    assert _csr_arrays(rebuilt) == _csr_arrays(reference)
    # Re-iterable: a second build sees the same file contents.
    assert _csr_arrays(build_csr_from_chunks(chunks)) == _csr_arrays(rebuilt)


def test_read_edge_list_stream_errors(tmp_path):
    with pytest.raises(GraphError, match="does not exist"):
        list(read_edge_list_stream(tmp_path / "missing.txt"))
    headerless = tmp_path / "h.txt"
    headerless.write_text("0 1\n")
    with pytest.raises(GraphError, match="header"):
        read_edge_list_stream(headerless)
    malformed = tmp_path / "m.txt"
    malformed.write_text("# 3 1\n0 one\n")
    chunks = read_edge_list_stream(malformed)
    with pytest.raises(GraphError, match="malformed edge line"):
        list(chunks)


# --------------------------------------------------------------------------- #
# Scenario-spec validation for streaming families
# --------------------------------------------------------------------------- #
def _scenario_toml():
    return """
[[scenario]]
name = "s"
algorithm = "spanner3"

[scenario.graph]
family = "gnp-stream"
sizes = [40]
density = 0.1
seed = 3
"""


def test_spec_accepts_stream_family_with_csr_backend(tmp_path):
    path = tmp_path / "ok.toml"
    path.write_text(_scenario_toml())
    (spec,) = load_scenario_file(path)
    assert spec.graph.family == "gnp-stream"


def test_spec_rejects_stream_family_with_dict_backend(tmp_path):
    """There is one graph storage; a leftover backend key is a one-line error."""
    path = tmp_path / "bad.toml"
    toml = _scenario_toml().replace("seed = 3\n", 'seed = 3\nbackend = "dict"\n')
    path.write_text(toml)
    with pytest.raises(SpecError, match=r"unknown graph keys \['backend'\]") as excinfo:
        load_scenario_file(path)
    assert "\n" not in str(excinfo.value)

