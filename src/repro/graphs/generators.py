"""Graph generators used by the tests, examples and benchmarks.

The paper targets general graphs but its three constructions are interesting
in different degree regimes:

* the 3- and 5-spanner LCAs shine on *dense* graphs (Δ = n^{Ω(1)}),
* the O(k²)-spanner LCA targets *bounded-degree* graphs (Δ = O(n^{1/12-ε})),
* the lower bound lives on *d-regular* graphs.

The generators below produce deterministic (seeded) instances covering those
regimes.  All of them return :class:`~repro.graphs.graph.Graph` objects with
neighbor lists in a pseudo-random but fixed order, matching the model's
"arbitrary but fixed ordering" assumption.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import GraphError, ParameterError
from .graph import Graph

Edge = Tuple[int, int]

#: Default edges per chunk emitted by the streaming generators.  Large
#: enough that per-chunk overhead vanishes, small enough that a chunk is
#: cache-resident (~1 MiB of int64 pairs).
DEFAULT_CHUNK_EDGES = 65536


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed if seed is not None else 0)


def _build(edges: Iterable[Edge], vertices: Iterable[int], seed: Optional[int]) -> Graph:
    return Graph.from_edges(edges, vertices=vertices, shuffle_seed=seed)


# --------------------------------------------------------------------------- #
# Basic families
# --------------------------------------------------------------------------- #
def complete_graph(n: int, seed: Optional[int] = None) -> Graph:
    """The complete graph ``K_n`` (densest possible input)."""
    if n < 1:
        raise ParameterError("n must be positive")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _build(edges, range(n), seed)


def cycle_graph(n: int, seed: Optional[int] = None) -> Graph:
    """The n-cycle ``C_n`` (sparsest 2-regular connected graph)."""
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _build(edges, range(n), seed)


def path_graph(n: int, seed: Optional[int] = None) -> Graph:
    """The path ``P_n``."""
    if n < 2:
        raise ParameterError("a path needs at least 2 vertices")
    edges = [(i, i + 1) for i in range(n - 1)]
    return _build(edges, range(n), seed)


def star_graph(n: int, seed: Optional[int] = None) -> Graph:
    """A star with one hub of degree ``n - 1`` (extreme degree skew)."""
    if n < 2:
        raise ParameterError("a star needs at least 2 vertices")
    edges = [(0, i) for i in range(1, n)]
    return _build(edges, range(n), seed)


def grid_graph(rows: int, cols: int, seed: Optional[int] = None) -> Graph:
    """A ``rows × cols`` grid (bounded degree 4, large diameter)."""
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    def node(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return _build(edges, range(rows * cols), seed)


def _gnp_edge_iter(n: int, p: float, rng: random.Random) -> Iterator[Edge]:
    """Skip-sampling ``G(n, p)`` edge enumeration.

    The one rng schedule of the ``G(n, p)`` family: :func:`gnp_edge_chunks`
    emits it in chunks, which :func:`gnp_graph` builds into CSR arrays.
    Yields each edge exactly once, ``(w, v)`` with ``w < v``.
    """
    if p <= 0.0:
        return
    if p >= 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                yield (u, v)
        return
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # p below one float ulp: 1 - p rounds to 1.0 and the expected edge
        # count n^2 * p underflows with it — an empty graph, not a crash.
        return
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.floor(math.log(1.0 - r) / log_q))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            yield (w, v)


def gnp_graph(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """Erdős–Rényi ``G(n, p)``.

    Uses the skip-sampling technique so generation is O(m) rather than O(n²)
    for small ``p``, and builds the skip sampler's chunks straight into CSR
    arrays (:func:`build_csr_from_chunks`), so no Python edge list exists at
    any ``n``.  Neighbor rows are shuffled with ``seed`` as the other
    families shuffle theirs.
    """
    return build_csr_from_chunks(gnp_edge_chunks(n, p, seed), shuffle_seed=seed)


def gnm_graph(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """A uniform random graph with exactly ``m`` edges."""
    if n < 1:
        raise ParameterError("n must be positive")
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise ParameterError(f"m must be between 0 and {max_edges}")
    rng = _rng(seed)
    chosen = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return _build(sorted(chosen), range(n), seed)


def random_regular_graph(n: int, d: int, seed: Optional[int] = None) -> Graph:
    """A random (simple) d-regular graph via the configuration model.

    Pairings that produce self loops or parallel edges are retried; for the
    moderate ``n·d`` values used in tests and benchmarks this converges
    quickly.  ``n·d`` must be even.
    """
    if n < 1 or d < 0:
        raise ParameterError("n must be positive and d non-negative")
    if d >= n:
        raise ParameterError("d must be smaller than n for a simple graph")
    if (n * d) % 2 != 0:
        raise ParameterError("n * d must be even")
    rng = _rng(seed)
    for _attempt in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return _build(sorted(edges), range(n), seed)
    # Fall back to a networkx-free deterministic construction: circulant graph.
    return circulant_graph(n, list(range(1, d // 2 + 1)), seed=seed)


def circulant_graph(n: int, offsets: Sequence[int], seed: Optional[int] = None) -> Graph:
    """Circulant graph: vertex ``i`` adjacent to ``i ± o`` for each offset."""
    if n < 3:
        raise ParameterError("n must be at least 3")
    edges = set()
    for i in range(n):
        for o in offsets:
            j = (i + o) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return _build(sorted(edges), range(n), seed)


# --------------------------------------------------------------------------- #
# Skewed / structured families targeting the paper's regimes
# --------------------------------------------------------------------------- #
def _power_law_weights(n: int, exponent: float, min_degree: int) -> List[float]:
    """The capped Chung–Lu weight sequence of :func:`power_law_graph`."""
    weights = [
        max(float(min_degree), float(min_degree) * ((i + 1) ** (-1.0 / (exponent - 1.0))) * n ** (1.0 / (exponent - 1.0)) / 4.0)
        for i in range(n)
    ]
    cap = math.sqrt(n) * max(4.0, min_degree)
    return [min(w, cap) for w in weights]


def power_law_graph(
    n: int, exponent: float = 2.5, min_degree: int = 2, seed: Optional[int] = None
) -> Graph:
    """A graph with a power-law degree sequence (Chung–Lu style).

    Produces the degree skew typical of the "massive graphs" motivating the
    paper: a few very-high-degree hubs and many low-degree vertices, so a
    single instance exercises the E_low / E_high / E_super classification.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    if exponent <= 1.0:
        raise ParameterError("exponent must exceed 1")
    rng = _rng(seed)
    weights = _power_law_weights(n, exponent, min_degree)
    total = sum(weights)
    edges = set()
    for u in range(n):
        # Expected degree ~ weights[u]; sample that many candidate partners.
        trials = max(1, int(round(weights[u])))
        for _ in range(trials):
            r = rng.random() * total
            acc = 0.0
            v = n - 1
            for candidate in range(n):
                acc += weights[candidate]
                if acc >= r:
                    v = candidate
                    break
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return _build(sorted(edges), range(n), seed)


def planted_hub_graph(
    n: int,
    num_hubs: int,
    hub_degree: int,
    base_degree: int = 3,
    seed: Optional[int] = None,
) -> Graph:
    """Bounded-degree backbone plus a few planted high-degree hubs.

    Gives direct control over the E_low / E_high / E_super split used by the
    3- and 5-spanner edge-classification benchmarks (Table 2).
    """
    if num_hubs >= n:
        raise ParameterError("num_hubs must be smaller than n")
    rng = _rng(seed)
    edges = set()
    # Sparse backbone: a cycle plus a few random chords per vertex.
    for i in range(n):
        edges.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
    for i in range(n):
        for _ in range(max(0, base_degree - 2)):
            j = rng.randrange(n)
            if i != j:
                edges.add((min(i, j), max(i, j)))
    hubs = list(range(num_hubs))
    non_hubs = list(range(num_hubs, n))
    for hub in hubs:
        targets = rng.sample(non_hubs, min(hub_degree, len(non_hubs)))
        for t in targets:
            edges.add((min(hub, t), max(hub, t)))
    return _build(sorted(edges), range(n), seed)


def dense_cluster_graph(
    n: int, num_clusters: int, inter_probability: float = 0.02, seed: Optional[int] = None
) -> Graph:
    """Disjoint dense clusters joined by a sparse random bipartite layer.

    The Voronoi-cell machinery of the O(k²) construction becomes non-trivial
    on such inputs: every cluster is dense, the inter-cluster edges are the
    interesting ones.
    """
    if num_clusters < 1 or num_clusters > n:
        raise ParameterError("num_clusters must be in [1, n]")
    rng = _rng(seed)
    edges = set()
    cluster_of = {v: v % num_clusters for v in range(n)}
    members: Dict[int, List[int]] = {c: [] for c in range(num_clusters)}
    for v, c in cluster_of.items():
        members[c].append(v)
    for c, vertices in members.items():
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if cluster_of[u] != cluster_of[v] and rng.random() < inter_probability:
                edges.add((u, v))
    return _build(sorted(edges), range(n), seed)


def bounded_degree_expanderish(n: int, d: int = 6, seed: Optional[int] = None) -> Graph:
    """Union of ``d/2`` random perfect matchings — a bounded-degree expander-ish graph.

    The natural habitat of the O(k²)-spanner LCA (small Δ, small diameter).
    ``n`` must be even.
    """
    if n % 2 != 0:
        raise ParameterError("n must be even")
    if d % 2 != 0:
        raise ParameterError("d must be even")
    rng = _rng(seed)
    edges = set()
    for _ in range(d // 2):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(0, n, 2):
            u, v = perm[i], perm[i + 1]
            if u != v:
                edges.add((min(u, v), max(u, v)))
    # Also add a Hamiltonian cycle so the graph is connected with certainty.
    for i in range(n):
        u, v = i, (i + 1) % n
        edges.add((min(u, v), max(u, v)))
    return _build(sorted(edges), range(n), seed)


def disjoint_union(graphs: Sequence[Graph], seed: Optional[int] = None) -> Graph:
    """Disjoint union of graphs with relabelled, non-overlapping vertex IDs."""
    if not graphs:
        raise GraphError("need at least one graph")
    edges: List[Edge] = []
    vertices: List[int] = []
    offset = 0
    for g in graphs:
        mapping = {v: v + offset for v in g.vertices()}
        vertices.extend(mapping.values())
        for (u, v) in g.edges():
            edges.append((mapping[u], mapping[v]))
        offset += (max(g.vertices()) + 1) if g.num_vertices else 0
    return _build(edges, vertices, seed)


def relabel_randomly(graph: Graph, seed: Optional[int] = None, id_space: int = 10**9) -> Graph:
    """Return an isomorphic copy with random (non-contiguous) vertex IDs.

    Exercises the paper's remark that vertex IDs need not be ``0..n-1``.
    """
    rng = _rng(seed)
    new_ids: Dict[int, int] = {}
    used = set()
    for v in graph.vertices():
        while True:
            candidate = rng.randrange(id_space)
            if candidate not in used:
                used.add(candidate)
                new_ids[v] = candidate
                break
    edges = [(new_ids[u], new_ids[v]) for (u, v) in graph.edges()]
    return _build(edges, new_ids.values(), seed)


# --------------------------------------------------------------------------- #
# Chunked edge streams and the CSR builder they feed
# --------------------------------------------------------------------------- #
class EdgeChunkStream:
    """Re-iterable stream of edge chunks — the million-node generation path.

    Each chunk is a flat ``array('q')`` of ``[u0, v0, u1, v1, ...]`` pairs;
    at no point does a Python edge list (or per-edge tuple objects) for the
    whole graph exist.  The stream is **re-iterable**: every ``iter()``
    re-runs the seeded factory from scratch and yields the identical chunk
    sequence, which is what lets :func:`build_csr_from_chunks` make its two
    passes (degree count, then fill) without buffering.

    Emitters guarantee each undirected edge appears exactly once with no
    self-loops; the builder validates ids and loops as it consumes.
    """

    def __init__(
        self,
        num_vertices: int,
        factory: Callable[[], Iterator[Edge]],
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ) -> None:
        if num_vertices < 0:
            raise ParameterError("num_vertices must be non-negative")
        if chunk_edges < 1:
            raise ParameterError("chunk_edges must be positive")
        self.num_vertices = int(num_vertices)
        self._factory = factory
        self._chunk_edges = int(chunk_edges)

    def __iter__(self) -> Iterator[array]:
        chunk = array("q")
        limit = 2 * self._chunk_edges
        for u, v in self._factory():
            chunk.append(u)
            chunk.append(v)
            if len(chunk) >= limit:
                yield chunk
                chunk = array("q")
        if chunk:
            yield chunk


def gnp_edge_chunks(
    n: int,
    p: float,
    seed: Optional[int] = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> EdgeChunkStream:
    """Chunk-emitting ``G(n, p)``: the edges :func:`gnp_graph` builds."""
    if n < 1:
        raise ParameterError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must be in [0, 1]")
    return EdgeChunkStream(n, lambda: _gnp_edge_iter(n, p, _rng(seed)), chunk_edges)


def build_csr_from_chunks(
    chunks: EdgeChunkStream, shuffle_seed: Optional[int] = None
) -> Graph:
    """Two-pass incremental CSR build over a re-iterable chunk stream.

    The first pass counts per-vertex degrees and prefix-sums them into
    ``indptr``; the second places each endpoint at its row cursor, in the
    append order ``Graph.from_edges`` would produce.  Peak memory is the
    three int64 arrays plus one chunk, O(n + m) bytes rather than O(m)
    Python objects.

    ``chunks`` yields flat ``array('q')`` buffers of ``[u, v, u, v, ...]``
    pairs and must yield the identical sequence on every iteration (the
    :class:`EdgeChunkStream` contract).  Vertex ids must lie in
    ``0..n-1``; self-loops, out-of-range ids and odd-length chunks raise
    :class:`~repro.core.errors.GraphError`.  Duplicate-freeness is the
    emitter's contract — the builder does not dedup (a dedup structure is
    exactly the O(m)-objects cost this path exists to avoid).

    With a ``shuffle_seed``, per-row shuffles replay ``from_edges``'s
    schedule bit for bit: one ``random.Random(shuffle_seed)`` over rows in
    id order, rows shorter than 2 consuming no randomness.  So for the same
    edge sequence and seed the arrays equal ``Graph.from_edges``'s.
    """
    n = int(chunks.num_vertices)
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

# --------------------------------------------------------------------------- #
# Named families (the scenario axis)
# --------------------------------------------------------------------------- #
def _gnp_family(n: int, density: float, seed: Optional[int]) -> Graph:
    return gnp_graph(n, density, seed=seed)


#: Size/density-parameterized graph families addressable by name, one
#: builder per model.  The CLI (``--generate``) and the experiment plane
#: (:mod:`repro.reports`) share this registry, so a scenario spec and a
#: command line mean the same graph.
FAMILY_BUILDERS: Dict[str, object] = {
    "gnp": _gnp_family,
    "clustered": lambda n, density, seed: dense_cluster_graph(
        n, max(2, n // 10), inter_probability=density, seed=seed
    ),
    "power-law": lambda n, density, seed: power_law_graph(n, seed=seed),
    "bounded": lambda n, density, seed: bounded_degree_expanderish(
        n if n % 2 == 0 else n + 1, d=6, seed=seed
    ),
    "hubs": lambda n, density, seed: planted_hub_graph(
        n, num_hubs=max(2, n // 50), hub_degree=max(10, n // 3), seed=seed
    ),
    "grid": lambda n, density, seed: grid_graph(
        max(2, int(round(n ** 0.5))), max(2, int(round(n ** 0.5))), seed=seed
    ),
    # Another name for "gnp", the one perfbench's workloads build by.
    "gnp-stream": _gnp_family,
}

#: Sorted family names (argparse choices, spec validation).
GRAPH_FAMILIES = tuple(sorted(FAMILY_BUILDERS))


def build_family(
    family: str, n: int, density: float = 0.1, seed: Optional[int] = None
) -> Graph:
    """Build a named graph family instance (``gnp``, ``clustered``, ...).

    ``density`` is interpreted per family (edge probability for ``gnp``,
    inter-cluster probability for ``clustered``; ignored by the families
    whose density is structural).  Unknown names raise
    :class:`~repro.core.errors.ParameterError` listing the choices.
    """
    key = family.strip().lower()
    if key not in FAMILY_BUILDERS:
        raise ParameterError(
            f"unknown graph family {family!r}; choices: {sorted(FAMILY_BUILDERS)}"
        )
    return FAMILY_BUILDERS[key](n, density, seed)
