"""Base classes for local computation algorithms for spanners.

Definition 1.4 of the paper: an LCA ``A`` for graph spanners has access to the
adjacency-list oracle ``O_G``, a tape of random bits and local memory.  Given
a query edge ``(u, v) ∈ E`` it makes probes and returns YES iff ``(u, v)``
belongs to one fixed sparse spanner ``H ⊆ G`` determined by ``G`` and the
random tape alone.

:class:`SpannerLCA` encodes this contract:

* the constructor receives the graph, a :class:`~repro.core.seed.Seed` and
  algorithm parameters — nothing else;
* the only access to the graph during a query is the probe oracle passed to
  :meth:`_decide`, so probe accounting is automatic and complete;
* answers are pure functions of ``(graph, seed, query)``; in particular the
  same query always returns the same answer and querying ``(u, v)`` or
  ``(v, u)`` returns the same answer.

The class also provides :meth:`materialize`, which queries every edge of the
graph and returns the induced global spanner together with per-query probe
statistics — the bridge between the local algorithm and the global
verification used by the tests and benchmarks.

The method a caller picks decides the engine.  :meth:`query` and
:meth:`query_with_stats` run the cold reference on the plain oracle;
:meth:`query_batch` is the one cached query path; :meth:`materialize` takes
its engine per call (``mode``, cold by default).  The engines differ in
wall-clock time only: answers and per-query probe ledgers are identical.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import GraphError, NotAnEdgeError
from .ids import canonical_edge
from .oracle import AdjacencyListOracle, CachedOracle
from .probes import ProbeCounter, ProbeSnapshot, ProbeStatistics
from .seed import Seed, SeedLike
from ..graphs.graph import Graph
from ..kernels import resolve_kernel

Edge = Tuple[int, int]

#: The engines :meth:`SpannerLCA.materialize` can run.  ``cold`` answers
#: every edge from scratch on the plain oracle (the reference probe
#: schedule); ``batched`` streams the edges through the cached engine,
#: which serves repeated state from a cross-query memo while charging the
#: cold schedule.  Both produce identical answers and identical per-query
#: probe totals (see :mod:`repro.core.cache`).
QUERY_MODES = ("cold", "batched")


def _check_mode(mode: str) -> str:
    if mode not in QUERY_MODES:
        raise ValueError(
            f"unknown materialize mode {mode!r}; choices: {QUERY_MODES}"
        )
    return mode


@dataclass
class EdgeQueryResult:
    """Outcome of a single LCA query."""

    edge: Edge
    in_spanner: bool
    probes: ProbeSnapshot

    @property
    def probe_total(self) -> int:
        return self.probes.total


@dataclass
class BatchQueryResult:
    """Answers and per-query probe totals for a batch of streamed queries.

    Produced by :meth:`SpannerLCA.query_batch`, the service-layer fast path:
    parallel lists instead of one :class:`EdgeQueryResult` per query, so a
    coalesced batch pays no per-request object or context-manager overhead.
    Entry ``i`` corresponds to the ``i``-th edge of the input batch.
    """

    edges: List[Edge]
    answers: List[bool]
    probe_totals: List[int]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(zip(self.edges, self.answers, self.probe_totals))


@dataclass
class MaterializedSpanner:
    """A global spanner obtained by querying an LCA on every edge."""

    algorithm: str
    stretch_bound: Optional[int]
    edges: Set[Edge]
    probe_stats: ProbeStatistics = field(default_factory=ProbeStatistics)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def contains(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edges

    def as_graph(self, host: Graph) -> Graph:
        """The spanner as a spanning subgraph of its host graph."""
        return host.subgraph_with_edges(self.edges)


class SpannerLCA(abc.ABC):
    """Abstract base class for spanner LCAs.

    Subclasses implement :meth:`_decide`, which may only interact with the
    graph through the supplied oracle.
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name: str = "abstract-spanner-lca"

    def __init__(self, graph: Graph, seed: SeedLike) -> None:
        self._graph = graph
        self._seed = Seed.of(seed)
        self._counter = ProbeCounter()
        self._oracle = AdjacencyListOracle(graph, self._counter)
        self._cached_oracle: Optional[CachedOracle] = None
        self._profiler = None
        self._answer_namespace: Optional[Tuple] = None
        self.probe_stats = ProbeStatistics()

    # ------------------------------------------------------------------ #
    # Contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        """Return whether the queried edge belongs to the spanner."""

    def stretch_bound(self) -> Optional[int]:
        """The stretch guarantee of the construction, or ``None`` if unbounded."""
        return None

    # ------------------------------------------------------------------ #
    # Public query interface
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def seed(self) -> Seed:
        return self._seed

    @property
    def graph_epoch(self) -> int:
        """Mutation epoch of the underlying graph (telemetry)."""
        return self._graph.epoch

    def apply_mutations(self, ops: Iterable) -> int:
        """Apply a sequence of graph mutations; returns the count applied.

        Each item is an ``(op, u, v)`` triple or any object with ``op`` /
        ``u`` / ``v`` attributes (e.g. :class:`repro.service.trace.TraceOp`)
        where ``op`` is ``"add"`` or ``"remove"``.  Mutations go straight to
        the shared graph: no cache is flushed here — memoized state carries
        epoch tags (:mod:`repro.core.cache`) and invalidates itself lazily,
        so after any mutation sequence this LCA answers (and charges probes)
        exactly like a from-scratch rebuild on the post-mutation edge set.
        """
        count = 0
        for item in ops:
            if isinstance(item, tuple):
                op, u, v = item
            else:
                op, u, v = item.op, item.u, item.v
            self._graph.apply_mutation(op, u, v)
            count += 1
        return count

    @property
    def probe_counter(self) -> ProbeCounter:
        """The shared probe counter (telemetry: per-kind totals so far)."""
        return self._counter

    @property
    def oracle_cache(self):
        """The :class:`~repro.core.cache.OracleCache` behind the cached
        engine, or ``None`` while the LCA has only run cold queries.
        Exposed for telemetry (hit rates, memo sizes); answers never depend
        on it."""
        cached = self._cached_oracle
        return cached.cache if cached is not None else None

    @property
    def kernel_name(self) -> str:
        """The kernel the cached engine runs ("python" or "numpy"), as
        ``REPRO_KERNEL`` selected it when the engine was built (building
        the engine now if it does not exist yet)."""
        kernel = self.ensure_cached_oracle().kernel
        return "python" if kernel is None else kernel.name

    def attach_profiler(self, profiler) -> "SpannerLCA":
        """Attach a :class:`repro.obs.profiler.ProbeProfiler` to this LCA.

        Pure observation: the profiler sees kernel phase boundaries and
        memo-cache outcomes but never touches the counter or the cache, so
        answers and probe accounting are unchanged (pinned by the
        observability equivalence tests).  ``None`` detaches.  Returns
        ``self`` for chaining.
        """
        self._profiler = profiler
        self._oracle.profiler = profiler
        cached = self._cached_oracle
        if cached is not None:
            cached.profiler = profiler
        return self

    def ensure_cached_oracle(self) -> CachedOracle:
        """The LCA's cached oracle, created on first use with the probe
        kernel ``REPRO_KERNEL`` selects (:func:`repro.kernels.resolve_kernel`).

        The batched engine runs on it, and the service's replica sets use
        it as a public handle: a checkpoint copies its answer table
        (:meth:`query_answer_namespace`) and a rejoining replica folds the
        copy into its own (:meth:`repro.service.shards.ReplicaSet.sync`).
        """
        if self._cached_oracle is None:
            kernel = resolve_kernel()
            self._cached_oracle = CachedOracle(self._graph, self._counter)
            self._cached_oracle.kernel = kernel
            if self._profiler is not None:
                self._cached_oracle.profiler = self._profiler
        return self._cached_oracle

    def query_answer_namespace(self) -> Tuple:
        """The memo namespace of the whole-query-answer cache.

        Built from values only (name, seed, parameter values) — never from
        live objects — so every LCA built from the same name, seed and
        parameters produces the same namespace, and memoized answers move
        between such LCAs (replicas of one shard) through
        :meth:`repro.service.shards.ReplicaSet.checkpoint`.  It is built
        once per LCA, of primitives only, so every memo lookup and store
        hashes a plain tuple.
        """
        namespace = self._answer_namespace
        if namespace is None:
            params = getattr(self, "params", None)
            namespace = self._answer_namespace = (
                "query-answer",
                self.name,
                self._seed.value,
                None if params is None else dataclasses.astuple(params),
            )
        return namespace

    def query(self, u: int, v: int) -> bool:
        """Answer "is ``(u, v)`` in the spanner?" for an edge of ``G``."""
        return self.query_with_stats(u, v).in_spanner

    def query_with_stats(self, u: int, v: int) -> EdgeQueryResult:
        """Answer a query from scratch on the plain oracle and report the
        probes it used.

        This is the cold reference path: every probe goes to the plain
        oracle and nothing comes from the cross-query memo, so its answer
        and per-kind charge are the ones every cached path
        (:meth:`query_batch`, a batched :meth:`materialize`) must reproduce.
        """
        if not self._graph.has_edge(u, v):
            raise NotAnEdgeError(u, v)
        with self._counter.measure() as measurement:
            answer = bool(self._decide(self._oracle, u, v))
        self.probe_stats.add(measurement.total)
        return EdgeQueryResult(
            edge=canonical_edge(u, v), in_spanner=answer, probes=measurement.used
        )

    def query_batch(
        self, edges: Iterable[Edge], validate: bool = True
    ) -> BatchQueryResult:
        """Answer a call of queries through the cached engine.

        *Whole query answers* are memoized per exact orientation: an answer
        is a pure function of ``(graph, seed, query)`` and so is its cold
        probe schedule, so a hit returns the stored answer and replays the
        stored per-kind probe cost.  Answers and per-query probe totals are
        therefore identical to :meth:`query_with_stats` (see
        :mod:`repro.core.cache`); only the wall-clock cost drops.  A call
        takes three steps:

        1. look the queries up in request order, up to the first non-edge;
        2. decide the distinct misses, together by the decider
           :meth:`_batch_decider` offers for them, else one at a time by
           :meth:`_decide_each`;
        3. store the misses, then charge and classify every looked-up query
           in request order: a miss's first occurrence is counted a miss
           (epoch-invalidated when its lookup discarded a stale entry), and
           a repeat inside the call is a hit on the stored entry.

        A non-edge raises :class:`NotAnEdgeError` after the queries before
        it are answered, charged and stored.  A miss is always checked to be
        an edge before it is decided; ``validate=False`` skips the check for
        hits, for callers (the request scheduler) that have already
        validated admission.  A probe budget trips inside the call whose
        charges pass it.
        """
        oracle = self.ensure_cached_oracle()
        namespace = self.query_answer_namespace()
        cache = oracle.cache
        lookup = cache.lookup
        has_edge = self._graph.has_edge
        keys: List[Edge] = []
        found = []
        missed = {}  # key -> whether its lookup discarded a stale entry
        failure = None
        for (u, v) in edges:
            key = (u, v)
            entry = None
            try:
                if validate and not has_edge(u, v):
                    raise NotAnEdgeError(u, v)
                if key not in missed:
                    discards = cache.discards
                    entry = lookup(namespace, key)
                    if entry is None:
                        if not (validate or has_edge(u, v)):
                            raise NotAnEdgeError(u, v)
                        missed[key] = cache.discards != discards
            except GraphError as exc:
                failure = exc
                break
            keys.append(key)
            found.append(entry)
        stored = {}
        if missed:
            misses = list(missed)
            decide = self._batch_decider(oracle, misses)
            decided = self._decide_each(oracle, misses) if decide is None else decide(misses)
            for key, (answer, cost, touched) in zip(misses, decided):
                stored[key] = cache.store(namespace, key, (answer, cost), touched)
        stats = cache.stats
        profiler = oracle.profiler
        answers: List[bool] = []
        totals: List[int] = []
        neighbor = degree = adjacency = 0
        for key, entry in zip(keys, found):
            invalidated = None
            if entry is None:  # a miss, or a repeat of one in this call
                entry = stored[key]
                invalidated = missed.pop(key, None)
            answer, cost = entry.value
            if invalidated is None:
                stats.hits += 1
                neighbor += cost.neighbor
                degree += cost.degree
                adjacency += cost.adjacency
                if profiler is not None:
                    profiler.record_hit(cost.total)
            else:
                stats.misses += 1
                if profiler is not None:
                    if invalidated:
                        profiler.note_invalidation()
                    profiler.record_miss(cost.total, invalidated=invalidated)
            answers.append(answer)
            totals.append(cost.total)
        oracle.charge(neighbor=neighbor, degree=degree, adjacency=adjacency)
        self.probe_stats.query_totals.extend(totals)
        if failure is not None:
            raise failure
        return BatchQueryResult(edges=keys, answers=answers, probe_totals=totals)

    def _batch_decider(self, oracle: CachedOracle, misses: List[Edge]):
        """Hook: a function that decides the distinct misses ``misses`` together.

        Called with the misses, it charges their cold probes and returns what
        :meth:`_decide_each` returns.  ``None`` (the default) decides them one
        at a time; ``ThreeSpannerLCA`` offers the numpy kernel's array
        evaluator for enough misses.
        """
        return None

    def _decide_each(self, oracle: CachedOracle, misses: List[Edge]) -> list:
        """Decide ``misses`` one at a time by :meth:`_decide`.

        Returns each miss's ``(answer, cold ProbeSnapshot, read set)``: the
        probes its decision charged and the vertices it read.
        """
        counter = oracle.counter
        track = oracle.cache.track
        decide = self._decide
        decided = []
        before = counter.snapshot()
        for (u, v) in misses:
            with track() as touched:
                answer = bool(decide(oracle, u, v))
            after = counter.snapshot()
            decided.append((answer, after - before, touched))
            before = after
        return decided

    # ------------------------------------------------------------------ #
    # Global materialization (verification bridge)
    # ------------------------------------------------------------------ #
    def materialize(
        self,
        edges: Optional[Iterable[Edge]] = None,
        mode: str = "cold",
        tracer=None,
    ) -> MaterializedSpanner:
        """Query every edge (or the given subset) and collect the spanner.

        The construction algorithms of the paper are "used only to define the
        unique spanner ... we never construct the full, global spanner at any
        point"; this method exists purely so that tests and benchmarks can
        check the global object that the local answers are consistent with.

        ``mode`` picks the engine: "cold" (the default) answers each edge by
        :meth:`query_with_stats`; "batched" streams the edges through
        :meth:`_materialize_batched` on the cached oracle.  Edges, per-query
        probe totals and per-kind probe counts are identical across modes.

        ``tracer`` (a :class:`repro.obs.tracer.SpanTracer`, default off)
        wraps the run in a ``materialize`` span — observation only, answers
        and probe accounting are unchanged.
        """
        mode = _check_mode(mode)
        result = MaterializedSpanner(
            algorithm=self.name, stretch_bound=self.stretch_bound(), edges=set()
        )
        if tracer is not None:
            with tracer.span(
                "materialize", "exec", algorithm=self.name, mode=mode
            ) as span:
                self._materialize_edges(mode, edges, result)
                span.args["edges"] = result.probe_stats.queries
                span.args["probes"] = result.probe_stats.total
        else:
            self._materialize_edges(mode, edges, result)
        return result

    def _materialize_edges(
        self,
        mode: str,
        edges: Optional[Iterable[Edge]],
        result: MaterializedSpanner,
    ) -> None:
        """Run the in-process materialization engine for :meth:`materialize`."""
        if mode == "batched":
            if edges is None and self._kernel_materialize(result):
                return
            edge_iter = self._graph.edges() if edges is None else edges
            self._materialize_batched(edge_iter, result, validate=edges is not None)
            return
        edge_iter = self._graph.edges() if edges is None else edges
        for (u, v) in edge_iter:
            outcome = self.query_with_stats(u, v)
            result.probe_stats.add(outcome.probe_total)
            if outcome.in_spanner:
                result.edges.add(outcome.edge)

    def _kernel_materialize(self, result: MaterializedSpanner) -> bool:
        """Hook for algorithm-specific array-at-once batched materializers.

        Called by :meth:`_materialize_edges` before the scalar batched loop
        when materializing the *full* edge set.  Subclasses with a vectorized
        whole-graph kernel (see ``ThreeSpannerLCA``) override this to fill
        ``result`` with bit-identical edges and per-query probe totals and
        return ``True``; the default ``False`` keeps the scalar engine.
        """
        return False

    def _materialize_batched(
        self, edge_iter: Iterable[Edge], result: MaterializedSpanner, validate: bool
    ) -> None:
        """The batched materialization engine.

        Streams every query through :meth:`_decide` against the shared cached
        oracle without building per-query :class:`EdgeQueryResult` objects.
        Queries arrive grouped by their first endpoint (``Graph.edges`` walks
        the adjacency structure), so consecutive queries share scanner-side
        per-vertex state and the memo layer turns the quadratic re-derivation
        of center sets into one computation per vertex.  Per-query probe
        totals still follow the cold-cache schedule (see
        :mod:`repro.core.cache`) and are collected in ``result.probe_stats``.
        """
        oracle = self.ensure_cached_oracle()
        counter = self._counter
        decide = self._decide
        has_edge = self._graph.has_edge
        keep = result.edges
        totals = result.probe_stats.query_totals
        own_totals = self.probe_stats.query_totals
        before = counter.total
        for (u, v) in edge_iter:
            if validate and not has_edge(u, v):
                raise NotAnEdgeError(u, v)
            answer = decide(oracle, u, v)
            after = counter.total
            used = after - before
            before = after
            totals.append(used)
            own_totals.append(used)
            if answer:
                keep.add(canonical_edge(u, v))

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def _derive_seed(self, label: str) -> Seed:
        """Derive a role-specific child seed."""
        return self._seed.derive(label)


class CombinedLCA(SpannerLCA):
    """Union of several LCAs (Observation 2.2).

    If subgraphs ``H_1, ..., H_ℓ`` together take care of all edges, their
    union is a spanner; the combined LCA answers YES when *any* component
    answers YES.  Probe complexity, size and random bits add up.
    """

    name = "combined-lca"

    def __init__(
        self, graph: Graph, seed: SeedLike, components: Sequence[SpannerLCA]
    ) -> None:
        super().__init__(graph, seed)
        if not components:
            raise ValueError("CombinedLCA needs at least one component")
        self.components = list(components)

    def stretch_bound(self) -> Optional[int]:
        bounds = [c.stretch_bound() for c in self.components]
        if any(b is None for b in bounds):
            return None
        return max(bounds)

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        # Every component is always invoked; components may contribute edges
        # outside "their" class, so short-circuiting on the first YES is an
        # optimization that does not change the union.
        for component in self.components:
            if component._decide(oracle, u, v):
                return True
        return False


class KeepAllLCA(SpannerLCA):
    """The trivial LCA that keeps every edge (stretch 1, no sparsification).

    Used as a sanity baseline and in degenerate parameter regimes (e.g. when
    every vertex counts as "low degree").
    """

    name = "keep-all"

    def stretch_bound(self) -> Optional[int]:
        return 1

    def _decide(self, oracle: AdjacencyListOracle, u: int, v: int) -> bool:
        return True


@dataclass
class LCADescription:
    """Static description of an LCA construction (for tables and docs)."""

    name: str
    stretch: str
    edge_bound: str
    probe_bound: str
    graph_family: str
    reference: str

    def as_row(self) -> Dict[str, str]:
        return {
            "algorithm": self.name,
            "graph family": self.graph_family,
            "# edges": self.edge_bound,
            "stretch": self.stretch,
            "probe complexity": self.probe_bound,
            "reference": self.reference,
        }


PAPER_RESULTS: List[LCADescription] = [
    LCADescription(
        name="3-spanner LCA",
        stretch="3",
        edge_bound="~O(n^{3/2})",
        probe_bound="~O(n^{3/4})",
        graph_family="general",
        reference="Theorem 1.1 (r=2)",
    ),
    LCADescription(
        name="5-spanner LCA",
        stretch="5",
        edge_bound="~O(n^{4/3})",
        probe_bound="~O(n^{5/6})",
        graph_family="general",
        reference="Theorem 1.1 (r=3)",
    ),
    LCADescription(
        name="5-spanner LCA (min degree)",
        stretch="5",
        edge_bound="~O(n^{1+1/r})",
        probe_bound="~O(n^{1-1/(2r)})",
        graph_family="min degree n^{1/2-1/(2r)}",
        reference="Theorem 3.5",
    ),
    LCADescription(
        name="O(k^2)-spanner LCA",
        stretch="O(k^2)",
        edge_bound="~O(n^{1+1/k})",
        probe_bound="~O(Δ^4 n^{2/3})",
        graph_family="general (max degree n^{1/12-ε} for sublinearity)",
        reference="Theorem 1.2",
    ),
]
