"""Open-loop request-stream generators: workload kinds as a first-class axis.

A workload turns "materialize every edge once" into "serve a stream of
requests": each request is one ``(u, v) ∈ spanner?`` question, and different
kinds stress different parts of the serving stack —

``uniform``
    Edges sampled independently and uniformly (with replacement).  The
    baseline: every shard and every memo entry is equally likely to be hit.
``zipf``
    Endpoints follow a Zipf law over the degree ranking: a few hot vertices
    (the high-degree hubs) receive most of the traffic, as in real social /
    web query logs.  Stresses shard load balance and rewards per-vertex
    memoization.
``adaptive``
    Queries follow the answers: after an edge is reported in the spanner,
    later requests explore edges incident to its endpoints (a client walking
    the spanner).  This is the many-adaptive-queries regime of the
    space-efficient LCA line of work — the stream depends on earlier
    answers, so it cannot be pre-generated.
``churn``
    A read/write mix: with probability ``write_ratio`` the next request is a
    graph *mutation* (a random edge insertion or deletion, emitted as a
    :class:`~repro.service.trace.TraceOp`), otherwise a uniform read.  The
    workload keeps an internal mirror of the edge set — every emitted
    mutation is valid against the state all earlier emitted mutations
    produce, which the engine guarantees by applying writes in stream order
    and never shedding them.  This is the live-traffic regime the
    epoch-based cache invalidation exists for.
``trace``
    Replay of a recorded request log (JSONL, see :mod:`repro.service.trace`)
    — the regression-testing workhorse: identical byte streams across runs.
    Traces replay queries *and* recorded mutations losslessly.

All workloads draw from a private :class:`random.Random` seeded explicitly,
so a (kind, graph, seed, size) tuple always reproduces the same stream —
adaptive streams additionally require the same answer sequence, which the
LCA purity contract guarantees.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.ids import canonical_edge
from ..graphs.graph import Graph
from .trace import TraceOp, read_trace_ops

Edge = Tuple[int, int]

#: What a workload emits: plain query edges, or TraceOp records for streams
#: that carry mutations.
Request = Union[Edge, TraceOp]

#: Registered workload kinds (the scenario axis).
WORKLOAD_KINDS = ("uniform", "zipf", "adaptive", "churn", "trace")


class Workload:
    """Base class: a pull-based request stream with an answer feedback hook.

    The engine pulls requests with :meth:`next_request` (``None`` ends the
    stream) and reports each served answer back through :meth:`observe`.
    Open-loop kinds ignore the feedback; the adaptive kind uses it to steer.
    """

    kind: str = "abstract"

    def __init__(self, num_requests: int) -> None:
        self.num_requests = int(num_requests)
        self._emitted = 0

    def next_request(self) -> Optional[Edge]:
        if self._emitted >= self.num_requests:
            return None
        self._emitted += 1
        return self._generate()

    def _generate(self) -> Edge:
        raise NotImplementedError

    def observe(self, edge: Edge, in_spanner: bool) -> None:
        """Feedback hook: called once per *served* request (not rejected)."""

    def __iter__(self) -> Iterator[Edge]:
        while True:
            edge = self.next_request()
            if edge is None:
                return
            yield edge


def _oriented(rng: random.Random, u: int, v: int) -> Edge:
    """Randomly orient an edge — clients ask either direction."""
    return (u, v) if rng.random() < 0.5 else (v, u)


class UniformWorkload(Workload):
    """Edges sampled uniformly with replacement."""

    kind = "uniform"

    def __init__(self, graph: Graph, num_requests: int, seed: int = 0) -> None:
        super().__init__(num_requests)
        self._edges = graph.edge_list()
        if not self._edges:
            raise ValueError("graph has no edges to sample requests from")
        # String seeds hash deterministically (sha512), unlike tuples whose
        # seeding goes through the per-process salted hash().
        self._rng = random.Random(f"uniform:{seed}")

    def _generate(self) -> Edge:
        rng = self._rng
        u, v = self._edges[rng.randrange(len(self._edges))]
        return _oriented(rng, u, v)


class ZipfWorkload(Workload):
    """Endpoint popularity follows a Zipf law over the degree ranking.

    Vertex of degree-rank ``r`` (1 = highest degree) is chosen with
    probability proportional to ``1 / r**skew``; the request edge is a
    uniformly random edge incident to the chosen vertex.
    """

    kind = "zipf"

    def __init__(
        self, graph: Graph, num_requests: int, seed: int = 0, skew: float = 1.1
    ) -> None:
        super().__init__(num_requests)
        if skew <= 0:
            raise ValueError("skew must be positive")
        self._graph = graph
        self._rng = random.Random(f"zipf:{seed}")
        ranked = [v for v in graph.vertices() if graph.degree(v) > 0]
        if not ranked:
            raise ValueError("graph has no edges to sample requests from")
        # Stable hot set: order by (degree desc, id) so the ranking — and
        # therefore the whole stream — is independent of dict order.
        ranked.sort(key=lambda v: (-graph.degree(v), v))
        self._ranked = ranked
        weights: List[float] = []
        acc = 0.0
        for rank in range(1, len(ranked) + 1):
            acc += 1.0 / rank ** skew
            weights.append(acc)
        self._cumulative = weights
        self.skew = skew

    def _generate(self) -> Edge:
        rng = self._rng
        pick = rng.random() * self._cumulative[-1]
        idx = bisect.bisect_left(self._cumulative, pick)
        v = self._ranked[min(idx, len(self._ranked) - 1)]
        neighbors = self._graph.neighbors(v)
        w = neighbors[rng.randrange(len(neighbors))]
        return _oriented(rng, v, w)


class AdaptiveWorkload(Workload):
    """Query neighbors of previously answered requests.

    Keeps a bounded frontier of endpoints from edges recently reported *in*
    the spanner; with probability ``follow`` the next request explores a
    random edge incident to a frontier vertex, otherwise (or when the
    frontier is empty) it restarts from a uniformly random edge.
    """

    kind = "adaptive"

    def __init__(
        self,
        graph: Graph,
        num_requests: int,
        seed: int = 0,
        follow: float = 0.75,
        frontier_size: int = 64,
    ) -> None:
        super().__init__(num_requests)
        if not 0.0 <= follow <= 1.0:
            raise ValueError("follow must be in [0, 1]")
        self._graph = graph
        self._edges = graph.edge_list()
        if not self._edges:
            raise ValueError("graph has no edges to sample requests from")
        self._rng = random.Random(f"adaptive:{seed}")
        self._frontier: List[int] = []
        self._frontier_size = int(frontier_size)
        self.follow = follow

    def _generate(self) -> Edge:
        rng = self._rng
        if self._frontier and rng.random() < self.follow:
            v = self._frontier[rng.randrange(len(self._frontier))]
            neighbors = self._graph.neighbors(v)
            if neighbors:
                w = neighbors[rng.randrange(len(neighbors))]
                return _oriented(rng, v, w)
        u, v = self._edges[rng.randrange(len(self._edges))]
        return _oriented(rng, u, v)

    def observe(self, edge: Edge, in_spanner: bool) -> None:
        if not in_spanner:
            return
        frontier = self._frontier
        for endpoint in edge:
            frontier.append(endpoint)
        overflow = len(frontier) - self._frontier_size
        if overflow > 0:
            del frontier[:overflow]


class ChurnWorkload(Workload):
    """Uniform reads interleaved with random graph mutations.

    With probability ``write_ratio`` the next request is a mutation: an
    edge deletion (a uniformly random current edge) or an insertion (a
    uniformly random current non-edge between existing vertices), each with
    probability 1/2 — so the edge count performs an unbiased random walk
    around its starting point.  Reads sample uniformly from the *current*
    edge set as the workload's internal mirror tracks it.

    The mirror assumes every emitted mutation is applied exactly once, in
    stream order, before any later read executes — the contract the service
    engine provides (writes are never shed and act as scheduling barriers).
    """

    kind = "churn"

    #: Rejection-sampling bound for drawing a non-edge; graphs dense enough
    #: to exhaust it fall back to emitting a deletion instead.
    _ADD_ATTEMPTS = 64

    def __init__(
        self,
        graph: Graph,
        num_requests: int,
        seed: int = 0,
        write_ratio: float = 0.1,
    ) -> None:
        super().__init__(num_requests)
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        edges = [canonical_edge(u, v) for (u, v) in graph.edges()]
        if not edges:
            raise ValueError("graph has no edges to sample requests from")
        self._edges = edges
        self._edge_set = set(edges)
        self._vertices = graph.vertices()
        self._rng = random.Random(f"churn:{seed}")
        self.write_ratio = float(write_ratio)
        self.mutations_emitted = 0

    def _random_non_edge(self) -> Optional[Edge]:
        rng = self._rng
        vertices = self._vertices
        for _ in range(self._ADD_ATTEMPTS):
            u = vertices[rng.randrange(len(vertices))]
            v = vertices[rng.randrange(len(vertices))]
            if u == v:
                continue
            key = canonical_edge(u, v)
            if key not in self._edge_set:
                return key
        return None

    def _emit_add(self) -> Optional[TraceOp]:
        key = self._random_non_edge()
        if key is None:
            return None
        self._edge_set.add(key)
        self._edges.append(key)
        return TraceOp("add", key[0], key[1])

    def _emit_remove(self) -> Optional[TraceOp]:
        if not self._edges:
            return None
        rng = self._rng
        position = rng.randrange(len(self._edges))
        key = self._edges[position]
        # Swap-remove keeps deletion O(1); list order is irrelevant to
        # uniform sampling.
        self._edges[position] = self._edges[-1]
        self._edges.pop()
        self._edge_set.discard(key)
        return TraceOp("remove", key[0], key[1])

    def _generate(self) -> Request:
        rng = self._rng
        if rng.random() < self.write_ratio:
            mutation = (
                self._emit_add() if rng.random() < 0.5 else self._emit_remove()
            )
            if mutation is None:  # saturated graph / no edges left
                mutation = self._emit_remove() or self._emit_add()
            if mutation is not None:
                self.mutations_emitted += 1
                return mutation
        if not self._edges:
            # The mirror drained to zero edges: a read is impossible, so
            # force an insertion instead (always possible — an empty edge
            # set on the ≥2 vertices the constructor guaranteed cannot be
            # complete).
            mutation = self._emit_add()
            self.mutations_emitted += 1
            return mutation
        u, v = self._edges[rng.randrange(len(self._edges))]
        return _oriented(rng, u, v)


class TraceWorkload(Workload):
    """Replay a recorded request stream (queries and mutations) losslessly."""

    kind = "trace"

    def __init__(
        self,
        graph: Graph,
        num_requests: Optional[int] = None,
        seed: int = 0,  # accepted for interface uniformity; replay is exact
        path: Optional[str] = None,
        edges: Optional[Sequence] = None,
    ) -> None:
        if path is None and edges is None:
            raise ValueError("trace workload needs a path or an edge sequence")
        if edges is not None:
            replay: List[Request] = [
                item if isinstance(item, TraceOp) else (int(item[0]), int(item[1]))
                for item in edges
            ]
        else:
            replay = [
                record if record.is_mutation else record.edge
                for record in read_trace_ops(path)
            ]
        if num_requests is not None:
            replay = replay[: int(num_requests)]
        super().__init__(len(replay))
        self._replay = replay
        self._cursor = 0

    def _generate(self) -> Request:
        item = self._replay[self._cursor]
        self._cursor += 1
        return item


WORKLOADS: Dict[str, type] = {
    "uniform": UniformWorkload,
    "zipf": ZipfWorkload,
    "adaptive": AdaptiveWorkload,
    "churn": ChurnWorkload,
    "trace": TraceWorkload,
}


def make_workload(
    kind: str,
    graph: Graph,
    num_requests: Optional[int] = None,
    seed: int = 0,
    **options,
) -> Workload:
    """Instantiate a workload by kind name (the CLI / benchmark entry point).

    ``num_requests=None`` means 1000 for the generative kinds and "the whole
    recording" for trace replay.
    """
    key = kind.strip().lower()
    if key not in WORKLOADS:
        raise ValueError(
            f"unknown workload kind {kind!r}; choices: {sorted(WORKLOADS)}"
        )
    if num_requests is not None and num_requests < 1:
        raise ValueError(f"requests must be >= 1, got {num_requests}")
    if key != "trace" and num_requests is None:
        num_requests = 1000
    return WORKLOADS[key](graph, num_requests=num_requests, seed=seed, **options)
