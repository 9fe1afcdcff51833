"""Sharded oracle pool: vertex-partitioned CachedOracle instances + a router.

The LCA contract (Definition 1.4) makes every answer a pure function of
``(graph, seed, query)``, so *any* number of independently instantiated LCAs
with the same seed agree on every query.  That freedom is what makes
horizontal sharding trivial to get right: a :class:`ShardedOraclePool` holds
``N`` independent LCA instances — one per shard, each with its own
:class:`~repro.core.oracle.CachedOracle`, probe counter and
:class:`~repro.core.cache.OracleCache` memo state — and a router maps each
query edge to the shard that *owns* its canonical first endpoint.

Sharding therefore partitions the **memo state**, not the graph: every shard
can read the whole graph (the cache layer is probe-free; the model cost is
charged per query exactly as a single oracle would charge it), but a vertex's
derived state (center sets, cluster memberships, representatives) is only
ever materialized on the one shard that owns the vertex, so memory scales
down per shard and shards never contend on shared mutable state — the layout
a real multi-process deployment would use.

Answers and per-request probe totals are identical to a single oracle's,
whatever the shard count — the engine's equivalence tests pin sharded
serving against the same single-oracle baseline.

Routing
-------
``owner = mix(u) % N`` with a splitmix-style integer mix: consecutive,
offset or sparse vertex ids all spread across the shards.  The owner is a
pure function of the vertex id, so a router can be recomputed anywhere
(client-side routing) and needs no view of the graph's id space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.lca import BatchQueryResult, SpannerLCA
from ..core.probes import ProbeSnapshot
from ..graphs.graph import Graph

Edge = Tuple[int, int]


def _splitmix(x: int) -> int:
    """Deterministic 64-bit integer mix (splitmix64 finalizer).

    Python's ``hash(int)`` is the identity for small ints, which would make
    routing degenerate to modulo; this mix decorrelates vertex ids from
    shard ids.
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class ShardRouter:
    """Maps vertices (and query edges) to shard ids.

    A query ``(u, v)`` is owned by the shard of its canonical first endpoint
    ``min(u, v)``, so both orientations of an edge route identically and a
    repeat query always lands on the shard holding its memoized state.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)

    def shard_of_vertex(self, v: int) -> int:
        return _splitmix(int(v)) % self.num_shards

    def shard_of_edge(self, u: int, v: int) -> int:
        return self.shard_of_vertex(u if u <= v else v)


@dataclass
class ShardReport:
    """Telemetry for one shard of the pool."""

    shard_id: int
    requests: int
    probes: ProbeSnapshot
    cache_hits: int
    cache_misses: int
    mutations: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "requests": self.requests,
            "probes": self.probes.as_dict(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "mutations": self.mutations,
        }


class OracleShard:
    """One shard: an independent LCA instance plus request accounting.

    The shard serves each request group of a dispatched batch through the
    streaming :meth:`~repro.core.lca.SpannerLCA.query_batch` path
    (:meth:`serve_batch`); answers and per-query probe totals equal a cold
    per-query run's.
    """

    __slots__ = ("shard_id", "lca", "requests", "mutations")

    def __init__(self, shard_id: int, lca: SpannerLCA) -> None:
        self.shard_id = shard_id
        self.lca = lca
        self.requests = 0
        self.mutations = 0

    def serve_batch(self, edges: Sequence[Edge], validate: bool = True) -> BatchQueryResult:
        """Serve a coalesced batch through the streaming engine."""
        self.requests += len(edges)
        return self.lca.query_batch(edges, validate=validate)

    def apply_mutation(self, op: str, u: int, v: int) -> int:
        """Apply one graph mutation on behalf of the pool; returns the epoch.

        The graph object is shared by every shard, so the write executes
        once — on the owning shard, while no read batch is open (the
        engine's write barrier).  Sibling shards need no
        notification: their memo entries check the shared graph's vertex
        epochs on their next lookup and discard themselves lazily.
        """
        self.mutations += 1
        graph = self.lca.graph
        graph.apply_mutation(op, u, v)
        return graph.epoch

    def telemetry(self) -> Tuple[int, ProbeSnapshot, int, int, int]:
        """Lifetime counters ``(requests, probes, cache_hits, cache_misses,
        mutations)``."""
        cache = self.lca.oracle_cache
        return (
            self.requests,
            self.lca.probe_counter.snapshot(),
            cache.stats.hits if cache is not None else 0,
            cache.stats.misses if cache is not None else 0,
            self.mutations,
        )


class ReplicaSet:
    """The replicas of one shard: interchangeable same-seed LCA instances.

    The LCA purity contract is what makes replication cheap to get right:
    every replica is an independent instance built by the same factory
    (same seed, same parameters), so all replicas agree on every answer
    *by construction* — failover changes which memo cache serves a read,
    never the read's answer or its cold-schedule probe total.

    What replicas do **not** automatically share is warm memo state.  The
    set therefore keeps one *checkpoint*: a copy of the serving primary's
    answer table, the memo under
    :meth:`~repro.core.lca.SpannerLCA.query_answer_namespace`
    (:meth:`checkpoint`).  Answers are all a same-seed replica needs to
    get warm; every other memo table is keyed by the instance's own live
    objects.  A replica promoted after a crash — or rejoining after
    recovery — folds the latest checkpoint it has not seen into its own
    answer table (:meth:`sync`).  Entries keep their epoch stamps (see
    :mod:`repro.core.cache`), so a checkpoint taken before a graph
    mutation is still safe to fold in after it: stale entries discard
    themselves on their next lookup.  No hit or miss count moves with a
    checkpoint, so each replica's counters count its own lookups only.
    """

    __slots__ = ("shard_id", "replicas", "_checkpoint", "_version", "_synced")

    def __init__(self, shard_id: int, replicas: Sequence[OracleShard]) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self._checkpoint: Optional[Tuple[int, dict]] = None  # (source, answers)
        self._version = 0
        self._synced = [0] * len(self.replicas)

    def __len__(self) -> int:
        return len(self.replicas)

    def _answers(self, replica_idx: int) -> dict:
        """The answer table of replica ``replica_idx`` (created if empty)."""
        lca = self.replicas[replica_idx].lca
        return lca.ensure_cached_oracle().cache.memo(lca.query_answer_namespace())

    def checkpoint(self, replica_idx: int) -> int:
        """Copy ``replica_idx``'s answer table as the set's checkpoint.

        Returns the checkpoint version.
        """
        self._version += 1
        self._checkpoint = (replica_idx, dict(self._answers(replica_idx)))
        self._synced[replica_idx] = self._version
        return self._version

    def sync(self, replica_idx: int) -> bool:
        """Fold the latest unseen checkpoint into ``replica_idx``.

        Called on promotion (the new primary inherits the crashed
        primary's warm answers) and on rejoin after recovery.  An answer
        the replica already holds is kept (first write wins); since
        answers are pure functions of ``(graph, seed, query)``, the order
        of syncs never changes the table.  A no-op when the replica took
        the checkpoint itself or has already folded it in; returns
        whether a fold happened.
        """
        if self._checkpoint is None:
            return False
        source, answers = self._checkpoint
        if source == replica_idx or self._synced[replica_idx] >= self._version:
            return False
        own = self._answers(replica_idx)
        for key, entry in answers.items():
            own.setdefault(key, entry)
        self._synced[replica_idx] = self._version
        return True

    def telemetry(self) -> Tuple[int, ProbeSnapshot, int, int, int]:
        """Aggregate lifetime counters across the set's replicas."""
        requests = hits = misses = mutations = 0
        probes = ProbeSnapshot()
        for replica in self.replicas:
            r, p, h, m, mu = replica.telemetry()
            requests += r
            probes = probes + p
            hits += h
            misses += m
            mutations += mu
        return (requests, probes, hits, misses, mutations)

    def report(
        self, since: Optional[Tuple[int, ProbeSnapshot, int, int, int]] = None
    ) -> ShardReport:
        """One aggregated :class:`ShardReport` for the whole replica set."""
        requests, probes, hits, misses, mutations = self.telemetry()
        if since is not None:
            base_requests, base_probes, base_hits, base_misses, base_mut = since
            requests -= base_requests
            probes = probes - base_probes
            hits -= base_hits
            misses -= base_misses
            mutations -= base_mut
        return ShardReport(
            shard_id=self.shard_id,
            requests=requests,
            probes=probes,
            cache_hits=hits,
            cache_misses=misses,
            mutations=mutations,
        )


class ShardedOraclePool:
    """``N`` independent LCA shards behind a vertex router.

    Parameters
    ----------
    graph:
        The input graph (shared, read-only).
    lca_factory:
        Callable ``graph -> SpannerLCA``.  It must bake in the seed (and any
        parameters) so that every shard's instance answers identically —
        which the LCA purity contract then guarantees.
    num_shards:
        Number of independent shards.
    replication:
        Replicas per shard (default 1 — no redundancy).  Each replica is an
        independent same-seed LCA instance inside a :class:`ReplicaSet`;
        the request engine routes reads to the current live primary and
        fails over when faults take it down.
    """

    def __init__(
        self,
        graph: Graph,
        lca_factory: Callable[[Graph], SpannerLCA],
        num_shards: int = 1,
        replication: int = 1,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.graph = graph
        self.router = ShardRouter(num_shards)
        self.replication = int(replication)
        self.replica_sets = [
            ReplicaSet(
                i, [OracleShard(i, lca_factory(graph)) for _ in range(replication)]
            )
            for i in range(num_shards)
        ]
        name = self.replica_sets[0].replicas[0].lca.name
        if any(
            replica.lca.name != name
            for replica_set in self.replica_sets
            for replica in replica_set.replicas
        ):
            raise ValueError("lca_factory produced differently named LCAs")
        self.algorithm = name

    @property
    def num_shards(self) -> int:
        return len(self.replica_sets)

    def partition(
        self, edges: Sequence[Edge]
    ) -> List[Tuple[int, List[Edge], List[int]]]:
        """Split a batch by owning shard in one routing pass.

        Returns ``(shard_id, group_edges, batch_positions)`` triples in
        first-seen shard order (deterministic for a given batch); the
        positions let per-shard results scatter straight back into batch
        order.  The request engine serves (and fault-injects) each group on
        its shard's live replica.
        """
        shard_of = self.router.shard_of_edge
        groups: Dict[int, List[Edge]] = {}
        slots: Dict[int, List[int]] = {}
        for position, (u, v) in enumerate(edges):
            shard_id = shard_of(u, v)
            if shard_id in groups:
                groups[shard_id].append((u, v))
                slots[shard_id].append(position)
            else:
                groups[shard_id] = [(u, v)]
                slots[shard_id] = [position]
        return [
            (shard_id, group, slots[shard_id])
            for shard_id, group in groups.items()
        ]

    def telemetry(self) -> List[Tuple[int, ProbeSnapshot, int, int, int]]:
        """Per-shard lifetime counters, aggregated across each shard's
        replicas (a baseline for :meth:`reports`)."""
        return [replica_set.telemetry() for replica_set in self.replica_sets]

    def reports(
        self, since: Optional[List[Tuple[int, ProbeSnapshot, int, int, int]]] = None
    ) -> List[ShardReport]:
        if since is None:
            return [replica_set.report() for replica_set in self.replica_sets]
        return [
            replica_set.report(baseline)
            for replica_set, baseline in zip(self.replica_sets, since)
        ]
