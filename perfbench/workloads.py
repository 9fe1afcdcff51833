"""The four workloads: inputs, rounds, answer check and metrics.

Every workload runs through the library's public API only.  A run repeats
*rounds* of identical work, with the same seeds every run: each round sets the
program up from scratch (graph build, LCA or engine construction, warm-up),
runs ``gc.collect()``, then times one phase.  End-to-end metrics are medians
over rounds, so no metric is a single short wall reading, and a round that
mutates the graph or fills a memo never leaks state into the next.

Rounds repeat the same operations in the same order, so timings are taken
position by position at their median over rounds.  A timed phase is a
sequence of *segments*: one per round for ``materialize`` and the serving
workloads, one per 32-edge ``query_batch`` call for ``query-cold``.  A
round's time is the sum of its segments' medians; with one segment that is
the median round, and with many it also discards a burst of host contention
that slowed one round part of the way through, which the median of three
long rounds cannot.  Latency percentiles are taken over a round's requests,
each at its median latency over rounds.

Every timing is scaled to a reference host speed.  A shared host runs the
same code at speeds up to half apart, switching within a second and drifting
over minutes, and a run cannot average a minute out.  So a run interleaves a
fixed calibration block (:func:`calibration_block`) with its work: one about
every ``HOST_INTERVAL_S`` of wall time where the work can be interrupted
(:class:`HostClock`), and a few at both ends of every round.  Its timings
are multiplied by ``REFERENCE_BLOCK_S`` over its median block time: what
they would read on a host that runs one block in ``REFERENCE_BLOCK_S``.  One
factor per run, since blocks between ``materialize`` calls sample a round
only at its ends.  The blocks are taken out of every timing they interrupt.
A change to the program moves the timings and not the blocks, so it shows
in full.

The first round's answers are replayed through a fresh same-seed LCA in
``cold`` mode, the scalar reference, on a deterministic sample; every later
round must reproduce the first round's answers and per-query probe totals
exactly.  Both checks run outside the timed phases.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from repro import graphs
from repro.analysis.verify import measure_stretch
from repro.core.ids import canonical_edge
from repro.core.probes import ProbeSnapshot, nearest_rank_percentile
from repro.core.registry import create
from repro.obs.profiler import COLD, EPOCH_INVALIDATED, MEMO_HIT, ProbeProfiler
from repro.service import ServiceConfig, ServiceEngine, make_workload
from repro.service.trace import TraceOp

from . import spec, tracing

clock = time.perf_counter

OUT_DIR = Path(__file__).resolve().parent.parent / spec.OUT_DIR

#: Graph family, n and edge probability of the two instances.
GRAPHS = {
    "dense": ("gnp-stream", 1000, 0.18),
    "churn": ("gnp-stream", 400, 0.22),
}

#: Descriptors of the two graphs at the default graph seed.  A run at that
#: seed fails when its graph differs, so a generator change cannot quietly
#: change what a workload stresses.
EXPECTED_GRAPHS = {
    "dense": {"n": 1000, "m": 89920, "low": 0, "high": 60386, "super": 29534},
    "churn": {"n": 400, "m": 17562, "low": 0, "high": 15022, "super": 2540},
}

#: What deciding every G_dense edge gives at the default graph and LCA seeds:
#: |H|, the probes charged in all and the largest charge.  The seeds fix
#: them, so a run at those seeds fails when one moves.  BENCHMARK.json can
#: only call ``spanner_frac`` lower- or higher-is-better; this check is what
#: keeps it from moving.
EXPECTED_DENSE = {"spanner_edges": 56272, "probes": 43456505, "probes_max": 2320}

#: At least this many rounds per run, so ``setup_s`` is a median too.
MIN_ROUNDS = 3
#: A run stops starting rounds after this many times ``--seconds`` of wall
#: time, which keeps a run bounded when set-up dominates a fast timed phase.
WALL_FACTOR = 3.0
#: Sampled queries replayed through the cold reference per run.
CHECK_SAMPLE = 300
#: Dropped edges whose stretch is checked on ``materialize``.
STRETCH_SAMPLE = 100

#: Wall time between calibration points inside a timed phase or a service
#: warm-up.  A point's two blocks take about a twentieth of it.
HOST_INTERVAL_S = 0.1
#: Calibration blocks at each end of a round, so a round whose work cannot
#: be interrupted (one ``materialize`` call) has blocks too.
EDGE_BLOCKS = 4
#: Block time of the reference host that every timing is scaled to.
REFERENCE_BLOCK_S = 0.0025
#: Length of the calibration block's arrays and of its Python loop.
BLOCK_SIZE = 10_000


def calibration_block(values, index, keys) -> float:
    """Wall time of a fixed block of the two kinds of work the library does,
    in about equal parts: an interpreter loop of integer arithmetic and dict
    stores, then numpy calls of the kinds its kernels make over CSR arrays (a
    gather, a prefix sum, a masked select, a weighted bincount, a stable
    argsort).  Interleaved with slices of each workload for four minutes,
    the numpy half alone tracked ``materialize`` best and the two together
    tracked ``query_batch`` and the zipf service best; a Python loop alone
    tracked none of them as well."""
    start = clock()
    table = {}
    total = 0
    for i in range(BLOCK_SIZE):
        total += i * i % 7
        table[i & 255] = total
    gathered = values[index]
    sums = np.cumsum(keys)
    sums[gathered < 0.5].sum()
    np.bincount(keys, weights=gathered)
    np.argsort(keys, kind="stable")
    return clock() - start


class HostClock:
    """A wall clock that stops while it measures the host's speed.

    :meth:`tick` runs a calibration block once ``interval_s`` of wall time
    has passed since the last one; :meth:`now` and :meth:`tick` return wall
    time with every block taken out.  ``ServiceEngine.run`` takes it as its
    injectable clock and reads it at every admission and completion, which
    spreads the blocks through the service's work.
    """

    def __init__(self, interval_s: float = HOST_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.paused = 0.0
        self.blocks: List[float] = []
        rng = np.random.default_rng(0)
        self.arrays = (
            rng.random(BLOCK_SIZE),
            rng.integers(0, BLOCK_SIZE, BLOCK_SIZE),
            rng.integers(0, 1000, BLOCK_SIZE),
        )
        self.last = clock()

    def now(self) -> float:
        return clock() - self.paused

    def calibrate(self, count: int = 1) -> None:
        """Run ``count`` recorded blocks after one unrecorded one.  The first
        block after the program's work finds the caches full of the
        program's data, so its time would depend on the program too."""
        start = clock()
        calibration_block(*self.arrays)
        for _ in range(count):
            self.blocks.append(calibration_block(*self.arrays))
        self.last = clock()
        self.paused += self.last - start

    def tick(self) -> float:
        wall = clock()
        if wall - self.last >= self.interval_s:
            self.calibrate()
            wall = self.last
        return wall - self.paused


@dataclass(frozen=True)
class Seeds:
    graph: int = spec.GRAPH_SEED
    lca: int = spec.LCA_SEED
    workload: int = spec.WORKLOAD_SEED


@dataclass
class Round:
    """What one round measured."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    #: Wall time of each segment of the timed phase (they sum to ``timed_s``).
    segments_s: List[float] = field(default_factory=list)
    ops: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: Per-query answers and probe totals, in query order (round identity).
    answers: list = field(default_factory=list)
    totals: List[int] = field(default_factory=list)
    yes: int = 0
    #: Answer-memo hits and lookups during the timed phase.
    hits: int = 0
    lookups: int = 0
    probes: ProbeSnapshot = field(default_factory=ProbeSnapshot)
    writes: int = 0
    failures: int = 0
    report: object = None
    profiler: Optional[ProbeProfiler] = None
    #: Spans of the round (traced rounds only): name -> (count, total, self).
    spans: Dict[str, Tuple[int, float, float]] = field(default_factory=dict)
    coverage: float = 0.0
    traced: bool = False
    #: Calibration block times of the round (set-up and timed phase).
    blocks_s: List[float] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def edge_classes(graph, params, edges) -> Dict[str, int]:
    split = {"low": 0, "high": 0, "super": 0}
    degree = graph.degree
    for (u, v) in edges:
        split[params.classify_edge(degree(u), degree(v))] += 1
    return split


class Bench:
    """One workload.  Subclasses fill in inputs, set-up, timed phase, check."""

    name = ""
    graph_key = "dense"

    def __init__(self, seeds: Seeds) -> None:
        self.seeds = seeds
        self.descriptor: Dict[str, object] = {}
        self.problems: List[str] = []

    # -- shared helpers ---------------------------------------------------
    def build_graph(self):
        family, n, density = GRAPHS[self.graph_key]
        return graphs.build_family(family, n, density, seed=self.seeds.graph)

    def make_lca(self, graph):
        return create("spanner3", graph, seed=self.seeds.lca)

    def rng(self, role: str) -> random.Random:
        return random.Random(f"{self.name}:{role}:{self.seeds.workload}")

    def sample_indices(self, count: int) -> List[int]:
        k = min(CHECK_SAMPLE, count)
        return sorted(self.rng("check").sample(range(count), k))

    def describe_graph(self, graph, edges) -> None:
        lca = self.make_lca(graph)
        got = dict(
            n=graph.num_vertices, m=graph.num_edges, **edge_classes(graph, lca.params, edges)
        )
        self.descriptor.update(kernel=lca.kernel_name, graph=got, queried=got)
        if self.seeds.graph == spec.GRAPH_SEED and got != EXPECTED_GRAPHS[self.graph_key]:
            self.problems.append(
                f"graph descriptor {got} != expected {EXPECTED_GRAPHS[self.graph_key]}"
            )

    def expect_dense(self, name: str, got: int) -> None:
        """Fail the run when an exact G_dense outcome moved at the default seeds."""
        default = self.seeds.graph == spec.GRAPH_SEED and self.seeds.lca == spec.LCA_SEED
        if default and got != EXPECTED_DENSE[name]:
            self.problems.append(f"{name} {got} != expected {EXPECTED_DENSE[name]}")

    def reference_mismatches(self, ref, queries, answers, totals) -> int:
        """Replay ``queries`` on a cold-mode LCA; count differing outcomes."""
        bad = 0
        for (u, v), answer, total in zip(queries, answers, totals):
            outcome = ref.query_with_stats(u, v)
            if outcome.in_spanner != answer or outcome.probe_total != total:
                bad += 1
        return bad

    # -- the workload interface -------------------------------------------
    def prepare(self) -> None:
        """Generate the inputs from the seeds (untimed, once per run)."""

    def setup(self, host: HostClock):
        raise NotImplementedError

    def timed(self, state, out: Round, host: HostClock) -> None:
        """Run and time one round's work, reading time from ``host``."""
        raise NotImplementedError

    def attach(self, state, profiler: ProbeProfiler) -> None:
        """Attach a profiler for the timed phase (LCA workloads)."""

    def planned_ops(self) -> int:
        """Operations one round attempts."""
        raise NotImplementedError

    def check(self, state, first: Round) -> int:
        """Answer check of the first round; returns the failure count."""
        raise NotImplementedError


class Materialize(Bench):
    name = "materialize"

    def prepare(self) -> None:
        graph = self.build_graph()
        self.edges = list(graph.edges())
        self.describe_graph(graph, self.edges)

    def setup(self, host):
        graph = self.build_graph()
        return graph, self.make_lca(graph)

    def planned_ops(self) -> int:
        return len(self.edges)

    def attach(self, state, profiler) -> None:
        state[1].attach_profiler(profiler)

    def timed(self, state, out: Round, host) -> None:
        graph, lca = state
        before = lca.probe_counter.snapshot()
        start = host.now()
        result = lca.materialize(mode="batched")
        out.timed_s = host.now() - start
        out.probes = lca.probe_counter.snapshot() - before
        out.latencies_s = out.segments_s = [out.timed_s]
        out.ops = len(result.probe_stats.query_totals)
        out.answers = result.edges
        out.totals = result.probe_stats.query_totals
        out.yes = len(result.edges)

    def check(self, state, first: Round) -> int:
        graph, _ = state
        if len(first.totals) != len(self.edges):
            self.problems.append("materialize decided a different edge count")
            return len(self.edges)
        self.expect_dense("spanner_edges", len(first.answers))
        self.expect_dense("probes", sum(first.totals))
        self.expect_dense("probes_max", max(first.totals))
        picks = self.sample_indices(len(self.edges))
        queries = [self.edges[i] for i in picks]
        bad = self.reference_mismatches(
            self.make_lca(graph),
            queries,
            [edge in first.answers for edge in queries],
            [first.totals[i] for i in picks],
        )
        dropped = [edge for edge in self.edges if edge not in first.answers]
        sample = self.rng("stretch").sample(dropped, min(STRETCH_SAMPLE, len(dropped)))
        stretch = measure_stretch(graph, first.answers, limit=4, sample_edges=sample)
        self.descriptor["max_stretch"] = stretch.max_stretch
        # Edges beyond the BFS limit count one by one; one more failure
        # stands for any edge found at distance 4.
        return bad + stretch.disconnected_edges + int((stretch.max_stretch or 0) > 3)


class QueryCold(Bench):
    name = "query-cold"
    #: Edges per query_batch call (the service's batch size).
    chunk = 32
    #: Warm-up queries, asked in the opposite orientation of timed ones.
    warm = 64

    def prepare(self) -> None:
        graph = self.build_graph()
        edges = list(graph.edges())
        self.describe_graph(graph, edges)
        rng = self.rng("order")
        rng.shuffle(edges)
        self.queries = [(u, v) if rng.random() < 0.5 else (v, u) for (u, v) in edges]
        # The answer memo is keyed by orientation, so asking (v, u) builds
        # the kernel view, scan tables and per-vertex state without warming
        # the timed (u, v) answers.
        self.warm_queries = [(v, u) for (u, v) in self.queries[: self.warm]]
        self.chunks = [
            self.queries[i : i + self.chunk] for i in range(0, len(self.queries), self.chunk)
        ]

    def setup(self, host):
        graph = self.build_graph()
        lca = self.make_lca(graph)
        lca.query_batch(self.warm_queries)
        return graph, lca

    def planned_ops(self) -> int:
        return len(self.queries)

    def attach(self, state, profiler) -> None:
        state[1].attach_profiler(profiler)

    def timed(self, state, out: Round, host) -> None:
        graph, lca = state
        stats = lca.oracle_cache.stats
        hits, misses = stats.hits, stats.misses
        before = lca.probe_counter.snapshot()
        query_batch = lca.query_batch
        tick, now = host.tick, host.now
        results = []
        latencies = []
        start = now()
        for chunk in self.chunks:
            began = tick()
            results.append(query_batch(chunk))
            latencies.append(now() - began)
        out.timed_s = now() - start
        out.probes = lca.probe_counter.snapshot() - before
        out.latencies_s = out.segments_s = latencies
        out.hits = stats.hits - hits
        out.lookups = out.hits + stats.misses - misses
        out.answers = [answer for result in results for answer in result.answers]
        out.totals = [total for result in results for total in result.probe_totals]
        out.ops = len(out.answers)
        out.yes = sum(out.answers)

    def check(self, state, first: Round) -> int:
        graph, _ = state
        if first.hits or first.lookups != len(self.queries):
            self.problems.append(
                f"query-cold is not all first-touch: {first.hits} memo hits "
                f"in {first.lookups} lookups"
            )
        # Answers do not depend on orientation, so the YES count is |H|.
        self.expect_dense("spanner_edges", first.yes)
        picks = self.sample_indices(len(self.queries))
        return self.reference_mismatches(
            self.make_lca(graph),
            [self.queries[i] for i in picks],
            [first.answers[i] for i in picks],
            [first.totals[i] for i in picks],
        )


class Serve(Bench):
    """The closed-loop service: one client, 4 hash shards, batch 32, serial."""

    def streams(self, graph) -> Tuple[list, list]:
        raise NotImplementedError

    def prepare(self) -> None:
        graph = self.build_graph()
        self.describe_graph(graph, list(graph.edges()))
        self.warm_stream, self.stream = self.streams(graph)
        self.writes = sum(1 for item in self.stream if isinstance(item, TraceOp))

    def setup(self, host):
        graph = self.build_graph()
        engine = ServiceEngine(graph, self.make_lca, ServiceConfig(num_shards=4))
        engine.run(make_workload("trace", graph, edges=self.warm_stream), clock=host.tick)
        return graph, engine

    def planned_ops(self) -> int:
        return len(self.stream)

    def timed(self, state, out: Round, host) -> None:
        graph, engine = state
        workload = make_workload("trace", graph, edges=self.stream)
        profiler = out.profiler
        start = host.now()
        report = engine.run(workload, clock=host.tick, profiler=profiler)
        out.timed_s = host.now() - start
        out.segments_s = [out.timed_s]
        out.report = report
        out.ops = report.served + report.mutations
        out.writes = report.mutations
        out.latencies_s = report.latency.samples_s
        out.answers = [record.in_spanner for record in engine.records]
        out.totals = [record.probe_total for record in engine.records]
        out.yes = report.in_spanner
        out.hits = sum(shard.cache_hits for shard in report.shard_reports)
        out.lookups = out.hits + sum(shard.cache_misses for shard in report.shard_reports)
        probes = ProbeSnapshot()
        for shard in report.shard_reports:
            probes = probes + shard.probes
        out.probes = probes
        degraded = sum(1 for record in engine.records if record.degraded)
        out.failures = report.rejected + degraded
        if report.mutations != self.writes:
            self.problems.append(
                f"{report.mutations} writes applied, the stream has {self.writes}"
            )


class ServeZipf(Serve):
    name = "serve-zipf"
    #: Set-up takes 6-7 s, nearly all of it the four shards building their
    #: kernel tables, so a round serves enough requests to keep most of a
    #: run's wall time on timed work.
    requests = 150_000
    warm_requests = 20_000

    def streams(self, graph):
        warm = list(make_workload(
            "zipf", graph, self.warm_requests, seed=self.seeds.workload + 1000, skew=1.5
        ))
        timed = list(make_workload(
            "zipf", graph, self.requests, seed=self.seeds.workload, skew=1.5
        ))
        return warm, timed

    def check(self, state, first: Round) -> int:
        graph, _ = state
        lca = self.make_lca(graph)
        self.descriptor["queried"] = edge_classes(graph, lca.params, self.stream)
        share = first.hits / first.lookups if first.lookups else 0.0
        if share < 0.8:
            self.problems.append(f"serve-zipf answer-memo hit share {share:.3f} < 0.8")
        if len(first.answers) != len(self.stream):
            self.problems.append("serve-zipf served a different request count")
            return len(self.stream)
        picks = self.sample_indices(len(self.stream))
        return self.reference_mismatches(
            lca,
            [self.stream[i] for i in picks],
            [first.answers[i] for i in picks],
            [first.totals[i] for i in picks],
        )


def churn_stream(graph, requests: int, every: int, seed: int, pool_seed: int) -> list:
    """Distinct reads in a fixed order, with a write in every ``every`` requests.

    The library's ``churn`` workload draws each request as a write with
    probability ``write_ratio``, so the number and spacing of writes vary
    with the seed.  A write costs a kernel table rebuild on every shard the
    following reads touch, which dominates a round's time, so this stream
    puts the writes half-way between multiples of ``every``, where reads
    follow each of them.  A write removes a uniform current edge or adds a
    uniform non-edge with probability 1/2 each, as ``churn`` does.

    The reads are a sequence of distinct edges drawn from ``pool_seed`` (the
    graph seed); ``seed`` draws each read's orientation and every write.  A
    round is a few service batches, and which reads share a batch sets how
    many shards rebuild tables in it, so reads drawn afresh per workload
    seed moved the latency percentiles by a fifth from seed to seed.  Per-
    query probe charges are heavy-tailed too (on G_churn their standard
    deviation exceeds their mean), which moved ``probes_per_query`` by a
    tenth.  The price is that no workload seed, the held-out one included,
    changes which edges are read.  Writes never remove a read edge, so every
    read is of a current edge.
    """
    rng = random.Random(f"churn:{seed}")
    edges = [canonical_edge(u, v) for (u, v) in graph.edges()]
    reads = sum(1 for position in range(requests) if position % every != every // 2)
    pool = random.Random(f"churn-pool:{pool_seed}").sample(edges, reads)
    pooled = set(pool)
    removable = [edge for edge in edges if edge not in pooled]
    present = set(edges)
    vertices = graph.vertices()
    stream: list = []
    for position in range(requests):
        if position % every != every // 2:
            u, v = pool.pop()
            stream.append((u, v) if rng.random() < 0.5 else (v, u))
        elif rng.random() < 0.5:
            index = rng.randrange(len(removable))
            edge = removable[index]
            removable[index] = removable[-1]
            removable.pop()
            present.discard(edge)
            stream.append(TraceOp("remove", *edge))
        else:
            while True:
                edge = canonical_edge(rng.choice(vertices), rng.choice(vertices))
                if edge[0] != edge[1] and edge not in present:
                    break
            removable.append(edge)
            present.add(edge)
            stream.append(TraceOp("add", *edge))
    return stream


class ServeChurn(Serve):
    name = "serve-churn"
    graph_key = "churn"
    #: Ten writes a round: at ~30 ops/s a round takes about 6 s, so three
    #: rounds (and so a median) fit the run's time budget.
    requests = 200
    warm_requests = 256
    write_ratio = 0.05

    def streams(self, graph):
        warm = list(make_workload(
            "uniform", graph, self.warm_requests, seed=self.seeds.workload + 1000
        ))
        every = round(1 / self.write_ratio)
        timed = churn_stream(graph, self.requests, every, self.seeds.workload, self.seeds.graph)
        return warm, timed

    def check(self, state, first: Round) -> int:
        # Replay the stream on a fresh graph, applying the writes in order,
        # and ask the sampled reads of the cold reference at their turn.
        graph = self.build_graph()
        ref = self.make_lca(graph)
        reads = [item for item in self.stream if not isinstance(item, TraceOp)]
        if len(first.answers) != len(reads):
            self.problems.append("serve-churn served a different read count")
            return len(reads)
        picks = set(self.sample_indices(len(reads)))
        split = {"low": 0, "high": 0, "super": 0}
        bad = 0
        index = 0
        for item in self.stream:
            if isinstance(item, TraceOp):
                graph.apply_mutation(item.op, item.u, item.v)
                continue
            u, v = item
            split[ref.params.classify_edge(graph.degree(u), graph.degree(v))] += 1
            if index in picks:
                bad += self.reference_mismatches(
                    ref, [item], [first.answers[index]], [first.totals[index]]
                )
            index += 1
        self.descriptor["queried"] = split
        return bad


BENCHES = {bench.name: bench for bench in (Materialize, QueryCold, ServeZipf, ServeChurn)}


@dataclass
class RunResult:
    rounds: List[Round]
    attempted: int
    failed: int
    problems: List[str]
    descriptor: Dict[str, object]
    peak_rss_mb: float


def one_round(
    bench: Bench, recorder: Optional[tracing.SpanRecorder], host: HostClock
) -> Tuple[Round, object]:
    """One round: set-up from scratch, ``gc.collect()``, timed phase, with
    calibration blocks at both ends and inside wherever ``host`` ticks."""
    out = Round(traced=recorder is not None)
    if recorder is not None:
        recorder.reset()
        out.profiler = ProbeProfiler()
    # Collect the last round's garbage before timing the set-up, so the
    # set-up never pays for a collection of it.
    gc.collect()
    first_block = len(host.blocks)
    host.calibrate(EDGE_BLOCKS)
    start = host.now()
    state = bench.setup(host)
    out.setup_s = host.now() - start
    if out.profiler is not None:
        bench.attach(state, out.profiler)
    gc.collect()
    root_before = recorder.root_time if recorder is not None else 0.0
    bench.timed(state, out, host)
    host.calibrate(EDGE_BLOCKS)
    out.blocks_s = host.blocks[first_block:]
    if recorder is not None:
        bench.attach(state, None)
        out.coverage = (recorder.root_time - root_before) / out.timed_s
        out.spans = {name: tuple(agg) for name, agg in recorder.totals.items()}
    return out, state


def differing(first: Round, other: Round) -> int:
    """Per-query outcomes of ``other`` that differ from the first round's."""
    if isinstance(first.answers, (set, frozenset)):
        bad = len(first.answers ^ other.answers)
    else:
        bad = sum(1 for a, b in zip(first.answers, other.answers) if a != b)
        bad += abs(len(first.answers) - len(other.answers))
    bad += sum(1 for a, b in zip(first.totals, other.totals) if a != b)
    return bad + abs(len(first.totals) - len(other.totals))


def run(bench: Bench, seconds: float, traced: bool) -> RunResult:
    """Prepare inputs, then run rounds until ``seconds`` of timed phase.

    In a traced run, rounds alternate untraced and traced (starting
    untraced), so the tracing overhead is measured in the same process.
    """
    bench.prepare()
    host = HostClock()
    # Spans read the same clock, so calibration blocks stay out of them.
    recorder = tracing.SpanRecorder(clock=host.now) if traced else None
    rounds: List[Round] = []
    attempted = failed = 0
    timed_total = 0.0
    started = clock()
    while True:
        use_trace = traced and len(rounds) % 2 == 1
        saved = tracing.install(recorder) if use_trace else None
        try:
            out, state = one_round(bench, recorder if use_trace else None, host)
            if not rounds:
                out.failures += bench.check(state, out)
            else:
                out.failures += differing(rounds[0], out)
        except Exception:  # a failing round counts all its operations failed
            traceback.print_exc()
            attempted += bench.planned_ops()
            failed += bench.planned_ops()
            bench.problems.append("a round raised; traceback on stderr")
            if len(bench.problems) > MIN_ROUNDS:
                raise
            continue
        finally:
            # Release the round's graph and LCA or engine before the next
            # set-up allocates.
            state = None
            if saved is not None:
                tracing.uninstall(saved)
        attempted += out.ops
        failed += out.failures
        if rounds:
            out.answers, out.totals = [], []  # compared above; free the memory
        rounds.append(out)
        timed_total += out.timed_s
        mean = timed_total / len(rounds)
        if len(rounds) >= MIN_ROUNDS and (
            timed_total + mean / 2 >= seconds or clock() - started > WALL_FACTOR * seconds
        ):
            break
    rss = peak_rss_mb()
    if recorder is not None:
        recorder.write(OUT_DIR / f"trace-{bench.name}-seed{bench.seeds.workload}.jsonl")
        coverage = min(r.coverage for r in rounds if r.traced)
        if coverage < 0.9:
            bench.problems.append(f"layer self times cover only {coverage:.3f} of a timed phase")
    descriptor = dict(bench.descriptor)
    first = rounds[0]
    descriptor.update(
        rounds=len(rounds),
        writes=first.writes,
        hit_share=round(first.hits / first.lookups, 6) if first.lookups else None,
    )
    return RunResult(rounds, attempted, failed, bench.problems, descriptor, rss)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def medians_by_position(samples: Sequence[Sequence[float]]) -> List[float]:
    """Each position's median over rounds (every round repeats the same work)."""
    return [_median(column) for column in zip(*samples, strict=True)]


def round_time_s(rounds: Sequence[Round]) -> float:
    """A round's timed phase: the sum over segments of their medians over ``rounds``."""
    return sum(medians_by_position([r.segments_s for r in rounds]))


def host_scale(result: RunResult) -> float:
    """Factor that brings the run's timings to the reference host speed.

    The median block, not the mean: a block is a few ms, so a stall of the
    host that a long call averages out lands whole on the few blocks it hits.
    """
    blocks = [b for r in result.rounds for b in r.blocks_s]
    return REFERENCE_BLOCK_S / statistics.median(blocks) if blocks else 1.0


def end_to_end(result: RunResult) -> Dict[str, float]:
    rounds = result.rounds
    first = rounds[0]
    scale = host_scale(result)
    latencies = sorted(medians_by_position([r.latencies_s for r in rounds]))
    queries = len(first.totals)
    return {
        "setup_s": _median([r.setup_s for r in rounds]) * scale,
        "throughput_ops": first.ops / (round_time_s(rounds) * scale),
        "latency_p50_ms": nearest_rank_percentile(latencies, 50) * scale * 1e3,
        "latency_p90_ms": nearest_rank_percentile(latencies, 90) * scale * 1e3,
        "peak_rss_mb": result.peak_rss_mb,
        "probes_per_query": sum(first.totals) / queries,
        "probes_max": float(max(first.totals)),
        "spanner_frac": first.yes / queries,
        "ok_frac": 1.0 - result.failed / result.attempted,
    }


def per_layer(result: RunResult) -> Dict[str, float]:
    # A traced round's layer times include its set-up; like every timing
    # they are scaled to the reference host speed.
    traced = [r for r in result.rounds if r.traced]
    untraced = [r for r in result.rounds if not r.traced]
    first = traced[0]
    scale = host_scale(result)

    def self_s(name: str) -> float:
        return _median([r.spans.get(name, (0, 0.0, 0.0))[2] for r in traced]) * scale

    def total_s(name: str) -> float:
        return _median([r.spans.get(name, (0, 0.0, 0.0))[1] for r in traced]) * scale

    def calls(name: str) -> float:
        return float(first.spans.get(name, (0, 0.0, 0.0))[0])

    prof = first.profiler
    outcomes = prof.outcome_calls
    answered = sum(outcomes.values())
    scan_kinds = prof.phase_kinds.get("neighbor-scan", {})
    report = first.report
    descriptor = result.descriptor
    return {
        "graphs.build_s": self_s("graphs.build"),
        "graphs.mutations": calls("graphs.mutate"),
        "graphs.mutate_s": self_s("graphs.mutate"),
        "graphs.compactions": calls("graphs.compact"),
        "graphs.compact_s": self_s("graphs.compact"),
        "kernels.view_builds": calls("kernels.view"),
        "kernels.view_s": self_s("kernels.view"),
        "kernels.table_builds": calls("kernels.table"),
        "kernels.table_s": self_s("kernels.table"),
        "kernels.materialize_s": self_s("kernels.materialize"),
        "kernels.scan_calls": calls("kernels.scan"),
        "kernels.scan_s": self_s("kernels.scan"),
        "core.query_s": self_s("core.query"),
        "core.materialize_s": self_s("core.materialize"),
        "core.answer_hits": float(outcomes[MEMO_HIT]),
        "core.answer_cold": float(outcomes[COLD]),
        "core.answer_invalidated": float(outcomes[EPOCH_INVALIDATED]),
        "core.answer_hit_frac": outcomes[MEMO_HIT] / answered if answered else 0.0,
        "core.memo_hit_rate": first.hits / first.lookups if first.lookups else 0.0,
        "core.probes.neighbor": float(first.probes.neighbor),
        "core.probes.degree": float(first.probes.degree),
        "core.probes.adjacency": float(first.probes.adjacency),
        "spanner3.scan_calls": float(prof.phase_calls.get("neighbor-scan", 0)),
        "spanner3.scan_probes": float(sum(scan_kinds.values())),
        "spanner3.edges_high": float(descriptor["queried"]["high"]),
        "spanner3.edges_super": float(descriptor["queried"]["super"]),
        "service.run_s": total_s("service.run"),
        "service.self_s": self_s("service.run"),
        "service.batches": float(report.batches) if report else 0.0,
        "service.mean_batch_size": float(report.mean_batch_size) if report else 0.0,
        "service.max_queue_depth": float(report.max_queue_depth_seen) if report else 0.0,
        "service.shed": float(report.rejected) if report else 0.0,
        "service.shard_imbalance": float(report.shard_imbalance()) if report else 0.0,
        "obs.trace_overhead_frac": 1.0 - round_time_s(untraced) / round_time_s(traced),
        "obs.self_coverage_frac": min(r.coverage for r in traced),
    }
