"""Scenario runner: one :class:`ScenarioSpec` in, one :class:`ScenarioResult` out.

The runner composes the machinery the planes already expose — graph families
(:mod:`repro.graphs.generators`), the LCA registry, the batched engine
behind :meth:`~repro.core.lca.SpannerLCA.materialize`, the verification
harness (:mod:`repro.analysis.harness`) and the online service
(:mod:`repro.service.engine`) — and reduces a run to plain, JSON-serializable
data.

Two properties the report generator depends on:

**Determinism.**  Everything in a :class:`ScenarioResult` is a pure function
of the spec: graphs, seeds and workloads are constructed exactly as declared,
and the service phase runs on a virtual :class:`TickClock` instead of a
wall clock, so latency percentiles measure *scheduling structure* (queueing
and batching delay in ticks) rather than host speed.  Running the same spec
twice yields byte-identical payloads — the acceptance test renders the
Markdown report twice and compares bytes.

**Faithful accounting.**  Probe totals and per-kind counts come from the
same cold-schedule accounting contract every other harness uses (see
:mod:`repro.core.cache`): the cached engine and the service's sharding
and batching change wall-clock time only, never the reported probe numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.harness import evaluate_materialized
from ..core.ids import canonical_edge
from ..core.registry import create
from ..graphs.generators import build_family
from ..graphs.graph import Graph
from ..obs import ProbeProfiler, SpanTracer, collect_run_metrics, summarize_spans
from ..service import ServiceEngine
from .spec import ScenarioSpec

Edge = Tuple[int, int]

#: Caps applied by :func:`spec_for_smoke` (CI-sized runs).
SMOKE_MAX_SIZE = 120
SMOKE_MAX_REQUESTS = 150
SMOKE_MAX_MUTATIONS = 10
#: A smoke run only lives for a handful of scheduler cycles; faults drawn
#: from a full-size horizon would all land after it ends, so the storm is
#: compressed into the cycles the run actually has.
SMOKE_MAX_FAULT_HORIZON = 4


class TickClock:
    """A deterministic monotone clock: every reading advances one tick.

    Injected into :meth:`repro.service.engine.ServiceEngine.run` so service
    latency percentiles are a function of the schedule (how many stamps —
    i.e. how much queueing and batching — separate a request's admission
    from its completion), not of the host.  One tick is reported as one
    millisecond, which keeps the rendered percentile columns readable.
    """

    def __init__(self, tick_s: float = 1e-3) -> None:
        self._now = 0.0
        self._tick = float(tick_s)

    def __call__(self) -> float:
        self._now += self._tick
        return self._now


def spec_for_smoke(spec: ScenarioSpec) -> ScenarioSpec:
    """Shrink a scenario to CI size (smallest size, capped requests/churn)."""
    smallest = min(spec.graph.sizes)
    graph = replace(spec.graph, sizes=(min(smallest, SMOKE_MAX_SIZE),))
    mutations = replace(spec.mutations, ops=min(spec.mutations.ops, SMOKE_MAX_MUTATIONS))
    workload = spec.workload
    if workload is not None:
        workload = replace(workload, requests=min(workload.requests, SMOKE_MAX_REQUESTS))
    faults = spec.faults
    if faults is not None:
        faults = replace(faults, horizon=min(faults.horizon, SMOKE_MAX_FAULT_HORIZON))
    return replace(spec, graph=graph, mutations=mutations, workload=workload, faults=faults)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class SizeResult:
    """Offline measurements for one graph size of a scenario."""

    n: int
    m: int
    spanner_edges: int
    density: float
    stretch: Optional[float]
    stretch_bound: Optional[int]
    stretch_ok: bool
    connected: bool
    probes: Dict[str, object]
    probe_kinds: Dict[str, int]
    mutations: int
    graph_epoch: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "m": self.m,
            "spanner_edges": self.spanner_edges,
            "density": self.density,
            "stretch": self.stretch,
            "stretch_bound": self.stretch_bound,
            "stretch_ok": self.stretch_ok,
            "connected": self.connected,
            "probes": dict(self.probes),
            "probe_kinds": dict(self.probe_kinds),
            "mutations": self.mutations,
            "graph_epoch": self.graph_epoch,
        }


@dataclass
class ScenarioResult:
    """Everything one scenario run measured, as plain data."""

    spec: ScenarioSpec
    smoke: bool
    sizes: List[SizeResult] = field(default_factory=list)
    #: ``ServiceReport.as_dict()`` of the service phase (virtual-time
    #: latencies), plus the graph size it ran on; ``None`` without a
    #: workload section.
    service: Optional[Dict[str, object]] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def as_dict(self) -> Dict[str, object]:
        """The deterministic payload (what the store versions and render reads)."""
        return {
            "schema": 1,
            "name": self.spec.name,
            "spec": self.spec.as_dict(),
            "smoke": self.smoke,
            "sizes": [size.as_dict() for size in self.sizes],
            "service": dict(self.service) if self.service is not None else None,
        }


# --------------------------------------------------------------------------- #
# Churn generation
# --------------------------------------------------------------------------- #
def churn_ops(graph: Graph, count: int, seed: int) -> List[Tuple[str, int, int]]:
    """A deterministic burst of valid mutations against ``graph``.

    Ops are generated against a mirror of the edge set, so every remove hits
    an existing edge and every add creates a new one — the sequence is valid
    when applied in order.
    """
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    edges = sorted(canonical_edge(u, v) for (u, v) in graph.edges())
    edge_set = set(edges)
    ops: List[Tuple[str, int, int]] = []
    for _ in range(count):
        remove = bool(edges) and (len(vertices) < 2 or rng.random() < 0.5)
        if remove:
            index = rng.randrange(len(edges))
            (u, v) = edges[index]
            edges[index] = edges[-1]
            edges.pop()
            edge_set.discard((u, v))
            ops.append(("remove", u, v))
        else:
            for _attempt in range(64):
                u, v = rng.sample(vertices, 2)
                edge = canonical_edge(u, v)
                if edge not in edge_set:
                    edges.append(edge)
                    edge_set.add(edge)
                    ops.append(("add", edge[0], edge[1]))
                    break
            # A graph this close to complete simply yields fewer adds.
    return ops


# --------------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------------- #
def _build_graph(spec: ScenarioSpec, n: int) -> Graph:
    return build_family(
        spec.graph.family, n, density=spec.graph.density, seed=spec.graph.seed
    )


def _run_size(spec: ScenarioSpec, n: int) -> SizeResult:
    graph = _build_graph(spec, n)
    lca = create(spec.algorithm, graph, seed=spec.seed, **spec.algorithm_options)
    applied = 0
    if spec.mutations.ops:
        applied = lca.apply_mutations(
            churn_ops(graph, spec.mutations.ops, spec.mutations.seed)
        )
    before = lca.probe_counter.snapshot()
    materialized = lca.materialize(mode="batched")
    kinds = (lca.probe_counter.snapshot() - before).as_dict()
    report = evaluate_materialized(graph, materialized)
    stats = materialized.probe_stats
    return SizeResult(
        n=graph.num_vertices,
        m=graph.num_edges,
        spanner_edges=materialized.num_edges,
        density=round(report.density, 4),
        stretch=report.stretch.max_stretch,
        stretch_bound=report.stretch_bound,
        stretch_ok=report.stretch_ok,
        connected=report.connectivity_preserved,
        probes={
            "queries": stats.queries,
            "max": stats.max,
            "mean": round(stats.mean, 3),
            "p50": stats.percentile(50),
            "p95": stats.percentile(95),
            "total": stats.total,
        },
        probe_kinds=kinds,
        mutations=applied,
        graph_epoch=graph.epoch,
    )


def _run_service(spec: ScenarioSpec, tracer=None) -> Dict[str, object]:
    """The online phase: serve the declared workload on the largest size.

    With an ``[observability]`` table the run carries a tracer and/or a
    probe profiler (both pure observation — the report's numbers are
    unchanged) and the payload gains an ``observability`` block: trace
    summary, per-phase / per-outcome probe attribution, and one unified
    metrics snapshot.  A caller-supplied ``tracer`` (the trace-export path)
    replaces the internally built one.
    """
    assert spec.workload is not None
    n = max(spec.graph.sizes)
    graph = _build_graph(spec, n)
    workload = spec.workload.build(graph)
    service = spec.service
    fault_plan = None
    if spec.faults is not None:
        fault_plan = spec.faults.to_plan(service.shards, service.replication)
    engine = ServiceEngine(
        graph,
        lambda g: create(spec.algorithm, g, seed=spec.seed, **spec.algorithm_options),
        service.config(fault_plan),
    )
    obs = spec.observability
    profiler = ProbeProfiler() if obs is not None and obs.profile else None
    run_tracer = None
    if obs is not None and obs.trace:
        run_tracer = tracer if tracer is not None else SpanTracer(capacity=obs.capacity)
    report = engine.run(
        workload, clock=TickClock(), tracer=run_tracer, profiler=profiler
    )
    payload = report.as_dict()
    payload["n"] = graph.num_vertices
    payload["clock"] = "virtual-ticks"
    if obs is not None:
        observability: Dict[str, object] = {}
        if run_tracer is not None:
            observability["trace"] = {
                "spans": len(run_tracer.finished()),
                "dropped": run_tracer.dropped,
                "summary": summarize_spans(run_tracer),
            }
        if profiler is not None:
            observability["profile"] = profiler.as_dict()
        observability["metrics"] = collect_run_metrics(report, profiler).snapshot()
        payload["observability"] = observability
    return payload


def run_scenario(
    spec: ScenarioSpec, smoke: bool = False, tracer=None
) -> ScenarioResult:
    """Run one scenario end to end (offline sizes sweep + online phase).

    ``tracer`` (used by the trace-export CLI path and the determinism
    tests) hands the service phase an external span tracer; it only takes
    effect when the spec's ``[observability]`` table enables tracing.
    """
    if smoke:
        spec = spec_for_smoke(spec)
    result = ScenarioResult(spec=spec, smoke=smoke)
    for n in spec.graph.sizes:
        result.sizes.append(_run_size(spec, n))
    if spec.workload is not None:
        result.service = _run_service(spec, tracer=tracer)
    return result
