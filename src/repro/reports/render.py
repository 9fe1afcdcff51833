"""Report generator: stored scenario payloads → paper-style Markdown tables.

The rendered report mirrors the tables the paper's experimental sections
would show, built only from the deterministic payloads the store holds:

* **Scenario inventory** — what ran, on which axes.
* **Probe complexity vs n** — per-query probe totals (max / mean / p50 /
  p95) and per-kind counts for every scenario × size, the Table 4/5 shape.
* **Spanner size vs stretch parameter** — |H| against n next to the
  declared stretch bound, the Table 1 shape.
* **Stretch certificates** — measured stretch against the declared bound.
* **Service latency percentiles** — virtual-time p50/p90/p95/p99 per
  scenario workload (ticks of the deterministic scheduler clock, reported
  as ms), plus throughput-shaped counters (served / rejected / batches).
* **Fault tolerance** — availability and fault-plane counters (failovers,
  retries, timeouts, degraded answers/sheds) for every scenario that ran
  with a ``[scenario.faults]`` chaos plan.
* **Trace summary** — per-(category, span) counts and tracer-tick totals of
  the service phase's deterministic span stream, for every scenario with a
  ``[scenario.observability]`` table.
* **Probe attribution** — flame-style per-kernel-phase probe breakdown
  (bfs / voronoi / neighbor-scan, plus the unattributed residual) and the
  per-cache-outcome table (cold / memo-hit / epoch-invalidated).

Rendering is a pure function of the payloads: rows are sorted by scenario
name (then size), floats are formatted by the shared table formatter, and
no environment data or timestamps enter the output — two runs of the same
specs render byte-identical Markdown.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.tables import format_markdown_table

#: Section order of the rendered report.
REPORT_TITLE = "# Scenario report"


def _sorted_results(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    return sorted(results, key=lambda payload: str(payload.get("name", "")))


def _inventory_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        spec = payload.get("spec", {})
        graph = spec.get("graph", {})
        workload = spec.get("workload") or {}
        rows.append(
            {
                "scenario": payload.get("name"),
                "algorithm": spec.get("algorithm"),
                "family": graph.get("family"),
                "sizes": ", ".join(str(n) for n in graph.get("sizes", [])),
                "workload": workload.get("kind", "-"),
                "churn ops": (spec.get("mutations") or {}).get("ops", 0),
                "smoke": bool(payload.get("smoke")),
            }
        )
    return rows


def _probe_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        spec = payload.get("spec", {})
        for size in payload.get("sizes", []):
            probes = size.get("probes", {})
            kinds = size.get("probe_kinds", {})
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "algorithm": spec.get("algorithm"),
                    "n": size.get("n"),
                    "m": size.get("m"),
                    "max": probes.get("max"),
                    "mean": probes.get("mean"),
                    "p50": probes.get("p50"),
                    "p95": probes.get("p95"),
                    "neighbor": kinds.get("neighbor"),
                    "degree": kinds.get("degree"),
                    "adjacency": kinds.get("adjacency"),
                }
            )
    return rows


def _size_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        spec = payload.get("spec", {})
        for size in payload.get("sizes", []):
            n = size.get("n") or 0
            spanner_edges = size.get("spanner_edges") or 0
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "algorithm": spec.get("algorithm"),
                    "stretch bound": size.get("stretch_bound"),
                    "n": n,
                    "m": size.get("m"),
                    "|H|": spanner_edges,
                    "|H|/n": round(spanner_edges / n, 3) if n else None,
                    "kept": (
                        round(spanner_edges / size["m"], 3) if size.get("m") else None
                    ),
                }
            )
    return rows


def _stretch_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        spec = payload.get("spec", {})
        for size in payload.get("sizes", []):
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "algorithm": spec.get("algorithm"),
                    "n": size.get("n"),
                    "stretch": size.get("stretch"),
                    "bound": size.get("stretch_bound"),
                    "within bound": size.get("stretch_ok"),
                    "connected": size.get("connected"),
                    "churn ops": size.get("mutations"),
                }
            )
    return rows


def _latency_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        service = payload.get("service")
        if not service:
            continue
        latency = service.get("latency", {})
        probes = service.get("probes", {})
        rows.append(
            {
                "scenario": payload.get("name"),
                "algorithm": service.get("algorithm"),
                "workload": service.get("workload"),
                "n": service.get("n"),
                "shards": service.get("num_shards"),
                "batch": service.get("batch_size"),
                "served": service.get("served"),
                "rejected": service.get("rejected"),
                "writes": service.get("mutations"),
                "p50 ms": latency.get("p50_ms"),
                "p90 ms": latency.get("p90_ms"),
                "p95 ms": latency.get("p95_ms"),
                "p99 ms": latency.get("p99_ms"),
                "probes/req": round(probes.get("mean", 0.0), 1),
                "hit rate": _hit_rate(service),
            }
        )
    return rows


def _fault_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        service = payload.get("service")
        if not service or not service.get("faults"):
            continue
        faults = service.get("faults", {})
        rows.append(
            {
                "scenario": payload.get("name"),
                "replicas": service.get("replication", 1),
                "availability": service.get("availability"),
                "crashes": faults.get("crashes"),
                "shard losses": faults.get("shard_losses"),
                "failovers": faults.get("failovers"),
                "retries": faults.get("retries"),
                "timeouts": faults.get("timeouts"),
                "degraded ans": faults.get("degraded_answers"),
                "degraded shed": faults.get("degraded_sheds"),
                "blocked writes": faults.get("blocked_write_cycles"),
            }
        )
    return rows


def _observability(payload: Dict[str, object]) -> Dict[str, object]:
    service = payload.get("service")
    if not service:
        return {}
    return service.get("observability") or {}


def _trace_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        obs = _observability(payload)
        trace = obs.get("trace")
        if not trace:
            continue
        for entry in trace.get("summary", []):
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "cat": entry.get("cat"),
                    "span": entry.get("name"),
                    "count": entry.get("count"),
                    "ticks": entry.get("ticks"),
                    "max ticks": entry.get("max_ticks"),
                    "dropped": trace.get("dropped", 0),
                }
            )
    return rows


def _phase_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        obs = _observability(payload)
        profile = obs.get("profile")
        if not profile:
            continue
        phases = profile.get("phases", {})
        total = (
            obs.get("metrics", {})
            .get("metrics", {})
            .get("probes.total", {})
            .get("value")
        )
        attributed = sum(entry.get("total", 0) for entry in phases.values())
        ordered = sorted(
            phases.items(), key=lambda item: (-item[1].get("total", 0), item[0])
        )
        for label, entry in ordered:
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "phase": label,
                    "calls": entry.get("calls"),
                    "neighbor": entry.get("neighbor"),
                    "degree": entry.get("degree"),
                    "adjacency": entry.get("adjacency"),
                    "probes": entry.get("total"),
                    "share": (
                        round(entry.get("total", 0) / total, 3) if total else None
                    ),
                }
            )
        if total:
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "phase": "other",
                    "calls": None,
                    "neighbor": None,
                    "degree": None,
                    "adjacency": None,
                    "probes": max(0, int(total) - attributed),
                    "share": round(max(0, int(total) - attributed) / total, 3),
                }
            )
    return rows


def _outcome_rows(results: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for payload in results:
        obs = _observability(payload)
        profile = obs.get("profile")
        if not profile:
            continue
        for outcome, entry in profile.get("outcomes", {}).items():
            rows.append(
                {
                    "scenario": payload.get("name"),
                    "outcome": outcome,
                    "calls": entry.get("calls"),
                    "probes": entry.get("probes"),
                }
            )
        rows.append(
            {
                "scenario": payload.get("name"),
                "outcome": "invalidations",
                "calls": profile.get("invalidations", 0),
                "probes": None,
            }
        )
    return rows


def _hit_rate(service: Dict[str, object]) -> Optional[float]:
    shards = service.get("shards") or []
    hits = sum(shard.get("cache_hits", 0) for shard in shards)
    lookups = hits + sum(shard.get("cache_misses", 0) for shard in shards)
    return round(hits / lookups, 3) if lookups else None


def render_report(results: Sequence[Dict[str, object]]) -> str:
    """Render stored scenario payloads as one Markdown document."""
    results = _sorted_results(results)
    sections = [
        REPORT_TITLE,
        "Generated by `repro report render` from the deterministic scenario "
        "payloads under the results directory; see `docs/reports.md`. "
        "Latency columns are virtual time (scheduler ticks reported as ms), "
        "so every number in this file is reproducible bit-for-bit from the "
        "specs and seeds alone.",
        format_markdown_table(_inventory_rows(results), title="Scenarios", level=2),
        format_markdown_table(
            _probe_rows(results), title="Probe complexity vs n", level=2
        ),
        format_markdown_table(
            _size_rows(results), title="Spanner size vs stretch parameter", level=2
        ),
        format_markdown_table(
            _stretch_rows(results), title="Stretch certificates", level=2
        ),
        format_markdown_table(
            _latency_rows(results),
            title="Service latency percentiles (virtual time)",
            level=2,
        ),
        format_markdown_table(
            _fault_rows(results), title="Fault tolerance (chaos scenarios)", level=2
        ),
        format_markdown_table(
            _trace_rows(results),
            title="Trace summary (observability scenarios)",
            level=2,
        ),
        format_markdown_table(
            _phase_rows(results),
            title="Probe attribution by kernel phase",
            level=2,
        ),
        format_markdown_table(
            _outcome_rows(results),
            title="Probe attribution by cache outcome",
            level=2,
        ),
    ]
    return "\n\n".join(sections) + "\n"
