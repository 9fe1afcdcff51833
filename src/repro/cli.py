"""Command-line interface.

The CLI wraps the most common workflows so the library can be exercised
without writing Python:

* ``repro-lca query``      — answer spanner queries for specific edges,
* ``repro-lca materialize``— query every edge and report/export the spanner,
* ``repro-lca evaluate``   — materialize + verify an LCA on a graph,
* ``repro-lca generate``   — write one of the built-in synthetic workloads,
* ``repro-lca sweep``      — size/probe scaling sweep with exponent fits,
* ``repro-lca lowerbound`` — the Theorem 1.3 distinguishing experiment,
* ``repro-lca serve-bench``— run the online query service on a workload,
* ``repro-lca mutate``     — apply edge mutations to a graph file,
* ``repro-lca report``     — run declarative scenario specs and render the
  Markdown report (``report run`` / ``report render``, see ``docs/reports.md``),
* ``repro-lca trace``      — summarize a JSONL span trace and/or convert it
  to Chrome ``trace_event`` JSON (see ``docs/observability.md``),
* ``repro-lca lint``       — AST contract checker enforcing the repo's
  determinism/observability/layering invariants (see ``docs/lint.md``),
* ``repro-lca list``       — list the registered constructions.

Graphs are read from edge-list files (see :mod:`repro.graphs.io`) or
generated on the fly with ``--generate``.

Usage examples::

    python -m repro.cli list
    python -m repro.cli generate --family gnp --n 400 --density 0.1 --out g.txt
    python -m repro.cli evaluate --graph g.txt --algorithm spanner3 --seed 7
    python -m repro.cli query --graph g.txt --algorithm spanner5 --edge 3,17 --edge 5,8
    python -m repro.cli sweep --algorithm spanner3 --sizes 200,400,800
    python -m repro.cli lowerbound --n 202 --budget 14 --trials 10
    python -m repro.cli materialize --generate gnp --n 400 --density 0.1 \
        --algorithm spanner3
    python -m repro.cli serve-bench --generate gnp --n 300 --density 0.08 \
        --workload zipf --requests 2000 --shards 4 --batch-size 32
    python -m repro.cli serve-bench --generate gnp --n 300 --density 0.08 \
        --workload churn --requests 2000 --shards 4 --replication 2 \
        --crashes 4 --flaky 2 --fault-seed 9
    python -m repro.cli serve-bench --generate gnp --n 300 --density 0.08 \
        --workload zipf --requests 2000 --shards 4 \
        --trace-out spans.jsonl --trace-chrome trace.json --metrics-out m.json
    python -m repro.cli trace spans.jsonl --chrome trace.json
    python -m repro.cli report run scenarios/smoke.toml --smoke
    python -m repro.cli report render --out report.md

``query``, ``materialize`` and ``evaluate`` answer through the LCA's cached
engine (``query_batch`` and a batched ``materialize``); their answers and
probe accounting equal the cold reference path's.  The probe kernel is not
a flag; the ``REPRO_KERNEL`` environment variable selects it for the whole
process (see :mod:`repro.kernels`).  Every command that builds an LCA
(``query``, ``materialize``, ``evaluate``, ``sweep``, ``serve-bench`` and
``report run``) validates the variable before it starts, so a bad value
fails the same way whether or not the run reaches a kernel.

``serve-bench`` describes its run with the scenario spec objects of
:mod:`repro.reports.spec` (``WorkloadSpec``, ``ServiceSpec``,
``FaultSpec``).

Bad input fails with one line: a library error (:class:`ReproError`) or an
unreadable file (:class:`OSError`) escaping a command exits as
``<command>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from . import graphs
from .analysis import evaluate_lca, exponent_row, format_table, run_sweep
from .core.errors import GraphError, ParameterError, ReproError
from .core.registry import available, create
from .faults import FaultPlan, FaultPlanError
from .graphs.io import read_edge_list, write_edge_list
from .kernels import check_environment
from .lowerbound import run_distinguishing_experiment
from .reports.spec import FaultSpec, ServiceSpec, WorkloadSpec
from .service import (
    DEGRADED_MODES,
    WORKLOAD_KINDS,
    ServiceEngine,
    make_workload,
)


# --------------------------------------------------------------------------- #
# Graph acquisition
# --------------------------------------------------------------------------- #
#: The named graph families, shared with the experiment plane
#: (:mod:`repro.graphs.generators` owns the registry).
GENERATORS = graphs.FAMILY_BUILDERS


def _load_graph(args) -> graphs.Graph:
    if getattr(args, "mmap", None):
        if getattr(args, "graph", None) or getattr(args, "generate", None):
            raise SystemExit("--mmap loads a CSR snapshot; drop --graph/--generate")
        from .scale import load_csr_snapshot

        try:
            return load_csr_snapshot(args.mmap)
        except (RuntimeError, GraphError) as exc:
            raise SystemExit(f"--mmap: {exc}")
    if getattr(args, "graph", None):
        try:
            return read_edge_list(args.graph)
        except (OSError, GraphError) as exc:
            raise SystemExit(f"--graph: {exc}")
    family = getattr(args, "generate", None) or "gnp"
    if family not in GENERATORS:
        raise SystemExit(
            f"unknown graph family {family!r}; choices: {sorted(GENERATORS)}"
        )
    return graphs.build_family(family, args.n, density=args.density, seed=args.seed)


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (--replication,
    --fault-horizon, --timeout-ticks, --queries, --stretch-sample, --count).

    Rejecting 0/negative values here gives a one-line argparse usage error
    before any graph is built.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_edges(values: Sequence[str]) -> List[Tuple[int, int]]:
    edges = []
    for value in values:
        parts = value.replace(",", " ").split()
        try:
            u, v = (int(part) for part in parts)
        except ValueError:
            raise ParameterError(f"cannot parse edge {value!r}; expected 'u,v'")
        edges.append((u, v))
    return edges


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def cmd_list(_args) -> int:
    rows = [{"algorithm": name} for name in available()]
    print(format_table(rows, title="Registered LCA constructions"))
    return 0


def cmd_generate(args) -> int:
    if not args.out and not args.snapshot_out:
        raise SystemExit("generate: pass --out and/or --snapshot-out")
    graph = _load_graph(args)
    if args.out:
        write_edge_list(graph, args.out)
        print(f"wrote {graph} to {args.out}")
    if args.snapshot_out:
        from .scale import save_csr_snapshot

        save_csr_snapshot(graph, args.snapshot_out)
        print(f"wrote CSR snapshot of {graph} to {args.snapshot_out}")
    return 0


def _build_lca(args):
    """The graph and LCA of a ``query``, ``materialize`` or ``evaluate`` run.

    ``REPRO_KERNEL`` is checked before the graph is built.
    """
    check_environment()
    graph = _load_graph(args)
    return graph, create(args.algorithm, graph, seed=args.seed)


def cmd_query(args) -> int:
    graph, lca = _build_lca(args)
    edges = _parse_edges(args.edge) if args.edge else list(graph.edges())[: args.count]
    rows = [
        {"edge": f"({u}, {v})", "in spanner": answer, "probes": total}
        for (u, v), answer, total in lca.query_batch(edges)
    ]
    print(format_table(rows, title=f"{args.algorithm} on {graph}"))
    return 0


def cmd_materialize(args) -> int:
    graph, lca = _build_lca(args)
    spanner = lca.materialize(mode="batched")
    stats = spanner.probe_stats
    rows = [
        {
            "algorithm": spanner.algorithm,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "|H|": spanner.num_edges,
            "max probes": stats.max,
            "mean probes": round(stats.mean, 1),
        }
    ]
    print(format_table(rows, title=f"{args.algorithm} materialization"))
    if args.out:
        write_edge_list(spanner.as_graph(graph), args.out)
        print(f"wrote spanner edge list ({spanner.num_edges} edges) to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _, lca = _build_lca(args)
    report = evaluate_lca(lca, sample_stretch_edges=args.stretch_sample)
    print(format_table([report.as_row()], title=f"{args.algorithm} evaluation"))
    if not report.stretch_ok:
        print("WARNING: measured stretch exceeds the declared bound", file=sys.stderr)
        return 1
    return 0


def _int_list(text: str) -> List[int]:
    """Argparse type for comma-separated integers (``--sizes 200,400``)."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        )


def cmd_sweep(args) -> int:
    check_environment()
    sweep = run_sweep(
        args.algorithm,
        lca_factory=lambda g, s: create(args.algorithm, g, seed=s),
        graph_factory=lambda n, s: graphs.gnp_graph(n, args.density, seed=s),
        sizes=args.sizes,
        seed=args.seed,
        materialize=False,
        probe_queries=args.queries,
    )
    print(format_table(sweep.rows(), title=f"{args.algorithm} scaling sweep"))
    print(
        format_table(
            [
                exponent_row(
                    sweep,
                    target_size_exponent=args.target_size_exponent,
                    target_probe_exponent=args.target_probe_exponent,
                )
            ],
            title="Fitted exponents",
        )
    )
    return 0


def _fault_plan(args) -> Optional[FaultPlan]:
    """The serve-bench fault plan: a --fault-plan file wins over the
    generator flags, which describe a :class:`FaultSpec` storm."""
    if args.fault_plan:
        try:
            return FaultPlan.from_file(args.fault_plan)
        except (FaultPlanError, OSError, ValueError) as exc:
            raise SystemExit(f"serve-bench: --fault-plan: {exc}")
    storm = FaultSpec(
        seed=args.fault_seed,
        horizon=args.fault_horizon,
        crashes=args.crashes,
        shard_losses=args.shard_losses,
        slow=args.slow,
        flaky=args.flaky,
    )
    return storm.to_plan(args.shards, args.replication)


def cmd_serve_bench(args) -> int:
    check_environment()
    # Every value is passed explicitly, so the spec defaults never apply.
    service = ServiceSpec(
        shards=args.shards,
        batch_size=args.batch_size,
        max_queue_depth=args.queue_depth,
        arrival_burst=args.arrival_burst,
        replication=args.replication,
        max_retries=args.max_retries,
        timeout_ticks=args.timeout_ticks,
        degraded_mode=args.degraded_mode,
    )
    fault_plan = _fault_plan(args)
    if args.workload == "trace":
        if not args.trace:
            raise SystemExit("--trace FILE is required for the trace workload")
    else:
        workload_spec = WorkloadSpec(
            kind=args.workload,
            requests=1000 if args.requests is None else args.requests,
            seed=args.workload_seed,
            skew=args.skew if args.workload == "zipf" else None,
            write_ratio=args.write_ratio if args.workload == "churn" else None,
        )
    graph = _load_graph(args)
    try:
        if args.workload == "trace":
            workload = make_workload(
                "trace", graph, num_requests=args.requests, path=args.trace
            )
        else:
            workload = workload_spec.build(graph)
    except OSError as exc:
        raise SystemExit(f"serve-bench: cannot read trace: {exc}")
    except ValueError as exc:
        raise SystemExit(f"serve-bench: {exc}")
    engine = ServiceEngine(
        graph,
        lambda g: create(args.algorithm, g, seed=args.seed),
        service.config(fault_plan),
    )
    tracer = profiler = None
    if args.trace_out or args.trace_chrome:
        from .obs import SpanTracer

        tracer = SpanTracer()
    if args.metrics_out:
        from .obs import ProbeProfiler

        profiler = ProbeProfiler()
    report = engine.run(workload, tracer=tracer, profiler=profiler)
    print(format_table([report.as_row()], title="Service run"))
    shard_rows = [
        {
            "shard": r.shard_id,
            "requests": r.requests,
            "probes": r.probes.total,
            "cache hits": r.cache_hits,
            "hit rate": round(r.cache_hit_rate, 3),
        }
        for r in report.shard_reports
    ]
    print(format_table(shard_rows, title="Per-shard telemetry"))
    if report.faults:
        fault_row = {"availability": round(report.availability, 4)}
        fault_row.update(report.faults)
        print(format_table([fault_row], title="Fault plane"))
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"wrote report to {args.json}")
    if args.trace_out:
        from .obs import write_trace_jsonl

        count = write_trace_jsonl(args.trace_out, tracer)
        print(f"wrote {count} spans to {args.trace_out}")
    if args.trace_chrome:
        from .obs import write_chrome_trace

        count = write_chrome_trace(args.trace_chrome, tracer)
        print(f"wrote Chrome trace ({count} events) to {args.trace_chrome}")
    if args.metrics_out:
        import json

        from .obs import collect_run_metrics

        snapshot = collect_run_metrics(report, profiler).snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"wrote {len(snapshot['metrics'])} metrics to {args.metrics_out}"
        )
    return 0


def cmd_trace(args) -> int:
    from .obs import read_trace_jsonl, summarize_spans, write_chrome_trace

    try:
        records = read_trace_jsonl(args.file)
    except ValueError as exc:
        raise SystemExit(f"trace: {exc}")
    rows = [
        {
            "cat": row["cat"],
            "span": row["name"],
            "count": row["count"],
            "ticks": row["ticks"],
            "max ticks": row["max_ticks"],
        }
        for row in summarize_spans(records)
    ]
    if rows:
        print(format_table(rows, title=f"Trace summary ({len(records)} spans)"))
    else:
        print("trace summary: 0 spans")
    if args.chrome:
        count = write_chrome_trace(args.chrome, records)
        print(f"wrote Chrome trace ({count} events) to {args.chrome}")
    return 0


def cmd_mutate(args) -> int:
    graph = _load_graph(args)
    ops: List[Tuple[str, int, int]] = []
    if args.ops:
        from .service import read_trace_ops

        try:
            records = read_trace_ops(args.ops)
        except ValueError as exc:
            raise SystemExit(f"mutate: --ops: {exc}")
        ops.extend(
            (record.op, record.u, record.v)
            for record in records
            if record.is_mutation
        )
    for value in args.add or []:
        (edge,) = _parse_edges([value])
        ops.append(("add", edge[0], edge[1]))
    for value in args.remove or []:
        (edge,) = _parse_edges([value])
        ops.append(("remove", edge[0], edge[1]))
    if not ops:
        raise SystemExit("mutate needs at least one --add, --remove or --ops")
    before_edges = graph.num_edges
    for (op, u, v) in ops:
        graph.apply_mutation(op, u, v)
    graph.compact()
    rows = [
        {
            "n": graph.num_vertices,
            "m before": before_edges,
            "m after": graph.num_edges,
            "applied": len(ops),
            "epoch": graph.epoch,
        }
    ]
    print(format_table(rows, title="Graph mutation"))
    if args.out:
        write_edge_list(graph, args.out)
        print(f"wrote mutated graph ({graph.num_edges} edges) to {args.out}")
    return 0


def cmd_report_run(args) -> int:
    from .reports import (
        ResultStore,
        SpecError,
        load_scenarios,
        run_scenario,
        wall_timer,
    )

    check_environment()
    try:
        specs = load_scenarios(args.specs)
    except SpecError as exc:
        raise SystemExit(f"report run: {exc}")
    store = ResultStore(args.results)
    trace_dir = None
    if args.trace_dir:
        from pathlib import Path

        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        tracer = None
        if (
            trace_dir is not None
            and spec.observability is not None
            and spec.observability.trace
            and spec.workload is not None
        ):
            from .obs import SpanTracer

            tracer = SpanTracer(capacity=spec.observability.capacity)
        try:
            with wall_timer() as timer:
                result = run_scenario(spec, smoke=args.smoke, tracer=tracer)
        except OSError as exc:
            raise SystemExit(f"report run: {spec.name}: {exc}")
        except (FaultPlanError, ValueError) as exc:
            raise SystemExit(f"report run: {spec.name}: {exc}")
        path = store.save(result, wall_seconds=timer.seconds)
        sizes = ", ".join(str(row.n) for row in result.sizes)
        phases = [f"n = {sizes}"] + (["service"] if result.service is not None else [])
        print(f"ran {spec.name} ({'; '.join(phases)}) -> {path}")
        if tracer is not None:
            from .obs import write_chrome_trace, write_trace_jsonl

            try:
                count = write_trace_jsonl(
                    trace_dir / f"{spec.name}.trace.jsonl", tracer
                )
                write_chrome_trace(trace_dir / f"{spec.name}.trace.json", tracer)
            except OSError as exc:
                raise SystemExit(f"report run: {spec.name}: {exc}")
            print(
                f"wrote {count} spans to {trace_dir / (spec.name + '.trace.jsonl')} "
                f"(+ Chrome trace)"
            )
    return 0


def cmd_report_render(args) -> int:
    from .reports import ResultStore, StoreError, render_report

    store = ResultStore(args.results)
    try:
        payloads = store.load_all()
    except StoreError as exc:
        raise SystemExit(f"report render: {exc}")
    if not payloads:
        raise SystemExit(
            f"report render: no results under {store.root}; run "
            "`repro report run scenarios/...` first"
        )
    markdown = render_report(payloads)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote report for {len(payloads)} scenario(s) to {args.out}")
    else:
        print(markdown, end="")
    return 0


def cmd_lint(args) -> int:
    from .lint import BaselineError, format_json, format_text, load_baseline, run_lint

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, BaselineError) as exc:
            raise SystemExit(f"lint: {exc}")
    try:
        report = run_lint(
            root=args.root, paths=args.paths or None, baseline=baseline
        )
    except (OSError, BaselineError) as exc:
        raise SystemExit(f"lint: {exc}")
    if args.format == "json":
        print(format_json(report), end="")
    else:
        print(format_text(report), end="")
    return 0 if report.clean else 1


def cmd_lowerbound(args) -> int:
    result = run_distinguishing_experiment(
        num_vertices=args.n,
        degree=args.degree,
        probe_budget=args.budget,
        trials=args.trials,
        seed=args.seed,
    )
    rows = [
        {
            "n": result.num_vertices,
            "d": result.degree,
            "probe budget": result.probe_budget,
            "threshold min(sqrt(n), n/d)": round(result.theory_threshold, 1),
            "success rate": round(result.success_rate, 3),
            "advantage": round(result.advantage, 3),
        }
    ]
    print(format_table(rows, title="Theorem 1.3 distinguishing experiment"))
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="edge-list file to read the graph from")
    parser.add_argument(
        "--generate",
        choices=sorted(GENERATORS),
        help="generate a synthetic graph instead of reading one",
    )
    parser.add_argument("--n", type=int, default=300, help="generated graph size")
    parser.add_argument(
        "--density", type=float, default=0.1, help="generated graph density parameter"
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument(
        "--mmap",
        metavar="PATH",
        default=None,
        help="memory-map a read-only CSR snapshot written by "
        "'generate --snapshot-out' instead of reading or generating a graph",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the full ``repro-lca`` argument parser (all sub-commands)."""
    parser = argparse.ArgumentParser(
        prog="repro-lca",
        description="Local computation algorithms for graph spanners (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered LCA constructions").set_defaults(
        handler=cmd_list
    )

    generate = sub.add_parser("generate", help="write a synthetic workload graph")
    _add_graph_options(generate)
    generate.add_argument("--family", dest="generate", choices=sorted(GENERATORS))
    generate.add_argument("--out", default=None, help="output edge-list path")
    generate.add_argument(
        "--snapshot-out",
        default=None,
        metavar="PATH",
        help="also (or instead) save the graph as a memory-mappable CSR "
        "snapshot for --mmap loading",
    )
    generate.set_defaults(handler=cmd_generate)

    query = sub.add_parser("query", help="answer spanner queries for edges")
    _add_graph_options(query)
    query.add_argument("--algorithm", default="spanner3", help="registered LCA name")
    query.add_argument(
        "--edge", action="append", help="edge to query as 'u,v' (repeatable)"
    )
    query.add_argument(
        "--count",
        type=_positive_int,
        default=10,
        help="query the first COUNT edges when --edge is absent",
    )
    query.set_defaults(handler=cmd_query)

    materialize = sub.add_parser(
        "materialize",
        help="query every edge and report (optionally export) the spanner",
    )
    _add_graph_options(materialize)
    materialize.add_argument("--algorithm", default="spanner3")
    materialize.add_argument(
        "--out", help="also write the spanner as an edge-list file"
    )
    materialize.set_defaults(handler=cmd_materialize)

    evaluate = sub.add_parser("evaluate", help="materialize and verify an LCA")
    _add_graph_options(evaluate)
    evaluate.add_argument("--algorithm", default="spanner3")
    evaluate.add_argument(
        "--stretch-sample",
        type=_positive_int,
        default=None,
        help="verify stretch on a sample of edges instead of all of them",
    )
    evaluate.set_defaults(handler=cmd_evaluate)

    sweep = sub.add_parser("sweep", help="size/probe scaling sweep")
    sweep.add_argument("--algorithm", default="spanner3")
    sweep.add_argument("--sizes", type=_int_list, default=[200, 400, 800])
    sweep.add_argument("--density", type=float, default=0.12)
    sweep.add_argument("--queries", type=_positive_int, default=80)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--target-size-exponent", type=float, default=1.5)
    sweep.add_argument("--target-probe-exponent", type=float, default=0.75)
    sweep.set_defaults(handler=cmd_sweep)

    serve = sub.add_parser(
        "serve-bench",
        help="run the online query service (sharded pool + scheduler) on a workload",
    )
    _add_graph_options(serve)
    serve.add_argument("--algorithm", default="spanner3", help="registered LCA name")
    serve.add_argument(
        "--workload",
        choices=sorted(WORKLOAD_KINDS),
        default="uniform",
        help="request-stream kind",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=None,
        help="number of requests to serve (default: 1000 for generative "
        "workloads; trace workloads replay the whole recording)",
    )
    serve.add_argument(
        "--workload-seed", type=int, default=0, help="request-stream random seed"
    )
    serve.add_argument(
        "--skew", type=float, default=1.1, help="zipf workload skew exponent"
    )
    serve.add_argument(
        "--write-ratio", type=float, default=0.1,
        help="churn workload write fraction: probability that a request is "
        "a graph mutation instead of a read (ignored by other workloads)",
    )
    serve.add_argument("--trace", help="JSONL trace file (trace workload)")
    serve.add_argument("--shards", type=int, default=4, help="oracle pool size")
    serve.add_argument("--batch-size", type=int, default=32, help="coalesced batch size")
    serve.add_argument(
        "--queue-depth", type=int, default=1024,
        help="admission-control queue depth limit",
    )
    serve.add_argument(
        "--arrival-burst", type=int, default=None,
        help="arrivals per scheduling cycle (default: batch size; larger "
        "values model ingress overload and trigger load shedding)",
    )
    serve.add_argument(
        "--replication", type=_positive_int, default=1,
        help="replicas per shard (replica sets with automatic failover; "
        "answers are identical at any replication factor)",
    )
    serve.add_argument(
        "--fault-plan",
        help="JSON fault plan to inject (see docs/faults.md); overrides the "
        "--crashes/--shard-losses/--slow/--flaky generator knobs",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the generated fault plan",
    )
    serve.add_argument(
        "--fault-horizon", type=_positive_int, default=64,
        help="scheduling-cycle horizon fault events are drawn from",
    )
    serve.add_argument(
        "--crashes", type=int, default=0,
        help="replica crashes to inject (generated plan)",
    )
    serve.add_argument(
        "--shard-losses", type=int, default=0,
        help="whole-shard outages to inject (generated plan)",
    )
    serve.add_argument(
        "--slow", type=int, default=0,
        help="slow-batch events to inject (generated plan)",
    )
    serve.add_argument(
        "--flaky", type=int, default=0,
        help="transient oracle errors to inject (generated plan)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2,
        help="resubmissions per batch on transient failure",
    )
    serve.add_argument(
        "--timeout-ticks", type=_positive_int, default=64,
        help="virtual-time budget after which a batch counts as hung",
    )
    serve.add_argument(
        "--degraded-mode", choices=sorted(DEGRADED_MODES), default="answer",
        help="all replicas of a shard down: 'answer' (explicit degraded "
        "answers) or 'shed' (reject with a distinct reason code)",
    )
    serve.add_argument("--json", help="also write the full report to this JSON file")
    serve.add_argument(
        "--trace-out",
        help="record the run with the deterministic span tracer and write "
        "the JSONL span stream here (see docs/observability.md)",
    )
    serve.add_argument(
        "--trace-chrome",
        help="also write the trace as Chrome trace_event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    serve.add_argument(
        "--metrics-out",
        help="write the unified metrics snapshot (service/cache/probe/"
        "executor/fault metrics under one naming scheme) to this JSON file",
    )
    serve.set_defaults(handler=cmd_serve_bench)

    trace = sub.add_parser(
        "trace",
        help="summarize a JSONL span trace; optionally convert it to "
        "Chrome trace_event JSON",
    )
    trace.add_argument("file", help="JSONL trace written by --trace-out")
    trace.add_argument(
        "--chrome",
        help="write the Chrome trace_event conversion here "
        "(open in Perfetto / chrome://tracing)",
    )
    trace.set_defaults(handler=cmd_trace)

    mutate = sub.add_parser(
        "mutate",
        help="apply edge mutations (add/remove) to a graph and write the result",
    )
    _add_graph_options(mutate)
    mutate.add_argument(
        "--add", action="append", metavar="U,V",
        help="edge to add as 'u,v' (repeatable; applied after --ops)",
    )
    mutate.add_argument(
        "--remove", action="append", metavar="U,V",
        help="edge to remove as 'u,v' (repeatable; applied after --add)",
    )
    mutate.add_argument(
        "--ops",
        help="JSONL trace whose add/remove records are applied first "
        "(query records are ignored)",
    )
    mutate.add_argument("--out", help="write the mutated graph edge list here")
    mutate.set_defaults(handler=cmd_mutate)

    report = sub.add_parser(
        "report",
        help="declarative experiment suite: run scenario specs, render Markdown",
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_run = report_sub.add_parser(
        "run", help="run scenario spec files/directories and store results"
    )
    report_run.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="scenario spec file (.toml/.json) or directory of specs",
    )
    report_run.add_argument(
        "--results", default="results",
        help="results directory (default: results/)",
    )
    report_run.add_argument(
        "--smoke", action="store_true",
        help="shrink every scenario to CI size (smallest graph size, "
        "capped requests and churn)",
    )
    report_run.add_argument(
        "--trace-dir", default=None,
        help="export the span trace of every [observability]-traced "
        "scenario into this directory (<name>.trace.jsonl + Chrome "
        "<name>.trace.json)",
    )
    report_run.set_defaults(handler=cmd_report_run)
    report_render = report_sub.add_parser(
        "render", help="render stored results as one Markdown report"
    )
    report_render.add_argument(
        "--results", default="results",
        help="results directory to read (default: results/)",
    )
    report_render.add_argument(
        "--out", default=None,
        help="write the report here instead of printing it",
    )
    report_render.set_defaults(handler=cmd_report_render)

    lint = sub.add_parser(
        "lint",
        help="AST contract checker: determinism, observability, layering "
        "rules over src/ benchmarks/ scripts/ examples/ (see docs/lint.md)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src benchmarks "
        "scripts examples under --root)",
    )
    lint.add_argument(
        "--root", default=".",
        help="repository root; relative findings paths and the default "
        "baseline resolve against it (default: cwd)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is byte-stable: sorted findings, "
        "sorted keys)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline TOML overriding <root>/lint-baseline.toml",
    )
    lint.set_defaults(handler=cmd_lint)

    lower = sub.add_parser("lowerbound", help="Theorem 1.3 distinguishing experiment")
    lower.add_argument("--n", type=int, default=202)
    lower.add_argument("--degree", type=int, default=3)
    lower.add_argument("--budget", type=int, default=14)
    lower.add_argument("--trials", type=int, default=10)
    lower.add_argument("--seed", type=int, default=1)
    lower.set_defaults(handler=cmd_lowerbound)

    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # Name the sub-command, as its own usage errors do.
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        raise SystemExit(f"{args.command}: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
