#!/usr/bin/env python3
"""The benchmark command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-zipf --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # the four, one process each
    python3 perfbench/run.py --steady 10 --workload all
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json

One workload runs in this process, single-threaded.  It prints the
environment, the workload descriptor and a metric table, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separately traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

#: Variables that silently change what ``kernel="auto"`` and the graph
#: backend defaults select; a run clears them and records that it did.
PINNED_ENV = ("REPRO_KERNEL", "REPRO_GRAPH_BACKEND")
#: Native thread pools are held to one thread: the load is one thread.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=spec.workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=spec.WORKLOAD_SEED,
                        help="workload seed: query order, request streams, check "
                        f"samples (seed {spec.HELD_OUT_SEED} is held out for confirming "
                        "claims; serve-churn reads the same edges at every workload seed)")
    parser.add_argument("--graph-seed", type=int, default=spec.GRAPH_SEED)
    parser.add_argument("--lca-seed", type=int, default=spec.LCA_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", default=0,
                        help="make two sets of N runs of each workload (seeds --seed .. "
                        "--seed+N-1) and print every metric's spreads and drift "
                        "against its bound")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.steady < 0 or args.steady == 1:
        parser.error("--steady needs at least 2 runs a set")
    return args


def pin_environment():
    cleared = [name for name in PINNED_ENV if os.environ.pop(name, None) is not None]
    for name in THREAD_ENV:
        os.environ[name] = "1"
    return cleared


def load_program():
    """Import the library from this checkout's ``src`` (nothing else)."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro was imported from {repro.__file__}, not {src}")
    from perfbench import workloads

    return workloads


def environment(cleared, load1, kernel, block_ms) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "load1": round(load1, 2),
        "cleared": cleared,
        # Median calibration block: the host's speed the timings were scaled by.
        "host_block_ms": round(block_ms, 4),
    }


def run_workload(args) -> int:
    cleared = pin_environment()
    load1 = os.getloadavg()[0]
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    seeds = workloads.Seeds(graph=args.graph_seed, lca=args.lca_seed, workload=args.seed)
    bench = workloads.BENCHES[args.workload](seeds)
    result = workloads.run(bench, args.seconds, traced=bool(args.trace))
    if args.trace:
        values, declared = workloads.per_layer(result), spec.PER_LAYER
    else:
        values, declared = workloads.end_to_end(result), spec.END_TO_END
    block_ms = workloads.REFERENCE_BLOCK_S / workloads.host_scale(result) * 1e3
    env = environment(cleared, load1, result.descriptor["kernel"], block_ms)
    print(f"perfbench {args.workload} seed={args.seed} graph_seed={args.graph_seed} "
          f"lca_seed={args.lca_seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("descriptor " + json.dumps(result.descriptor, sort_keys=True))
    print("rounds " + json.dumps({
        "setup_s": [round(r.setup_s, 4) for r in result.rounds],
        "timed_s": [round(r.timed_s, 4) for r in result.rounds],
        "block_ms": [round(statistics.fmean(r.blocks_s) * 1e3, 4) for r in result.rounds],
        "ops": [r.ops for r in result.rounds],
        "traced": [r.traced for r in result.rounds],
    }))
    for problem in result.problems:
        print(f"PROBLEM {problem}")
    for item in declared:
        print(f"  {item.name:<26} {values[item.name]:>16.6g} {item.unit}")
    correct = result.failed == 0 and not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            item.name: {"value": values[item.name], "unit": item.unit} for item in declared
        },
    }))
    return 0


def child(args, workload, seed, trace) -> dict:
    """Run one workload in its own process; returns its result object."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(trace),
        "--graph-seed", str(args.graph_seed), "--lca-seed", str(args.lca_seed),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {workload} seed {seed} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        for key in ("environment", "rounds"):
            if line.startswith(key + " "):
                result[key] = json.loads(line[len(key) + 1:])
    return result


def run_all(args) -> int:
    names = spec.workload_names()
    results = {name: child(args, name, args.seed, args.trace) for name in names}
    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(f"\n{'metric':<26}" + "".join(f"{name:>14}" for name in names) + "  unit")
    for item in declared:
        cells = "".join(
            f"{results[name]['metrics'][item.name]['value']:>14.6g}" for name in names
        )
        print(f"{item.name:<26}{cells}  {item.unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }))
    return 0


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else 0.0)


def worse_share(metric, parent: float, change: float) -> float:
    """How much worse ``change`` reads than ``parent``, as a share of ``parent``."""
    if not parent:
        return 0.0
    delta = change - parent if metric.better == "lower" else parent - change
    return delta / parent


def drift(metric, first: float, second: float) -> float:
    """How much worse one set's median reads than the other's, whichever set
    is taken as the parent."""
    return max(worse_share(metric, first, second), worse_share(metric, second, first))


def verdict(bound, shares) -> str:
    """``steady`` when every share is within a third of ``bound``, ``within
    bound`` when within it, ``NOISY`` otherwise; "" for an unbounded metric."""
    if bound is None:
        return ""
    worst = max(shares)
    if worst <= bound / 3:
        return "steady"
    return "within bound" if worst <= bound else "NOISY"


def run_steady(args) -> int:
    """Two sets of ``--steady`` runs of each selected workload, as a comparison
    of two commits makes them.  Within a set the workloads take turns seed by
    seed, so one workload's runs do not all sit in one stretch of host speed."""
    names = spec.workload_names() if args.workload == "all" else [args.workload]
    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    seeds = range(args.seed, args.seed + args.steady)
    sets = []
    for _ in range(2):
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                runs[name].append(child(args, name, seed, args.trace))
        sets.append(runs)
    out = ROOT / spec.OUT_DIR / f"steady-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(sets, indent=1) + "\n")
    ok = True
    for name in names:
        correct = all(r["correct"] for runs in sets for r in runs[name])
        ok = ok and correct
        hosts = [
            statistics.median(r["environment"]["host_block_ms"] for r in runs[name])
            for runs in sets
        ]
        print(f"\n{name}: two sets of {args.steady} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"all correct: {correct}, host block median {hosts[0]:.3f} / {hosts[1]:.3f} ms")
        print(f"  {'metric':<26}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}"
              f"{'max':>12}{'spread':>9}{'drift':>9}{'bound':>8}  verdict")
        for item in declared:
            values = [[r["metrics"][item.name]["value"] for r in runs[name]] for runs in sets]
            stats = [spread(vals) for vals in values]
            shift = drift(item, stats[0][0], stats[1][0])
            word = verdict(item.bound, [stats[0][3], stats[1][3], shift])
            ok = ok and word != "NOISY"
            bound = f"{item.bound:>8g}" if item.bound is not None else f"{'-':>8}"
            for number, (vals, (median, q1, q3, rel)) in enumerate(zip(values, stats), 1):
                label = item.name if number == 1 else ""
                tail = f"{shift:>9.4f}{bound}  {word}" if number == 2 else ""
                print(f"  {label:<26}{number:>4}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                      f"{min(vals):>12.6g}{max(vals):>12.6g}{rel:>9.4f}{tail}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
        return 0
    if args.steady:
        return run_steady(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
