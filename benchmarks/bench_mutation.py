"""Mutation-plane benchmark: epoch-based invalidation vs full rebuild.

Simulates a serving loop under churn on the dense gnp fixture (n=500,
p=0.08, ~9.7k edges): each round applies one random edge mutation (insert
or delete, 50/50) and then answers a full read sweep over the current edge
set.  Two cache policies serve the identical schedule:

* **epoch** — one long-lived LCA; mutations bump the graph's vertex epochs
  and memoized state is discarded lazily, entry by entry, on next lookup
  (:mod:`repro.core.cache`).  Only queries whose dependency sets actually
  intersect the mutation recompute.
* **rebuild** — the policy the invalidation plane replaces: every mutation
  throws the oracle away and a fresh LCA (cold caches) answers the sweep.

Both policies must produce bit-identical answers and per-query probe totals
every round (the mutation-plane equivalence oracle), and the epoch policy
must win by ≥3x wall-clock (``BENCH_MIN_EPOCH_SPEEDUP``; the CI smoke job
relaxes the floor for noisy shared runners).  A secondary write-burst
scenario (8 writes between sweeps) is reported without a floor: bigger
bursts invalidate more state, so the ratio honestly shrinks toward the
cold path as the write share grows.

Results land in ``BENCH_mutation.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro import format_table, graphs
from repro.core.registry import create

from bench_common import payload_header
from conftest import print_section

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_mutation.json"

#: Acceptance floor for the steady-churn epoch-vs-rebuild speedup.  The
#: environment override exists for shared CI runners, not for local use.
MIN_EPOCH_SPEEDUP = float(os.environ.get("BENCH_MIN_EPOCH_SPEEDUP", "3.0"))

GRAPH_N = 500
GRAPH_P = 0.08
GRAPH_SEED = 31
LCA_SEED = 5
ROUNDS = 16
BURST_ROUNDS = 8
BURST_WRITES = 8


def _make_graph():
    return graphs.gnp_graph(GRAPH_N, GRAPH_P, seed=GRAPH_SEED)


def _mutation_plan(rounds: int, writes_per_round: int, seed: int = 7):
    """A deterministic churn schedule, valid against its own edge history."""
    graph = _make_graph()
    rng = random.Random(seed)
    edge_set = {tuple(sorted(edge)) for edge in graph.edges()}
    vertices = graph.vertices()
    plan = []
    for _ in range(rounds):
        ops = []
        for _ in range(writes_per_round):
            if rng.random() < 0.5 and len(edge_set) > 50:
                u, v = rng.choice(sorted(edge_set))
                edge_set.discard((u, v))
                ops.append(("remove", u, v))
            else:
                while True:
                    u = rng.choice(vertices)
                    v = rng.choice(vertices)
                    if u != v and tuple(sorted((u, v))) not in edge_set:
                        break
                edge_set.add(tuple(sorted((u, v))))
                ops.append(("add", u, v))
        plan.append(ops)
    return plan


def _serve_epoch(plan):
    """Long-lived LCA + lazy epoch invalidation."""
    graph = _make_graph()
    lca = create("spanner3", graph, seed=LCA_SEED)
    lca.materialize(mode="batched")  # steady-state warmup, outside the clock
    signatures = []
    started = time.perf_counter()
    for ops in plan:
        for (op, u, v) in ops:
            graph.apply_mutation(op, u, v)
        batch = lca.query_batch(list(graph.edges()))
        signatures.append((tuple(batch.answers), tuple(batch.probe_totals)))
    return time.perf_counter() - started, signatures


def _serve_rebuild(plan):
    """Full rebuild: a fresh cold LCA after every mutation burst."""
    graph = _make_graph()
    create("spanner3", graph, seed=LCA_SEED).materialize(mode="batched")
    signatures = []
    started = time.perf_counter()
    for ops in plan:
        for (op, u, v) in ops:
            graph.apply_mutation(op, u, v)
        fresh = create("spanner3", graph, seed=LCA_SEED)
        batch = fresh.query_batch(list(graph.edges()))
        signatures.append((tuple(batch.answers), tuple(batch.probe_totals)))
    return time.perf_counter() - started, signatures


def _scenario(rounds: int, writes_per_round: int):
    plan = _mutation_plan(rounds, writes_per_round)
    epoch_seconds, epoch_signatures = _serve_epoch(plan)
    rebuild_seconds, rebuild_signatures = _serve_rebuild(plan)
    # The equivalence oracle: answers and per-query probe totals must be
    # bit-identical between the mutated long-lived oracle and the
    # from-scratch rebuilds, round for round.
    assert epoch_signatures == rebuild_signatures, (
        "mutation-plane equivalence broken: epoch-invalidated answers "
        "diverged from the full rebuild"
    )
    return {
        "rounds": rounds,
        "writes_per_round": writes_per_round,
        "reads_per_round": "full edge sweep",
        "epoch_s": round(epoch_seconds, 4),
        "rebuild_s": round(rebuild_seconds, 4),
        "speedup": round(rebuild_seconds / epoch_seconds, 2),
    }


def test_epoch_invalidation_beats_full_rebuild_under_churn():
    graph = _make_graph()
    steady = _scenario(ROUNDS, writes_per_round=1)
    burst = _scenario(BURST_ROUNDS, writes_per_round=BURST_WRITES)

    rows = [
        {
            "scenario": "steady churn (1 write/round)",
            "rounds": steady["rounds"],
            "epoch s": steady["epoch_s"],
            "rebuild s": steady["rebuild_s"],
            "speedup": f"{steady['speedup']}x",
            "floor": f">= {MIN_EPOCH_SPEEDUP}x",
        },
        {
            "scenario": f"write burst ({BURST_WRITES} writes/round)",
            "rounds": burst["rounds"],
            "epoch s": burst["epoch_s"],
            "rebuild s": burst["rebuild_s"],
            "speedup": f"{burst['speedup']}x",
            "floor": "reported only",
        },
    ]
    print_section(
        "Mutation plane: epoch-based invalidation vs full rebuild under churn",
        format_table(rows)
        + "\n\nanswers + per-query probe totals bit-identical across policies "
        "in every round",
    )

    payload = {
        **payload_header("bench_mutation"),
        "graph": {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "family": f"gnp({GRAPH_N}, {GRAPH_P}, seed={GRAPH_SEED})",
        },
        "algorithm": "spanner3",
        "min_epoch_speedup_required": MIN_EPOCH_SPEEDUP,
        "steady_churn": steady,
        "write_burst": burst,
        "equivalent_across_policies": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert steady["speedup"] >= MIN_EPOCH_SPEEDUP, (
        f"epoch invalidation must beat full rebuild by at least "
        f"{MIN_EPOCH_SPEEDUP}x under steady churn, measured "
        f"{steady['speedup']}x"
    )
