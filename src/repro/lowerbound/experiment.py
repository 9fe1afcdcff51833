"""Empirical counterpart of the Theorem 1.3 lower bound.

The theorem says: with o(min{√n, n/d}) probes no LCA can distinguish whether
the queried designated edge comes from a D⁺ instance (removing it keeps its
endpoints connected) or a D⁻ instance (removing it disconnects them), so any
o(m)-edge spanner LCA errs on a constant fraction of instances.

The experiment below instantiates the natural probe-limited distinguisher —
run a breadth-first exploration around both endpoints, avoiding the
designated edge, and answer "minus" iff the two exploration balls stay
disjoint within the probe budget — and measures its advantage as a function
of the budget.  The advantage is near zero for budgets well below
min{√n, n/d} and climbs towards one once the budget passes it, reproducing
the shape of the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.errors import ParameterError, ProbeBudgetExceededError
from ..core.oracle import AdjacencyListOracle
from ..core.probes import ProbeCounter
from .instances import (
    DesignatedEdge,
    LowerBoundInstance,
    default_designated_edge,
    sample_minus_instance,
    sample_plus_instance,
)

Distinguisher = Callable[[AdjacencyListOracle, DesignatedEdge], str]


def bfs_distinguisher(oracle: AdjacencyListOracle, designated: DesignatedEdge) -> str:
    """Grow balls around both endpoints (skipping the designated edge).

    Returns ``"minus"`` when the probe budget is exhausted before the balls
    meet (consistent with the two-component family) and ``"plus"`` when a
    path between the endpoints is found.
    """
    x, y = designated.x, designated.y
    visited = {x: "x", y: "y"}
    frontier: List[int] = [x, y]
    try:
        while frontier:
            next_frontier: List[int] = []
            for vertex in frontier:
                for neighbor in oracle.all_neighbors(vertex):
                    if {vertex, neighbor} == {x, y}:
                        continue  # never use the designated edge itself
                    if neighbor in visited:
                        if visited[neighbor] != visited[vertex]:
                            return "plus"
                        continue
                    visited[neighbor] = visited[vertex]
                    next_frontier.append(neighbor)
            frontier = next_frontier
    except ProbeBudgetExceededError:
        return "minus"
    return "minus"


@dataclass
class DistinguishingResult:
    """Outcome of running a distinguisher over sampled instances."""

    probe_budget: int
    trials: int
    correct: int
    num_vertices: int
    degree: int

    @property
    def success_rate(self) -> float:
        return self.correct / self.trials if self.trials else 0.0

    @property
    def advantage(self) -> float:
        """Success beyond random guessing, scaled to [0, 1]."""
        return max(0.0, 2.0 * self.success_rate - 1.0)

    @property
    def theory_threshold(self) -> float:
        """The Ω(min{√n, n/d}) probe threshold of Theorem 1.3."""
        return min(self.num_vertices ** 0.5, self.num_vertices / self.degree)


def run_distinguishing_experiment(
    num_vertices: int,
    degree: int,
    probe_budget: int,
    trials: int,
    seed: int = 0,
    distinguisher: Optional[Distinguisher] = None,
    designated: Optional[DesignatedEdge] = None,
) -> DistinguishingResult:
    """Measure a probe-limited distinguisher's success rate over D⁺/D⁻.

    Each trial samples a fresh instance, alternating between the two
    families, and lets the distinguisher probe it with the given budget.
    A budget of 0 allows no probe, so the distinguisher can only guess.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if probe_budget < 0:
        raise ParameterError(f"probe budget must be >= 0, got {probe_budget}")
    distinguisher = distinguisher or bfs_distinguisher
    designated = designated or default_designated_edge(degree)
    correct = 0
    for trial in range(trials):
        family = "plus" if trial % 2 == 0 else "minus"
        instance = _sample(num_vertices, degree, designated, seed + trial, family)
        counter = ProbeCounter(budget=probe_budget)
        oracle = AdjacencyListOracle(instance.graph, counter)
        try:
            answer = distinguisher(oracle, designated)
        except ProbeBudgetExceededError:
            answer = "minus"
        if answer == family:
            correct += 1
    return DistinguishingResult(
        probe_budget=probe_budget,
        trials=trials,
        correct=correct,
        num_vertices=num_vertices,
        degree=degree,
    )


def advantage_curve(
    num_vertices: int,
    degree: int,
    probe_budgets: List[int],
    trials: int,
    seed: int = 0,
) -> List[DistinguishingResult]:
    """The distinguishing advantage as a function of the probe budget."""
    return [
        run_distinguishing_experiment(
            num_vertices, degree, budget, trials, seed=seed + 10_000 * index
        )
        for index, budget in enumerate(probe_budgets)
    ]


def _sample(
    num_vertices: int,
    degree: int,
    designated: DesignatedEdge,
    seed: int,
    family: str,
) -> LowerBoundInstance:
    if family == "plus":
        return sample_plus_instance(num_vertices, degree, designated, seed)
    return sample_minus_instance(num_vertices, degree, designated, seed)
