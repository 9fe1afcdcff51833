"""The BFS variant of Section 4.2 (Figure 6) and the D^k_L exploration.

The exploration starting at ``v`` dequeues one vertex at a time, probes *all*
its neighbors, and enqueues the undiscovered ones in increasing ID order.  As
proved in Section 4.3.1 this discovers vertices in the order of their
lexicographically-first shortest path from ``v``, which is what makes the
"first discovered center" rule produce connected Voronoi cells.

``explore`` truncates the search at ``limit`` discovered vertices and at
radius ``radius`` — the set of discovered vertices is then exactly the
paper's ``D^k_L(v)`` — and records, along the way, the BFS-tree parent of
every discovered vertex (giving the path π(v, ·)) and the first discovered
center (giving c(v)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.oracle import AdjacencyListOracle


@dataclass
class Exploration:
    """Result of one D^k_L exploration from a source vertex."""

    source: int
    radius: int
    limit: int
    #: Discovered vertices in discovery order (the source is first).
    order: List[int] = field(default_factory=list)
    #: BFS-tree distance of every discovered vertex.
    distance: Dict[int, int] = field(default_factory=dict)
    #: BFS-tree parent of every discovered vertex (source maps to None).
    parent: Dict[int, Optional[int]] = field(default_factory=dict)
    #: First discovered center, or None if none was discovered.
    first_center: Optional[int] = None
    #: Whether the exploration stopped because the limit L was reached.
    truncated: bool = False

    @property
    def discovered(self) -> List[int]:
        return self.order

    def path_to(self, vertex: int) -> Optional[List[int]]:
        """The BFS-tree path from the source to ``vertex`` (π(source, vertex))."""
        if vertex not in self.parent:
            return None
        path = [vertex]
        while path[-1] != self.source:
            predecessor = self.parent[path[-1]]
            if predecessor is None:
                break
            path.append(predecessor)
        return list(reversed(path))

    def path_to_center(self) -> Optional[List[int]]:
        """π(source, c(source)) when a center was discovered."""
        if self.first_center is None:
            return None
        return self.path_to(self.first_center)


def explore(
    oracle: AdjacencyListOracle,
    source: int,
    radius: int,
    limit: int,
    is_center: Callable[[int], bool],
) -> Exploration:
    """Run the Figure 6 BFS variant from ``source``.

    Parameters
    ----------
    oracle:
        Probe oracle (all graph access is counted).
    source:
        Start vertex.
    radius:
        Maximum distance explored (the ``k`` of the construction).
    limit:
        Maximum number of discovered vertices (the ``L`` of the construction).
    is_center:
        Probe-free predicate telling whether a vertex elected itself a center.

    Probe cost: at most ``limit − 1`` vertices are expanded, each with one
    ``Degree`` probe and ``deg`` ``Neighbor`` probes, i.e. O(Δ·L) in total.
    """
    # Attribution only: when a profiler rides on the oracle, the whole
    # exploration's probe delta is charged to the "bfs" phase.
    profiler = getattr(oracle, "profiler", None)
    frame = profiler.begin_phase("bfs", oracle.counter) if profiler is not None else None
    result = Exploration(source=source, radius=radius, limit=limit)
    result.order.append(source)
    result.distance[source] = 0
    result.parent[source] = None
    if is_center(source):
        result.first_center = source

    queue = deque([source])
    while queue:
        if len(result.order) >= limit:
            result.truncated = True
            break
        u = queue.popleft()
        if result.distance[u] >= radius:
            break
        neighbors = oracle.all_neighbors(u)
        for w in sorted(neighbors):
            if w in result.distance:
                continue
            result.distance[w] = result.distance[u] + 1
            result.parent[w] = u
            result.order.append(w)
            queue.append(w)
            if result.first_center is None and is_center(w):
                result.first_center = w
            if len(result.order) >= limit:
                result.truncated = True
                break
        if result.truncated:
            break
    if frame is not None:
        profiler.end_phase(frame)
    return result


def explore_global(
    graph,
    source: int,
    radius: int,
    limit: int,
    is_center: Callable[[int], bool],
) -> Exploration:
    """Probe-free version of :func:`explore` for verification code."""

    class _GraphOracle:
        """Minimal stand-in exposing ``all_neighbors`` without probe counting."""

        @staticmethod
        def all_neighbors(vertex: int):
            return list(graph.neighbors(vertex))

    return explore(_GraphOracle(), source, radius, limit, is_center)
