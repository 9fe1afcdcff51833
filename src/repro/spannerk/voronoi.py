"""Voronoi cells, Voronoi trees and their refinement into clusters.

This module implements the dense-side machinery of Section 4.3:

* sparse/dense classification via the D^k_L exploration (Definition 4.1,
  Claim 4.3),
* the Voronoi partition of dense vertices around their first-discovered
  centers, together with the depth-k Voronoi trees formed by the
  lexicographically-first shortest paths (Section 4.3.1),
* heavy/light vertices and the refinement of cells into clusters of size
  O(L) (Section 4.3.2, Figure 7),
* the cluster-neighborhood quantities c(∂A) and the minimum-ID connecting
  edges used by the H^B_dense rules (Section 4.3.4).

Everything is packaged in :class:`LocalView`, a per-query working context
that routes every graph access through the probe oracle and memoizes the
(deterministic) intermediate results so each sub-routine is computed at most
once per query.  On a cached oracle the D^k_L explorations also live in the
oracle's memo layer, so each one is computed once across queries while every
query is still charged its cold probe cost (see :meth:`LocalView.exploration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.oracle import AdjacencyListOracle
from ..core.seed import Seed, SeedLike
from ..rand.sampler import CenterSampler, RankAssigner
from .bfs import Exploration, explore
from .params import KSquaredParams

Edge = Tuple[int, int]


@dataclass(frozen=True)
class ClusterInfo:
    """A cluster of the Section 4.3.2 refinement."""

    #: All vertices of the cluster (between 1 and 2L of them).
    members: FrozenSet[int]
    #: Center of the Voronoi cell containing the cluster.
    cell_center: int
    #: Which refinement rule produced the cluster ('whole-cell', 'heavy-singleton', 'grouped').
    kind: str

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.members


class KSquaredRandomness:
    """The three sources of randomness of the construction.

    * center election (probability Θ(log n / L)),
    * Voronoi-cell marking (probability 1/L),
    * random ranks of cell centers (k blocks of ⌈log n / k⌉ bits,
      Section 5.2).
    """

    def __init__(self, seed: SeedLike, params: KSquaredParams) -> None:
        seed = Seed.of(seed)
        self.params = params
        self.centers = CenterSampler(
            seed.derive("spannerk/centers"),
            params.center_probability,
            params.independence,
        )
        self.marks = CenterSampler(
            seed.derive("spannerk/marks"),
            params.mark_probability,
            params.independence,
        )
        self.ranks = RankAssigner.for_graph(
            seed.derive("spannerk/ranks"),
            params.num_vertices,
            params.stretch_parameter,
            params.independence,
        )

    def is_center(self, vertex: int) -> bool:
        return self.centers.is_center(vertex)

    def is_marked_cell(self, center: int) -> bool:
        return self.marks.is_center(center)

    def rank_key(self, center: int) -> Tuple[int, int]:
        """Total order on centers: block-concatenated rank, ties by ID."""
        return (self.ranks.rank(center), center)


class LocalView:
    """Per-query working context over the probe oracle.

    All methods are deterministic functions of ``(graph, seed, params)``.
    The view's own dict only avoids recomputation within the query, and it
    is what charges each exploration once per view, as the cold schedule
    does.
    """

    def __init__(
        self,
        oracle: AdjacencyListOracle,
        params: KSquaredParams,
        randomness: KSquaredRandomness,
    ) -> None:
        self.oracle = oracle
        self.params = params
        self.randomness = randomness
        self._cache: dict = {}

    # ------------------------------------------------------------------ #
    # Exploration / sparse-dense classification
    # ------------------------------------------------------------------ #
    def exploration(self, vertex: int) -> Exploration:
        """The D^k_L exploration from ``vertex`` (charged once per view)."""
        key = ("explore", vertex)
        result = self._cache.get(key)
        if result is None:
            if self.oracle.supports_memo:
                result = self._memoized_exploration(vertex)
            else:
                result = self._explore(vertex)
            self._cache[key] = result
        return result

    def _explore(self, vertex: int) -> Exploration:
        return explore(
            self.oracle,
            vertex,
            radius=self.params.stretch_parameter,
            limit=self.params.exploration_budget,
            is_center=self.randomness.is_center,
        )

    def _memoized_exploration(self, vertex: int) -> Exploration:
        """:func:`explore` through the cached oracle's memo layer.

        An exploration reads only the rows it expands and otherwise depends
        on ``params`` and ``randomness`` alone, so the one namespace per
        randomness object serves the LCA's three components, and the memo's
        dependency tracking recomputes an entry once a row it read mutates.
        A hit replays the stored per-kind probe cost inside a ``bfs`` frame,
        so both the charge and its phase attribution equal the cold run's.
        """
        oracle = self.oracle
        cache = oracle.cache
        namespace = (self.randomness, "explore")
        entry = cache.lookup(namespace, vertex)
        if entry is not None:
            result, cost = entry.value
            profiler = oracle.profiler
            if profiler is None:
                oracle.replay(cost)
            else:
                with profiler.phase("bfs", oracle.counter):
                    oracle.replay(cost)
            return result
        before = oracle.counter.snapshot()
        with cache.track() as touched:
            result = self._explore(vertex)
        cost = oracle.counter.snapshot() - before
        cache.store(namespace, vertex, (result, cost), touched)
        return result

    def is_dense(self, vertex: int) -> bool:
        """Dense = some center was discovered within the D^k_L exploration."""
        return self.exploration(vertex).first_center is not None

    def is_sparse(self, vertex: int) -> bool:
        return not self.is_dense(vertex)

    def center(self, vertex: int) -> Optional[int]:
        """c(vertex): the first-discovered center (None for sparse vertices)."""
        return self.exploration(vertex).first_center

    def voronoi_path(self, vertex: int) -> Optional[List[int]]:
        """π(vertex, c(vertex)) along the exploration's BFS tree."""
        return self.exploration(vertex).path_to_center()

    def parent(self, vertex: int) -> Optional[int]:
        """The Voronoi-tree parent of ``vertex`` (None for centers/sparse)."""
        path = self.voronoi_path(vertex)
        if path is None or len(path) < 2:
            return None
        return path[1]

    def is_tree_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is a Voronoi-tree edge (H^I_dense membership)."""
        if not (self.is_dense(u) and self.is_dense(v)):
            return False
        return self.parent(u) == v or self.parent(v) == u

    # ------------------------------------------------------------------ #
    # Voronoi-tree structure: children, subtree sizes, heavy/light
    # ------------------------------------------------------------------ #
    def children(self, vertex: int) -> List[int]:
        """Children of ``vertex`` in its Voronoi tree.

        A neighbor ``w`` is a child when it is dense, belongs to the same
        cell and its own path's second vertex is ``vertex``.  Costs one
        neighbor-list scan plus one exploration per neighbor (O(Δ²L) probes).
        """
        key = ("children", vertex)
        if key in self._cache:
            return self._cache[key]
        # Probe attribution: the child scan is Voronoi-tree machinery; the
        # explorations it triggers attribute their own windows to "bfs".
        profiler = getattr(self.oracle, "profiler", None)
        frame = (
            profiler.begin_phase("voronoi", self.oracle.counter)
            if profiler is not None
            else None
        )
        own_center = self.center(vertex)
        children: List[int] = []
        if own_center is not None:
            for w in self.oracle.all_neighbors(vertex):
                if not self.is_dense(w):
                    continue
                if self.center(w) != own_center:
                    continue
                if self.parent(w) == vertex:
                    children.append(w)
        if frame is not None:
            profiler.end_phase(frame)
        self._cache[key] = children
        return children

    def subtree_vertices(self, vertex: int, cap: Optional[int] = None) -> List[int]:
        """Vertices of the subtree T(vertex), optionally stopping at ``cap``.

        With ``cap = L + 1`` this is the heavy/light test; without a cap it
        enumerates a (light) subtree, which has at most L vertices.
        """
        limit = cap if cap is not None else self.params.exploration_budget
        key = ("subtree", vertex, limit)
        if key in self._cache:
            return self._cache[key]
        collected: List[int] = []
        stack = [vertex]
        seen = set()
        while stack and len(collected) < limit:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            collected.append(x)
            for child in self.children(x):
                if child not in seen:
                    stack.append(child)
        self._cache[key] = collected
        return collected

    def is_heavy(self, vertex: int) -> bool:
        """Heavy = the Voronoi subtree below ``vertex`` has more than L vertices."""
        budget = self.params.exploration_budget
        return len(self.subtree_vertices(vertex, cap=budget + 1)) > budget

    # ------------------------------------------------------------------ #
    # Cluster refinement (rules (a), (b), (c) of Section 4.3.2)
    # ------------------------------------------------------------------ #
    def cluster_info(self, vertex: int) -> Optional[ClusterInfo]:
        """The cluster containing a dense ``vertex`` (None for sparse ones)."""
        key = ("cluster", vertex)
        if key in self._cache:
            return self._cache[key]
        profiler = getattr(self.oracle, "profiler", None)
        if profiler is not None:
            with profiler.phase("voronoi", self.oracle.counter):
                info = self._compute_cluster(vertex)
        else:
            info = self._compute_cluster(vertex)
        self._cache[key] = info
        if info is not None:
            # Every member belongs to the same cluster; share the result.
            for member in info.members:
                self._cache.setdefault(("cluster", member), info)
        return info

    def _compute_cluster(self, vertex: int) -> Optional[ClusterInfo]:
        cell_center = self.center(vertex)
        if cell_center is None:
            return None
        # Rule (b): heavy vertices form singleton clusters.
        if self.is_heavy(vertex):
            return ClusterInfo(frozenset({vertex}), cell_center, "heavy-singleton")

        # Walk up the parent chain looking for the first heavy ancestor.
        budget = self.params.exploration_budget
        max_steps = 2 * self.params.stretch_parameter + 2
        chain = [vertex]
        heavy_ancestor: Optional[int] = None
        current = vertex
        for _ in range(max_steps):
            parent = self.parent(current)
            if parent is None or parent in chain:
                break
            if self.is_heavy(parent):
                heavy_ancestor = parent
                break
            chain.append(parent)
            current = parent
            if current == cell_center:
                break

        if heavy_ancestor is None:
            # Rule (a): the whole (light) cell is one cluster.
            members = self.subtree_vertices(cell_center, cap=budget)
            return ClusterInfo(frozenset(members), cell_center, "whole-cell")

        # Rule (c): group the light children of the heavy ancestor.
        child_towards_vertex = chain[-1] if chain else vertex
        light_children = [
            w for w in self.children(heavy_ancestor) if not self.is_heavy(w)
        ]
        ordered = self._order_by_adjacency(heavy_ancestor, light_children)
        groups: List[List[int]] = []
        current_group: List[int] = []
        current_size = 0
        for child in ordered:
            size = len(self.subtree_vertices(child, cap=budget))
            current_group.append(child)
            current_size += size
            if current_size >= budget:
                groups.append(current_group)
                current_group = []
                current_size = 0
        if current_group:
            groups.append(current_group)

        for group in groups:
            if child_towards_vertex in group:
                members: List[int] = []
                for child in group:
                    members.extend(self.subtree_vertices(child, cap=budget))
                return ClusterInfo(frozenset(members), cell_center, "grouped")

        # The child towards ``vertex`` is always light (it precedes the first
        # heavy ancestor), so it must appear in some group; this fallback only
        # guards against truncation anomalies and keeps the result well defined.
        return ClusterInfo(frozenset(chain), cell_center, "grouped")

    def _order_by_adjacency(self, parent: int, children: List[int]) -> List[int]:
        """Order children consistently by their index in Γ(parent)."""
        neighbor_list = self.oracle.all_neighbors(parent)
        positions = {w: i for i, w in enumerate(neighbor_list)}
        return sorted(children, key=lambda w: positions.get(w, len(positions)))

    # ------------------------------------------------------------------ #
    # Cluster neighborhoods (c(∂A)) and minimum-ID connecting edges
    # ------------------------------------------------------------------ #
    def incident_edges(self, cluster: ClusterInfo) -> List[Tuple[int, int, Optional[int]]]:
        """All edges leaving the cluster, as (member, neighbor, neighbor's cell).

        Sparse neighbors are reported with cell ``None``.  Costs a
        neighbor-list scan of every member plus one exploration per distinct
        outside neighbor.
        """
        key = ("incident", cluster.members)
        if key in self._cache:
            return self._cache[key]
        edges: List[Tuple[int, int, Optional[int]]] = []
        for member in sorted(cluster.members):
            for w in self.oracle.all_neighbors(member):
                if w in cluster.members:
                    continue
                cell = self.center(w) if self.is_dense(w) else None
                edges.append((member, w, cell))
        self._cache[key] = edges
        return edges

    def adjacent_cells(self, cluster: ClusterInfo) -> Dict[int, Tuple[int, int]]:
        """c(∂A) with witnesses: adjacent cell center → minimum-ID edge.

        The minimum is over ordered pairs ``(member, outside-neighbor)`` with
        the member first, matching the paper's edge-ID convention for
        "connecting A to Vor(s)".  The cluster's own cell is excluded.
        """
        key = ("adjacent-cells", cluster.members)
        if key in self._cache:
            return self._cache[key]
        best: Dict[int, Tuple[int, int]] = {}
        for member, neighbor, cell in self.incident_edges(cluster):
            if cell is None or cell == cluster.cell_center:
                continue
            candidate = (member, neighbor)
            if cell not in best or candidate < best[cell]:
                best[cell] = candidate
        self._cache[key] = best
        return best

    def min_edge_to_cluster(
        self, cluster: ClusterInfo, other_members: FrozenSet[int]
    ) -> Optional[Tuple[int, int]]:
        """Minimum-ID edge in E(cluster, other cluster) (cluster side first)."""
        best: Optional[Tuple[int, int]] = None
        for member, neighbor, _cell in self.incident_edges(cluster):
            if neighbor not in other_members:
                continue
            candidate = (member, neighbor)
            if best is None or candidate < best:
                best = candidate
        return best

    def rank_position(
        self, target_center: int, candidate_centers
    ) -> int:
        """How many candidate centers have strictly smaller rank than the target."""
        target_key = self.randomness.rank_key(target_center)
        return sum(
            1
            for center in candidate_centers
            if self.randomness.rank_key(center) < target_key
        )
