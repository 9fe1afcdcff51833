"""Reading and writing graphs as plain edge lists.

Edge lists are the lowest-common-denominator interchange format used by the
examples (so a user can point the quickstart at their own graph file) and by
the benchmark harness when persisting generated workloads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Tuple, Union

from ..core.errors import GraphError
from .graph import Graph

PathLike = Union[str, Path]


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write a graph as a whitespace-separated edge list.

    The optional header line ``# n m`` records the number of vertices and
    edges; isolated vertices are recorded on ``v <vertex>`` lines so the
    round trip is lossless.
    """
    path = Path(path)
    lines: List[str] = []
    if header:
        lines.append(f"# {graph.num_vertices} {graph.num_edges}")
    touched = set()
    for (u, v) in graph.edges():
        lines.append(f"{u} {v}")
        touched.add(u)
        touched.add(v)
    for vertex in graph.vertices():
        if vertex not in touched:
            lines.append(f"v {vertex}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _vertex_id(field: str, raw_line: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise GraphError(f"malformed edge line: {raw_line!r}") from None


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_edge_list` (or any edge list)."""
    path = Path(path)
    edges: List[Tuple[int, int]] = []
    isolated: List[int] = []
    for raw_line in path.read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise GraphError(f"malformed isolated-vertex line: {raw_line!r}")
            isolated.append(_vertex_id(parts[1], raw_line))
            continue
        if len(parts) < 2:
            raise GraphError(f"malformed edge line: {raw_line!r}")
        edges.append((_vertex_id(parts[0], raw_line), _vertex_id(parts[1], raw_line)))
    vertices = set(isolated)
    for (u, v) in edges:
        vertices.add(u)
        vertices.add(v)
    return Graph.from_edges(edges, vertices=sorted(vertices))


def write_adjacency_json(graph: Graph, path: PathLike) -> None:
    """Write the graph with its exact neighbor orderings as JSON.

    Unlike the edge list, this format preserves the adjacency-list *order*,
    which matters when reproducing a specific LCA run exactly.
    """
    payload = {str(v): list(graph.neighbors(v)) for v in graph.vertices()}
    Path(path).write_text(json.dumps(payload, indent=0), encoding="utf-8")


def read_adjacency_json(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_adjacency_json`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    adjacency = {int(v): [int(w) for w in neighbors] for v, neighbors in payload.items()}
    return Graph(adjacency)


def edges_to_lines(edges: Iterable[Tuple[int, int]]) -> List[str]:
    """Format an iterable of edges as text lines (helper for reports)."""
    return [f"{u} {v}" for (u, v) in edges]
