"""JSONL request traces: record streams once, replay them forever.

A trace is a line-delimited JSON file with one request per line.  Query
records carry just the edge; mutation records additionally carry their op
kind::

    {"u": 3, "v": 17}
    {"op": "add", "u": 2, "v": 9}
    {"op": "remove", "u": 5, "v": 8}
    {"op": "query", "u": 17, "v": 3}

Orientation is preserved — ``{"u": 17, "v": 3}`` replays as the query
``(17, 3)`` — because the LCA answers are orientation-invariant but probe
*schedules* need not be, and bit-identical replay is the whole point of a
trace.  Mutation records round-trip losslessly (op kind, endpoints and
stream position all survive :func:`write_trace` → :func:`read_trace_ops`),
which is what makes recorded churn workloads replayable.  Unknown extra
keys are ignored so traces can carry annotations (timestamps, client ids)
without breaking replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

Edge = Tuple[int, int]
PathLike = Union[str, Path]

#: Op kinds a trace record may carry.  "query" is implicit when absent.
TRACE_OPS = ("query", "add", "remove")

#: The op kinds that mutate the graph.
MUTATION_OPS = ("add", "remove")


@dataclass(frozen=True)
class TraceOp:
    """One replayable request: a query or a graph mutation.

    ``op`` is one of :data:`TRACE_OPS`.  Frozen (hashable) so records can
    key memo tables.
    """

    op: str
    u: int
    v: int

    @property
    def edge(self) -> Edge:
        return (self.u, self.v)

    @property
    def is_mutation(self) -> bool:
        return self.op in MUTATION_OPS


def as_trace_op(item) -> TraceOp:
    """Normalize a request item — a ``(u, v)`` pair or a :class:`TraceOp`."""
    if isinstance(item, TraceOp):
        return item
    u, v = item
    return TraceOp("query", int(u), int(v))


def write_trace(path: PathLike, items: Iterable) -> int:
    """Write a request stream as a JSONL trace; returns the record count.

    Accepts plain ``(u, v)`` query pairs and :class:`TraceOp` records in any
    mix.  Query records are written in the historical ``{"u": ..., "v": ...}``
    shape (byte-compatible with pre-mutation traces); mutation records gain
    an ``op`` key.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for item in items:
            record = as_trace_op(item)
            if record.op == "query":
                payload = {"u": record.u, "v": record.v}
            elif record.op in MUTATION_OPS:
                payload = {"op": record.op, "u": record.u, "v": record.v}
            else:
                raise ValueError(
                    f"unknown trace op {record.op!r}; choices: {TRACE_OPS}"
                )
            handle.write(json.dumps(payload) + "\n")
            count += 1
    return count


def iter_trace_ops(path: PathLike) -> Iterator[TraceOp]:
    """Stream :class:`TraceOp` records from a JSONL trace (lossless)."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                op = str(record.get("op", "query"))
                u, v = int(record["u"]), int(record["v"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace record") from exc
            if op not in TRACE_OPS:
                raise ValueError(
                    f"{path}:{lineno}: unknown trace op {op!r}; "
                    f"choices: {TRACE_OPS}"
                )
            yield TraceOp(op, u, v)


def read_trace_ops(path: PathLike) -> List[TraceOp]:
    """Load a whole JSONL trace (queries and mutations) into memory."""
    return list(iter_trace_ops(path))
