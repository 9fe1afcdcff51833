"""Wall-clock spans around calls into the library's layers.

Traced runs only: :func:`install` replaces a fixed set of public functions
and methods with wrappers that open a span on entry and close it on exit, and
:func:`uninstall` puts the originals back.  Untraced runs never import a
wrapper, so their timings carry no instrumentation.

A span has a name, start, end, parent and the id of the service batch it ran
in (the number of ``ShardedOraclePool.partition`` calls so far).  Closing a
span folds its duration into per-name totals, and its *self* time (duration
minus the time of the spans nested in it) into per-name self totals, so the
self times of one call tree add up to the duration of its root.  Raw spans are
kept in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: (module, class or None, attribute, span name): the layer boundaries.
TARGETS: List[Tuple[str, object, str, str]] = [
    ("repro.graphs", None, "build_family", "graphs.build"),
    ("repro.service.shards", "OracleShard", "apply_mutation", "graphs.mutate"),
    ("repro.graphs.csr", "CSRGraph", "compact", "graphs.compact"),
    ("repro.kernels.engine", None, "build_view", "kernels.view"),
    ("repro.kernels.spanner3", None, "build_prefix_tables", "kernels.table"),
    ("repro.kernels.spanner3", None, "build_scan_tables", "kernels.table"),
    ("repro.kernels.engine", "NumpyKernel", "materialize_spanner3", "kernels.materialize"),
    ("repro.kernels.engine", "NumpyKernel", "scan_profile", "kernels.scan"),
    ("repro.core.lca", "SpannerLCA", "query_batch", "core.query"),
    ("repro.core.lca", "SpannerLCA", "materialize", "core.materialize"),
    ("repro.service.engine", "ServiceEngine", "run", "service.run"),
]


class SpanRecorder:
    """In-memory span store with per-name count, total and self time."""

    def __init__(self, cap: int = 50_000, clock=time.perf_counter) -> None:
        self.clock = clock
        self.origin = self.clock()
        self.cap = cap
        self.kept: List[tuple] = []
        self.dropped = 0
        self.batch = 0
        self._next_id = 1
        # Open spans: [id, name, start, time covered by closed children].
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Start a new accounting window (one round)."""
        self.totals: Dict[str, List[float]] = {}
        self.root_time = 0.0

    def open(self, name: str) -> list:
        frame = [self._next_id, name, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        span_id, name, start, children = frame
        duration = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.root_time += duration
            parent_id = 0
        if len(self.kept) < self.cap:
            self.kept.append((span_id, parent_id, self.batch, name, start, end))
        else:
            self.dropped += 1

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines (times relative to the origin)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"spans": len(self.kept), "dropped": self.dropped}) + "\n")
            for span_id, parent, batch, name, start, end in self.kept:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "batch": batch, "name": name,
                    "start_s": round(start - self.origin, 7),
                    "end_s": round(end - self.origin, 7),
                }) + "\n")


def _spanned(recorder: SpanRecorder, original, name: str):
    open_span = recorder.open
    close_span = recorder.close

    def traced(*args, **kwargs):
        frame = open_span(name)
        try:
            return original(*args, **kwargs)
        finally:
            close_span(frame)

    return traced


def _batch_counter(recorder: SpanRecorder, original):
    def partition(*args, **kwargs):
        recorder.batch += 1
        return original(*args, **kwargs)

    return partition


def install(recorder: SpanRecorder) -> List[tuple]:
    """Wrap every target; returns what :func:`uninstall` needs."""
    targets = TARGETS + [
        ("repro.service.shards", "ShardedOraclePool", "partition", None)
    ]
    saved = []
    for module_name, class_name, attr, span_name in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        if span_name is None:
            wrapper = _batch_counter(recorder, original)
        else:
            wrapper = _spanned(recorder, original, span_name)
        setattr(owner, attr, wrapper)
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: List[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
