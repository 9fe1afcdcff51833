"""Shared payload conventions for the ``BENCH_*.json`` artifacts.

Every benchmark that writes a ``BENCH_*.json`` file at the repository root
builds its payload on :func:`payload_header`, so all artifacts carry the
same machine-context block:

* ``benchmark`` — the artifact's name (``bench_faults``, ...);
* ``python`` / ``machine`` — interpreter version and architecture;
* ``cpu_count`` — usable CPUs (:func:`cpu_count`, affinity-aware);
* ``floor_enforced`` — whether the benchmark's acceptance floor was
  actually asserted on this host.  Single-vCPU runners cannot exhibit
  parallel speedups and perf floors are meaningless there; recording the
  flag next to the numbers keeps the artifacts honest instead of silently
  green.

The module is named ``bench_common`` (not ``conftest``) so it can be
imported explicitly from any benchmark file without pytest magic.
"""

from __future__ import annotations

import os
import platform
from typing import Dict


def cpu_count() -> int:
    """Usable CPUs for this process (affinity mask, not the host total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def payload_header(benchmark: str, floor_enforced: bool = True) -> Dict[str, object]:
    """The common leading block of every ``BENCH_*.json`` payload."""
    return {
        "benchmark": benchmark,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count(),
        "floor_enforced": bool(floor_enforced),
    }
