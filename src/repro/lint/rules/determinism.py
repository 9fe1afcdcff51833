"""DET001/DET002: no wall clock, no ambient randomness.

The reproduction's headline guarantee — byte-identical reports and
bit-identical probe accounting across kernels × engines × shard layouts — only
holds if deterministic paths never consult sources that vary between runs:

* **DET001** — wall-clock and entropy reads (``time.time``,
  ``time.perf_counter``, ``datetime.now``, ``os.urandom``, ``uuid.uuid4``,
  anything in :mod:`secrets`).  Benchmarks *measure* wall-clock time and
  the result store records it as provenance; those grants live in
  ``lint-baseline.toml`` with reasons, everywhere else is a finding.
* **DET002** — ambient randomness: calls through the module-level
  :mod:`random` singleton (``random.random()``, ``from random import
  choice``), unseeded ``random.Random()`` and ``random.SystemRandom``.
  All randomness must flow through :class:`repro.core.seed.Seed` or a
  namespaced seeded stream (``random.Random(f"zipf:{seed}")``), which is
  what makes every draw a pure function of the master seed.

Backed dynamically by ``tests/test_service_parallel.py`` (the broken-clock
audit) and the cross-run byte-compare jobs in CI; this rule catches the
careless import before those tests have to.
"""

from __future__ import annotations

import ast
from typing import List

from ..context import FileContext
from ..findings import Finding
from .base import ImportMap, Rule

#: Canonical dotted names whose *reading* makes a path nondeterministic.
WALL_CLOCK_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: ``random`` module attributes that are fine to reference.
_RANDOM_ALLOWED = frozenset({"random.Random"})


class WallClockRule(Rule):
    """DET001: no wall-clock or entropy source outside allowlisted modules."""

    code = "DET001"
    name = "no-wall-clock"
    contract = (
        "deterministic paths never read the wall clock or OS entropy; "
        "wall-clock provenance is confined to baselined modules"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        imports = ImportMap(ctx.tree)
        findings: List[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(node, ast.Name) and node.id not in imports.aliases:
                continue
            canonical = imports.resolve(node)
            if canonical is None:
                continue
            if canonical in WALL_CLOCK_NAMES or canonical.startswith("secrets."):
                # Attribute sub-chains resolve to prefixes (``datetime.datetime``)
                # which are not in the banned set, so each source reference is
                # reported exactly once, at the full chain.
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"reads nondeterministic source {canonical}; inject a "
                        "clock/seed or add a reasoned baseline entry",
                    )
                )
        return findings


class AmbientRandomRule(Rule):
    """DET002: all randomness flows through seeded, namespaced streams."""

    code = "DET002"
    name = "no-ambient-random"
    contract = (
        "no module-level random usage and no unseeded Random(); randomness "
        "derives from core.seed.Seed / namespaced seeded streams"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        imports = ImportMap(ctx.tree)
        findings: List[Finding] = []
        for node in ctx.walk():
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in ("Random",):
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"imports random.{alias.name}, the shared "
                                "module-level stream; construct a seeded "
                                "random.Random(namespace) instead",
                            )
                        )
                continue
            if isinstance(node, ast.Call):
                canonical = imports.resolve(node.func)
                if canonical == "random.Random" and not (node.args or node.keywords):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "unseeded random.Random() is seeded from OS "
                            "entropy; pass a namespaced seed",
                        )
                    )
                continue
            if not isinstance(node, ast.Attribute):
                continue
            canonical = imports.resolve(node)
            if canonical is None or not canonical.startswith("random."):
                continue
            if canonical in _RANDOM_ALLOWED:
                continue
            if canonical == "random.SystemRandom":
                message = "random.SystemRandom draws OS entropy; use a seeded Random"
            else:
                attribute = canonical.partition(".")[2]
                message = (
                    f"module-level random.{attribute} uses the shared global "
                    "stream; use a seeded namespaced random.Random instead"
                )
            findings.append(self.finding(ctx, node, message))
        return findings
