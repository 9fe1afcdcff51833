"""OBS001: observability calls in hot paths stay behind tracer guards.

The observability plane's contract (``docs/observability.md``) is that
tracing and metrics are *pure observation*: attaching a tracer changes no
answer, probe count or latency stamp, and the disabled path costs one
comparison per site.  That second half is a source-level discipline —
every ``tracer.span/instant/begin/end`` (and registry ``counter/gauge/
observe``) call in the hot packages (``core/``, ``kernels/``,
``service/``) must sit behind a guard on its receiver, such as
``if tracer is not None:``; a tracer is off when it is ``None``.

The guard check is a small module-level taint analysis, matching the idioms
the codebase actually uses:

* direct guards — ``if tracer is not None:``;
* hoisted flags — ``tracing = tracer is not None`` then ``if tracing:``
  (and derived flags like ``fold_trace = tracing and ...``);
* handle guards — ``span = tracer.begin(...)`` under a guard, later
  ``if span is not None: tracer.end(span)``.

Backed dynamically by ``tests/test_obs_integration.py`` (answer/probe/
latency invariance); this rule keeps new instrumentation sites honest.
"""

from __future__ import annotations

import ast
from typing import List, Set

from ..context import FileContext
from ..findings import Finding
from .base import Rule, ancestors, dotted_name

#: Repo-relative packages whose call sites are on the measured hot path.
HOT_PACKAGES = (
    "src/repro/core",
    "src/repro/kernels",
    "src/repro/service",
)

#: Tracer methods that emit events.
TRACER_METHODS = frozenset({"span", "instant", "begin", "end"})
#: Registry methods that record metrics.
METRIC_METHODS = frozenset({"counter", "gauge", "observe"})


def _receiver_kind(func: ast.Attribute) -> str:
    """'tracer' / 'metrics' / '' by the receiver's dotted source name."""
    receiver = dotted_name(func.value)
    if receiver is None:
        return ""
    lowered = receiver.lower()
    if func.attr in TRACER_METHODS and "tracer" in lowered:
        return "tracer"
    if func.attr in METRIC_METHODS and (
        "metrics" in lowered or "registry" in lowered
    ):
        return "metrics"
    return ""


def _mentions(node: ast.AST, names: Set[str]) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id in names
        for child in ast.walk(node)
    )


def _tainted_names(tree: ast.Module) -> Set[str]:
    """Names carrying guard state: a name the file calls tracer or metrics
    methods on, a tracer handle (``x = tracer.begin(...)``) or a name
    derived from another such name (``tracing = tracer is not None``).

    A call's result is guard state only when the call is a tracer or
    metrics method: ``report = run(tracer)`` does not make ``report`` a
    guard."""
    tainted: Set[str] = set()
    assignments = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and _receiver_kind(node.func)
        ):
            tainted.add(node.func.value.id)
        elif isinstance(node, ast.Assign):
            assignments.append((node.targets, node.value))
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            assignments.append(([node.target], node.value))
    changed = True
    while changed:
        changed = False
        for targets, value in assignments:
            if isinstance(value, ast.Call):
                func = value.func
                guardy = isinstance(func, ast.Attribute) and bool(
                    _receiver_kind(func)
                )
            else:
                guardy = _mentions(value, tainted)
            if not guardy:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in tainted:
                    tainted.add(target.id)
                    changed = True
    return tainted


class GuardedObservabilityRule(Rule):
    """OBS001: hot-path tracer/metrics calls are guarded."""

    code = "OBS001"
    name = "guarded-observability"
    contract = (
        "tracer/metrics calls in core/, kernels/, service/ sit "
        "behind a guard on their receiver"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if not ctx.under(*HOT_PACKAGES):
            return []
        tainted = None
        findings: List[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            kind = _receiver_kind(func)
            if not kind:
                continue
            if tainted is None:
                tainted = _tainted_names(ctx.tree)
            receiver = dotted_name(func.value) or ""
            receiver_head = receiver.split(".", 1)[0]
            if self._guarded(node, tainted | {receiver, receiver_head}):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"unguarded {kind} call {receiver}.{func.attr}() on a hot "
                    "path; guard with 'if tracer is not None:' (or a flag "
                    "derived from it)",
                )
            )
        return findings

    @staticmethod
    def _guarded(call: ast.Call, guard_names: Set[str]) -> bool:
        child: ast.AST = call
        for parent in ancestors(call):
            if isinstance(parent, (ast.If, ast.While)) and child is not parent.test:
                if _mentions(parent.test, guard_names):
                    return True
            elif isinstance(parent, ast.IfExp) and child is not parent.test:
                if _mentions(parent.test, guard_names):
                    return True
            elif isinstance(parent, ast.BoolOp):
                # ``tracing and tracer.instant(...)`` — the call's siblings
                # to the left act as the guard.
                for value in parent.values:
                    if value is child:
                        break
                    if _mentions(value, guard_names):
                        return True
            child = parent
        return False
