"""OBS001: observability calls in hot paths stay behind enabled-guards.

The observability plane's contract (``docs/observability.md``) is that
tracing and metrics are *pure observation*: attaching a tracer changes no
answer, probe count or latency stamp, and the disabled path costs one
attribute check per site.  That second half is a source-level discipline —
every ``tracer.span/instant/begin/end`` (and registry ``counter/gauge/
observe``) call in the hot packages (``core/``, ``kernels/``,
``service/``) must sit behind an ``if tracer.enabled``-style guard or be
made on a receiver that defaults to :data:`repro.obs.tracer.NULL_TRACER`.

The guard check is a small module-level taint analysis, matching the idioms
the codebase actually uses:

* direct guards — ``if tracer is not None and tracer.enabled:``;
* hoisted flags — ``tracing = tracer is not None and tracer.enabled`` then
  ``if tracing:`` (and derived flags like ``fold_trace = tracing and ...``);
* handle guards — ``span = tracer.begin(...)`` under a guard, later
  ``if span is not None: tracer.end(span)``;
* null-object receivers — names assigned from ``NULL_TRACER`` (or defaulted
  to it) may be called unguarded, that being the point of the pattern.

Backed dynamically by ``tests/test_obs_integration.py`` (answer/probe/
latency invariance) and ``benchmarks/bench_obs.py`` (the <=5% null-tracer
overhead floor); this rule keeps new instrumentation sites honest.
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
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "enabled":
            return True
        if isinstance(child, ast.Name) and child.id in names:
            return True
    return False


def _tainted_names(tree: ast.Module) -> Set[str]:
    """Names carrying guard state: derived from ``.enabled``, a tracer
    handle (``x = tracer.begin(...)``), ``NULL_TRACER`` or another such name."""
    tainted: Set[str] = {"NULL_TRACER"}
    assignments = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            assignments.append((node.targets, node.value))
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            assignments.append(([node.target], node.value))
    changed = True
    while changed:
        changed = False
        for targets, value in assignments:
            guardy = _mentions(value, tainted)
            if not guardy and isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Attribute) and _receiver_kind(func):
                    guardy = True
            if not guardy:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in tainted:
                    tainted.add(target.id)
                    changed = True
    return tainted


def _null_safe_map(tree: ast.Module) -> dict:
    """Scope id → names bound (or defaulted) to ``NULL_TRACER`` there.

    Keyed by ``id(function_node)`` (``None`` for module scope) so that one
    function defaulting ``tracer=NULL_TRACER`` does not whitelist the name
    for every *other* function in the module.  Requires parent links
    (:meth:`FileContext.walk` ran first).
    """
    safe: dict = {None: set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(child, ast.Name) and child.id == "NULL_TRACER"
                for child in ast.walk(node.value)
            ):
                scope = _enclosing_scope(node)
                safe.setdefault(scope, set()).update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            scoped = safe.setdefault(id(node), set())
            for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                    args.defaults):
                if isinstance(default, ast.Name) and default.id == "NULL_TRACER":
                    scoped.add(arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if isinstance(default, ast.Name) and default.id == "NULL_TRACER":
                    scoped.add(arg.arg)
    return safe


def _enclosing_scope(node: ast.AST):
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return id(parent)
    return None


def _null_safe_for(call: ast.Call, safe_map: dict) -> Set[str]:
    """Null-safe names visible at one call site: module + enclosing scopes."""
    names = set(safe_map.get(None, ()))
    for parent in ancestors(call):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= safe_map.get(id(parent), set())
    return names


class GuardedObservabilityRule(Rule):
    """OBS001: hot-path tracer/metrics calls are guarded or null-object."""

    code = "OBS001"
    name = "guarded-observability"
    contract = (
        "tracer/metrics calls in core/, kernels/, service/ sit "
        "behind an enabled-guard or use the NULL_TRACER pattern"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if not ctx.under(*HOT_PACKAGES):
            return []
        tainted = None
        null_safe_map = None
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
                null_safe_map = _null_safe_map(ctx.tree)
            receiver = dotted_name(func.value) or ""
            receiver_head = receiver.split(".", 1)[0]
            null_safe = _null_safe_for(node, null_safe_map)
            if receiver in null_safe or receiver_head in null_safe:
                continue
            if self._guarded(node, tainted | {receiver, receiver_head}):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"unguarded {kind} call {receiver}.{func.attr}() on a hot "
                    "path; guard with 'if tracer.enabled:' (or a flag derived "
                    "from it) or default the receiver to NULL_TRACER",
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
