"""DOC001: docstring coverage for modules and public entry points.

The lint-framework home of what ``scripts/check_docs.py`` used to do on its
own (the script is now a thin shim over this rule, so CI wiring and the
``repro lint`` front door see the same check):

* **Module docstrings** — every scanned module (including package
  ``__init__.py`` files) opens with a docstring.  Checked on the AST, so
  nothing is imported and import-time side effects cannot hide a miss.
* **Public entry points** — the load-bearing classes/functions a new user
  meets first (the quickstart API, the CLI, the planes' front doors) each
  carry a docstring.  Checked by importing :mod:`repro` once per run, so
  the list below breaks loudly if an entry point is renamed.  This half
  only runs when the scanned root actually contains the repro package
  (fixture trees in tests skip it).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

from ..context import FileContext, ProjectContext
from ..findings import Finding
from .base import Rule

#: Dotted names of the top public entry points (module:attribute).
ENTRY_POINTS = [
    "repro.graphs.graph:Graph",
    "repro.graphs.generators:build_family",
    "repro.core.lca:SpannerLCA",
    "repro.core.lca:SpannerLCA.materialize",
    "repro.core.oracle:CachedOracle",
    "repro.core.registry:create",
    "repro.analysis.harness:evaluate_lca",
    "repro.service.engine:ServiceEngine",
    "repro.service.workload:make_workload",
    "repro.faults.plan:FaultPlan",
    "repro.faults.plan:FaultPlan.generate",
    "repro.faults.injector:FaultInjector",
    "repro.obs.tracer:SpanTracer",
    "repro.obs.metrics:MetricsRegistry",
    "repro.obs.metrics:collect_run_metrics",
    "repro.obs.profiler:ProbeProfiler",
    "repro.obs.export:write_trace_jsonl",
    "repro.obs.export:chrome_trace",
    "repro.core.lca:SpannerLCA.attach_profiler",
    "repro.reports.spec:ScenarioSpec",
    "repro.reports.runner:run_scenario",
    "repro.reports.render:render_report",
    "repro.cli:build_parser",
    "repro.lint:run_lint",
    "repro.graphs.graph:Graph.from_arrays",
    "repro.graphs.generators:EdgeChunkStream",
    "repro.graphs.io:read_edge_list_stream",
    "repro.scale.stream:build_csr_from_chunks",
    "repro.scale.stream:build_stream_family",
    "repro.scale.snapshot:save_csr_snapshot",
    "repro.scale.snapshot:load_csr_snapshot",
    "repro.scale.snapshot:MappedCSRGraph",
]


def _is_private(rel_path: str) -> bool:
    return any(
        part.startswith("_") and part != "__init__.py"
        for part in rel_path.split("/")
    )


def _module_path(root: Path, module_name: str) -> str:
    """Repo-relative source path of a dotted module (file or package)."""
    base = "src/" + module_name.replace(".", "/")
    for candidate in (base + ".py", base + "/__init__.py"):
        if (root / candidate).exists():
            return candidate
    return "src/repro"


def entry_point_failures() -> List[str]:
    """The importing half of the check, shared with ``scripts/check_docs.py``.

    Returns human-readable failure lines (empty when everything passes).
    """
    import importlib

    failures: List[str] = []
    for dotted in ENTRY_POINTS:
        module_name, _, attribute_path = dotted.partition(":")
        try:
            target = importlib.import_module(module_name)
            for attribute in attribute_path.split("."):
                target = getattr(target, attribute)
        except (ImportError, AttributeError) as exc:
            failures.append(f"{dotted}: cannot resolve entry point ({exc})")
            continue
        if not (getattr(target, "__doc__", None) or "").strip():
            failures.append(f"{dotted}: public entry point has no docstring")
    return failures


class DocCoverageRule(Rule):
    """DOC001: module docstrings everywhere, docstrings on public entry points."""

    code = "DOC001"
    name = "doc-coverage"
    contract = (
        "every scanned module opens with a docstring and every public "
        "entry point documents itself"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if _is_private(ctx.rel_path):
            return []
        if ast.get_docstring(ctx.tree) is None:
            return [
                Finding(
                    code=self.code,
                    path=ctx.rel_path,
                    line=1,
                    col=0,
                    message="module has no docstring",
                )
            ]
        return []

    def finalize(self, project: ProjectContext) -> List[Finding]:
        if not (project.root / "src" / "repro" / "cli.py").exists():
            return []
        findings: List[Finding] = []
        for failure in entry_point_failures():
            dotted = failure.split(":", 1)[0]
            findings.append(
                Finding(
                    code=self.code,
                    path=_module_path(project.root, dotted),
                    line=1,
                    col=0,
                    message=failure,
                )
            )
        return findings
