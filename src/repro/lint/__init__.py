"""``repro lint`` — the AST-based contract checker.

The reproduction's guarantees (byte-identical reports, bit-identical
probes across kernels × engines × shard layouts, answer-invisible
observability and replication) rest on source-level contracts that the
test suite can only probe dynamically: no wall-clock in deterministic
paths, all randomness through seeded streams, tracer hooks guarded and
pure, plan types picklable, layering intact.  This package makes those
contracts machine-checked at lint time — pure stdlib :mod:`ast`, no
required dependencies.

Front doors:

>>> from repro.lint import run_lint
>>> report = run_lint(".")          # doctest: +SKIP
>>> report.clean                    # doctest: +SKIP
True

or ``repro lint --format json`` from the command line.  Rule codes,
the baseline/pragma workflow and the how-to-add-a-rule recipe are
documented in ``docs/lint.md``.
"""

from __future__ import annotations

from .baseline import (
    BASELINE_SCHEMA,
    Baseline,
    BaselineEntry,
    BaselineError,
    load_baseline,
)
from .context import FileContext, ProjectContext
from .engine import (
    DEFAULT_BASELINE_NAME,
    DEFAULT_TARGETS,
    LINT_SCHEMA,
    LintReport,
    discover_files,
    format_json,
    format_text,
    run_lint,
)
from .findings import Finding
from .pragmas import PragmaIndex, scan_pragmas
from .rules import ALL_RULES, build_rules, rule_index

__all__ = [
    "ALL_RULES",
    "BASELINE_SCHEMA",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_TARGETS",
    "FileContext",
    "Finding",
    "LINT_SCHEMA",
    "LintReport",
    "PragmaIndex",
    "ProjectContext",
    "build_rules",
    "discover_files",
    "format_json",
    "format_text",
    "load_baseline",
    "rule_index",
    "run_lint",
    "scan_pragmas",
]
