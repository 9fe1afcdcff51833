"""Fixture-backed tests for every `repro lint` rule.

Each rule gets a positive fixture (the contract violation fires), a
negative fixture (the sanctioned idiom passes), and the suppression
mechanics (inline pragmas, baseline entries) are exercised against real
findings.  Fixtures are tiny synthetic trees under tmp_path laid out like
the repository (``src/repro/...``) so path-scoped rules see the packages
they guard.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import BaselineError, load_baseline, run_lint

DOCSTRING = '"""Fixture module."""\n'


def lint_tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""
    for rel_path, source in files.items():
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(DOCSTRING + textwrap.dedent(source), encoding="utf-8")
    return run_lint(root=tmp_path)


def codes(report):
    return [finding.code for finding in report.findings]


# --------------------------------------------------------------------------- #
# DET001 — wall-clock / nondeterminism sources
# --------------------------------------------------------------------------- #
def test_det001_flags_wall_clock_reads(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            import time
            import uuid

            def stamp():
                return time.time(), uuid.uuid4()
        """,
    })
    assert codes(report) == ["DET001", "DET001"]
    assert "time.time" in report.findings[0].message


def test_det001_accepts_injected_clocks(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            def run(workload, clock):
                started = clock()
                return clock() - started
        """,
    })
    assert codes(report) == []


def test_det001_sees_through_import_aliases(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            from time import perf_counter as tick

            def now():
                return tick()
        """,
    })
    assert codes(report) == ["DET001"]


# --------------------------------------------------------------------------- #
# DET002 — ambient randomness
# --------------------------------------------------------------------------- #
def test_det002_flags_module_level_random(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            import random

            def pick(items):
                return items[random.randrange(len(items))]
        """,
    })
    assert codes(report) == ["DET002"]


def test_det002_flags_unseeded_random_instance(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            import random

            def fresh():
                return random.Random()
        """,
    })
    assert codes(report) == ["DET002"]


def test_det002_accepts_seeded_namespaced_streams(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            from random import Random

            def stream(seed):
                return Random(seed)
        """,
    })
    assert codes(report) == []


# --------------------------------------------------------------------------- #
# OBS001 — guarded observability on hot paths
# --------------------------------------------------------------------------- #
def test_obs001_flags_unguarded_tracer_call_on_hot_path(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/core/mod.py": """
            NULL_TRACER = object()

            def answer(tracer):
                tracer.instant("core.answer")
                return 1

            def null_default(tracer=NULL_TRACER):
                tracer.instant("core.null")

            def derived_from_a_call(tracer):
                result = len(tracer)
                if result:
                    tracer.instant("core.derived")
        """,
    })
    assert codes(report) == ["OBS001", "OBS001", "OBS001"]


def test_obs001_accepts_direct_and_hoisted_guards(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/core/mod.py": """
            def direct(tracer):
                if tracer is not None:
                    tracer.instant("core.direct")

            def hoisted(tracer):
                tracing = tracer is not None
                if tracing:
                    tracer.instant("core.hoisted")
        """,
    })
    assert codes(report) == []


def test_obs001_ignores_cold_packages(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/analysis/mod.py": """
            def summarize(tracer):
                tracer.instant("analysis.summarize")
        """,
    })
    assert codes(report) == []


# --------------------------------------------------------------------------- #
# MET001 — metric-name grammar at lint time
# --------------------------------------------------------------------------- #
def test_met001_flags_names_outside_the_grammar(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            def publish(registry):
                registry.counter("BadName")
                registry.gauge("singleword", 1.0)
        """,
    })
    assert codes(report) == ["MET001", "MET001"]


def test_met001_accepts_dotted_lowercase_names(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            def publish(registry, kind):
                registry.counter("service.requests.served")
                registry.counter(f"probes.kind.{kind}")
        """,
    })
    assert codes(report) == []


# --------------------------------------------------------------------------- #
# EXC001 — no silent exception swallowing in fault-bearing planes
# --------------------------------------------------------------------------- #
def test_exc001_flags_bare_and_silent_handlers(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/service/mod.py": """
            def shaky(fn):
                try:
                    fn()
                except:
                    pass
                try:
                    fn()
                except Exception:
                    pass
        """,
    })
    assert codes(report) == ["EXC001", "EXC001"]


def test_exc001_accepts_typed_and_handled_exceptions(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/service/mod.py": """
            def shaky(fn, log):
                try:
                    fn()
                except ValueError:
                    pass
                try:
                    fn()
                except Exception as exc:
                    log(exc)
                    raise
        """,
    })
    assert codes(report) == []


# --------------------------------------------------------------------------- #
# IMP001 — layering and numpy containment
# --------------------------------------------------------------------------- #
def test_imp001_flags_foundation_importing_service(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/core/mod.py": """
            from repro.service import engine
        """,
    })
    assert codes(report) == ["IMP001"]


def test_imp001_flags_numpy_outside_kernels(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/obs/mod.py": """
            import numpy as np
        """,
    })
    assert codes(report) == ["IMP001"]


def test_imp001_accepts_guarded_numpy_in_kernels(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/kernels/mod.py": """
            try:
                import numpy as np
            except ImportError:
                np = None
        """,
    })
    assert codes(report) == []


def test_imp001_accepts_service_importing_core(tmp_path):
    report = lint_tree(tmp_path, {
        "src/repro/service/mod.py": """
            from repro.core import probes
        """,
    })
    assert codes(report) == []


# --------------------------------------------------------------------------- #
# DOC001 — docstring coverage (module half; entry points need the real repo)
# --------------------------------------------------------------------------- #
def test_doc001_flags_missing_module_docstring(tmp_path):
    path = tmp_path / "src" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text("x = 1\n", encoding="utf-8")
    report = run_lint(root=tmp_path)
    assert codes(report) == ["DOC001"]


def test_doc001_skips_private_modules(tmp_path):
    path = tmp_path / "src" / "_internal.py"
    path.parent.mkdir(parents=True)
    path.write_text("x = 1\n", encoding="utf-8")
    report = run_lint(root=tmp_path)
    assert codes(report) == []


# --------------------------------------------------------------------------- #
# LINT000 — unparseable files are findings, not crashes
# --------------------------------------------------------------------------- #
def test_syntax_errors_surface_as_lint000(tmp_path):
    path = tmp_path / "src" / "broken.py"
    path.parent.mkdir(parents=True)
    path.write_text('"""Doc."""\ndef f(:\n', encoding="utf-8")
    report = run_lint(root=tmp_path)
    assert codes(report) == ["LINT000"]


# --------------------------------------------------------------------------- #
# Suppression: inline pragmas and the baseline
# --------------------------------------------------------------------------- #
def test_same_line_pragma_suppresses_one_finding(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=DET001 - fixture
        """,
    })
    assert codes(report) == []
    assert report.suppressed_pragma == 1


def test_file_wide_pragma_suppresses_every_match(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            # repro-lint: disable-file=DET001
            import time

            def stamp():
                return time.time(), time.monotonic()
        """,
    })
    assert codes(report) == []
    assert report.suppressed_pragma == 2


def test_pragma_does_not_suppress_other_codes(tmp_path):
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=DET002 - wrong code
        """,
    })
    assert codes(report) == ["DET001"]


def test_baseline_suppresses_by_glob(tmp_path):
    (tmp_path / "lint-baseline.toml").write_text(
        'schema = 1\n\n[[allow]]\ncode = "DET001"\npath = "src/*.py"\n'
        'reason = "fixture grant"\n',
        encoding="utf-8",
    )
    report = lint_tree(tmp_path, {
        "src/mod.py": """
            import time

            def stamp():
                return time.time()
        """,
    })
    assert codes(report) == []
    assert report.suppressed_baseline == 1


def test_baseline_requires_a_reason(tmp_path):
    path = tmp_path / "lint-baseline.toml"
    path.write_text(
        'schema = 1\n\n[[allow]]\ncode = "DET001"\npath = "src/*.py"\nreason = ""\n',
        encoding="utf-8",
    )
    with pytest.raises(BaselineError, match="reason"):
        load_baseline(path)


def test_baseline_rejects_unknown_schema(tmp_path):
    path = tmp_path / "lint-baseline.toml"
    path.write_text("schema = 99\n", encoding="utf-8")
    with pytest.raises(BaselineError, match="schema"):
        load_baseline(path)
