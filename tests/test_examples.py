"""Smoke tests: every shipped example runs successfully on small inputs.

The examples double as executable documentation; these tests keep them
working as the library evolves.  Each example is invoked as a subprocess the
way a user would run it, with the arguments of its ``examples/README.md``
section (small enough for the whole module to finish in a couple of
seconds), and every line that section shows must appear in what it prints.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Examples whose README output has wall-clock columns: only their exit
#: status and a non-empty report are checked.
WALL_CLOCK_OUTPUT = {"serve_demo.py"}

CASES = [
    ("quickstart.py", ["120", "0.2", "3"]),
    ("social_network_queries.py", ["200", "40", "5"]),
    ("cluster_overlay.py", ["6", "8", "2"]),
    ("lower_bound_demo.py", ["26", "4", "1"]),
    ("probe_budget_study.py", ["200", "0.15", "3"]),
    ("stretch_certificates.py", ["90", "0.3", "2"]),
    ("serve_demo.py", ["150", "0.1", "400"]),
]


@pytest.mark.parametrize("script, args", CASES, ids=[c[0] for c in CASES])
def test_example_runs_cleanly(script, args):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    completed = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.strip(), "examples must print a report"
    expected = _readme_block(script, args)
    if script not in WALL_CLOCK_OUTPUT:
        printed = {line.rstrip() for line in completed.stdout.splitlines()}
        missing = [line for line in expected if line not in printed]
        assert not missing, f"README lines {script} no longer prints: {missing}"


def _readme_block(script, args):
    """The non-blank lines of the README's expected output for one run."""
    readme = (EXAMPLES_DIR / "README.md").read_text(encoding="utf-8")
    heading = f"### `{' '.join([script, *args])}`\n"
    _, found, section = readme.partition(heading)
    assert found, f"examples/README.md has no {heading.strip()!r} section"
    fenced = section.split("```", 2)[1].split("\n", 1)[1]
    return [line.rstrip() for line in fenced.splitlines() if line.strip()]


def test_examples_directory_has_quickstart_plus_scenarios():
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 4  # quickstart plus at least three scenarios


def test_every_example_is_covered_by_a_case():
    """No example may be skipped: adding a script without a CASES entry
    (and therefore without a smoke run) is a test failure, not a gap."""
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = {script for (script, _args) in CASES}
    assert scripts == covered, (
        f"examples without a smoke-test case: {sorted(scripts - covered)}; "
        f"cases without a script: {sorted(covered - scripts)}"
    )


def test_examples_readme_catalogs_every_example():
    readme = (EXAMPLES_DIR / "README.md").read_text(encoding="utf-8")
    for script in (p.name for p in EXAMPLES_DIR.glob("*.py")):
        assert script in readme, f"examples/README.md does not mention {script}"
