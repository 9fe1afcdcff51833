"""Artifact store and Markdown report generation (repro.reports)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import format_markdown_table
from repro.reports import (
    ResultStore,
    ScenarioSpec,
    StoreError,
    load_scenario_file,
    render_report,
    run_scenario,
)

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _tiny_spec(name="render-test", algorithm="spanner3"):
    return ScenarioSpec.from_dict(
        {
            "name": name,
            "algorithm": algorithm,
            "seed": 7,
            "graph": {
                "family": "gnp",
                "sizes": [40],
                "density": 0.2,
                "seed": 3,
            },
            "workload": {"kind": "uniform", "requests": 40, "seed": 1},
            "service": {"shards": 2, "batch_size": 8},
        }
    )


# --------------------------------------------------------------------------- #
# Store
# --------------------------------------------------------------------------- #
def test_store_round_trip_and_listing(tmp_path):
    store = ResultStore(tmp_path / "results")
    result = run_scenario(_tiny_spec())
    path = store.save(result, wall_seconds=1.25)
    assert path.exists()
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["store_schema"] == 1
    assert "python" in document["environment"]
    assert document["wall_seconds"] == 1.25
    assert store.list() == ["render-test"]
    assert store.load("render-test") == result.as_dict()


def test_store_rejects_missing_and_malformed(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(StoreError, match="no stored result"):
        store.load("ghost")
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(StoreError, match="not valid JSON"):
        store.load("bad")
    (tmp_path / "alien.json").write_text('{"store_schema": 99, "result": {}}')
    with pytest.raises(StoreError, match="schema"):
        store.load("alien")


# --------------------------------------------------------------------------- #
# Render
# --------------------------------------------------------------------------- #
def test_markdown_table_escapes_pipes_everywhere():
    table = format_markdown_table([{"|H|": "a|b"}])
    assert "\\|H\\|" in table
    assert "a\\|b" in table


def test_render_contains_all_sections_and_rows():
    payloads = [
        run_scenario(_tiny_spec(name="rt-spanner3")).as_dict(),
        run_scenario(_tiny_spec(name="rt-spannerk", algorithm="spannerk")).as_dict(),
    ]
    markdown = render_report(payloads)
    for heading in (
        "# Scenario report",
        "## Scenarios",
        "## Probe complexity vs n",
        "## Spanner size vs stretch parameter",
        "## Stretch certificates",
        "## Service latency percentiles (virtual time)",
    ):
        assert heading in markdown
    assert "rt-spanner3" in markdown and "rt-spannerk" in markdown
    assert "p99 ms" in markdown


def test_render_is_sorted_and_independent_of_input_order():
    a = run_scenario(_tiny_spec(name="aaa")).as_dict()
    b = run_scenario(_tiny_spec(name="zzz")).as_dict()
    assert render_report([a, b]) == render_report([b, a])


def test_full_cycle_is_byte_identical_across_runs(tmp_path):
    """The acceptance criterion, as a test: run → store → render, twice."""
    specs = [
        _tiny_spec(name="cycle-s3"),
        _tiny_spec(name="cycle-sk", algorithm="spannerk"),
    ]
    renders = []
    for round_dir in ("one", "two"):
        store = ResultStore(tmp_path / round_dir)
        for spec in specs:
            store.save(run_scenario(spec))
        renders.append(render_report(store.load_all()))
    assert renders[0] == renders[1]
    assert renders[0].encode("utf-8") == renders[1].encode("utf-8")


def test_render_without_service_phase_has_empty_latency_table():
    spec = ScenarioSpec.from_dict(
        {"name": "offline-only", "graph": {"family": "gnp", "sizes": [30]}}
    )
    markdown = render_report([run_scenario(spec).as_dict()])
    section = markdown.split("## Service latency percentiles (virtual time)")[1]
    assert "(no rows)" in section


def test_smoke_suite_renders_acceptance_tables(tmp_path):
    """scenarios/smoke.toml under --smoke renders probes-vs-n and latency
    tables covering spanner3 and spannerk."""
    store = ResultStore(tmp_path)
    for spec in load_scenario_file(SCENARIOS_DIR / "smoke.toml"):
        store.save(run_scenario(spec, smoke=True))
    markdown = render_report(store.load_all())
    probe_section = markdown.split("## Probe complexity vs n")[1].split("## ")[0]
    latency_section = markdown.split(
        "## Service latency percentiles (virtual time)"
    )[1]
    for name in ("smoke-spanner3", "smoke-spannerk"):
        assert name in probe_section
        assert name in latency_section
