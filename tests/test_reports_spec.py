"""Scenario-spec loading and validation (repro.reports.spec)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.reports import (
    ScenarioSpec,
    SpecError,
    load_scenario_file,
    load_scenarios,
)

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {"name": "tiny", "graph": {"family": "gnp", "sizes": [40]}}


def test_minimal_spec_fills_defaults():
    spec = ScenarioSpec.from_dict(dict(MINIMAL))
    assert spec.name == "tiny"
    assert spec.algorithm == "spanner3"
    assert spec.graph.sizes == (40,)
    assert spec.workload is None
    assert spec.mutations.ops == 0


def test_spec_round_trips_through_as_dict():
    data = {
        "name": "round-trip",
        "algorithm": "spannerk",
        "seed": 5,
        "algorithm_options": {"stretch_parameter": 3},
        "graph": {"family": "bounded", "sizes": [60, 80]},
        "mutations": {"ops": 4, "seed": 2},
        "workload": {"kind": "zipf", "requests": 50, "seed": 1, "skew": 1.3},
        "service": {"shards": 2, "batch_size": 8},
    }
    spec = ScenarioSpec.from_dict(data)
    again = ScenarioSpec.from_dict(spec.as_dict())
    assert again == spec


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"name": ""}, "name"),
        ({"name": "bad name with spaces"}, "name"),
        ({"algorithm_options": {}, "unknown_key": 1}, "unknown"),
        ({"graph": {"family": "nope"}}, "family"),
        ({"graph": {"family": "gnp", "sizes": []}}, "sizes"),
        ({"graph": {"backend": "csr"}}, "graph keys ['backend']"),
        ({"materialize": {"mode": "warp"}}, "unknown scenario keys ['materialize']"),
        ({"materialize": {"executor": "serial"}}, "unknown scenario keys ['materialize']"),
        ({"workload": {"kind": "trace"}}, "trace"),
        ({"workload": {"kind": "uniform", "skew": 2.0}}, "skew"),
        ({"workload": {"kind": "uniform", "write_ratio": 0.5}}, "write_ratio"),
        ({"workload": {"kind": "churn", "write_ratio": 1.5}}, "write_ratio"),
        ({"service": {"routing": "hash"}}, "routing"),
        ({"mutations": {"ops": -1}}, "ops"),
        ({"service": {"executor": "serial"}}, "unknown service keys"),
        ({"workload": {"kind": "zipf", "skew": 0}}, "skew"),
        ({"algorithm": "spanner9"}, "spanner9"),
        ({"faults": {"crashes": 1, "duration": 0}}, "duration"),
        ({"service": {"coalesce": False}}, "unknown service keys"),
        ({"materialize": {"mode": "cached"}}, "unknown scenario keys ['materialize']"),
        ({"materialize": {"memo_cap": 8}}, "unknown scenario keys ['materialize']"),
        ({"materialize": {}}, "unknown scenario keys ['materialize']"),
        (
            {"service": {"checkpoint_interval": 8}},
            "unknown service keys ['checkpoint_interval']",
        ),
    ],
)
def test_invalid_specs_raise_spec_errors(mutation, message):
    data = dict(MINIMAL)
    data.update(mutation)
    if "workload" in mutation or "service" in mutation:
        data.setdefault("workload", {"kind": "uniform", "requests": 10})
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_dict(data)
    assert message.lower() in str(excinfo.value).lower()
    assert "\n" not in str(excinfo.value)  # stale or bad config: one line


def test_unknown_subtable_keys_are_rejected():
    with pytest.raises(SpecError, match="unknown graph keys"):
        ScenarioSpec.from_dict({"name": "x", "graph": {"famly": "gnp"}})


def test_graph_spec_accepts_scalar_size():
    spec = ScenarioSpec.from_dict({"name": "s", "graph": {"sizes": 50}})
    assert spec.graph.sizes == (50,)


def test_load_json_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(MINIMAL), encoding="utf-8")
    (spec,) = load_scenario_file(path)
    assert spec.name == "tiny"


def test_load_toml_spec_file_with_scenario_array(tmp_path):
    path = tmp_path / "suite.toml"
    path.write_text(
        '[[scenario]]\nname = "a"\n[scenario.graph]\nsizes = [30]\n\n'
        '[[scenario]]\nname = "b"\n[scenario.graph]\nsizes = [30]\n',
        encoding="utf-8",
    )
    specs = load_scenario_file(path)
    assert [spec.name for spec in specs] == ["a", "b"]


def test_duplicate_names_within_file_rejected(tmp_path):
    path = tmp_path / "dup.toml"
    path.write_text(
        '[[scenario]]\nname = "a"\n\n[[scenario]]\nname = "a"\n', encoding="utf-8"
    )
    with pytest.raises(SpecError, match="duplicate"):
        load_scenario_file(path)


def test_duplicate_names_across_files_rejected(tmp_path):
    for stem in ("one", "two"):
        (tmp_path / f"{stem}.toml").write_text('name = "same"\n', encoding="utf-8")
    with pytest.raises(SpecError, match="defined in both"):
        load_scenarios([tmp_path])


def test_missing_file_and_bad_suffix(tmp_path):
    with pytest.raises(SpecError, match="does not exist"):
        load_scenario_file(tmp_path / "nope.toml")
    bad = tmp_path / "spec.yaml"
    bad.write_text("name: x\n", encoding="utf-8")
    with pytest.raises(SpecError, match=".toml or .json"):
        load_scenario_file(bad)


def test_curated_scenarios_directory_parses():
    """Every shipped spec under scenarios/ must load (no drift)."""
    specs = load_scenarios([SCENARIOS_DIR])
    names = [spec.name for spec in specs]
    assert len(names) == len(set(names))
    assert len(specs) >= 6
    algorithms = {spec.algorithm for spec in specs}
    assert {"spanner3", "spanner5", "spannerk"} <= algorithms
    kinds = {spec.workload.kind for spec in specs if spec.workload is not None}
    assert "churn" in kinds


def test_smoke_suite_covers_acceptance_matrix():
    """smoke.toml: spanner3 and spannerk, each with serving."""
    specs = load_scenario_file(SCENARIOS_DIR / "smoke.toml")
    assert {spec.algorithm for spec in specs} == {"spanner3", "spannerk"}
    assert all(spec.workload is not None for spec in specs)


def test_wrong_typed_values_become_spec_errors():
    """Type errors in values must surface as SpecError, not raw tracebacks."""
    for bad in (
        {"name": "t", "seed": "fast"},
        {"name": "t", "algorithm_options": [1, 2]},
        {"name": "t", "graph": {"density": "0.5"}},
    ):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(bad)


def test_toml_fallback_raises_the_callers_error_at_path_and_line(tmp_path):
    """A malformed TOML file raises the caller's error type, naming the file
    and the line tomllib stopped at."""
    from repro.lint import BaselineError, load_baseline

    path = tmp_path / "lint-baseline.toml"
    path.write_text("schema = 1\n[[allow]]\ncode = DET001\n", encoding="utf-8")
    with pytest.raises(BaselineError, match=re.escape(str(path)) + ".*line 3") as excinfo:
        load_baseline(path)
    assert "\n" not in str(excinfo.value)


# --------------------------------------------------------------------------- #
# [scenario.faults] (the chaos axis)
# --------------------------------------------------------------------------- #
def test_fault_spec_round_trips_and_builds_a_plan():
    data = {
        **MINIMAL,
        "workload": {"kind": "uniform", "requests": 30},
        "service": {"shards": 2, "replication": 2, "degraded_mode": "shed"},
        "faults": {"seed": 9, "horizon": 16, "crashes": 2, "flaky": 1},
    }
    spec = ScenarioSpec.from_dict(data)
    assert ScenarioSpec.from_dict(spec.as_dict()) == spec
    assert spec.faults.total_events == 3
    plan = spec.faults.to_plan(spec.service.shards, spec.service.replication)
    assert len(plan) == 3
    assert plan == spec.faults.to_plan(2, 2)  # seeded: identical every time


def test_fault_spec_validation():
    with pytest.raises(SpecError, match="unknown faults key"):
        ScenarioSpec.from_dict(
            {
                **MINIMAL,
                "workload": {"kind": "uniform", "requests": 30},
                "faults": {"crashes": 1, "blast": 2},
            }
        )
    with pytest.raises(SpecError, match="workload"):
        # Faults without a service phase have nothing to chaos-test.
        ScenarioSpec.from_dict({**MINIMAL, "faults": {"crashes": 1}})
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict(
            {
                **MINIMAL,
                "workload": {"kind": "uniform", "requests": 30},
                "faults": {"crashes": -1},
            }
        )


def test_service_spec_fault_knobs_validate():
    base = {**MINIMAL, "workload": {"kind": "uniform", "requests": 30}}
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict({**base, "service": {"replication": 0}})
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict({**base, "service": {"degraded_mode": "panic"}})
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict({**base, "service": {"timeout_ticks": 0}})


def test_chaos_scenario_file_parses_and_shrinks_for_smoke():
    from repro.reports import spec_for_smoke

    specs = load_scenario_file(SCENARIOS_DIR / "chaos_crash_churn.toml")
    (spec,) = specs
    assert spec.faults is not None and spec.faults.total_events > 0
    assert spec.service.replication >= 2
    smoke = spec_for_smoke(spec)
    # Smoke runs only last a few cycles; the storm is compressed to fit so
    # the CI chaos job actually injects something.
    assert smoke.faults.total_events == spec.faults.total_events
    assert smoke.faults.horizon <= 4


# ---------------------------------------------------------------------------
# [scenario.observability]
# ---------------------------------------------------------------------------


def test_observability_spec_defaults_and_round_trip():
    from repro.reports import ObservabilitySpec

    data = {
        "name": "obs",
        "graph": {"family": "gnp", "sizes": [40]},
        "workload": {"kind": "uniform", "requests": 10},
        "observability": {},
    }
    spec = ScenarioSpec.from_dict(data)
    assert spec.observability == ObservabilitySpec()
    assert spec.observability.trace and spec.observability.profile
    assert spec.observability.capacity == 65536
    again = ScenarioSpec.from_dict(spec.as_dict())
    assert again == spec
    # Non-default fields survive the round trip too.
    data["observability"] = {"trace": False, "capacity": 128}
    spec = ScenarioSpec.from_dict(data)
    assert ScenarioSpec.from_dict(spec.as_dict()) == spec
    assert spec.observability.capacity == 128


def test_observability_requires_a_workload():
    with pytest.raises(SpecError, match=r"\[observability\] table needs"):
        ScenarioSpec.from_dict(
            {
                "name": "obs",
                "graph": {"family": "gnp", "sizes": [40]},
                "observability": {},
            }
        )


def test_observability_validation():
    base = {
        "name": "obs",
        "graph": {"family": "gnp", "sizes": [40]},
        "workload": {"kind": "uniform", "requests": 10},
    }
    with pytest.raises(SpecError, match="capacity"):
        ScenarioSpec.from_dict({**base, "observability": {"capacity": 0}})
    with pytest.raises(SpecError, match="trace and/or profile"):
        ScenarioSpec.from_dict(
            {**base, "observability": {"trace": False, "profile": False}}
        )
    with pytest.raises(SpecError, match="unknown observability keys"):
        ScenarioSpec.from_dict({**base, "observability": {"sampling": 0.5}})


def test_observability_smoke_scenario_file_parses():
    specs = load_scenario_file(SCENARIOS_DIR / "observability_smoke.toml")
    assert [spec.name for spec in specs] == [
        "obs-spanner3-zipf",
        "obs-spannerk-uniform",
    ]
    for spec in specs:
        assert spec.observability is not None
        assert spec.observability.trace and spec.observability.profile
