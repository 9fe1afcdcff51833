"""Experiment & reporting plane: declarative scenarios → paper-style reports.

Every other plane of the repository answers "can the system do X?"; this one
answers "show me".  A scenario spec (:mod:`repro.reports.spec`) declares one
point in the configuration space — graph family × spanner family × workload
× mutation churn — the runner (:mod:`repro.reports.runner`) executes it
deterministically through the existing harness/service machinery, the store
(:mod:`repro.reports.store`) versions the resulting JSON next to an
environment fingerprint, and the renderer (:mod:`repro.reports.render`)
turns stored results into the Markdown tables the paper's experimental
sections would show (probes vs n, spanner size vs stretch parameter, stretch
certificates, service latency percentiles).

One command each::

    repro report run scenarios/            # run the curated suite
    repro report run scenarios/smoke.toml --smoke
    repro report render --out report.md

Determinism is the design invariant: results contain no wall-clock numbers
(the service phase runs on a virtual tick clock) and rendering is a pure
function of the stored payloads, so the same specs render byte-identical
reports on any host.
"""

from .render import render_report
from .runner import (
    ScenarioResult,
    SizeResult,
    TickClock,
    churn_ops,
    run_scenario,
    spec_for_smoke,
)
from .spec import (
    GraphSpec,
    MutationSpec,
    ObservabilitySpec,
    ScenarioSpec,
    ServiceSpec,
    SpecError,
    WorkloadSpec,
    load_scenario_file,
    load_scenarios,
)
from .store import ResultStore, StoreError, environment_fingerprint, wall_timer

__all__ = [
    "GraphSpec",
    "MutationSpec",
    "ObservabilitySpec",
    "ScenarioSpec",
    "ServiceSpec",
    "SpecError",
    "WorkloadSpec",
    "load_scenario_file",
    "load_scenarios",
    "ScenarioResult",
    "SizeResult",
    "TickClock",
    "churn_ops",
    "run_scenario",
    "spec_for_smoke",
    "ResultStore",
    "StoreError",
    "environment_fingerprint",
    "render_report",
    "wall_timer",
]
