"""Declarative scenario specs: one TOML/JSON table per experiment.

A :class:`ScenarioSpec` names one point in the system's configuration space —
graph family × spanner family × workload × mutation churn — plus the seeds
that make the run reproducible.  Spec files are plain data (TOML via
:mod:`tomllib`, or JSON), so the curated suite under ``scenarios/`` is
reviewable, diffable and runnable with one command::

    repro report run scenarios/smoke.toml
    repro report render

A file holds either a single scenario (top-level keys) or a list of them
(``[[scenario]]`` tables in TOML, a ``{"scenario": [...]}`` array in JSON).
Validation happens eagerly at load time with precise error messages
(:class:`SpecError` carries the file and scenario name), so a typo in a spec
fails before any graph is built.  A table that configures a library object
validates by building that object (on a one-edge graph where it needs one)
and reports the library's error, so a spec and the library accept exactly
the same values.  ``repro serve-bench`` describes its run with the same
objects.

The sub-tables mirror the layers they configure:

``[scenario.graph]``
    family / sizes / density / seed — resolved through the shared
    :data:`repro.graphs.FAMILY_BUILDERS` registry, so a spec and a
    ``repro generate`` command line mean the same graph.
``[scenario.mutations]``
    a deterministic pre-materialization churn burst (count + seed),
    exercising epoch-based cache invalidation.
``[scenario.workload]`` / ``[scenario.service]``
    the online phase: workload kind/size/seed/options and the
    :class:`~repro.service.engine.ServiceConfig` knobs (including the
    fault-tolerance knobs: replication, retries, timeout, degraded mode).
``[scenario.faults]``
    a seeded chaos storm injected during the service phase — crash /
    shard-loss / slow / flaky counts over a cycle horizon, expanded into a
    deterministic :class:`~repro.faults.FaultPlan` at run time.
``[scenario.observability]``
    deterministic tracing and probe attribution for the service phase
    (:mod:`repro.obs`) — the result gains a trace summary, a per-phase /
    per-cache-outcome probe breakdown and one unified metrics snapshot.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from ..core.errors import ReproError
from ..core.registry import create
from ..faults import FaultPlan
from ..graphs.generators import GRAPH_FAMILIES
from ..graphs.graph import Graph
from ..service.engine import ServiceConfig
from ..service.workload import Workload, make_workload


class SpecError(ReproError):
    """A scenario spec failed validation (carries file / scenario context)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _check_by_building(build, what: str) -> None:
    """Validate a table by building the library object it configures; the
    library's error for a bad value becomes a :class:`SpecError`."""
    try:
        build()
    except (ReproError, ValueError, TypeError) as exc:
        raise SpecError(f"{what}: {exc}") from None


def _check_choice(value: str, choices: Sequence[str], what: str) -> str:
    _require(
        value in choices,
        f"{what} {value!r} is not one of {sorted(choices)}",
    )
    return value


@dataclass(frozen=True)
class GraphSpec:
    """The graph axis: a named family instantiated at one or more sizes."""

    family: str = "gnp"
    sizes: Tuple[int, ...] = (200,)
    density: float = 0.1
    seed: int = 1

    def __post_init__(self) -> None:
        _check_choice(self.family, GRAPH_FAMILIES, "graph family")
        _require(len(self.sizes) >= 1, "graph sizes must be non-empty")
        _require(
            all(isinstance(n, int) and n >= 2 for n in self.sizes),
            f"graph sizes must be integers >= 2, got {list(self.sizes)}",
        )
        _require(self.density > 0, "graph density must be positive")

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "sizes": list(self.sizes),
            "density": self.density,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MutationSpec:
    """A deterministic churn burst applied before materialization."""

    ops: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.ops >= 0, "mutation ops must be >= 0")

    def as_dict(self) -> Dict[str, object]:
        return {"ops": self.ops, "seed": self.seed}


@dataclass(frozen=True)
class WorkloadSpec:
    """The online request stream served during the service phase."""

    kind: str = "uniform"
    requests: int = 500
    seed: int = 0
    #: Zipf skew exponent (``zipf`` only).
    skew: Optional[float] = None
    #: Write fraction (``churn`` only).
    write_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.kind != "trace", "trace workloads need a recording; use the CLI")
        if self.skew is not None:
            _require(self.kind == "zipf", "skew only applies to the zipf workload")
        if self.write_ratio is not None:
            _require(
                self.kind == "churn", "write_ratio only applies to the churn workload"
            )
        _check_by_building(lambda: self.build(Graph.from_edges([(0, 1)])), "workload")

    def build(self, graph: Graph) -> Workload:
        """The request stream this table describes, over ``graph``."""
        return make_workload(
            self.kind,
            graph,
            num_requests=self.requests,
            seed=self.seed,
            **self.options(),
        )

    def options(self) -> Dict[str, object]:
        """The kind-specific keyword options of :meth:`build`."""
        options: Dict[str, object] = {}
        if self.skew is not None:
            options["skew"] = self.skew
        if self.write_ratio is not None:
            options["write_ratio"] = self.write_ratio
        return options

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "requests": self.requests,
            "seed": self.seed,
        }
        payload.update(self.options())
        return payload


@dataclass(frozen=True)
class ServiceSpec:
    """Engine knobs for the service phase (a ``ServiceConfig`` subset).

    The file schema: ``shards`` is ``ServiceConfig.num_shards``; the
    per-request log and the fault plan have no key (:meth:`config` turns
    the log off and takes the plan).
    """

    shards: int = 2
    batch_size: int = 32
    max_queue_depth: int = 1024
    arrival_burst: Optional[int] = None
    replication: int = 1
    max_retries: int = 2
    timeout_ticks: int = 64
    degraded_mode: str = "answer"

    def __post_init__(self) -> None:
        _check_by_building(self.config, "service")

    def config(self, fault_plan: Optional[FaultPlan] = None) -> ServiceConfig:
        """The engine configuration this table describes."""
        return ServiceConfig(
            num_shards=self.shards,
            batch_size=self.batch_size,
            max_queue_depth=self.max_queue_depth,
            arrival_burst=self.arrival_burst,
            record=False,
            replication=self.replication,
            fault_plan=fault_plan,
            max_retries=self.max_retries,
            timeout_ticks=self.timeout_ticks,
            degraded_mode=self.degraded_mode,
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "shards": self.shards,
            "batch_size": self.batch_size,
            "max_queue_depth": self.max_queue_depth,
        }
        if self.arrival_burst is not None:
            payload["arrival_burst"] = self.arrival_burst
        if self.replication != 1:
            payload["replication"] = self.replication
        if self.max_retries != 2:
            payload["max_retries"] = self.max_retries
        if self.timeout_ticks != 64:
            payload["timeout_ticks"] = self.timeout_ticks
        if self.degraded_mode != "answer":
            payload["degraded_mode"] = self.degraded_mode
        return payload


@dataclass(frozen=True)
class FaultSpec:
    """The chaos axis: a seeded fault storm over the service phase.

    Expands to :meth:`repro.faults.FaultPlan.generate` at run time — the
    spec stores the storm's *shape* (event counts, cycle horizon, outage
    duration, slow-batch delay) and its seed, so the schedule is a pure
    function of the spec plus the service topology (shards × replication).
    ``generate`` checks the shape at load, on a one-shard topology.
    """

    seed: int = 0
    horizon: int = 64
    crashes: int = 0
    shard_losses: int = 0
    slow: int = 0
    flaky: int = 0
    duration: int = 4
    delay: int = 3
    count: int = 1

    def __post_init__(self) -> None:
        _check_by_building(lambda: self.to_plan(1, 1), "faults")

    @property
    def total_events(self) -> int:
        return self.crashes + self.shard_losses + self.slow + self.flaky

    def to_plan(self, num_shards: int, replication: int) -> Optional[FaultPlan]:
        """Expand into a deterministic plan for the given topology.

        A storm with no events is no plan (``None``), so a fault-free run
        bypasses the fault plane entirely.
        """
        plan = FaultPlan.generate(
            seed=self.seed,
            num_shards=num_shards,
            replication=replication,
            horizon=self.horizon,
            crashes=self.crashes,
            shard_losses=self.shard_losses,
            slow=self.slow,
            flaky=self.flaky,
            duration=self.duration,
            delay=self.delay,
            count=self.count,
        )
        return plan if self.total_events else None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"seed": self.seed, "horizon": self.horizon}
        for key in ("crashes", "shard_losses", "slow", "flaky"):
            value = getattr(self, key)
            if value:
                payload[key] = value
        if self.duration != 4:
            payload["duration"] = self.duration
        if self.delay != 3:
            payload["delay"] = self.delay
        if self.count != 1:
            payload["count"] = self.count
        return payload


@dataclass(frozen=True)
class ObservabilitySpec:
    """The observability axis: tracing + probe attribution for the run.

    Pure observation — enabling it never changes answers, probe totals or
    the virtual-clock latency numbers (the tracer keeps its own tick
    clock), so any scenario can turn it on without perturbing results.
    ``capacity`` bounds the tracer's span ring buffer.
    """

    trace: bool = True
    profile: bool = True
    capacity: int = 65536

    def __post_init__(self) -> None:
        _require(self.capacity >= 1, "observability capacity must be >= 1")
        _require(
            self.trace or self.profile,
            "an [observability] table must enable trace and/or profile",
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        if not self.trace:
            payload["trace"] = False
        if not self.profile:
            payload["profile"] = False
        if self.capacity != 65536:
            payload["capacity"] = self.capacity
        return payload


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: every axis the planes expose, as data."""

    name: str
    algorithm: str = "spanner3"
    seed: int = 7
    description: str = ""
    graph: GraphSpec = field(default_factory=GraphSpec)
    mutations: MutationSpec = field(default_factory=MutationSpec)
    workload: Optional[WorkloadSpec] = None
    service: ServiceSpec = field(default_factory=ServiceSpec)
    #: Chaos storm injected during the service phase (needs a workload).
    faults: Optional[FaultSpec] = None
    #: Tracing / probe attribution for the service phase (needs a workload).
    observability: Optional[ObservabilitySpec] = None
    #: Extra keyword arguments for the LCA factory (e.g. ``stretch_parameter``
    #: for ``spannerk``).  Values must be JSON-serializable.
    algorithm_options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario name must be non-empty")
        _require(
            all(c.isalnum() or c in "-_." for c in self.name),
            f"scenario name {self.name!r} may only contain [a-zA-Z0-9-_.] "
            "(it becomes a results filename)",
        )
        graph = Graph.from_edges([(0, 1)])
        _check_by_building(
            lambda: create(self.algorithm, graph, self.seed, **self.algorithm_options),
            "algorithm",
        )
        if self.faults is not None and self.faults.total_events:
            _require(
                self.workload is not None,
                "a [faults] table needs a [workload] (faults are injected "
                "into the service phase)",
            )
        if self.observability is not None:
            _require(
                self.workload is not None,
                "an [observability] table needs a [workload] (tracing and "
                "attribution cover the service phase)",
            )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """The spec as plain data (stored verbatim next to its results)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "graph": self.graph.as_dict(),
        }
        if self.description:
            payload["description"] = self.description
        if self.algorithm_options:
            payload["algorithm_options"] = dict(self.algorithm_options)
        if self.mutations.ops:
            payload["mutations"] = self.mutations.as_dict()
        if self.workload is not None:
            payload["workload"] = self.workload.as_dict()
            payload["service"] = self.service.as_dict()
        if self.faults is not None:
            payload["faults"] = self.faults.as_dict()
        if self.observability is not None:
            payload["observability"] = self.observability.as_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object], source: str = "<dict>") -> "ScenarioSpec":
        """Build and validate a spec from parsed TOML/JSON data."""
        if not isinstance(data, dict):
            raise SpecError(f"{source}: scenario must be a table, got {type(data).__name__}")
        known = {
            "name",
            "algorithm",
            "seed",
            "description",
            "graph",
            "mutations",
            "workload",
            "service",
            "faults",
            "observability",
            "algorithm_options",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"{source}: unknown scenario keys {unknown}")
        name = str(data.get("name", ""))
        try:
            workload_data = data.get("workload")
            return cls(
                name=name,
                algorithm=str(data.get("algorithm", "spanner3")),
                seed=int(data.get("seed", 7)),
                description=str(data.get("description", "")),
                graph=_sub(GraphSpec, data.get("graph"), "graph"),
                mutations=_sub(MutationSpec, data.get("mutations"), "mutations"),
                workload=(
                    _sub(WorkloadSpec, workload_data, "workload")
                    if workload_data is not None
                    else None
                ),
                service=_sub(ServiceSpec, data.get("service"), "service"),
                faults=(
                    _sub(FaultSpec, data.get("faults"), "faults")
                    if data.get("faults") is not None
                    else None
                ),
                observability=(
                    _sub(ObservabilitySpec, data.get("observability"), "observability")
                    if data.get("observability") is not None
                    else None
                ),
                algorithm_options=dict(data.get("algorithm_options", {})),
            )
        except SpecError as exc:
            raise SpecError(f"{source}: scenario {name!r}: {exc}") from None
        except (ValueError, TypeError) as exc:
            # Wrong-typed values (e.g. seed = "fast", a list where a table
            # belongs) must fail the same way typos do: one clean SpecError,
            # before any graph is built.
            raise SpecError(f"{source}: scenario {name!r}: {exc}") from None


def _sub(spec_cls, data: Optional[Dict[str, object]], what: str):
    """Instantiate a sub-spec dataclass from an optional sub-table."""
    if data is None:
        return spec_cls()
    if not isinstance(data, dict):
        raise SpecError(f"{what} must be a table, got {type(data).__name__}")
    fields = {f for f in spec_cls.__dataclass_fields__}
    unknown = sorted(set(data) - fields)
    if unknown:
        raise SpecError(f"unknown {what} keys {unknown}; known: {sorted(fields)}")
    kwargs = dict(data)
    if "sizes" in kwargs:
        sizes = kwargs["sizes"]
        if isinstance(sizes, int):
            sizes = [sizes]
        if not isinstance(sizes, (list, tuple)):
            raise SpecError(f"graph sizes must be a list, got {type(sizes).__name__}")
        kwargs["sizes"] = tuple(int(n) for n in sizes)
    return spec_cls(**kwargs)


# --------------------------------------------------------------------------- #
# File loading
# --------------------------------------------------------------------------- #
def load_toml(path: Path, error: Type[Exception] = SpecError) -> Dict[str, object]:
    """Parse a TOML file with :mod:`tomllib`.

    The one TOML reader for scenario specs and the lint baseline.  Malformed
    input raises the caller's ``error`` type, naming the path and the line.
    """
    with path.open("rb") as handle:
        try:
            return tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise error(f"{path}: invalid TOML: {exc}") from None


def load_scenario_file(path: Union[str, Path]) -> List[ScenarioSpec]:
    """Load every scenario from one TOML or JSON spec file.

    TOML files use either top-level scenario keys or ``[[scenario]]``
    tables; JSON files the analogous object or ``{"scenario": [...]}``.
    """
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file {path} does not exist")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from None
    elif path.suffix.lower() == ".toml":
        data = load_toml(path)
    else:
        raise SpecError(f"spec file {path} must be .toml or .json")
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec file must hold a table/object at top level")
    if "scenario" in data:
        entries = data["scenario"]
        if not isinstance(entries, list):
            raise SpecError(f"{path}: 'scenario' must be an array of tables")
    else:
        entries = [data]
    specs = [ScenarioSpec.from_dict(entry, source=str(path)) for entry in entries]
    names = [spec.name for spec in specs]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise SpecError(f"{path}: duplicate scenario names {duplicates}")
    return specs


def load_scenarios(paths: Sequence[Union[str, Path]]) -> List[ScenarioSpec]:
    """Load scenarios from files and/or directories (``*.toml`` + ``*.json``).

    Directories are scanned non-recursively in sorted order; duplicate
    scenario names across the whole batch are an error (results files would
    overwrite each other).
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(
                p for p in path.iterdir() if p.suffix.lower() in (".toml", ".json")
            )
            if not found:
                raise SpecError(f"directory {path} holds no .toml/.json spec files")
            files.extend(found)
        else:
            files.append(path)
    specs: List[ScenarioSpec] = []
    seen: Dict[str, Path] = {}
    for file in files:
        for spec in load_scenario_file(file):
            if spec.name in seen:
                raise SpecError(
                    f"scenario {spec.name!r} defined in both {seen[spec.name]} and {file}"
                )
            seen[spec.name] = file
            specs.append(spec)
    return specs
