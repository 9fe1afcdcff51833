"""The lint baseline: reviewed, directory-level exceptions in TOML.

``lint-baseline.toml`` (repository root) holds the *deliberate* exceptions
to the lint contracts — the places where a rule's contract legitimately
does not apply (benchmarks exist to read the wall clock; the result store
owns the environment fingerprint).  Every entry must carry a ``reason``:
an unexplained grant is a validation error, which keeps the baseline from
silting up with unreviewed suppressions.

Format::

    schema = 1

    [[allow]]
    code = "DET001"
    path = "benchmarks/*.py"
    reason = "benchmarks exist to measure wall-clock time"

``path`` is an :mod:`fnmatch` glob over repository-relative POSIX paths.
Parsed by :func:`repro.reports.spec.load_toml` (:mod:`tomllib`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import List, Union

from ..reports.spec import load_toml

#: Baseline document version accepted by :func:`load_baseline`.
BASELINE_SCHEMA = 1


class BaselineError(ValueError):
    """The baseline file is missing, malformed or under-explained."""


@dataclass(frozen=True)
class BaselineEntry:
    """One reviewed exception: a rule code granted to a path glob."""

    code: str
    path: str
    reason: str

    def matches(self, code: str, path: str) -> bool:
        return code == self.code and fnmatchcase(path, self.path)


@dataclass
class Baseline:
    """The parsed allowlist; empty by default."""

    entries: List[BaselineEntry]

    def suppresses(self, code: str, path: str) -> bool:
        return any(entry.matches(code, path) for entry in self.entries)


EMPTY_BASELINE = Baseline(entries=[])


def load_baseline(path: Union[str, Path]) -> Baseline:
    """Read and validate one baseline document."""
    path = Path(path)
    try:
        data = load_toml(path, BaselineError)
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from None
    schema = data.get("schema")
    if schema != BASELINE_SCHEMA:
        raise BaselineError(
            f"{path}: baseline schema {schema!r}; this build reads {BASELINE_SCHEMA}"
        )
    raw_entries = data.get("allow", [])
    if not isinstance(raw_entries, list):
        raise BaselineError(f"{path}: 'allow' must be an array of tables")
    entries: List[BaselineEntry] = []
    for position, raw in enumerate(raw_entries):
        where = f"{path}: allow[{position}]"
        if not isinstance(raw, dict):
            raise BaselineError(f"{where}: expected a table")
        unknown = sorted(set(raw) - {"code", "path", "reason"})
        if unknown:
            raise BaselineError(f"{where}: unknown keys {', '.join(unknown)}")
        for key in ("code", "path", "reason"):
            value = raw.get(key)
            if not isinstance(value, str) or not value.strip():
                raise BaselineError(f"{where}: {key!r} must be a non-empty string")
        entries.append(
            BaselineEntry(code=raw["code"], path=raw["path"], reason=raw["reason"])
        )
    return Baseline(entries=entries)
