"""The rule registry: every contract ``repro lint`` enforces.

Rules are registered here in code order; the engine instantiates the
registry once per run.  Adding a rule is three steps (``docs/lint.md``):
write the class in a module under this package, import and list it in
:data:`ALL_RULES`, and document its code + fixture tests.
"""

from __future__ import annotations

from typing import Dict, List

from .base import Rule
from .determinism import AmbientRandomRule, WallClockRule
from .docs import DocCoverageRule
from .exceptions import SilentExceptRule
from .imports import LayeringRule
from .metrics import MetricNameRule
from .observability import GuardedObservabilityRule

#: Every registered rule class, in reporting-code order.
ALL_RULES = [
    WallClockRule,
    AmbientRandomRule,
    DocCoverageRule,
    SilentExceptRule,
    LayeringRule,
    MetricNameRule,
    GuardedObservabilityRule,
]


def build_rules() -> List[Rule]:
    """Fresh rule instances for one lint run."""
    return [rule_class() for rule_class in ALL_RULES]


def rule_index() -> Dict[str, Rule]:
    """Code → rule instance, for listings and documentation checks."""
    return {rule.code: rule for rule in build_rules()}
