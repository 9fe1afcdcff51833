"""EXC001: no silent exception swallowing in the resilience layers.

``service/`` and ``faults/`` are exactly the places that *handle*
failure — replica failover, retries, degraded modes — and their contracts
depend on every failure being either resolved or surfaced: the engine keeps
an exact shed ledger and degrades exhausted retries explicitly, the
injector's storms are accounted fault-by-fault.  A bare ``except:`` (which
also eats ``KeyboardInterrupt``) or an ``except Exception: pass`` silently
converts an accounted failure into a lie in the availability numbers.

Findings: any bare ``except:``, and any handler catching ``Exception`` /
``BaseException`` whose body does nothing (only ``pass``/``...``/
``continue``).  Handlers that narrow the type, re-raise, mirror the error
to a caller or record it are fine.
"""

from __future__ import annotations

import ast
from typing import List

from ..context import FileContext
from ..findings import Finding
from .base import Rule, dotted_name

#: Packages whose error handling must stay honest.
GUARDED_PACKAGES = ("src/repro/service", "src/repro/faults")

_BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _is_noop(statement: ast.stmt) -> bool:
    if isinstance(statement, (ast.Pass, ast.Continue)):
        return True
    return isinstance(statement, ast.Expr) and isinstance(
        statement.value, ast.Constant
    )


class SilentExceptRule(Rule):
    """EXC001: no bare/blanket-and-silent except in service/ and faults/."""

    code = "EXC001"
    name = "no-silent-except"
    contract = (
        "service/ and faults/ never use bare except: or a "
        "broad except whose body silently swallows the error"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if not ctx.under(*GUARDED_PACKAGES):
            return []
        findings: List[Finding] = []
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "bare 'except:' also catches KeyboardInterrupt/"
                        "SystemExit; name the exception types",
                    )
                )
                continue
            caught = dotted_name(node.type)
            if caught in _BROAD_TYPES and all(_is_noop(s) for s in node.body):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'except {caught}:' swallows the failure silently; "
                        "narrow the type, re-raise, or record the error",
                    )
                )
        return findings
