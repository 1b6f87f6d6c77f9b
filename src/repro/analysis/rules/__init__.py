"""The project's lint rules, in one registry.

Every rule here guards an invariant ``docs/engine.md``'s "Static analysis &
invariants" section documents; add new rules as one module per concern and
register the instance in :data:`ALL_RULES`.
"""

from __future__ import annotations

from repro.analysis.linter import Rule
from repro.analysis.rules.clock import ClockTaintRule
from repro.analysis.rules.exceptions import BareExceptRule, SwallowedExceptRule
from repro.analysis.rules.imports import ConftestImportRule
from repro.analysis.rules.leases import LeaseLifecycleRule
from repro.analysis.rules.memory import BudgetMutationRule
from repro.analysis.rules.rows import HotPathRowRule
from repro.analysis.rules.scheduler import StepEffectRule

#: Every registered rule, in reporting order.  ``clock-taint`` subsumed the
#: syntactic ``wall-clock`` rule and ``lease-lifecycle`` replaced the
#: class-granularity ``memory-pairing`` heuristic in PR 7.
ALL_RULES: tuple[Rule, ...] = (
    ClockTaintRule(),
    LeaseLifecycleRule(),
    StepEffectRule(),
    BudgetMutationRule(),
    HotPathRowRule(),
    ConftestImportRule(),
    BareExceptRule(),
    SwallowedExceptRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    """Look up a registered rule by its id."""
    for rule in ALL_RULES:
        if rule.rule_id == rule_id:
            return rule
    known = ", ".join(rule.rule_id for rule in ALL_RULES)
    raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")


__all__ = ["ALL_RULES", "rule_by_id"]
