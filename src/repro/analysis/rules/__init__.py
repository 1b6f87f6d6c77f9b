"""The project's lint rules.

``lease-lifecycle`` is the one rule: the mutation it exists to catch — a
lease return moved out of its ``finally`` — passes every runtime test, since
none of them makes the release before it raise.  ``docs/engine.md``'s
"Static analysis & invariants" section says which runtime checks took over
the other invariants.
"""

from __future__ import annotations

from repro.analysis.linter import Rule
from repro.analysis.rules.leases import LeaseLifecycleRule

#: Every registered rule.
ALL_RULES: tuple[Rule, ...] = (LeaseLifecycleRule(),)

__all__ = ["ALL_RULES"]
