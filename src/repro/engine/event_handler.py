"""The event handler: interprets the rules attached to query execution plans.

For each event in the queue, the handler looks up (by a hash table keyed on
``(event type, subject)``) all matching rules in the active set, evaluates
their conditions, and executes all actions of satisfied rules before moving
to the next event.  Firing a rule makes it inactive; rules whose owner has
been deactivated never trigger (Section 3.1.2 / 3.3).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.engine.events import EventQueue
from repro.errors import RuleError
from repro.plan.rules import Action, Event, EventType, Rule, RuntimeContext

#: Callback signature for executing a single action.  Returns True when the
#: action was handled (used for accounting only).
ActionExecutor = Callable[[Action, Event], None]


class EventHandler:
    """Registers rules, matches events against them, and dispatches actions."""

    def __init__(self, context: RuntimeContext, action_executor: ActionExecutor) -> None:
        self._context = context
        self._execute_action = action_executor
        self._rules_by_key: dict[tuple[EventType, str], list[Rule]] = {}
        self._rules_by_name: dict[str, Rule] = {}
        self._inactive_owners: set[str] = set()
        self.events_processed = 0
        self.rules_fired = 0
        self.actions_executed = 0

    # -- rule registration -----------------------------------------------------------

    def register(self, rule: Rule) -> None:
        """Add one rule to the active set."""
        if rule.name in self._rules_by_name:
            raise RuleError(f"a rule named {rule.name!r} is already registered")
        self._rules_by_name[rule.name] = rule
        self._rules_by_key.setdefault(rule.event_key, []).append(rule)

    def register_all(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.register(rule)

    @property
    def watched_keys(self) -> set[tuple[EventType, str]]:
        """Event keys that at least one *active* rule still triggers on.

        Fired rules (and rules of deactivated owners) drop out, so batch
        operators stop paying per-tuple event costs for triggers that can
        never fire again.
        """
        return {
            key
            for key, rules in self._rules_by_key.items()
            if any(self._is_active(rule) for rule in rules)
        }

    def thresholds(self) -> dict[str, int]:
        """Operator id -> the least ``trigger_count`` of the active
        ``threshold`` rules on it, counted from its output so far."""
        triggers: dict[str, int] = {}
        for (event_type, subject), rules in self._rules_by_key.items():
            if event_type is not EventType.THRESHOLD:
                continue
            produced = self._context.operator_card(subject)
            counts = [
                rule.condition.trigger_count(produced)
                for rule in rules
                if self._is_active(rule)
            ]
            if counts:
                triggers[subject] = min(counts)
        return triggers

    # -- owner management --------------------------------------------------------------

    def deactivate_owner(self, owner: str) -> None:
        """Deactivate every rule owned by ``owner`` (the rule's own flag is kept)."""
        self._inactive_owners.add(owner)

    def _is_active(self, rule: Rule) -> bool:
        return rule.active and not rule.fired and rule.owner not in self._inactive_owners

    # -- event processing ----------------------------------------------------------------

    def process(self, queue: EventQueue) -> int:
        """Drain the queue, firing rules; returns the number of rules fired.

        Rule actions may themselves enqueue new events; those are processed in
        the same call, after earlier events (FIFO order is preserved).
        """
        fired = 0
        while True:
            event = queue.pop()
            if event is None:
                return fired
            fired += self.process_event(event)

    def process_event(self, event: Event) -> int:
        """Match one event against the active set and fire satisfied rules."""
        self.events_processed += 1
        matching = self._rules_by_key.get(event.key, [])
        # Evaluate all conditions first (the paper evaluates conditions "in
        # parallel"), then execute actions of the satisfied rules in
        # registration order.
        satisfied: list[Rule] = []
        for rule in matching:
            if not self._is_active(rule):
                continue
            if rule.condition.evaluate(self._context, event):
                satisfied.append(rule)
        fired = 0
        for rule in satisfied:
            # Re-check: an earlier rule's actions may have deactivated this one.
            if not self._is_active(rule):
                continue
            rule.fired = True
            fired += 1
            self.rules_fired += 1
            for action in rule.actions:
                self._execute_action(action, event)
                self.actions_executed += 1
        return fired
