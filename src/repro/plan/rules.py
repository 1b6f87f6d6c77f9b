"""Event-condition-action rules.

Rules are the key mechanism for adaptive behaviour in Tukwila.  Formally a
rule is a quintuple *(name, owner, event, condition, actions)*:

* the **event** names a runtime occurrence (``closed(frag1)``,
  ``timeout(wrapA)``, ``out_of_memory(join1)``, ``threshold(srcB, 10)``);
* the **condition** is a propositional formula over comparator terms whose
  operands may be constants, optimizer-precomputed values, or dynamic
  quantities (``card(op)``, ``est_card(op)``, ``state(op)``, ``memory(op)``,
  ``time(op)``);
* the **actions** modify operator execution, reschedule, re-optimize, or
  report an error.

The semantics restrictions of Section 3.1.2 are enforced here: a rule fires
at most once, rules with inactive owners never trigger, and all of a rule's
actions execute before the next event is processed (the event handler in
:mod:`repro.engine.event_handler` guarantees the latter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Protocol, Sequence

from repro.errors import RuleError


class EventType(str, Enum):
    """Runtime events the execution system generates."""

    OPENED = "opened"
    CLOSED = "closed"
    ERROR = "error"
    TIMEOUT = "timeout"
    OUT_OF_MEMORY = "out_of_memory"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class Event:
    """A concrete runtime event raised by an operator or fragment.

    ``subject`` is the operator/fragment the event is about; ``value`` carries
    event-specific payload (tuple count for thresholds, message for errors).
    """

    event_type: EventType
    subject: str
    value: Any = None
    at_time: float = 0.0

    @property
    def key(self) -> tuple[EventType, str]:
        """Hash key used by the event handler to find matching rules."""
        return (self.event_type, self.subject)

    def __str__(self) -> str:
        payload = f", {self.value}" if self.value is not None else ""
        return f"{self.event_type.value}({self.subject}{payload}) @ {self.at_time:.1f}ms"


class RuntimeContext(Protocol):
    """What conditions may observe about the running query.

    The execution engine implements this protocol; tests may supply stubs.
    """

    def operator_state(self, operator_id: str) -> str: ...

    def operator_card(self, operator_id: str) -> int: ...

    def operator_est_card(self, operator_id: str) -> int | None: ...

    def operator_memory(self, operator_id: str) -> int: ...

    def operator_time_since_last_tuple(self, operator_id: str) -> float: ...


# -- condition language -----------------------------------------------------------


class Condition:
    """Base class for condition formulas; subclasses implement ``evaluate``."""

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        raise NotImplementedError

    def trigger_count(self, produced: int) -> int:
        """The first count above ``produced`` at which this condition can hold
        on a ``threshold`` event carrying it; ``produced + 1`` (every row)
        when it cannot tell."""
        return produced + 1

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


@dataclass
class Always(Condition):
    """``true`` — the rule fires whenever its event triggers."""

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        return True

    def __str__(self) -> str:
        return "true"


@dataclass
class Never(Condition):
    """``false`` — useful for disabling a rule without removing it."""

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        return False

    def __str__(self) -> str:
        return "false"


@dataclass
class And(Condition):
    left: Condition
    right: Condition

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        return self.left.evaluate(context, event) and self.right.evaluate(context, event)

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass
class Or(Condition):
    left: Condition
    right: Condition

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        return self.left.evaluate(context, event) or self.right.evaluate(context, event)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass
class Not(Condition):
    operand: Condition

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        return not self.operand.evaluate(context, event)

    def __str__(self) -> str:
        return f"(not {self.operand})"


#: Quantity term: a function of (context, event) producing a comparable value.
Quantity = Callable[[RuntimeContext, Event], Any]


def constant(value: Any) -> Quantity:
    """A constant operand."""

    def read(context: RuntimeContext, event: Event) -> Any:
        return value

    read.description = repr(value)  # type: ignore[attr-defined]
    read.value = value  # type: ignore[attr-defined]
    return read


def card(operator_id: str) -> Quantity:
    """Number of tuples produced so far by ``operator_id``."""

    def read(context: RuntimeContext, event: Event) -> Any:
        return context.operator_card(operator_id)

    read.description = f"card({operator_id})"  # type: ignore[attr-defined]
    return read


def est_card(operator_id: str) -> Quantity:
    """The optimizer's cardinality estimate for ``operator_id``."""

    def read(context: RuntimeContext, event: Event) -> Any:
        value = context.operator_est_card(operator_id)
        return value if value is not None else 0

    read.description = f"est_card({operator_id})"  # type: ignore[attr-defined]
    return read


def state(operator_id: str) -> Quantity:
    """The operator's current state name."""

    def read(context: RuntimeContext, event: Event) -> Any:
        return context.operator_state(operator_id)

    read.description = f"state({operator_id})"  # type: ignore[attr-defined]
    return read


def memory(operator_id: str) -> Quantity:
    """Bytes of memory currently used by the operator."""

    def read(context: RuntimeContext, event: Event) -> Any:
        return context.operator_memory(operator_id)

    read.description = f"memory({operator_id})"  # type: ignore[attr-defined]
    return read


def time_waiting(operator_id: str) -> Quantity:
    """Virtual milliseconds since the operator last produced a tuple."""

    def read(context: RuntimeContext, event: Event) -> Any:
        return context.operator_time_since_last_tuple(operator_id)

    read.description = f"time({operator_id})"  # type: ignore[attr-defined]
    return read


def _event_value(context: RuntimeContext, event: Event) -> Any:
    return event.value


_event_value.description = "event.value"  # type: ignore[attr-defined]


def event_value() -> Quantity:
    """The payload carried by the triggering event (e.g. a threshold count)."""
    return _event_value


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class Compare(Condition):
    """Comparator term: ``left <op> right * scale``.

    ``scale`` supports the paper's example rule
    ``card(join1) >= 2 * est_card(join1)`` without a separate arithmetic layer.
    """

    left: Quantity
    op: str
    right: Quantity
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise RuleError(f"unknown comparator {self.op!r}")

    def evaluate(self, context: RuntimeContext, event: Event) -> bool:
        left_value = self.left(context, event)
        right_value = self.right(context, event)
        if self.scale != 1.0:
            right_value = right_value * self.scale
        return _COMPARATORS[self.op](left_value, right_value)

    def trigger_count(self, produced: int) -> int:
        """``event.value >= c`` (or ``> c``), times ``scale``, first holds at
        one count: the least integer at or (strictly) above the bound."""
        bound = getattr(self.right, "value", None)
        if (
            self.left is not _event_value
            or self.op not in (">=", ">")
            or not isinstance(bound, (int, float))
        ):
            return produced + 1
        if self.scale != 1.0:
            bound = bound * self.scale
        try:
            first = math.ceil(bound) if self.op == ">=" else math.floor(bound) + 1
        except (OverflowError, ValueError):  # an infinite or NaN bound
            return produced + 1
        return max(produced + 1, first)

    def __str__(self) -> str:
        left_desc = getattr(self.left, "description", "<quantity>")
        right_desc = getattr(self.right, "description", "<quantity>")
        scale = f"{self.scale} * " if self.scale != 1.0 else ""
        return f"{left_desc} {self.op} {scale}{right_desc}"


# -- actions -----------------------------------------------------------------------


class ActionType(str, Enum):
    """Kinds of rule actions (Section 3.1.2)."""

    SET_OVERFLOW_METHOD = "set_overflow_method"
    ALTER_MEMORY = "alter_memory"
    DEACTIVATE = "deactivate"
    ACTIVATE = "activate"
    RESCHEDULE = "reschedule"
    REOPTIMIZE = "reoptimize"
    RETURN_ERROR = "return_error"
    SELECT_FRAGMENT = "select_fragment"


@dataclass(frozen=True)
class Action:
    """A single rule action with a target and optional argument."""

    action_type: ActionType
    target: str = ""
    argument: Any = None

    def __str__(self) -> str:
        parts = [self.action_type.value]
        if self.target:
            parts.append(self.target)
        if self.argument is not None:
            parts.append(str(self.argument))
        return "(" + " ".join(parts) + ")"


def set_overflow_method(operator_id: str, method: str) -> Action:
    """Set the overflow strategy of a double pipelined join."""
    return Action(ActionType.SET_OVERFLOW_METHOD, operator_id, method)


def alter_memory(operator_id: str, new_limit_bytes: int) -> Action:
    """Change an operator's memory allotment."""
    return Action(ActionType.ALTER_MEMORY, operator_id, new_limit_bytes)


def deactivate(target: str) -> Action:
    """Stop an operator/fragment and deactivate its rules."""
    return Action(ActionType.DEACTIVATE, target)


def activate(collector_id: str, child: str) -> Action:
    """Ask a collector to open (or re-open) one of its children."""
    return Action(ActionType.ACTIVATE, collector_id, child)


#: Actions without a target or argument are values; every rule shares one.
_RESCHEDULE = Action(ActionType.RESCHEDULE)
_REPLAN = Action(ActionType.REOPTIMIZE)


def reschedule() -> Action:
    """Reschedule the operator tree to favour responsive sources."""
    return _RESCHEDULE


def replan() -> Action:
    """Re-invoke the optimizer with the statistics gathered so far."""
    return _REPLAN


def return_error(message: str) -> Action:
    """Abort the query and report ``message`` to the user."""
    return Action(ActionType.RETURN_ERROR, argument=message)


def select_fragment(fragment_id: str) -> Action:
    """Contingent planning: choose which fragment executes next."""
    return Action(ActionType.SELECT_FRAGMENT, fragment_id)


# -- rules --------------------------------------------------------------------------


@dataclass
class Rule:
    """An event-condition-action rule.

    Parameters
    ----------
    name:
        Unique rule name within a plan.
    owner:
        The operator or fragment the rule controls; a rule whose owner has
        been deactivated is itself inactive.
    event_type / subject:
        The event that triggers the rule.  ``subject`` is the id of the
        operator/fragment/wrapper the event must be about.
    condition:
        Propositional condition evaluated when the rule triggers.
    actions:
        Executed in order when the condition holds.
    """

    name: str
    owner: str
    event_type: EventType
    subject: str
    condition: Condition = field(default_factory=Always)
    actions: Sequence[Action] = field(default_factory=tuple)
    fired: bool = False
    active: bool = True

    def __post_init__(self) -> None:
        if not self.actions:
            raise RuleError(f"rule {self.name!r} has no actions")
        self.actions = tuple(self.actions)

    @property
    def event_key(self) -> tuple[EventType, str]:
        return (self.event_type, self.subject)

    def __str__(self) -> str:
        actions = "; ".join(str(a) for a in self.actions)
        return (
            f"when {self.event_type.value}({self.subject}) "
            f"if {self.condition} then {actions}"
        )


def validate_rule_set(rules: Sequence[Rule]) -> None:
    """Static checks from Section 3.1.2.

    * rule names must be unique;
    * no two *simultaneously triggerable* rules (same event key) may contain
      actions that negate each other (activate vs deactivate of the same
      target, or two different overflow methods for the same operator).

    Raises
    ------
    RuleError
        If a violation is found.
    """
    names = [rule.name for rule in rules]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise RuleError(f"duplicate rule names: {dupes}")

    by_event: dict[tuple[EventType, str], list[Rule]] = {}
    for rule in rules:
        by_event.setdefault((rule.event_type, rule.subject), []).append(rule)

    for event_rules in by_event.values():
        if len(event_rules) < 2:
            continue
        for i, first in enumerate(event_rules):
            for second in event_rules[i + 1 :]:
                for action_a in first.actions:
                    for action_b in second.actions:
                        if _conflicting(action_a, action_b):
                            raise RuleError(
                                f"rules {first.name!r} and {second.name!r} can fire "
                                f"simultaneously with conflicting actions "
                                f"{action_a} / {action_b}"
                            )


def _conflicting(a: Action, b: Action) -> bool:
    """Whether two actions negate each other (see :func:`validate_rule_set`)."""
    if a.target != b.target:
        return False
    pair = {a.action_type, b.action_type}
    if pair == {ActionType.ACTIVATE, ActionType.DEACTIVATE}:
        return True
    return (
        a.action_type == ActionType.SET_OVERFLOW_METHOD
        and b.action_type == ActionType.SET_OVERFLOW_METHOD
        and a.argument != b.argument
    )
