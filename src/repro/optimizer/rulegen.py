"""Rule generation: the optimizer's adaptive-behaviour output.

Besides the annotated operator tree, the Tukwila optimizer emits the
event-condition-action rules that define runtime adaptivity: when to
re-optimize at materialization points, when to reschedule on source timeouts,
and how double pipelined joins should resolve memory overflow.
"""

from __future__ import annotations

from repro.plan.fragments import Fragment
from repro.plan.physical import OperatorSpec, OperatorType, OverflowMethod
from repro.plan.rules import (
    Always,
    Compare,
    EventType,
    Or,
    Rule,
    constant,
    event_value,
    replan,
    reschedule,
    set_overflow_method,
)

#: Stateless rule parts every generated rule can share.
_ALWAYS = Always()
_REPLAN_ACTIONS = (replan(),)
_RESCHEDULE_ACTIONS = (reschedule(),)


def replan_rule(
    fragment: Fragment,
    estimated_cardinality: int,
    factor: float = 2.0,
    name: str | None = None,
) -> Rule:
    """Re-optimize when a fragment's actual result size is off by ``factor``.

    The generated rule follows the paper's example::

        when closed(frag1)
        if card(join1) >= 2 * est_card(join1) then replan

    The ``closed`` event for a fragment carries the actual result cardinality
    as its value, so the condition compares the event value to the estimate.
    """
    actual, estimate = event_value(), constant(estimated_cardinality)
    over = Compare(actual, ">=", estimate, scale=factor)
    under = Compare(actual, "<=", estimate, scale=1.0 / factor)
    return Rule(
        name=name or f"replan-{fragment.fragment_id}",
        owner=fragment.fragment_id,
        event_type=EventType.CLOSED,
        subject=fragment.fragment_id,
        condition=Or(over, under),
        actions=_REPLAN_ACTIONS,
    )


def timeout_reschedule_rule(source_name: str, owner: str, name: str | None = None) -> Rule:
    """Reschedule the plan when ``source_name`` times out (query scrambling)."""
    return Rule(
        name=name or f"reschedule-{source_name}",
        owner=owner,
        event_type=EventType.TIMEOUT,
        subject=source_name,
        condition=_ALWAYS,
        actions=_RESCHEDULE_ACTIONS,
    )


def overflow_method_rule(
    join_spec: OperatorSpec,
    method: OverflowMethod,
    owner: str,
    name: str | None = None,
) -> Rule:
    """Select the overflow strategy of a double pipelined join when it first overflows."""
    return Rule(
        name=name or f"overflow-{join_spec.operator_id}",
        owner=owner,
        event_type=EventType.OUT_OF_MEMORY,
        subject=join_spec.operator_id,
        actions=[set_overflow_method(join_spec.operator_id, method.value)],
    )


def rules_for_fragment(
    fragment: Fragment,
    sources: list[str],
    replan_factor: float = 2.0,
    reschedule_on_timeout: bool = True,
    overflow_method: OverflowMethod | None = None,
    replan: bool = True,
) -> list[Rule]:
    """The standard rule set the optimizer attaches to a fragment.

    * with ``replan``, a re-optimization rule when the fragment's estimate is
      unreliable — unless the fragment is final (mark it first): after the
      last fragment there is nothing left to re-plan;
    * a reschedule-on-timeout rule per source the fragment reads
      (``sources``: :meth:`Fragment.sources`, which the optimizer collects
      while it builds the tree);
    * optionally, an overflow-method rule for each double pipelined join.
    """
    rules: list[Rule] = []
    estimate = fragment.estimated_cardinality
    if replan and not fragment.estimate_reliable and estimate is not None and not fragment.is_final:
        rules.append(replan_rule(fragment, estimate, replan_factor))
    if reschedule_on_timeout:
        owner = fragment.fragment_id
        for source in sources:
            name = f"reschedule-{owner}-{source}"
            rules.append(timeout_reschedule_rule(source, owner=owner, name=name))
    if overflow_method is not None:
        for node in fragment.root.walk():
            if node.operator_type == OperatorType.JOIN and node.implementation == "double_pipelined":
                rules.append(
                    overflow_method_rule(
                        node,
                        overflow_method,
                        owner=fragment.fragment_id,
                        name=f"overflow-{fragment.fragment_id}-{node.operator_id}",
                    )
                )
    return rules
