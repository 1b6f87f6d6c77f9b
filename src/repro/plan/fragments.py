"""Plan fragments and query execution plans.

Operators are organized into pipelined units called *fragments*.  At the end
of a fragment, pipelines terminate, results are materialized, and the rest of
the plan can be re-optimized or rescheduled.  A plan is a partially ordered
set of fragments plus a set of global rules (Section 3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import PlanError
from repro.plan.physical import OperatorSpec, OperatorType
from repro.plan.rules import Rule, validate_rule_set

_fragment_ids = itertools.count(1)


def next_fragment_id() -> str:
    """Generate a unique fragment identifier like ``frag3``."""
    return f"frag{next(_fragment_ids)}"


class FragmentStatus(str, Enum):
    """Lifecycle of a fragment during execution."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    SKIPPED = "skipped"
    FAILED = "failed"


@dataclass
class Fragment:
    """A fully pipelined operator tree plus its local rules.

    Parameters
    ----------
    fragment_id:
        Unique id; rules and the partial order refer to fragments by id.
    root:
        Root of the pipelined operator tree.
    result_name:
        Name under which the fragment's output is materialized in the local
        store.  The final fragment's result is the query answer.
    rules:
        Local rules owned by this fragment or its operators.
    estimated_cardinality:
        The optimizer's estimate for the fragment result size.
    estimate_reliable:
        False when the estimate was produced without adequate statistics.
    covers:
        The set of mediated relations joined by this fragment (used by the
        optimizer when stitching partial plans together).
    """

    fragment_id: str
    root: OperatorSpec
    result_name: str
    rules: list[Rule] = field(default_factory=list)
    estimated_cardinality: int | None = None
    estimate_reliable: bool = True
    covers: frozenset[str] = frozenset()
    status: FragmentStatus = FragmentStatus.PENDING

    def __post_init__(self) -> None:
        if not self.result_name:
            raise PlanError(f"fragment {self.fragment_id!r} needs a result name")

    @property
    def is_final(self) -> bool:
        """Set by the plan; final fragments produce the query answer."""
        return getattr(self, "_is_final", False)

    def mark_final(self, final: bool = True) -> None:
        self._is_final = final

    def operator_ids(self) -> list[str]:
        return self.root.operator_ids()

    def sources(self) -> list[str]:
        """Data sources this fragment reads."""
        return self.root.leaf_sources()

    def describe(self) -> str:
        header = f"Fragment {self.fragment_id} -> {self.result_name}"
        if self.estimated_cardinality is not None:
            header += f" (est {self.estimated_cardinality})"
        lines = [header, self.root.describe(indent=1)]
        for rule in self.rules:
            lines.append(f"  rule {rule.name}: {rule}")
        return "\n".join(lines)


@dataclass
class QueryPlan:
    """A partially ordered set of fragments plus global rules.

    ``dependencies`` maps a fragment id to the set of fragment ids that must
    complete before it may start (data-flow constraints).  Fragments that are
    unrelated in the partial order may execute in parallel; the executor in
    this reproduction runs them in a deterministic topological order.

    ``partial`` marks plans that only cover a prefix of the query: after the
    last fragment completes, the engine must return to the optimizer for the
    remainder (interleaved planning and execution).
    """

    query_name: str
    fragments: list[Fragment] = field(default_factory=list)
    dependencies: dict[str, set[str]] = field(default_factory=dict)
    global_rules: list[Rule] = field(default_factory=list)
    partial: bool = False
    answer_name: str = ""
    #: Groups of mutually exclusive fragments (contingent planning): group name
    #: -> fragment ids.  A ``select_fragment`` action picks one member; the
    #: executor skips the rest of its group.
    choice_groups: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate()
        if self.fragments and not self.answer_name:
            self.answer_name = self.fragments[-1].result_name
        for fragment in self.fragments:
            fragment.mark_final(fragment is self.fragments[-1])

    # -- validation --------------------------------------------------------------

    def _validate(self) -> None:
        id_set = {f.fragment_id for f in self.fragments}
        if len(id_set) != len(self.fragments):
            raise PlanError(f"duplicate fragment ids in plan {self.query_name!r}")
        for fragment_id, deps in self.dependencies.items():
            if fragment_id not in id_set:
                raise PlanError(f"dependency entry for unknown fragment {fragment_id!r}")
            missing = deps - id_set
            if missing:
                raise PlanError(
                    f"fragment {fragment_id!r} depends on unknown fragments {sorted(missing)}"
                )
        for group, members in self.choice_groups.items():
            unknown = set(members) - id_set
            if unknown:
                raise PlanError(
                    f"choice group {group!r} references unknown fragments {sorted(unknown)}"
                )
        self._check_acyclic()
        validate_rule_set(self.all_rules())

    def _check_acyclic(self) -> None:
        if not self.dependencies:
            return
        # Kahn's algorithm over the dependency graph.
        indegree = {f.fragment_id: len(self.dependencies.get(f.fragment_id, set())) for f in self.fragments}
        ready = [fid for fid, deg in indegree.items() if deg == 0]
        visited = 0
        while ready:
            current = ready.pop()
            visited += 1
            for fid, deps in self.dependencies.items():
                if current in deps:
                    indegree[fid] -= 1
                    if indegree[fid] == 0:
                        ready.append(fid)
        if visited != len(self.fragments):
            raise PlanError(f"plan {self.query_name!r} has cyclic fragment dependencies")

    # -- access ------------------------------------------------------------------

    def fragment(self, fragment_id: str) -> Fragment:
        for fragment in self.fragments:
            if fragment.fragment_id == fragment_id:
                return fragment
        raise PlanError(f"no fragment {fragment_id!r} in plan {self.query_name!r}")

    def all_rules(self) -> list[Rule]:
        rules = list(self.global_rules)
        for fragment in self.fragments:
            rules.extend(fragment.rules)
        return rules

    def execution_order(self) -> list[Fragment]:
        """Fragments in a deterministic topological order."""
        remaining = {f.fragment_id for f in self.fragments}
        completed: set[str] = set()
        order: list[Fragment] = []
        while remaining:
            ready = sorted(
                fid
                for fid in remaining
                if self.dependencies.get(fid, set()) <= completed
            )
            if not ready:
                raise PlanError("cannot order fragments (cyclic dependencies)")
            # Preserve plan order among ready fragments for determinism.
            for fragment in self.fragments:
                if fragment.fragment_id in ready:
                    order.append(fragment)
                    completed.add(fragment.fragment_id)
                    remaining.discard(fragment.fragment_id)
        return order

    def operator(self, operator_id: str) -> OperatorSpec:
        """Locate an operator spec anywhere in the plan."""
        for fragment in self.fragments:
            for node in fragment.root.walk():
                if node.operator_id == operator_id:
                    return node
        raise PlanError(f"operator {operator_id!r} not found in plan {self.query_name!r}")

    def sources(self) -> list[str]:
        """All data sources read by the plan."""
        out: set[str] = set()
        for fragment in self.fragments:
            out.update(fragment.sources())
        return sorted(out)

    def collectors(self) -> list[OperatorSpec]:
        """All collector operators in the plan."""
        found = []
        for fragment in self.fragments:
            for node in fragment.root.walk():
                if node.operator_type == OperatorType.COLLECTOR:
                    found.append(node)
        return found

    def describe(self) -> str:
        lines = [f"Plan for {self.query_name!r} ({'partial' if self.partial else 'complete'})"]
        for fragment in self.fragments:
            deps = sorted(self.dependencies.get(fragment.fragment_id, set()))
            suffix = f" [after {', '.join(deps)}]" if deps else ""
            lines.append(fragment.describe() + suffix)
        for rule in self.global_rules:
            lines.append(f"global rule {rule.name}: {rule}")
        return "\n".join(lines)
