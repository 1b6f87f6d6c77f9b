"""Physical operator specifications.

A query execution plan is a tree of :class:`OperatorSpec` nodes.  Each node
records the algebraic operator, the chosen physical implementation, its
children, the memory allotted to it, and the optimizer's cardinality
estimate — the five annotations Section 3.1.1 of the paper lists.  The specs
are *descriptions*; the execution engine instantiates runtime operators from
them (see :mod:`repro.engine.builder`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from repro.errors import PlanError


class OperatorType(str, Enum):
    """Algebraic operator kinds supported by the engine."""

    WRAPPER_SCAN = "wrapper_scan"
    TABLE_SCAN = "table_scan"
    SELECT = "select"
    PROJECT = "project"
    UNION = "union"
    JOIN = "join"
    DEPENDENT_JOIN = "dependent_join"
    COLLECTOR = "collector"
    CHOOSE = "choose"
    MATERIALIZE = "materialize"
    EXCHANGE = "exchange"


class JoinImplementation(str, Enum):
    """Physical join implementations."""

    HYBRID_HASH = "hybrid_hash"
    DOUBLE_PIPELINED = "double_pipelined"
    NESTED_LOOPS = "nested_loops"


class OverflowMethod(str, Enum):
    """Overflow resolution strategies for the double pipelined join."""

    LEFT_FLUSH = "left_flush"
    SYMMETRIC_FLUSH = "symmetric_flush"
    FAIL = "fail"


_operator_ids = itertools.count(1)

#: (fewest, most) children of each operator kind; ``None`` = unbounded.
_ARITY = {
    OperatorType.WRAPPER_SCAN: (0, 0),
    OperatorType.TABLE_SCAN: (0, 0),
    OperatorType.SELECT: (1, 1),
    OperatorType.PROJECT: (1, 1),
    OperatorType.UNION: (1, None),
    OperatorType.JOIN: (2, 2),
    OperatorType.DEPENDENT_JOIN: (2, 2),
    OperatorType.COLLECTOR: (1, None),
    OperatorType.CHOOSE: (1, None),
    OperatorType.MATERIALIZE: (1, 1),
    OperatorType.EXCHANGE: (1, 1),
}


def next_operator_id(prefix: str) -> str:
    """Generate a unique operator identifier like ``join7``."""
    return f"{prefix}{next(_operator_ids)}"


@dataclass
class OperatorSpec:
    """One node of a physical plan tree.

    Parameters
    ----------
    operator_id:
        Unique name; rules refer to operators by this id.
    operator_type:
        The algebraic operator.
    implementation:
        Physical implementation label (join algorithm, etc.); empty for
        operators with only one implementation.
    children:
        Child operator specs, in order.
    params:
        Operator-specific parameters (see the builder for the keys each
        operator understands, e.g. ``left_keys`` / ``right_keys`` for joins,
        ``source`` for wrapper scans, ``predicates`` for selects).
    memory_limit_bytes:
        Memory allotment chosen by the optimizer (``None`` = unbounded).
    estimated_cardinality:
        The optimizer's output-cardinality estimate for this node.
    estimate_reliable:
        Whether the estimate came from real statistics (vs. a default guess);
        unreliable estimates are what trigger re-optimization checks.
    """

    operator_id: str
    operator_type: OperatorType
    implementation: str = ""
    children: list["OperatorSpec"] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)
    memory_limit_bytes: int | None = None
    estimated_cardinality: int | None = None
    estimate_reliable: bool = True

    def __post_init__(self) -> None:
        if not self.operator_id:
            raise PlanError("operator_id must be non-empty")
        low, high = _ARITY[self.operator_type]
        count = len(self.children)
        if count < low or (high is not None and count > high):
            raise PlanError(
                f"operator {self.operator_id!r} ({self.operator_type.value}) has "
                f"{count} children; expected between {low} and {high or 'any'}"
            )

    # -- traversal ----------------------------------------------------------------

    def walk(self) -> Iterator["OperatorSpec"]:
        """Yield this node and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, operator_id: str) -> "OperatorSpec":
        """Locate a descendant (or self) by id."""
        for node in self.walk():
            if node.operator_id == operator_id:
                return node
        raise PlanError(f"operator {operator_id!r} not found under {self.operator_id!r}")

    def leaf_sources(self) -> list[str]:
        """Names of all data sources scanned under this node."""
        out = []
        for node in self.walk():
            if node.operator_type == OperatorType.WRAPPER_SCAN:
                out.append(node.params["source"])
        return out

    def operator_ids(self) -> list[str]:
        return [node.operator_id for node in self.walk()]

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan rendering (used in examples and logs)."""
        label = self.operator_type.value
        if self.implementation:
            label += f"[{self.implementation}]"
        details = []
        if "source" in self.params:
            details.append(str(self.params["source"]))
        if "left_keys" in self.params:
            details.append(
                f"{','.join(self.params['left_keys'])}={','.join(self.params['right_keys'])}"
            )
        if self.estimated_cardinality is not None:
            details.append(f"est={self.estimated_cardinality}")
        suffix = f" ({'; '.join(details)})" if details else ""
        lines = ["  " * indent + f"{self.operator_id}: {label}{suffix}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


# -- convenience constructors --------------------------------------------------------


def wrapper_scan(source: str, operator_id: str | None = None, **params: Any) -> OperatorSpec:
    """Scan a remote source through its wrapper."""
    params = {"source": source, **params}
    return OperatorSpec(
        operator_id or next_operator_id("scan"), OperatorType.WRAPPER_SCAN, params=params
    )


def table_scan(relation: str, operator_id: str | None = None) -> OperatorSpec:
    """Scan a locally materialized relation."""
    return OperatorSpec(
        operator_id or next_operator_id("tscan"),
        OperatorType.TABLE_SCAN,
        params={"relation": relation},
    )


def select_(child: OperatorSpec, predicates: list, operator_id: str | None = None) -> OperatorSpec:
    """Filter ``child`` by selection predicates."""
    return OperatorSpec(
        operator_id or next_operator_id("select"),
        OperatorType.SELECT,
        children=[child],
        params={"predicates": list(predicates)},
    )


def project_(child: OperatorSpec, attributes: list[str], operator_id: str | None = None) -> OperatorSpec:
    """Project ``child`` onto ``attributes``."""
    return OperatorSpec(
        operator_id or next_operator_id("project"),
        OperatorType.PROJECT,
        children=[child],
        params={"attributes": list(attributes)},
    )


def join(
    left: OperatorSpec,
    right: OperatorSpec,
    left_keys: list[str],
    right_keys: list[str],
    implementation: JoinImplementation = JoinImplementation.DOUBLE_PIPELINED,
    operator_id: str | None = None,
    memory_limit_bytes: int | None = None,
    estimated_cardinality: int | None = None,
    overflow_method: OverflowMethod = OverflowMethod.LEFT_FLUSH,
) -> OperatorSpec:
    """Equi-join of two children on the given key lists."""
    if len(left_keys) != len(right_keys):
        raise PlanError("join key lists must have the same length")
    return OperatorSpec(
        operator_id or next_operator_id("join"),
        OperatorType.JOIN,
        implementation=implementation.value,
        children=[left, right],
        params={
            "left_keys": list(left_keys),
            "right_keys": list(right_keys),
            "overflow_method": overflow_method.value,
        },
        memory_limit_bytes=memory_limit_bytes,
        estimated_cardinality=estimated_cardinality,
    )


def union_(children: list[OperatorSpec], operator_id: str | None = None) -> OperatorSpec:
    """Plain (non-adaptive) union of the children."""
    return OperatorSpec(
        operator_id or next_operator_id("union"), OperatorType.UNION, children=list(children)
    )


def collector(
    children: list[OperatorSpec],
    operator_id: str | None = None,
    policy_name: str = "default",
) -> OperatorSpec:
    """Dynamic collector over overlapping/mirrored source scans."""
    return OperatorSpec(
        operator_id or next_operator_id("coll"),
        OperatorType.COLLECTOR,
        children=list(children),
        params={"policy": policy_name},
    )


def exchange(
    child: OperatorSpec,
    partition_keys: list[str],
    lanes: int,
    operator_id: str | None = None,
) -> OperatorSpec:
    """Hash-partition ``child``'s execution across ``lanes`` worker lanes.

    ``partition_keys`` declare the routing key and must be produced by the
    child (the plan validator rejects unbound keys); the builder partitions
    the child's *inputs* on the corresponding join/dedup keys and merges the
    lane outputs back into one arrival-ordered stream, so the exchange is
    result-transparent: same schema, same row multiset, any lane count.
    """
    return OperatorSpec(
        operator_id or next_operator_id("xchg"),
        OperatorType.EXCHANGE,
        children=[child],
        params={"partition_keys": list(partition_keys), "lanes": int(lanes)},
    )


def choose(
    children: list[OperatorSpec],
    operator_id: str | None = None,
) -> OperatorSpec:
    """Choose node: exactly one child is selected at runtime by rules."""
    return OperatorSpec(
        operator_id or next_operator_id("choose"), OperatorType.CHOOSE, children=list(children)
    )


def materialize(child: OperatorSpec, result_name: str, operator_id: str | None = None) -> OperatorSpec:
    """Materialize ``child`` into the local store under ``result_name``."""
    return OperatorSpec(
        operator_id or next_operator_id("mat"),
        OperatorType.MATERIALIZE,
        children=[child],
        params={"result_name": result_name},
    )
