"""Static plan validation: check an operator tree before executing it.

Plan well-formedness is decidable before execution — a dependent join's
bindings either are or are not produced by its left input, a union's inputs
either are or are not schema-compatible — so the engine always checks it
*before* instantiating runtime operators instead of failing mid-stream with
a partially executed plan.  There are two entry points: :func:`check_tree`
(the builder, ``QueryServer.submit``) and :func:`check_plan`
(``QueryServer.submit_plan``).

Checked invariants, per node:

* **Schema compatibility** — union/collector/choose children must be
  compatible (:func:`~repro.storage.schema.union_schema`); project
  attributes and join keys must resolve in their input schemas; a join
  output must not carry duplicate attribute names.
* **Binding availability** — a dependent join's bind keys (``left_keys``)
  must be produced by its left input, and its ``right_keys`` by the bound
  source's exported schema (the Logic-of-Information-Flows executability
  condition: a bind-and-fetch plan is executable iff every binding is
  available at the point it is consumed).
* **Encoding consistency** — under the engine's column encoding a string
  attribute travels as dictionary codes; joining it against a
  non-string key of the other input would compare codes with plain values.
  A join key pair where exactly one side is dict-encodable is rejected
  unless the spec declares a translation (``params["key_translation"]``).
* **Memory floors** (:func:`check_plan` only) — a bounded join allotment
  below the optimizer/broker floor (:data:`MIN_JOIN_ALLOTMENT_BYTES`) can
  never be granted and is rejected at admission rather than at the first
  overflow.  Hand-built trees are exempt: tiny allotments are how tests and
  benchmarks force the overflow paths.

Schemas are resolved from the catalog (wrapper scans, dependent joins) and
the local store / earlier fragments' results (table scans).  A node whose
schema cannot be known statically (for example a table scan of a relation
that will only exist at runtime) simply stops schema propagation — checks
above it that need the schema are skipped, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import PlanValidationError, SchemaError
from repro.optimizer.memory_alloc import MIN_JOIN_ALLOTMENT_BYTES
from repro.plan.physical import OperatorSpec, OperatorType
from repro.storage.columns import DICT_ENCODED_TYPES
from repro.storage.schema import Attribute, Schema, union_schema


@dataclass(frozen=True, order=True)
class PlanCheckFinding:
    """One static plan violation, anchored at an operator."""

    operator_id: str
    code: str
    message: str

    def render(self) -> str:
        return f"{self.operator_id}: [{self.code}] {self.message}"


def check_tree(spec: OperatorSpec, catalog, local_store=None) -> None:
    """Check one operator tree; raise :class:`PlanValidationError` on any finding.

    Table scans resolve against ``local_store`` (the builder passes its
    context's store, so a fragment built after its inputs materialized is
    checked against their real schemas).  Never applies the floor rule.
    """

    def stored_schema(name: str) -> Schema | None:
        if local_store is None or name not in local_store:
            return None
        return local_store.get(name).schema

    tree = _TreeCheck(catalog, stored_schema)
    tree.visit(spec)
    _raise_if_findings(tree.findings, f"operator tree {spec.operator_id!r}")


def check_plan(plan, catalog) -> None:
    """Check every fragment of a :class:`QueryPlan`, then the broker floor.

    Fragments are checked in execution order and each one's result schema is
    carried forward: a table scan of an earlier fragment's ``result_name``
    resolves to that fragment's statically computed schema, so
    cross-fragment mismatches are caught at admission too.
    """
    findings: list[PlanCheckFinding] = []
    results: dict[str, Schema] = {}
    fragments = plan.execution_order()
    for fragment in fragments:
        tree = _TreeCheck(catalog, results.get)
        schema = tree.visit(fragment.root)
        findings.extend(tree.findings)
        if schema is not None:
            results[fragment.result_name] = schema
    for fragment in fragments:
        for spec in fragment.root.walk():
            limit = spec.memory_limit_bytes
            if spec.operator_type != OperatorType.JOIN or limit is None:
                continue
            if limit < MIN_JOIN_ALLOTMENT_BYTES:
                findings.append(PlanCheckFinding(
                    spec.operator_id,
                    "sub-floor-allotment",
                    f"join allotment of {limit} bytes is below the broker floor "
                    f"({MIN_JOIN_ALLOTMENT_BYTES} bytes); the broker never "
                    "revokes below the floor, so this allotment could never "
                    "be granted",
                ))
    _raise_if_findings(findings, f"plan {plan.query_name!r}")


def _raise_if_findings(findings: list[PlanCheckFinding], what: str) -> None:
    if findings:
        rendered = "; ".join(finding.render() for finding in findings)
        raise PlanValidationError(
            f"{what} failed static validation: {rendered}", findings=findings
        )


class _TreeCheck:
    """One bottom-up, schema-propagating walk over an operator tree.

    ``relation_schema`` resolves a table scan's relation name to its schema,
    or ``None`` when it is not known statically.
    """

    def __init__(self, catalog, relation_schema: Callable[[str], Schema | None]) -> None:
        self.catalog = catalog
        self.relation_schema = relation_schema
        self.findings: list[PlanCheckFinding] = []

    def visit(self, spec: OperatorSpec) -> Schema | None:
        """Check ``spec`` and its descendants; returns its output schema."""
        return self._check_node(spec, [self.visit(child) for child in spec.children])

    def _report(self, spec: OperatorSpec, code: str, message: str) -> None:
        self.findings.append(PlanCheckFinding(spec.operator_id, code, message))

    # -- per-operator checks -----------------------------------------------------------

    def _check_node(
        self, spec: OperatorSpec, child_schemas: list[Schema | None]
    ) -> Schema | None:
        operator_type = spec.operator_type
        if operator_type == OperatorType.WRAPPER_SCAN:
            return self._source_schema(spec.params.get("source"))
        if operator_type == OperatorType.TABLE_SCAN:
            relation = spec.params.get("relation")
            return self.relation_schema(relation) if isinstance(relation, str) else None
        if operator_type in (OperatorType.SELECT, OperatorType.MATERIALIZE):
            # Both are schema-transparent.  Predicates over absent attributes
            # are *legal*: the runtime compiles them as never-satisfiable.
            return child_schemas[0] if child_schemas else None
        if operator_type == OperatorType.PROJECT:
            return self._check_project(spec, child_schemas[0])
        if operator_type in (
            OperatorType.UNION,
            OperatorType.COLLECTOR,
            OperatorType.CHOOSE,
        ):
            try:
                return union_schema(child_schemas)
            except SchemaError as exc:
                self._report(spec, "schema-mismatch", f"{operator_type.value} {exc}")
                return None
        if operator_type == OperatorType.JOIN:
            left_schema, right_schema = (child_schemas + [None, None])[:2]
            return self._check_join(spec, left_schema, right_schema, dependent=False)
        if operator_type == OperatorType.DEPENDENT_JOIN:
            left_schema = child_schemas[0] if child_schemas else None
            right_schema = self._source_schema(spec.params.get("source"))
            return self._check_join(spec, left_schema, right_schema, dependent=True)
        if operator_type == OperatorType.EXCHANGE:
            return self._check_exchange(spec, child_schemas)
        return None  # unknown operator kinds are the builder's problem

    def _check_project(
        self, spec: OperatorSpec, child_schema: Schema | None
    ) -> Schema | None:
        attributes = spec.params.get("attributes")
        if child_schema is None or not isinstance(attributes, (list, tuple)):
            return None
        missing = [
            name for name in attributes if self._resolve(child_schema, name) is None
        ]
        if missing:
            self._report(
                spec,
                "schema-mismatch",
                f"projected attribute(s) {missing} not produced by its input "
                f"(schema {list(child_schema.names)})",
            )
            return None
        return child_schema.project(list(attributes))

    def _check_exchange(
        self, spec: OperatorSpec, child_schemas: list[Schema | None]
    ) -> Schema | None:
        """An exchange must be able to route: its partition key must be
        produced by its input, and it needs at least one lane."""
        lanes = spec.params.get("lanes")
        if lanes is not None and (
            isinstance(lanes, bool) or not isinstance(lanes, int) or lanes < 1
        ):
            self._report(
                spec,
                "bad-lane-count",
                f"exchange lane count must be a positive integer, got {lanes!r}",
            )
        child_schema = child_schemas[0] if child_schemas else None
        keys = spec.params.get("partition_keys")
        if child_schema is not None and isinstance(keys, (list, tuple)):
            for key in keys:
                if self._resolve(child_schema, key) is None:
                    self._report(
                        spec,
                        "unbound-key",
                        f"partition key {key!r} is not produced by the exchange "
                        f"input (schema {list(child_schema.names)}); rows could "
                        f"not be routed by it",
                    )
        # Hash partition + arrival-ordered merge preserves the input schema.
        return child_schema

    # -- joins -------------------------------------------------------------------------

    def _check_join(
        self,
        spec: OperatorSpec,
        left_schema: Schema | None,
        right_schema: Schema | None,
        *,
        dependent: bool,
    ) -> Schema | None:
        self._check_keys(spec, left_schema, right_schema, dependent=dependent)
        if left_schema is None or right_schema is None:
            return None
        try:
            return left_schema.join(right_schema)
        except SchemaError:
            duplicates = sorted(set(left_schema.names) & set(right_schema.names))
            self._report(
                spec,
                "schema-mismatch",
                f"join output would carry duplicate attribute names "
                f"{duplicates}; qualify or rename one input",
            )
            return None

    def _check_keys(
        self,
        spec: OperatorSpec,
        left_schema: Schema | None,
        right_schema: Schema | None,
        *,
        dependent: bool,
    ) -> None:
        left_keys = spec.params.get("left_keys")
        right_keys = spec.params.get("right_keys")
        if not isinstance(left_keys, (list, tuple)) or not isinstance(
            right_keys, (list, tuple)
        ):
            return  # missing params: the builder reports those precisely
        if len(left_keys) != len(right_keys):
            return  # arity mismatch raises in the operator constructors
        for left_key, right_key in zip(left_keys, right_keys):
            left_attr = self._resolve(left_schema, left_key)
            right_attr = self._resolve(right_schema, right_key)
            if left_schema is not None and left_attr is None:
                what = "bind key" if dependent else "join key"
                self._report(
                    spec,
                    "unbound-key",
                    f"{what} {left_key!r} is not produced by the left input "
                    f"(schema {list(left_schema.names)}); the binding would "
                    "never be available at execution time",
                )
            if right_schema is not None and right_attr is None:
                where = "the bound source" if dependent else "the right input"
                self._report(
                    spec,
                    "unbound-key",
                    f"join key {right_key!r} is not produced by {where} "
                    f"(schema {list(right_schema.names)})",
                )
            if left_attr is not None and right_attr is not None:
                self._check_key_encoding(spec, left_attr, right_attr)

    def _check_key_encoding(
        self, spec: OperatorSpec, left_attr: Attribute, right_attr: Attribute
    ) -> None:
        left_dict = left_attr.type_name in DICT_ENCODED_TYPES
        right_dict = right_attr.type_name in DICT_ENCODED_TYPES
        if left_dict == right_dict:
            return
        if spec.params.get("key_translation"):
            return  # a declared translation decodes at the boundary
        encoded_side, plain_side = (
            (left_attr, right_attr) if left_dict else (right_attr, left_attr)
        )
        self._report(
            spec,
            "encoding-mismatch",
            f"join key {encoded_side.name!r} is dictionary-encoded "
            f"({encoded_side.type_name}) but {plain_side.name!r} is plain "
            f"{plain_side.type_name}; codes would be compared against raw "
            "values — declare params['key_translation'] or align the types",
        )

    # -- schema resolution -------------------------------------------------------------

    def _source_schema(self, source_name) -> Schema | None:
        if not isinstance(source_name, str) or source_name not in self.catalog:
            # Unknown sources stay the catalog's CatalogError at build time —
            # statically we just stop schema propagation.
            return None
        return self.catalog.source(source_name).exported_schema

    @staticmethod
    def _resolve(schema: Schema | None, name) -> Attribute | None:
        if schema is None or not isinstance(name, str):
            return None
        try:
            return schema.attribute(name)
        except SchemaError:
            return None
