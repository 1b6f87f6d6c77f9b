"""Static plan validation: check an operator tree before executing it.

Plan well-formedness is decidable before execution — a dependent join's
bindings either are or are not produced by its left input, a union's inputs
either are or are not schema-compatible — so the engine checks it *before*
instantiating runtime operators (``EngineConfig(validate_plans=True)``, the
default) instead of failing mid-stream with a partially executed plan.

Checked invariants, per node:

* **Schema compatibility** — union/collector/choose children must be
  compatible (same arity and attribute types); project attributes and join
  keys must resolve in their input schemas; a join output must not carry
  duplicate attribute names.
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
* **Memory floors** (plan level) — a bounded join allotment below the
  optimizer/broker floor (:data:`MIN_JOIN_ALLOTMENT_BYTES`) can never be
  granted and is rejected at admission rather than at the first overflow.

Schemas are resolved from the catalog (wrapper scans, dependent joins) and
the local store / earlier fragments' results (table scans).  A node whose
schema cannot be known statically (for example a table scan of a relation
that will only exist at runtime) simply stops schema propagation — checks
above it that need the schema are skipped, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanValidationError, SchemaError
from repro.optimizer.memory_alloc import MIN_JOIN_ALLOTMENT_BYTES
from repro.plan.physical import OperatorSpec, OperatorType
from repro.storage.columns import DICT_ENCODED_TYPES
from repro.storage.schema import Attribute, Schema


@dataclass(frozen=True, order=True)
class PlanCheckFinding:
    """One static plan violation, anchored at an operator."""

    operator_id: str
    code: str
    message: str

    def render(self) -> str:
        return f"{self.operator_id}: [{self.code}] {self.message}"


class PlanValidator:
    """Schema-propagating validator over one physical operator tree.

    Parameters
    ----------
    catalog:
        Resolves wrapper-scan and dependent-join source schemas.
    local_store:
        Optional runtime store for resolving table-scan schemas (the builder
        passes the context's store, so fragments built after their inputs
        materialized validate against real schemas).
    known_relations:
        Statically known relation schemas by name — earlier fragments'
        results when validating a full plan.
    enforce_floor:
        Check bounded join allotments against the broker floor.  On for plan
        admission (allotments come from the optimizer/broker negotiation and
        must be grantable); off for hand-built trees, where tiny allotments
        are how tests and benchmarks force the overflow paths.
    """

    def __init__(
        self,
        catalog,
        *,
        local_store=None,
        known_relations: dict[str, Schema] | None = None,
        enforce_floor: bool = False,
    ) -> None:
        self.catalog = catalog
        self.local_store = local_store
        self.known_relations = dict(known_relations or {})
        self.enforce_floor = enforce_floor
        self.findings: list[PlanCheckFinding] = []
        self._schemas: dict[str, Schema | None] = {}

    # -- public API --------------------------------------------------------------------

    def validate_tree(self, spec: OperatorSpec) -> list[PlanCheckFinding]:
        """Check ``spec`` and all descendants; returns the findings."""
        self._visit(spec)
        return self.findings

    def schema_of(self, spec: OperatorSpec) -> Schema | None:
        """The computed output schema of a validated node (``None`` = unknown)."""
        return self._schemas.get(spec.operator_id)

    # -- traversal ---------------------------------------------------------------------

    def _visit(self, spec: OperatorSpec) -> Schema | None:
        child_schemas = [self._visit(child) for child in spec.children]
        schema = self._check_node(spec, child_schemas)
        self._schemas[spec.operator_id] = schema
        return schema

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
            return self._relation_schema(spec.params.get("relation"))
        if operator_type == OperatorType.SELECT:
            # Predicates over absent attributes are *legal* (the runtime
            # compiles them as never-satisfiable), so selection is
            # schema-transparent here.
            return child_schemas[0] if child_schemas else None
        if operator_type == OperatorType.PROJECT:
            return self._check_project(spec, child_schemas[0])
        if operator_type in (
            OperatorType.UNION,
            OperatorType.COLLECTOR,
            OperatorType.CHOOSE,
        ):
            return self._check_union_like(spec, child_schemas)
        if operator_type == OperatorType.JOIN:
            return self._check_join(spec, child_schemas)
        if operator_type == OperatorType.DEPENDENT_JOIN:
            return self._check_dependent_join(spec, child_schemas)
        if operator_type == OperatorType.MATERIALIZE:
            return child_schemas[0] if child_schemas else None
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

    def _check_union_like(
        self, spec: OperatorSpec, child_schemas: list[Schema | None]
    ) -> Schema | None:
        known = [s for s in child_schemas if s is not None]
        if not known:
            return None
        first = known[0]
        for position, schema in enumerate(child_schemas):
            if schema is None or schema is first:
                continue
            if not first.compatible_with(schema):
                self._report(
                    spec,
                    "schema-mismatch",
                    f"{spec.operator_type.value} input #{position} is not "
                    f"compatible with input #0: {list(schema.names)} vs "
                    f"{list(first.names)} (arity and attribute types must match)",
                )
        if len(known) != len(child_schemas):
            return None  # an unknown child could widen the schema at runtime
        return first

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

    def _check_join(
        self, spec: OperatorSpec, child_schemas: list[Schema | None]
    ) -> Schema | None:
        left_schema, right_schema = (child_schemas + [None, None])[:2]
        left_keys = spec.params.get("left_keys")
        right_keys = spec.params.get("right_keys")
        self._check_keys(
            spec, left_schema, left_keys, side="left", right_schema=right_schema,
            right_keys=right_keys,
        )
        if self.enforce_floor and spec.memory_limit_bytes is not None:
            if spec.memory_limit_bytes < MIN_JOIN_ALLOTMENT_BYTES:
                self._report(
                    spec,
                    "sub-floor-allotment",
                    f"join allotment of {spec.memory_limit_bytes} bytes is below "
                    f"the broker floor ({MIN_JOIN_ALLOTMENT_BYTES} bytes); the "
                    "broker never revokes below the floor, so this allotment "
                    "could never be granted",
                )
        return self._join_output(spec, left_schema, right_schema)

    def _check_dependent_join(
        self, spec: OperatorSpec, child_schemas: list[Schema | None]
    ) -> Schema | None:
        left_schema = child_schemas[0] if child_schemas else None
        right_schema = self._source_schema(spec.params.get("source"))
        left_keys = spec.params.get("left_keys")
        right_keys = spec.params.get("right_keys")
        self._check_keys(
            spec, left_schema, left_keys, side="bind", right_schema=right_schema,
            right_keys=right_keys,
        )
        return self._join_output(spec, left_schema, right_schema)

    # -- shared join helpers -----------------------------------------------------------

    def _check_keys(
        self,
        spec: OperatorSpec,
        left_schema: Schema | None,
        left_keys,
        *,
        side: str,
        right_schema: Schema | None,
        right_keys,
    ) -> None:
        if not isinstance(left_keys, (list, tuple)) or not isinstance(
            right_keys, (list, tuple)
        ):
            return  # missing params: the builder reports those precisely
        if len(left_keys) != len(right_keys):
            return  # arity mismatch raises in the operator constructors
        dependent = side == "bind"
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

    def _join_output(
        self, spec: OperatorSpec, left: Schema | None, right: Schema | None
    ) -> Schema | None:
        if left is None or right is None:
            return None
        try:
            return left.join(right)
        except SchemaError:
            duplicates = sorted(set(left.names) & set(right.names))
            self._report(
                spec,
                "schema-mismatch",
                f"join output would carry duplicate attribute names "
                f"{duplicates}; qualify or rename one input",
            )
            return None

    # -- schema resolution -------------------------------------------------------------

    def _source_schema(self, source_name) -> Schema | None:
        if not isinstance(source_name, str) or source_name not in self.catalog:
            # Unknown sources stay the catalog's CatalogError at build time —
            # statically we just stop schema propagation.
            return None
        return self.catalog.source(source_name).exported_schema

    def _relation_schema(self, relation_name) -> Schema | None:
        if not isinstance(relation_name, str):
            return None
        if relation_name in self.known_relations:
            return self.known_relations[relation_name]
        if self.local_store is not None:
            try:
                return self.local_store.get(relation_name).schema
            except Exception:  # noqa: BLE001 - absent relation: schema unknown
                return None
        return None

    @staticmethod
    def _resolve(schema: Schema | None, name) -> Attribute | None:
        if schema is None or not isinstance(name, str):
            return None
        try:
            return schema.attribute(name)
        except SchemaError:
            return None


# -- module-level entry points ------------------------------------------------------------


def validate_tree(
    spec: OperatorSpec,
    catalog,
    *,
    local_store=None,
    known_relations: dict[str, Schema] | None = None,
    enforce_floor: bool = False,
) -> list[PlanCheckFinding]:
    """Validate one operator tree; returns all findings (empty = clean)."""
    validator = PlanValidator(
        catalog,
        local_store=local_store,
        known_relations=known_relations,
        enforce_floor=enforce_floor,
    )
    return validator.validate_tree(spec)


def validate_plan(
    plan,
    catalog,
    *,
    enforce_floor: bool = True,
) -> list[PlanCheckFinding]:
    """Validate every fragment of a :class:`QueryPlan` in execution order.

    Fragment result schemas propagate: a table scan of an earlier fragment's
    ``result_name`` resolves to that fragment's statically computed schema,
    so cross-fragment mismatches are caught at admission too.
    """
    findings: list[PlanCheckFinding] = []
    known: dict[str, Schema] = {}
    for fragment in plan.execution_order():
        validator = PlanValidator(
            catalog,
            known_relations=known,
            enforce_floor=enforce_floor,
        )
        findings.extend(validator.validate_tree(fragment.root))
        schema = validator.schema_of(fragment.root)
        if schema is not None:
            known[fragment.result_name] = schema
    return findings


def _raise_if_findings(findings: list[PlanCheckFinding], what: str) -> None:
    if findings:
        rendered = "; ".join(finding.render() for finding in findings)
        raise PlanValidationError(
            f"{what} failed static validation: {rendered}", findings=findings
        )


def check_tree(
    spec: OperatorSpec,
    catalog,
    *,
    local_store=None,
    known_relations: dict[str, Schema] | None = None,
    enforce_floor: bool = False,
) -> None:
    """Validate a tree; raise :class:`PlanValidationError` on any finding."""
    findings = validate_tree(
        spec,
        catalog,
        local_store=local_store,
        known_relations=known_relations,
        enforce_floor=enforce_floor,
    )
    _raise_if_findings(findings, f"operator tree {spec.operator_id!r}")


def check_plan(plan, catalog, *, enforce_floor: bool = True) -> None:
    """Validate a full plan; raise :class:`PlanValidationError` on any finding."""
    findings = validate_plan(plan, catalog, enforce_floor=enforce_floor)
    _raise_if_findings(findings, f"plan {plan.query_name!r}")
