"""Builds runtime operators from physical plan specs."""

from __future__ import annotations

from dataclasses import replace

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators import (
    ChooseNode,
    DependentJoin,
    DoublePipelinedJoin,
    DynamicCollector,
    HybridHashJoin,
    Materialize,
    NestedLoopsJoin,
    Project,
    Select,
    TableScan,
    Union,
    WrapperScan,
)
from repro.engine.operators.exchange import Exchange
from repro.errors import PlanError
from repro.optimizer.memory_alloc import split_allotment_across_lanes
from repro.plan.physical import JoinImplementation, OperatorSpec, OperatorType
from repro.storage.schema import merge_union_schema

#: Join implementations a lane can run: hash-based, so hash partitioning on
#: the join key sends every matching pair to the same lane.
_PARTITIONABLE_JOINS = (
    JoinImplementation.DOUBLE_PIPELINED.value,
    JoinImplementation.HYBRID_HASH.value,
)


def build_operator(
    spec: OperatorSpec, context: ExecutionContext, validate: bool | None = None
) -> Operator:
    """Instantiate the runtime operator tree described by ``spec``.

    When ``validate`` is true (default: ``context.config.validate_plans``),
    the tree is first checked statically — schema compatibility, key
    bindings, encoding consistency — and a violation raises
    :class:`~repro.errors.PlanValidationError` before any operator exists.

    Raises
    ------
    PlanError
        If the spec uses an unknown operator type, implementation, or is
        missing required parameters.
    """
    if validate is None:
        validate = context.config.validate_plans
    if validate:
        from repro.analysis.plan_check import check_tree

        check_tree(
            spec,
            context.catalog,
            encoded=context.config.encoded_columns,
            local_store=context.local_store,
        )
    operator_type = spec.operator_type

    # Exchange insertion happens before children are built: the partitioned
    # form builds each input subtree on its own worker clock, not on the
    # consumer's clock.
    if operator_type == OperatorType.EXCHANGE:
        lanes = spec.params.get("lanes", context.config.exchange_lanes)
        return _build_partitioned(spec.children[0], context, _checked_lane_count(spec, lanes))
    implicit_lanes = context.config.exchange_lanes
    if implicit_lanes > 1 and _is_partitionable(spec):
        return _build_partitioned(spec, context, implicit_lanes)

    children = [build_operator(child, context, validate=False) for child in spec.children]
    params = spec.params

    if operator_type == OperatorType.WRAPPER_SCAN:
        return WrapperScan(
            spec.operator_id,
            context,
            source_name=_required(spec, "source"),
            timeout_ms=_optional_float(params.get("timeout_ms")),
            estimated_cardinality=spec.estimated_cardinality,
        )
    if operator_type == OperatorType.TABLE_SCAN:
        return TableScan(
            spec.operator_id,
            context,
            relation_name=_required(spec, "relation"),
            estimated_cardinality=spec.estimated_cardinality,
        )
    if operator_type == OperatorType.SELECT:
        return Select(
            spec.operator_id,
            context,
            children[0],
            predicates=list(params.get("predicates", [])),
            estimated_cardinality=spec.estimated_cardinality,
        )
    if operator_type == OperatorType.PROJECT:
        return Project(
            spec.operator_id,
            context,
            children[0],
            attributes=list(_required(spec, "attributes")),
            estimated_cardinality=spec.estimated_cardinality,
        )
    if operator_type == OperatorType.UNION:
        return Union(
            spec.operator_id, context, children, estimated_cardinality=spec.estimated_cardinality
        )
    if operator_type == OperatorType.JOIN:
        return _build_join(spec, context, children)
    if operator_type == OperatorType.DEPENDENT_JOIN:
        return DependentJoin(
            spec.operator_id,
            context,
            children[0],
            source_name=_required(spec, "source"),
            left_keys=list(_required(spec, "left_keys")),
            right_keys=list(_required(spec, "right_keys")),
            estimated_cardinality=spec.estimated_cardinality,
            probe_cache=_as_bool(params.get("probe_cache", True)),
        )
    if operator_type == OperatorType.COLLECTOR:
        initially_active = params.get("initially_active")
        dedup_keys = params.get("dedup_keys")
        dedup_budget = params.get("dedup_budget_bytes")
        return DynamicCollector(
            spec.operator_id,
            context,
            children,
            initially_active=list(initially_active) if initially_active else None,
            fallback_on_failure=_as_bool(params.get("fallback_on_failure", True)),
            dedup_keys=list(dedup_keys) if dedup_keys else None,
            estimated_cardinality=spec.estimated_cardinality,
            dedup_budget_bytes=int(dedup_budget) if dedup_budget else None,
        )
    if operator_type == OperatorType.CHOOSE:
        return ChooseNode(
            spec.operator_id, context, children, estimated_cardinality=spec.estimated_cardinality
        )
    if operator_type == OperatorType.MATERIALIZE:
        return Materialize(
            spec.operator_id,
            context,
            children[0],
            result_name=_required(spec, "result_name"),
            estimated_cardinality=spec.estimated_cardinality,
        )
    raise PlanError(f"unsupported operator type {operator_type!r}")


def _build_join(spec: OperatorSpec, context: ExecutionContext, children: list[Operator]) -> Operator:
    left_keys = list(_required(spec, "left_keys"))
    right_keys = list(_required(spec, "right_keys"))
    implementation = spec.implementation or JoinImplementation.DOUBLE_PIPELINED.value
    common = dict(
        left_keys=left_keys,
        right_keys=right_keys,
        estimated_cardinality=spec.estimated_cardinality,
    )
    if implementation == JoinImplementation.DOUBLE_PIPELINED.value:
        return DoublePipelinedJoin(
            spec.operator_id,
            context,
            children[0],
            children[1],
            memory_limit_bytes=spec.memory_limit_bytes,
            overflow_method=spec.params.get("overflow_method", "left_flush"),
            **common,
        )
    if implementation == JoinImplementation.HYBRID_HASH.value:
        return HybridHashJoin(
            spec.operator_id,
            context,
            children[0],
            children[1],
            memory_limit_bytes=spec.memory_limit_bytes,
            **common,
        )
    if implementation == JoinImplementation.NESTED_LOOPS.value:
        return NestedLoopsJoin(
            spec.operator_id, context, children[0], children[1], **common
        )
    raise PlanError(f"unknown join implementation {implementation!r}")


def _checked_lane_count(spec: OperatorSpec, lanes) -> int:
    if isinstance(lanes, bool) or not isinstance(lanes, int):
        raise PlanError(f"exchange {spec.operator_id!r}: lane count must be an int, got {lanes!r}")
    if lanes < 1:
        raise PlanError(f"exchange {spec.operator_id!r}: lane count must be >= 1, got {lanes}")
    return lanes


def _is_partitionable(spec: OperatorSpec) -> bool:
    """Can ``EngineConfig(exchange_lanes=N)`` wrap this node in an exchange?

    Hash joins partition on their equi-join keys; the dynamic collector
    partitions on its dedup keys (each lane then deduplicates its own hash
    class, which together cover the whole stream).  Everything else — scans,
    nested loops, dependent joins — runs serial.
    """
    if spec.operator_type == OperatorType.JOIN:
        implementation = spec.implementation or JoinImplementation.DOUBLE_PIPELINED.value
        return implementation in _PARTITIONABLE_JOINS
    if spec.operator_type == OperatorType.COLLECTOR:
        return bool(spec.params.get("dedup_keys"))
    return False


def _build_partitioned(spec: OperatorSpec, context: ExecutionContext, lanes: int) -> Operator:
    """Wrap ``spec`` in an :class:`Exchange` running ``lanes`` copies of it.

    Each input subtree is built on its own worker clock (derived from the
    consumer's context) so producer scan/network time overlaps lane CPU; the
    lane subtrees themselves are built lazily by the factory passed to the
    exchange, one per lane on that lane's clock, with the operator's memory
    allotment split across the lanes as individual broker leases.
    """
    if lanes == 1 or not _is_partitionable(spec):
        # Nothing to parallelize: build the plain serial form.
        return build_operator(spec, context, validate=False)
    producers = [
        build_operator(child, context.derive_worker(f"{spec.operator_id}.in{index}"), validate=False)
        for index, child in enumerate(spec.children)
    ]
    estimated = spec.estimated_cardinality
    lane_estimated = max(1, estimated // lanes) if estimated else None

    if spec.operator_type == OperatorType.JOIN:
        left_keys = list(_required(spec, "left_keys"))
        right_keys = list(_required(spec, "right_keys"))
        allotments = split_allotment_across_lanes(spec.memory_limit_bytes, lanes)

        def build_join_lane(index: int, lane_context: ExecutionContext, sources) -> Operator:
            per_lane = replace(
                spec,
                operator_id=f"{spec.operator_id}.lane{index}",
                memory_limit_bytes=allotments[index],
                estimated_cardinality=lane_estimated,
            )
            return _build_join(per_lane, lane_context, sources)

        return Exchange(
            spec.operator_id,
            context,
            producers,
            partition_keys=[left_keys, right_keys],
            lanes=lanes,
            build_lane=build_join_lane,
            output_schema=producers[0].output_schema.join(producers[1].output_schema),
            estimated_cardinality=estimated,
        )

    # COLLECTOR with dedup_keys: partition every mirror by the dedup key so
    # duplicates of a row always land in the same lane's dedup table.
    dedup_keys = list(_required(spec, "dedup_keys"))
    initially_active = spec.params.get("initially_active")
    active_positions = None
    if initially_active:
        child_ids = [child.operator_id for child in spec.children]
        try:
            active_positions = [child_ids.index(child_id) for child_id in initially_active]
        except ValueError as exc:
            raise PlanError(
                f"collector {spec.operator_id!r}: initially_active names unknown child"
            ) from exc
    fallback = _as_bool(spec.params.get("fallback_on_failure", True))
    dedup_budget = spec.params.get("dedup_budget_bytes")
    lane_budget = max(1, int(dedup_budget) // lanes) if dedup_budget else None

    def build_collector_lane(index: int, lane_context: ExecutionContext, sources) -> Operator:
        active = (
            [sources[position].operator_id for position in active_positions]
            if active_positions is not None
            else None
        )
        return DynamicCollector(
            f"{spec.operator_id}.lane{index}",
            lane_context,
            list(sources),
            initially_active=active,
            fallback_on_failure=fallback,
            dedup_keys=dedup_keys,
            estimated_cardinality=lane_estimated,
            dedup_budget_bytes=lane_budget,
        )

    schema = producers[0].output_schema
    for producer in producers[1:]:
        schema = merge_union_schema(schema, producer.output_schema)
    return Exchange(
        spec.operator_id,
        context,
        producers,
        partition_keys=[dedup_keys for _ in producers],
        lanes=lanes,
        build_lane=build_collector_lane,
        output_schema=schema,
        estimated_cardinality=estimated,
    )


def _required(spec: OperatorSpec, key: str):
    try:
        return spec.params[key]
    except KeyError:
        raise PlanError(
            f"operator {spec.operator_id!r} ({spec.operator_type.value}) is missing "
            f"required parameter {key!r}"
        ) from None


def _optional_float(value) -> float | None:
    if value in (None, ""):
        return None
    return float(value)


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).lower() in ("true", "1", "yes")
