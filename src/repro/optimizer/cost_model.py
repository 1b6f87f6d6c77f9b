"""The optimizer's cost model.

Costs are expressed in virtual milliseconds of *response time*, matching the
execution engine's clock: transferring tuples from sources, per-tuple CPU,
hash-table build/probe work, spill I/O when an operator's estimated build size
exceeds its memory allotment, and materialization writes.  Cardinality
estimation follows the classical System-R formulas, using catalog join
selectivities when they are known and documented defaults when they are not —
the absence of reliable selectivities is precisely what the interleaved
planning experiments exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import DataSourceCatalog
from repro.catalog.statistics import DEFAULT_JOIN_SELECTIVITY
from repro.query.conjunctive import ConjunctiveQuery, JoinPredicate


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model (all times in virtual ms)."""

    per_tuple_cpu_ms: float = 0.002
    per_tuple_build_ms: float = 0.003
    per_tuple_probe_ms: float = 0.002
    per_tuple_materialize_ms: float = 0.004
    per_tuple_spill_ms: float = 0.3
    default_transfer_rate_kbps: float = 400.0
    default_access_cost_ms: float = 50.0
    default_tuple_size_bytes: int = 64


@dataclass(frozen=True)
class CardinalityEstimate:
    """An estimated cardinality plus whether it rests on real statistics."""

    value: int
    reliable: bool


class CostModel:
    """Cardinality and cost estimation over the data source catalog."""

    def __init__(self, catalog: DataSourceCatalog, params: CostParameters | None = None) -> None:
        self.catalog = catalog
        self.params = params or CostParameters()

    # -- leaf (source) estimates ---------------------------------------------------------------

    def source_cardinality(self, source_name: str) -> CardinalityEstimate:
        """Cardinality of a source scan."""
        stats = self.catalog.statistics.source(source_name)
        if stats.has_cardinality:
            return CardinalityEstimate(stats.cardinality or 1, reliable=True)
        return CardinalityEstimate(self.catalog.statistics.default_cardinality, reliable=False)

    def source_scan_cost(self, source_name: str, cardinality: int | None = None) -> float:
        """Response-time cost of streaming one source completely (``cardinality``
        tuples, when the caller already holds :meth:`source_cardinality`)."""
        stats = self.catalog.statistics.source(source_name)
        if cardinality is None:
            cardinality = self.source_cardinality(source_name).value
        tuple_size = stats.tuple_size_bytes or self.params.default_tuple_size_bytes
        rate_kbps = stats.transfer_rate_kbps or self.params.default_transfer_rate_kbps
        access = (
            stats.access_cost_ms
            if stats.access_cost_ms is not None
            else self.params.default_access_cost_ms
        )
        transfer_ms = (cardinality * tuple_size) / (rate_kbps * 1.024)
        cpu_ms = cardinality * self.params.per_tuple_cpu_ms
        return access + transfer_ms + cpu_ms

    # -- join estimates -----------------------------------------------------------------------------

    def predicate_selectivity(self, predicate: JoinPredicate) -> tuple[float, bool]:
        """One equi-join predicate's selectivity and whether the catalog knows it."""
        registry = self.catalog.statistics
        left, right = predicate.left_qualified, predicate.right_qualified
        if registry.knows_join_selectivity(left, right):
            return registry.join_selectivity(left, right), True
        return DEFAULT_JOIN_SELECTIVITY, False

    def join_selectivity(
        self, predicates: list[JoinPredicate], left_card: int, right_card: int
    ) -> tuple[float, bool]:
        """Combined selectivity of the equi-join predicates and its reliability."""
        if not predicates:
            return 1.0, True  # cross product: "reliable" in that it needs no statistics
        selectivity, reliable = 1.0, True
        for predicate in predicates:
            factor, known = self.predicate_selectivity(predicate)
            selectivity *= factor
            reliable = reliable and known
        return selectivity, reliable

    def join_size(self, left: int, right: int, selectivity: float) -> int:
        """System-R style join size over plain tuple counts (the enumerator's inner loop)."""
        return max(1, int(left * right * selectivity))

    def join_cost_of_sizes(
        self, left: int, right: int, output: int, memory_limit_bytes: int | None,
        tuple_size_bytes: int | None = None, pipelined: bool = True,
    ) -> float:
        """Cost of performing one join given the inputs' estimated tuple counts
        (the enumerator's inner loop).

        ``pipelined`` distinguishes the double pipelined join (both inputs
        resident) from a hybrid hash join (only the smaller input resident).
        """
        params = self.params
        tuple_size = tuple_size_bytes or params.default_tuple_size_bytes
        build_tuples = left + right if pipelined else min(left, right)
        probe_tuples = left + right if pipelined else max(left, right)
        cost = (
            build_tuples * params.per_tuple_build_ms
            + probe_tuples * params.per_tuple_probe_ms
            + output * params.per_tuple_cpu_ms
        )
        if memory_limit_bytes is not None:
            needed = build_tuples * tuple_size
            if needed > memory_limit_bytes:
                spilled = (needed - memory_limit_bytes) / tuple_size
                cost += spilled * params.per_tuple_spill_ms
        return cost

    def rescan_cost(self, cardinality: int) -> float:
        """Cost of reading a materialized intermediate result back."""
        return cardinality * self.params.per_tuple_cpu_ms

    # -- query-level helpers ---------------------------------------------------------------------------

    def has_reliable_statistics(self, query: ConjunctiveQuery, primary_sources: dict[str, str]) -> bool:
        """True when every leaf cardinality and join selectivity is known."""
        for relation in query.relations:
            source = primary_sources.get(relation, relation)
            if not self.catalog.statistics.knows_cardinality(source):
                return False
        for predicate in query.join_predicates:
            if not self.catalog.statistics.knows_join_selectivity(
                predicate.left_qualified, predicate.right_qualified
            ):
                return False
        return True
