"""TPC-D-style data generation and experiment workloads."""

from repro.datagen.distributions import ValueGenerator
from repro.datagen.tpcd import (
    SF1_CARDINALITIES,
    TABLE_SCHEMAS,
    TPCDDatabase,
    TPCDGenerator,
    cardinality,
    scale_factor_for_megabytes,
)
from repro.datagen.workload import (
    FK_EDGES,
    JoinEdge,
    TPCDJoinGraph,
    figure5_queries,
)

__all__ = [
    "FK_EDGES",
    "JoinEdge",
    "SF1_CARDINALITIES",
    "TABLE_SCHEMAS",
    "TPCDDatabase",
    "TPCDGenerator",
    "TPCDJoinGraph",
    "ValueGenerator",
    "cardinality",
    "figure5_queries",
    "scale_factor_for_megabytes",
]
