"""A TPC-D-style data generator (the paper's ``dbgen`` substitute).

The paper runs its experiments on scaled TPC-D data (10 MB and 50 MB,
generated with ``dbgen 1.31``).  This module generates the eight TPC-D
tables — REGION, NATION, SUPPLIER, CUSTOMER, PART, PARTSUPP, ORDERS,
LINEITEM — with the standard cardinality ratios and key/foreign-key
relationships, scaled by a megabyte target.  Absolute row widths differ from
dbgen's, but the experiments only depend on relative table sizes and join
fan-outs, which are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.distributions import ValueGenerator
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: TPC-D cardinalities at scale factor 1.0 (rows per table).
SF1_CARDINALITIES = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
}

#: Tables whose cardinality never scales (dimension tables).
FIXED_TABLES = {"region", "nation"}

REGION_SCHEMA = Schema.of("r_regionkey:int", "r_name:str", "r_comment:str")
NATION_SCHEMA = Schema.of(
    "n_nationkey:int", "n_name:str", "n_regionkey:int", "n_comment:str"
)
SUPPLIER_SCHEMA = Schema.of(
    "s_suppkey:int", "s_name:str", "s_nationkey:int", "s_phone:str", "s_acctbal:float"
)
CUSTOMER_SCHEMA = Schema.of(
    "c_custkey:int",
    "c_name:str",
    "c_nationkey:int",
    "c_mktsegment:str",
    "c_acctbal:float",
)
PART_SCHEMA = Schema.of(
    "p_partkey:int", "p_name:str", "p_brand:str", "p_type:str", "p_size:int",
    "p_retailprice:float",
)
PARTSUPP_SCHEMA = Schema.of(
    "ps_partkey:int", "ps_suppkey:int", "ps_availqty:int", "ps_supplycost:float"
)
ORDERS_SCHEMA = Schema.of(
    "o_orderkey:int",
    "o_custkey:int",
    "o_orderstatus:str",
    "o_totalprice:float",
    "o_orderdate:date",
    "o_orderpriority:str",
)
LINEITEM_SCHEMA = Schema.of(
    "l_orderkey:int",
    "l_partkey:int",
    "l_suppkey:int",
    "l_linenumber:int",
    "l_quantity:int",
    "l_extendedprice:float",
    "l_discount:float",
    "l_shipdate:date",
)

TABLE_SCHEMAS = {
    "region": REGION_SCHEMA,
    "nation": NATION_SCHEMA,
    "supplier": SUPPLIER_SCHEMA,
    "customer": CUSTOMER_SCHEMA,
    "part": PART_SCHEMA,
    "partsupp": PARTSUPP_SCHEMA,
    "orders": ORDERS_SCHEMA,
    "lineitem": LINEITEM_SCHEMA,
}

REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
MARKET_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
ORDER_STATUSES = ("F", "O", "P")
PART_BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
PART_TYPES = (
    "STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM BURNISHED NICKEL",
    "LARGE BRUSHED STEEL", "ECONOMY POLISHED BRASS", "PROMO ANODIZED STEEL",
)


def scale_factor_for_megabytes(megabytes: float) -> float:
    """Scale factor whose total data volume is roughly ``megabytes``.

    TPC-D scale factor 1.0 is defined as roughly 1 GB of raw data, so a
    10 MB database corresponds to SF 0.01 and 50 MB to SF 0.05.
    """
    if megabytes <= 0:
        raise ValueError(f"megabytes must be positive, got {megabytes}")
    return megabytes / 1000.0


def cardinality(table: str, scale_factor: float) -> int:
    """Row count for ``table`` at ``scale_factor`` (dimension tables fixed)."""
    base = SF1_CARDINALITIES[table]
    if table in FIXED_TABLES:
        return base
    return max(1, int(round(base * scale_factor)))


@dataclass
class TPCDDatabase:
    """The eight generated tables plus the parameters used to build them."""

    scale_factor: float
    seed: int
    tables: dict[str, Relation] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Relation:
        return self.tables[name]

    @property
    def names(self) -> list[str]:
        return sorted(self.tables)

    def cardinalities(self) -> dict[str, int]:
        return {name: rel.cardinality for name, rel in self.tables.items()}


class TPCDGenerator:
    """Generates a :class:`TPCDDatabase` at a given scale.

    Parameters
    ----------
    scale_mb:
        Approximate total database size in megabytes of raw TPC-D data.
        The paper uses 10 and 50; our benchmarks default to smaller scales to
        keep pure-Python runtimes reasonable while preserving table ratios.
    seed:
        RNG seed; the same seed always produces the same database.
    fk_skew:
        Zipf skew applied to foreign-key references in ORDERS and LINEITEM,
        which controls hash-bucket skew in the overflow experiments.
    """

    def __init__(self, scale_mb: float = 10.0, seed: int = 42, fk_skew: float = 0.0) -> None:
        self.scale_factor = scale_factor_for_megabytes(scale_mb)
        self.scale_mb = scale_mb
        self.seed = seed
        self.fk_skew = fk_skew

    # -- per-table generators ------------------------------------------------------

    def _region(self, gen: ValueGenerator) -> Relation:
        rows = [
            (key, name, gen.phrase(4))
            for key, name in enumerate(REGION_NAMES)
        ]
        return Relation.from_values("region", REGION_SCHEMA, rows)

    def _nation(self, gen: ValueGenerator) -> Relation:
        count = cardinality("nation", self.scale_factor)
        rows = [
            (key, gen.name("NATION", key), key % len(REGION_NAMES), gen.phrase(4))
            for key in range(count)
        ]
        return Relation.from_values("nation", NATION_SCHEMA, rows)

    def _supplier(self, gen: ValueGenerator, nation_count: int) -> Relation:
        count = cardinality("supplier", self.scale_factor)
        rows = [
            (
                key,
                gen.name("Supplier", key),
                gen.integer(0, nation_count - 1),
                f"{gen.integer(10, 34)}-{gen.integer(100, 999)}-{gen.integer(1000, 9999)}",
                gen.decimal(-999.99, 9999.99),
            )
            for key in range(1, count + 1)
        ]
        return Relation.from_values("supplier", SUPPLIER_SCHEMA, rows)

    def _customer(self, gen: ValueGenerator, nation_count: int) -> Relation:
        count = cardinality("customer", self.scale_factor)
        rows = [
            (
                key,
                gen.name("Customer", key),
                gen.integer(0, nation_count - 1),
                gen.choice(MARKET_SEGMENTS),
                gen.decimal(-999.99, 9999.99),
            )
            for key in range(1, count + 1)
        ]
        return Relation.from_values("customer", CUSTOMER_SCHEMA, rows)

    def _part(self, gen: ValueGenerator) -> Relation:
        count = cardinality("part", self.scale_factor)
        rows = [
            (
                key,
                gen.phrase(3),
                gen.choice(PART_BRANDS),
                gen.choice(PART_TYPES),
                gen.integer(1, 50),
                gen.decimal(900.0, 2000.0),
            )
            for key in range(1, count + 1)
        ]
        return Relation.from_values("part", PART_SCHEMA, rows)

    def _partsupp(self, gen: ValueGenerator, part_count: int, supplier_count: int) -> Relation:
        count = cardinality("partsupp", self.scale_factor)
        per_part = max(1, count // max(1, part_count))
        rows = []
        for part_key in range(1, part_count + 1):
            for offset in range(per_part):
                supp_key = ((part_key + offset * (part_count // per_part + 1)) % supplier_count) + 1
                rows.append(
                    (
                        part_key,
                        supp_key,
                        gen.integer(1, 9999),
                        gen.decimal(1.0, 1000.0),
                    )
                )
        return Relation.from_values("partsupp", PARTSUPP_SCHEMA, rows)

    def _orders(self, gen: ValueGenerator, customer_count: int) -> Relation:
        count = cardinality("orders", self.scale_factor)
        rows = []
        for key in range(1, count + 1):
            if self.fk_skew > 0:
                cust = gen.zipf_rank(customer_count, self.fk_skew)
            else:
                cust = gen.integer(1, customer_count)
            rows.append(
                (
                    key,
                    cust,
                    gen.choice(ORDER_STATUSES),
                    gen.decimal(1000.0, 400000.0),
                    gen.date_int(),
                    gen.choice(ORDER_PRIORITIES),
                )
            )
        return Relation.from_values("orders", ORDERS_SCHEMA, rows)

    def _lineitem(
        self,
        gen: ValueGenerator,
        order_count: int,
        part_count: int,
        supplier_count: int,
    ) -> Relation:
        count = cardinality("lineitem", self.scale_factor)
        per_order = max(1, count // max(1, order_count))
        rows = []
        for order_key in range(1, order_count + 1):
            lines = gen.integer(max(1, per_order - 2), per_order + 2)
            for line_number in range(1, lines + 1):
                if self.fk_skew > 0:
                    part_key = gen.zipf_rank(part_count, self.fk_skew)
                else:
                    part_key = gen.integer(1, part_count)
                rows.append(
                    (
                        order_key,
                        part_key,
                        gen.integer(1, supplier_count),
                        line_number,
                        gen.integer(1, 50),
                        gen.decimal(900.0, 100000.0),
                        gen.decimal(0.0, 0.1),
                        gen.date_int(),
                    )
                )
        return Relation.from_values("lineitem", LINEITEM_SCHEMA, rows)

    # -- public API ------------------------------------------------------------------

    def generate(self, tables: list[str] | None = None) -> TPCDDatabase:
        """Generate the database (optionally restricted to ``tables``).

        Restricting to the tables an experiment needs keeps generation fast;
        foreign keys still reference the full key ranges of the parent tables
        so that join selectivities are unaffected.
        """
        wanted = set(tables) if tables is not None else set(TABLE_SCHEMAS)
        unknown = wanted - set(TABLE_SCHEMAS)
        if unknown:
            raise ValueError(f"unknown TPC-D tables requested: {sorted(unknown)}")
        gen = ValueGenerator(self.seed)
        db = TPCDDatabase(scale_factor=self.scale_factor, seed=self.seed)

        nation_count = cardinality("nation", self.scale_factor)
        supplier_count = cardinality("supplier", self.scale_factor)
        customer_count = cardinality("customer", self.scale_factor)
        part_count = cardinality("part", self.scale_factor)
        orders_count = cardinality("orders", self.scale_factor)

        if "region" in wanted:
            db.tables["region"] = self._region(gen)
        if "nation" in wanted:
            db.tables["nation"] = self._nation(gen)
        if "supplier" in wanted:
            db.tables["supplier"] = self._supplier(gen, nation_count)
        if "customer" in wanted:
            db.tables["customer"] = self._customer(gen, nation_count)
        if "part" in wanted:
            db.tables["part"] = self._part(gen)
        if "partsupp" in wanted:
            db.tables["partsupp"] = self._partsupp(gen, part_count, supplier_count)
        if "orders" in wanted:
            db.tables["orders"] = self._orders(gen, customer_count)
        if "lineitem" in wanted:
            db.tables["lineitem"] = self._lineitem(
                gen, orders_count, part_count, supplier_count
            )
        return db
