"""Unit tests for repro.datagen.tpcd."""

import pytest

from repro.datagen.tpcd import (
    SF1_CARDINALITIES,
    TABLE_SCHEMAS,
    TPCDGenerator,
    cardinality,
    scale_factor_for_megabytes,
)

from helpers import column_values


class TestScaling:
    def test_scale_factor_for_megabytes(self):
        assert scale_factor_for_megabytes(10) == pytest.approx(0.01)
        assert scale_factor_for_megabytes(50) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            scale_factor_for_megabytes(0)

    def test_dimension_tables_do_not_scale(self):
        assert cardinality("region", 0.001) == SF1_CARDINALITIES["region"]
        assert cardinality("nation", 10.0) == SF1_CARDINALITIES["nation"]

    def test_fact_tables_scale_linearly(self):
        assert cardinality("supplier", 0.01) == round(SF1_CARDINALITIES["supplier"] * 0.01)
        assert cardinality("orders", 0.01) == round(SF1_CARDINALITIES["orders"] * 0.01)


class TestGeneration:
    def test_requested_tables_only(self):
        db = TPCDGenerator(scale_mb=0.2).generate(["part", "supplier"])
        assert set(db.names) == {"part", "supplier"}

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            TPCDGenerator().generate(["warehouse"])

    def test_deterministic_given_seed(self):
        a = TPCDGenerator(scale_mb=0.2, seed=11).generate(["supplier"])
        b = TPCDGenerator(scale_mb=0.2, seed=11).generate(["supplier"])
        assert a["supplier"].multiset() == b["supplier"].multiset()

    def test_different_seeds_differ(self):
        a = TPCDGenerator(scale_mb=0.2, seed=1).generate(["supplier"])
        b = TPCDGenerator(scale_mb=0.2, seed=2).generate(["supplier"])
        assert a["supplier"].multiset() != b["supplier"].multiset()

    def test_schemas_match_declared(self, tiny_tpcd):
        for table in tiny_tpcd.names:
            assert tiny_tpcd[table].schema.names == TABLE_SCHEMAS[table].names

    def test_cardinality_ratios_preserved(self, tiny_tpcd):
        cards = tiny_tpcd.cardinalities()
        # partsupp ~ 4x part, orders ~ 10x customer (TPC-D ratios).
        assert cards["partsupp"] == pytest.approx(4 * cards["part"], rel=0.3)
        assert cards["orders"] == pytest.approx(10 * cards["customer"], rel=0.3)

    def test_foreign_keys_reference_parents(self, tiny_tpcd):
        nation_keys = set(column_values(tiny_tpcd["nation"], "n_nationkey"))
        assert set(column_values(tiny_tpcd["supplier"], "s_nationkey")) <= nation_keys
        assert set(column_values(tiny_tpcd["customer"], "c_nationkey")) <= nation_keys
        part_keys = set(column_values(tiny_tpcd["part"], "p_partkey"))
        assert set(column_values(tiny_tpcd["partsupp"], "ps_partkey")) <= part_keys
        customer_keys = set(column_values(tiny_tpcd["customer"], "c_custkey"))
        assert set(column_values(tiny_tpcd["orders"], "o_custkey")) <= customer_keys

    def test_primary_keys_unique(self, tiny_tpcd):
        for table, key in [
            ("region", "r_regionkey"),
            ("nation", "n_nationkey"),
            ("supplier", "s_suppkey"),
            ("customer", "c_custkey"),
            ("part", "p_partkey"),
            ("orders", "o_orderkey"),
        ]:
            rel = tiny_tpcd[table]
            assert len(set(column_values(rel, key))) == rel.cardinality

    def test_lineitem_references_orders(self):
        db = TPCDGenerator(scale_mb=0.1, seed=3).generate(["orders", "lineitem"])
        order_keys = set(column_values(db["orders"], "o_orderkey"))
        assert set(column_values(db["lineitem"], "l_orderkey")) <= order_keys

    def test_fk_skew_changes_distribution(self):
        uniform = TPCDGenerator(scale_mb=0.3, seed=5, fk_skew=0.0).generate(["orders"])
        skewed = TPCDGenerator(scale_mb=0.3, seed=5, fk_skew=1.5).generate(["orders"])
        uniform_top = max(
            column_values(uniform["orders"], "o_custkey").count(k)
            for k in set(column_values(uniform["orders"], "o_custkey"))
        )
        skewed_top = max(
            column_values(skewed["orders"], "o_custkey").count(k)
            for k in set(column_values(skewed["orders"], "o_custkey"))
        )
        assert skewed_top > uniform_top
