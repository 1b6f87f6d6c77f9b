"""Shared helper functions for the test suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which relies on the top-level module name
``conftest`` resolving to *this directory's* conftest.  When pytest collects
from the repo root it may import ``benchmarks/conftest.py`` under that name
first, poisoning ``sys.modules`` and breaking every such import.  Keeping the
helpers in a uniquely named module makes the imports unambiguous.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.engine.context import EngineConfig, ExecutionContext
from repro.network.profiles import NetworkProfile
from repro.storage.relation import Relation
from repro.storage.schema import Schema


def make_relation(name: str, columns: list[str], values: list[tuple]) -> Relation:
    """Helper used throughout the tests to build small relations."""
    schema = Schema.of(*columns)
    return Relation.from_values(name, schema, values)


def reference_join(left: Relation, right: Relation, left_key: str, right_key: str) -> Relation:
    """Order-insensitive reference equi-join used to validate engine operators."""
    return left.qualified().join(right.qualified(), [left_key], [right_key])


def attribute_multiset(relation) -> dict:
    """Multiset of rows as (attribute -> value) sets, ignoring column order.

    Useful when comparing engine output (whose column order depends on the
    chosen join order) with a reference result.
    """
    counts: dict = {}
    for row in relation:
        key = frozenset((name.rsplit(".", 1)[-1], value) for name, value in row.as_dict().items())
        counts[key] = counts.get(key, 0) + 1
    return counts


def multiset(relation_or_rows) -> dict:
    """Value-vector multiset for order-insensitive comparisons."""
    if isinstance(relation_or_rows, Relation):
        return relation_or_rows.multiset()
    counts: dict = {}
    for row in relation_or_rows:
        counts[row.values] = counts.get(row.values, 0) + 1
    return counts


@dataclass(frozen=True)
class ScriptedProfile(NetworkProfile):
    """A network profile whose tuples arrive at an explicit timetable.

    ``timetable[i]`` is tuple ``i``'s arrival, relative to the moment the
    connection opens (ascending).  It drives real sources, wrappers and scans,
    so a test can place ties, slack-window overshoots and pauses exactly.
    """

    timetable: tuple[float, ...] = ()

    def lay_out(self, steps, jitter, count, start_ms):
        return [start_ms + offset for offset in self.timetable[:count]]


def drive_join(build, catalog, drive, batch_size=64, between_batches=None, **config):
    """Drain ``build(context)`` under one drive; returns ``(rows, context, join)``.

    ``drive`` is ``"columnar"``, ``"rows"`` (the row-batch drive) or
    ``"tuple"``.  Rows come back in production order.  The batch drives clear
    ``batch_interrupt`` after every batch, as the executor does once it has
    drained the event queue; ``between_batches(index, join)`` runs after each
    batch (revocations, inspections).
    """
    context = ExecutionContext(
        catalog, config=EngineConfig(columnar_batches=drive != "rows", **config)
    )
    join = build(context)
    join.open()
    if drive == "tuple":
        rows = list(join.iterate())
    else:
        batches = []
        while True:
            batch = join.next_batch(batch_size)
            if not batch:
                break
            batches.append(batch)
            context.batch_interrupt = False
            if between_batches is not None:
                between_batches(len(batches), join)
        rows = [row for batch in batches for row in batch]
    join.close()
    return rows, context, join


def spill_marks(context) -> tuple[int, int]:
    """``(marked, unmarked)`` spilled-row counts over every overflow file."""
    marks = [marked for file in context.disk.files.values() for _, marked in file.peek()]
    return sum(marks), len(marks) - sum(marks)


@contextmanager
def recording_calls(owner, name):
    """Record ``(args, kwargs, result)`` of every ``owner.name`` call in a
    scope (``args`` includes ``self``); yields the list being filled."""
    original = getattr(owner, name)
    calls: list[tuple] = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    setattr(owner, name, recorded)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def spill_fingerprints() -> dict:
    """What the §4.2.3 overflow workload decides and charges, plan by plan.

    ``part ⋈ partsupp`` (1 MB TPC-D, seed 7) at a third of the encoded join
    state through the double pipelined join under both overflow strategies and
    a constrained hybrid hash join, plus the left-flush plan re-keyed on
    strings: flush victims in order, spill bytes and pages, overflow events,
    the final virtual clock and the result cardinality.  Bucket identity is
    the builtin ``hash``, so the string-keyed numbers repeat only under a
    fixed ``PYTHONHASHSEED`` — callers run this in a child interpreter.
    """
    from repro.catalog.catalog import DataSourceCatalog
    from repro.datagen.tpcd import TPCDGenerator
    from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
    from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
    from repro.engine.operators.scan import WrapperScan
    from repro.network.profiles import lan
    from repro.network.source import DataSource
    from repro.plan.physical import OverflowMethod
    from repro.storage.hash_table import BucketedHashTable

    database = TPCDGenerator(scale_mb=1.0, seed=7).generate(["part", "partsupp"])
    part, partsupp = database["part"], database["partsupp"]
    part_s = Relation.from_values(
        "part_s",
        Schema.of("p_partkey:str", "p_brand:str", "p_size:int"),
        [(f"PK{r['p_partkey']:08d}", r["p_brand"], r["p_size"]) for r in part],
    )
    partsupp_s = Relation.from_values(
        "partsupp_s",
        Schema.of("ps_partkey:str", "ps_suppkey:int", "ps_supplycost:float"),
        [(f"PK{r['ps_partkey']:08d}", r["ps_suppkey"], r["ps_supplycost"]) for r in partsupp],
    )
    catalog = DataSourceCatalog()
    for relation in (part, partsupp, part_s, partsupp_s):
        catalog.register_source(DataSource(relation.name, relation, lan()))

    def run(join_cls, left, right, **kwargs):
        sources = [catalog.source(name) for name in (left, right)]
        state = sum(s.cardinality * s.exported_schema.encoded_row_size for s in sources)

        def build(context):
            return join_cls(
                "join", context, WrapperScan("l", context, left), WrapperScan("r", context, right),
                [f"{left}.p_partkey"], [f"{right}.ps_partkey"],
                memory_limit_bytes=state // 3, **kwargs,
            )

        config = dict(disk_page_read_ms=1.0, disk_page_write_ms=1.2)
        with recording_calls(BucketedHashTable, "flush_bucket") as flushes:
            rows, context, _ = drive_join(build, catalog, "columnar", **config)
        stats = context.disk.stats
        return {
            # "l8 r8 ...": the table's side (left / right / inner) and the bucket.
            "victims": " ".join(
                f"{args[0].name[5]}{args[1]}" for args, _, flushed in flushes if flushed
            ),
            "bytes_written": stats.bytes_written,
            "pages": [stats.pages_written, stats.pages_read],
            "overflow_events": context.stats.operator("join").overflow_events,
            "clock": context.clock.now,
            "rows": len(rows),
        }

    left_flush, symmetric = OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH
    return {
        "dpj_left": run(DoublePipelinedJoin, "part", "partsupp", overflow_method=left_flush),
        "dpj_symmetric": run(DoublePipelinedJoin, "part", "partsupp", overflow_method=symmetric),
        "hybrid": run(HybridHashJoin, "part", "partsupp"),
        "dpj_left_str": run(DoublePipelinedJoin, "part_s", "partsupp_s", overflow_method=left_flush),
    }
