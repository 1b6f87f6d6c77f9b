"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import ExecutionContext
from repro.engine.operators.joins.double_pipelined import DoublePipelinedJoin
from repro.engine.operators.joins.hybrid_hash import HybridHashJoin
from repro.engine.operators.scan import WrapperScan
from repro.network.profiles import NetworkProfile, lan
from repro.network.source import DataSource
from repro.plan.physical import OverflowMethod
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import BucketedHashTable
from repro.storage.memory import MemoryBudget
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import ScriptedProfile, drive_join

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

keys = st.integers(min_value=0, max_value=20)
payloads = st.text(alphabet="abcdef", min_size=0, max_size=4)
pair_lists = st.lists(st.tuples(keys, payloads), min_size=0, max_size=40)

LEFT_SCHEMA = Schema.of("l.k:int", "l.p:str")
RIGHT_SCHEMA = Schema.of("r.k:int", "r.q:str")


def to_relation(name: str, schema: Schema, pairs: list[tuple[int, str]]) -> Relation:
    return Relation(name, schema, (Row(schema, pair) for pair in pairs))


def expected_join_size(left: list[tuple[int, str]], right: list[tuple[int, str]]) -> int:
    from collections import Counter

    left_counts = Counter(k for k, _ in left)
    right_counts = Counter(k for k, _ in right)
    return sum(left_counts[k] * right_counts[k] for k in left_counts)


def join_multiset(rows) -> dict:
    counts: dict = {}
    for row in rows:
        counts[row.values] = counts.get(row.values, 0) + 1
    return counts


def reference_pairs(left, right):
    out: dict = {}
    for lk, lp in left:
        for rk, rq in right:
            if lk == rk:
                key = (lk, lp, rk, rq)
                out[key] = out.get(key, 0) + 1
    return out


def run_join(join_cls, left_pairs, right_pairs, **kwargs):
    catalog = DataSourceCatalog()
    catalog.register_source(
        DataSource("l", Relation("l", Schema.of("k:int", "p:str"),
                                 (Row(Schema.of("k:int", "p:str"), p) for p in left_pairs)), lan())
    )
    catalog.register_source(
        DataSource("r", Relation("r", Schema.of("k:int", "q:str"),
                                 (Row(Schema.of("k:int", "q:str"), p) for p in right_pairs)), lan())
    )
    context = ExecutionContext(catalog)
    join = join_cls(
        "join",
        context,
        WrapperScan("sl", context, "l"),
        WrapperScan("sr", context, "r"),
        ["l.k"],
        ["r.k"],
        **kwargs,
    )
    join.open()
    rows = list(join.iterate())
    join.close()
    return rows


# ---------------------------------------------------------------------------
# Storage invariants
# ---------------------------------------------------------------------------


class TestHashTableProperties:
    @given(pairs=pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_probe_returns_exactly_matching_rows(self, pairs):
        table = BucketedHashTable(["l.k"], MemoryBudget(None), SimulatedDisk(), bucket_count=8)
        for pair in pairs:
            table.insert(Row(LEFT_SCHEMA, pair))
        for key in {k for k, _ in pairs}:
            matches = table.probe((key,))
            assert len(matches) == sum(1 for k, _ in pairs if k == key)
            assert all(row["l.k"] == key for row in matches)

    @given(pairs=pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_flush_conserves_rows_and_memory(self, pairs):
        budget = MemoryBudget(None)
        disk = SimulatedDisk()
        table = BucketedHashTable(["l.k"], budget, disk, bucket_count=4)
        for pair in pairs:
            table.insert(Row(LEFT_SCHEMA, pair))
        resident_before = table.resident_rows
        table.flush_all()
        assert table.resident_rows == 0
        # Flushing releases the row bytes; only the (encoded) dictionary
        # stays charged until the table itself is released.
        assert budget.used_bytes == table.dictionary_bytes
        assert disk.stats.tuples_written == resident_before
        table.release_all()
        assert budget.used_bytes == 0

    @given(pairs=pair_lists, limit_tuples=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_resident_rows_never_exceed_budget(self, pairs, limit_tuples):
        limit = LEFT_SCHEMA.tuple_size * limit_tuples
        budget = MemoryBudget(limit)
        table = BucketedHashTable(["l.k"], budget, SimulatedDisk(), bucket_count=4)
        for pair in pairs:
            if not table.insert(Row(LEFT_SCHEMA, pair)):
                table.flush_largest_bucket()
                table.insert(Row(LEFT_SCHEMA, pair))
            # Row reservations respect the limit; dictionary growth is
            # force-charged on top (it cannot be refused row by row).
            assert budget.used_bytes <= limit + table.dictionary_bytes


class TestTimelineProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_arrival_schedules_are_monotone(self, sizes):
        profile = NetworkProfile(initial_latency_ms=10.0, bandwidth_kbps=100.0, jitter_ms=0.0)
        arrivals = profile.arrival_schedule(sizes)
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[0] >= 10.0


# ---------------------------------------------------------------------------
# Join correctness invariants
# ---------------------------------------------------------------------------


class TestJoinProperties:
    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dpj_matches_reference_multiset(self, left, right):
        rows = run_join(DoublePipelinedJoin, left, right)
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dpj_left_flush_under_pressure_matches_reference(self, left, right):
        rows = run_join(
            DoublePipelinedJoin,
            left,
            right,
            memory_limit_bytes=LEFT_SCHEMA.tuple_size * 3,
            bucket_count=4,
            overflow_method=OverflowMethod.LEFT_FLUSH,
        )
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dpj_symmetric_flush_under_pressure_matches_reference(self, left, right):
        rows = run_join(
            DoublePipelinedJoin,
            left,
            right,
            memory_limit_bytes=LEFT_SCHEMA.tuple_size * 3,
            bucket_count=4,
            overflow_method=OverflowMethod.SYMMETRIC_FLUSH,
        )
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hybrid_hash_under_pressure_matches_reference(self, left, right):
        rows = run_join(
            HybridHashJoin,
            left,
            right,
            memory_limit_bytes=RIGHT_SCHEMA.tuple_size * 3,
            bucket_count=4,
        )
        assert join_multiset(rows) == reference_pairs(left, right)

    @given(left=pair_lists, right=pair_lists)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_join_cardinality_formula(self, left, right):
        rows = run_join(DoublePipelinedJoin, left, right)
        assert len(rows) == expected_join_size(left, right)


# The run-at-a-time columnar drive against its oracles: random two-sided
# arrival timetables (ties, bursts, gaps wider than the 5 ms slack window),
# duplicate-key rates, memory limits, both overflow methods and batch sizes.

#: Inter-arrival gaps in ms: zero makes ties, the large ones exceed the slack window.
gaps = st.sampled_from([0.0, 0.0, 0.01, 0.3, 2.0, 7.0])


@st.composite
def timed_sides(draw):
    key_domain = draw(st.integers(min_value=1, max_value=12))
    sides = []
    for _ in range(2):
        size = draw(st.integers(min_value=0, max_value=70))
        side_keys = draw(
            st.lists(st.integers(0, key_domain - 1), min_size=size, max_size=size)
        )
        side_gaps = draw(st.lists(gaps, min_size=size, max_size=size))
        times, now = [], draw(st.sampled_from([0.5, 1.0, 4.0]))
        for gap in side_gaps:
            now += gap
            times.append(now)
        sides.append((side_keys, times))
    return sides


class TestRunAtATimeProperties:
    @given(
        sides=timed_sides(),
        memory=st.sampled_from([None, 400, 900, 2500]),
        method=st.sampled_from([OverflowMethod.LEFT_FLUSH, OverflowMethod.SYMMETRIC_FLUSH]),
        batch_size=st.sampled_from([1, 7, 64, 256]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_columnar_drive_equals_the_row_batch_drive(self, sides, memory, method, batch_size):
        (left_keys, left_times), (right_keys, right_times) = sides
        left = [(key, f"p{i % 5}") for i, key in enumerate(left_keys)]
        right = [(key, f"q{i}") for i, key in enumerate(right_keys)]
        catalog = DataSourceCatalog()
        for name, payload, pairs, times in (
            ("l", "p", left, left_times),
            ("r", "q", right, right_times),
        ):
            schema = Schema.of("k:int", f"{payload}:str")
            relation = Relation(name, schema, (Row(schema, pair) for pair in pairs))
            profile = ScriptedProfile(name=name, timetable=tuple(times))
            catalog.register_source(DataSource(name, relation, profile))

        def build(context):
            return DoublePipelinedJoin(
                "join",
                context,
                WrapperScan("sl", context, "l"),
                WrapperScan("sr", context, "r"),
                ["l.k"],
                ["r.k"],
                memory_limit_bytes=memory,
                bucket_count=4,
                overflow_method=method,
            )

        observed = {}
        for drive in ("columnar", "rows", "tuple"):
            rows, context, join = drive_join(build, catalog, drive, batch_size=batch_size)
            stats = context.disk.stats
            observed[drive] = (
                [(row.values, row.arrival) for row in rows],
                join.overflow_count,
                (stats.tuples_written, stats.bytes_written, stats.tuples_read, stats.total_pages),
                context.clock.now,
            )
        assert observed["columnar"] == observed["rows"]
        produced = {
            drive: sorted(values for values, _ in observed[drive][0])
            for drive in ("columnar", "tuple")
        }
        assert produced["columnar"] == produced["tuple"]
        assert join_multiset(rows) == reference_pairs(left, right)


# ---------------------------------------------------------------------------
# Relation algebra invariants
# ---------------------------------------------------------------------------


class TestRelationProperties:
    @given(pairs=pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_union_cardinality_adds(self, pairs):
        schema = Schema.of("k:int", "p:str")
        a = Relation("a", schema, (Row(schema, p) for p in pairs))
        b = Relation("b", schema, (Row(schema, p) for p in pairs))
        assert a.union(b).cardinality == 2 * len(pairs)

    @given(pairs=pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_distinct_idempotent(self, pairs):
        schema = Schema.of("k:int", "p:str")
        rel = Relation("a", schema, (Row(schema, p) for p in pairs))
        once = rel.distinct()
        twice = once.distinct()
        assert once.multiset() == twice.multiset()
        assert once.cardinality == len(set(pairs))

    @given(pairs=pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_projection_preserves_cardinality(self, pairs):
        schema = Schema.of("k:int", "p:str")
        rel = Relation("a", schema, (Row(schema, p) for p in pairs))
        assert rel.project(["k"]).cardinality == rel.cardinality
