"""Exchange / ExchangeSource: lane-count invariance, broker invariant, determinism.

The exchange promises result transparency — identical result multisets at any
lane count, across all three drive modes — plus the server-wide memory
invariant (``broker.used == sum(resident_bytes)`` at every revocation, with
per-lane budgets as individual leases) and a fully deterministic merge
(earliest event first, lane index as the tie-break).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_deployment, run_operator_tree
from repro.catalog.catalog import DataSourceCatalog
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators import Exchange
from repro.engine.operators.exchange import ExchangeSource
from repro.network.profiles import NetworkProfile, lan
from repro.network.source import DataSource
from repro.plan.physical import JoinImplementation, collector, join, wrapper_scan
from repro.server import QueryServer, SessionStatus
from repro.storage.batch import Batch
from repro.storage.hash_table import stable_bucket_of
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import make_relation, multiset, recording_calls

SLOW = NetworkProfile(name="slow", initial_latency_ms=40.0, bandwidth_kbps=64.0)

#: The three drive modes (ROADMAP PR 1/2): columnar batches, row-backed
#: batches, and tuple-at-a-time.
DRIVE_MODES = {
    "columnar": {},
    "row-batch": {"columnar": False},
    "tuple": {"batch_size": None},
}


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(0.25, ["lineitem", "supplier", "orders"], seed=42)


def fig3a_plan(implementation=JoinImplementation.DOUBLE_PIPELINED, memory=None):
    inner = join(
        wrapper_scan("lineitem"),
        wrapper_scan("supplier"),
        ["lineitem.l_suppkey"],
        ["supplier.s_suppkey"],
        implementation=implementation,
        memory_limit_bytes=memory,
        operator_id="inner",
    )
    return join(
        inner,
        wrapper_scan("orders"),
        ["lineitem.l_orderkey"],
        ["orders.o_orderkey"],
        implementation=implementation,
        memory_limit_bytes=memory,
        operator_id="outer",
    )


def run_lanes(deployment, lanes, implementation=JoinImplementation.DOUBLE_PIPELINED, **drive):
    return run_operator_tree(
        fig3a_plan(implementation),
        deployment.catalog,
        engine_config=EngineConfig(exchange_lanes=lanes),
        **drive,
    )


class TestLaneCountInvariance:
    @pytest.mark.parametrize("drive", sorted(DRIVE_MODES))
    def test_join_multisets_identical_at_1_2_4_lanes(self, deployment, drive):
        kwargs = DRIVE_MODES[drive]
        reference = multiset(run_lanes(deployment, 1, **kwargs).relation)
        assert reference  # the workload actually joins
        for lanes in (2, 4):
            result = run_lanes(deployment, lanes, **kwargs)
            assert multiset(result.relation) == reference, f"{drive} @ {lanes} lanes"

    def test_hybrid_hash_lanes_match_serial(self, deployment):
        hybrid = JoinImplementation.HYBRID_HASH
        reference = multiset(run_lanes(deployment, 1, implementation=hybrid).relation)
        for lanes in (2, 4):
            result = run_lanes(deployment, lanes, implementation=hybrid)
            assert multiset(result.relation) == reference

    def test_exchange_is_inserted_only_above_one_lane(self, deployment):
        serial = run_lanes(deployment, 1)
        parallel = run_lanes(deployment, 2)
        assert not [
            op for op in serial.context.operators.values() if isinstance(op, Exchange)
        ]
        exchanges = [
            op for op in parallel.context.operators.values() if isinstance(op, Exchange)
        ]
        assert exchanges and all(len(x.lane_operators) == 2 for x in exchanges)

    @pytest.mark.parametrize("drive", sorted(DRIVE_MODES))
    def test_collector_dedup_multisets_identical_across_lanes(self, drive):
        bib = [(i, f"title{i}") for i in range(60)]
        catalog = DataSourceCatalog()
        main = make_relation("bib", ["isbn:int", "title:str"], bib)
        mirror = make_relation("bib", ["isbn:int", "title:str"], bib[20:] + bib[:10])
        catalog.register_source(DataSource("bib-main", main, lan()))
        catalog.register_source(DataSource("bib-mirror", mirror, lan()))
        spec = collector(
            [
                wrapper_scan("bib-main", operator_id="scan_main"),
                wrapper_scan("bib-mirror", operator_id="scan_mirror"),
            ],
            operator_id="coll",
        )
        spec.params["dedup_keys"] = ["bib.isbn"]
        kwargs = DRIVE_MODES[drive]
        reference = None
        for lanes in (1, 2, 4):
            result = run_operator_tree(
                spec,
                catalog,
                engine_config=EngineConfig(exchange_lanes=lanes),
                **kwargs,
            )
            # Dedup must hold globally even though each lane dedups locally:
            # hash partitioning on the dedup key sends every duplicate to the
            # same lane.
            assert result.cardinality == 60
            if reference is None:
                reference = multiset(result.relation)
            else:
                assert multiset(result.relation) == reference


def contended_catalog(rows: int = 1200) -> DataSourceCatalog:
    left = make_relation(
        "l", ["id:int", "tag:str"], [(i, f"tag{i % 7}") for i in range(rows)]
    )
    right = make_relation(
        "r", ["rid:int", "grade:str"], [(i, f"g{i % 5}") for i in range(rows)]
    )
    catalog = DataSourceCatalog()
    catalog.register_source(DataSource("l", left, SLOW))
    catalog.register_source(DataSource("r", right, SLOW))
    return catalog


def contended_join(prefix: str, memory: int):
    return join(
        wrapper_scan("l", operator_id=f"{prefix}_scan_l"),
        wrapper_scan("r", operator_id=f"{prefix}_scan_r"),
        ["l.id"],
        ["r.rid"],
        operator_id=f"{prefix}_join",
        memory_limit_bytes=memory,
    )


def resident_bytes(server) -> int:
    """Recompute resident bytes from live hash tables, lane operators included."""
    total = 0
    operators = []
    for session in server.sessions.values():
        operators.extend(session.context.operators.values())
    for operator in list(operators):
        if isinstance(operator, Exchange):
            operators.extend(operator.lane_operators)
    for operator in operators:
        for table in getattr(operator, "_tables", None) or ():
            total += table.resident_bytes
        inner = getattr(operator, "_inner_table", None)
        if inner is not None:
            total += inner.resident_bytes
    return total


class TestBrokerInvariantAcrossLanes:
    def run_contended(self, lanes: int):
        server = QueryServer(
            contended_catalog(),
            engine_config=EngineConfig(exchange_lanes=lanes),
            memory_capacity_bytes=96 * 1024,
        )
        server.broker.floor_bytes = 8 * 1024
        checks = []

        def check(broker, record):
            checks.append((broker.used_bytes, resident_bytes(server)))

        server.broker.on_revocation = check
        a = server.submit(contended_join("a", memory=80 * 1024), "a")
        b = server.submit(contended_join("b", memory=80 * 1024), "b", arrival_ms=400.0)
        server.run()
        return server, a, b, checks

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_broker_used_equals_resident_at_every_revocation(self, lanes):
        server, a, b, checks = self.run_contended(lanes)
        assert a.status == b.status == SessionStatus.COMPLETED
        assert checks, "expected broker pressure to trigger revocations"
        for broker_used, resident in checks:
            assert broker_used == resident
        # Quiescence: every lane's lease was returned at teardown.
        assert server.broker.used_bytes == 0
        assert resident_bytes(server) == 0

    def test_lane_results_match_serial_under_pressure(self):
        _, a1, b1, _ = self.run_contended(1)
        _, a2, b2, checks = self.run_contended(2)
        assert checks  # the parallel run also revoked (per-lane victim leases)
        assert multiset(a2.result) == multiset(a1.result)
        assert multiset(b2.result) == multiset(b1.result)


class _StaticProducer(Operator):
    """Leaf producer serving pre-built batches (all available immediately)."""

    def __init__(self, operator_id, context, schema, batches):
        super().__init__(operator_id, context)
        self._schema = schema
        self._batches = list(batches)

    @property
    def output_schema(self):
        return self._schema

    def peek_arrival(self):
        if self.state in ("closed", "deactivated") or not self._batches:
            return None
        return self.context.clock.now

    def _next_batch(self, max_rows):
        if not self._batches:
            return Batch.empty(self._schema)
        return self._batches.pop(0)


def build_tie_exchange():
    """Two lanes fed rows that all arrive at t=0: every merge step ties."""
    schema = Schema.of("id:int")
    context = ExecutionContext(
        DataSourceCatalog(),
        config=EngineConfig(per_tuple_cpu_ms=0.0, validate_plans=False),
        query_name="tie",
    )
    rows = [Row(schema, (value,), 0.0) for value in range(16)]
    producer = _StaticProducer(
        "src", context, schema, [Batch.from_rows(schema, rows)]
    )
    xchg = Exchange(
        "xchg",
        context,
        [producer],
        partition_keys=[["id"]],
        lanes=2,
        build_lane=lambda index, lane_context, sources: sources[0],
        output_schema=schema,
    )
    # Routing uses the process-stable hash (lane assignment must agree
    # across parent and worker processes), not the builtin-hash bucket_of.
    expected_lane = {value: stable_bucket_of((value,), 2) for value in range(16)}
    return xchg, expected_lane


class TestRoutingKeyForms:
    """Lane routing at 4 inline lanes: a one-column partition key is the bare
    column value, a composite key a tuple — and every row lands in the lane
    it was routed to when all keys were tuples (assignments recorded on the
    parent of PR 18; ``crc32`` over canonical bytes, so they hold anywhere)."""

    ROWS = [(v, f"k{v}", f"k{v % 3}") for v in range(16)]
    PARENT_LANES = {
        ("id",): [1, 3, 1, 3, 0, 2, 0, 2, 3, 1, 3, 1, 3, 1, 2, 0],
        ("name",): [3, 1, 3, 1, 2, 0, 2, 0, 1, 3, 1, 3, 1, 3, 0, 2],
        ("id", "tag"): [3, 1, 3, 3, 1, 3, 3, 1, 2, 2, 0, 2, 2, 0, 2, 2],
    }

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("keys", sorted(PARENT_LANES), ids="+".join)
    def test_rows_reach_the_lanes_the_tuple_keys_chose(self, keys, columnar):
        schema = Schema.of("id:int", "name:str", "tag:str")
        context = ExecutionContext(
            DataSourceCatalog(),
            config=EngineConfig(per_tuple_cpu_ms=0.0, validate_plans=False),
            query_name="route",
        )
        batch = Batch.from_rows(schema, [Row(schema, values, 0.0) for values in self.ROWS])
        if columnar:
            batch = Batch.from_columns(schema, batch.columns, batch.arrivals)
        lanes: dict = {}

        def build_lane(index, lane_context, sources):
            lanes[index] = sources[0]
            return sources[0]

        xchg = Exchange(
            "xchg", context, [_StaticProducer("src", context, schema, [batch])],
            partition_keys=[list(keys)], lanes=4, build_lane=build_lane, output_schema=schema,
        )
        with recording_calls(ExchangeSource, "enqueue") as routed:
            xchg.open()
            emitted = list(xchg.iterate())
            xchg.close()
        lane_of = {id(source): index for index, source in lanes.items()}
        assert multiset(emitted) == multiset(batch)
        got = {}
        for (source, _, part), _, _ in routed:
            for row in part:
                got[row.values[0]] = lane_of[id(source)]
        assert [got[v] for v in range(16)] == self.PARENT_LANES[keys]


class TestDeterministicTieBreaking:
    def test_equal_event_times_emit_in_lane_index_order(self):
        # With zero CPU cost and identical arrivals, both lanes always share
        # the same next-event time; the merge must prefer the lower lane
        # index, so lane 0's rows all precede lane 1's.
        xchg, expected_lane = build_tie_exchange()
        xchg.open()
        emitted = [row.values[0] for row in xchg.iterate()]
        xchg.close()
        lane_sequence = [expected_lane[value] for value in emitted]
        assert sorted(lane_sequence) == lane_sequence, (
            f"tie-broken emission interleaved lanes: {lane_sequence}"
        )
        # Within a lane, input order is preserved (routing is order-stable).
        for lane in (0, 1):
            in_lane = [value for value in emitted if expected_lane[value] == lane]
            assert in_lane == sorted(in_lane)

    def test_repeat_runs_are_bit_identical(self, deployment):
        first = run_lanes(deployment, 4)
        second = run_lanes(deployment, 4)
        assert [row.values for row in first.relation.rows] == [
            row.values for row in second.relation.rows
        ]
        assert first.completion_time_ms == second.completion_time_ms
        assert first.time_to_first_tuple_ms == second.time_to_first_tuple_ms


class TestExchangeStreamSemantics:
    def test_union_peek_arrival_scans_remaining_children(self, joinable_catalog):
        # Satellite regression: the union's peek must report the earliest
        # arrival across *remaining* children, not end-of-stream when the
        # current child is exhausted while later ones still hold data.
        from repro.engine.operators import Union, WrapperScan

        context = ExecutionContext(joinable_catalog, query_name="u")
        drained = WrapperScan("s0", context, "ord")
        pending = WrapperScan("s1", context, "ord")
        union = Union("u", context, [drained, pending])
        union.open()
        while drained.next() is not None:
            pass  # exhaust child 0 directly
        assert drained.peek_arrival() is None
        assert union.peek_arrival() is not None
