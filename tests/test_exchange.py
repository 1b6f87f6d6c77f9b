"""Exchange / ExchangeSource: lane-count invariance, broker invariant, determinism.

The exchange promises result transparency — identical result multisets at any
lane count, read in batches or row by row — plus the server-wide memory
invariant (``broker.used == sum(resident_bytes)`` at every revocation, with
per-lane budgets as individual leases) and a fully deterministic merge
(earliest event first, lane index as the tie-break).  Where CPU bounds a
plan, four lanes finish it in at most half the virtual time of one.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import RunResult, build_deployment, run_operator_tree
from repro.catalog.catalog import DataSourceCatalog
from repro.engine.builder import build_operator
from repro.engine.context import EngineConfig, ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators import Exchange
from repro.engine.operators.exchange import ExchangeSource
from repro.engine.operators.materialize import Materialize
from repro.engine.stats import TupleTimeline
from repro.network.profiles import NetworkProfile, lan
from repro.network.source import DataSource
from repro.plan.physical import JoinImplementation, collector, join, wrapper_scan
from repro.server import QueryServer, SessionStatus
from repro.storage.batch import Batch
from repro.storage.hash_table import stable_bucket_of
from repro.storage.schema import Schema
from repro.storage.tuples import Row

from helpers import (
    iterate,
    make_relation,
    multiset,
    next_row,
    recording_calls,
    server_resident_bytes,
)

SLOW = NetworkProfile(name="slow", initial_latency_ms=40.0, bandwidth_kbps=64.0)


def run_tuple_tree(spec, catalog, engine_config=None, result_name="bench_result") -> RunResult:
    """:func:`run_operator_tree` read one row at a time, through the
    one-row step :func:`helpers.next_row`."""
    context = ExecutionContext(catalog, config=engine_config, query_name=result_name)
    root = build_operator(spec, context)
    root = Materialize(f"{result_name}-mat", context, root, result_name=result_name)
    timeline = TupleTimeline()
    root.open()
    produced = 0
    while next_row(root) is not None:
        produced += 1
        timeline.record(context.clock.now, produced)
    root.close()
    return RunResult(
        cardinality=produced,
        completion_time_ms=context.clock.now,
        time_to_first_tuple_ms=timeline.time_to_first,
        timeline=timeline,
        relation=context.local_store.get(result_name),
        context=context,
    )


#: How a run is read: in batches (the drive), or a row at a time through ``next_row``.
DRIVE_MODES = {
    "columnar": run_operator_tree,
    "tuple": run_tuple_tree,
}


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(0.25, ["lineitem", "supplier", "orders"], seed=42)


def fig3a_plan(implementation=JoinImplementation.DOUBLE_PIPELINED, memory=None, prefix=""):
    # Explicit scan ids: the auto-numbered ones depend on how many specs the
    # process built before, and the goldens below digest operator ids.
    inner = join(
        wrapper_scan("lineitem", operator_id=f"{prefix}scan_lineitem"),
        wrapper_scan("supplier", operator_id=f"{prefix}scan_supplier"),
        ["lineitem.l_suppkey"],
        ["supplier.s_suppkey"],
        implementation=implementation,
        memory_limit_bytes=memory,
        operator_id=f"{prefix}inner",
    )
    return join(
        inner,
        wrapper_scan("orders", operator_id=f"{prefix}scan_orders"),
        ["lineitem.l_orderkey"],
        ["orders.o_orderkey"],
        implementation=implementation,
        memory_limit_bytes=memory,
        operator_id=f"{prefix}outer",
    )


def run_lanes(
    deployment, lanes, implementation=JoinImplementation.DOUBLE_PIPELINED, drive="columnar"
):
    return DRIVE_MODES[drive](
        fig3a_plan(implementation),
        deployment.catalog,
        engine_config=EngineConfig(exchange_lanes=lanes),
    )


class TestLaneCountInvariance:
    @pytest.mark.parametrize("drive", sorted(DRIVE_MODES))
    def test_join_multisets_identical_at_1_2_4_lanes(self, deployment, drive):
        reference = multiset(run_lanes(deployment, 1, drive=drive).relation)
        assert reference  # the workload actually joins
        for lanes in (2, 4):
            result = run_lanes(deployment, lanes, drive=drive)
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
        reference = None
        for lanes in (1, 2, 4):
            result = DRIVE_MODES[drive](
                spec, catalog, engine_config=EngineConfig(exchange_lanes=lanes)
            )
            # Dedup must hold globally even though each lane dedups locally:
            # hash partitioning on the dedup key sends every duplicate to the
            # same lane.
            assert result.cardinality == 60
            if reference is None:
                reference = multiset(result.relation)
            else:
                assert multiset(result.relation) == reference


def run_fingerprint(result) -> tuple:
    """What a Fig-3a run decided on the virtual timeline, bit for bit: the
    output curve (arrival stamps) and every operator's counters and first /
    last output times — the lane clocks included."""
    operators = sorted(
        (
            operator_id,
            stats.tuples_produced,
            stats.tuples_consumed,
            stats.overflow_events,
            stats.time_of_first_output,
            stats.time_of_last_output,
        )
        for operator_id, stats in result.context.stats.operator_stats.items()
    )
    return (
        result.cardinality,
        result.completion_time_ms,
        result.time_to_first_tuple_ms,
        hashlib.sha256(array("d", result.timeline.times_ms).tobytes()).hexdigest()[:16],
        hashlib.sha256(repr(operators).encode()).hexdigest()[:16],
    )


class TestLaneGoldens:
    """Fig-3a (0.25 MB, seed 42) as recorded on the parent of PR 19, the last
    commit with the process backend: collapsing the exchange to one runtime,
    starting producers at their first lane open and stamping producer
    failures moved no join number.

    Re-recorded when the batch grain went 256 -> 1024 rows (cardinality,
    row values, every operator's row and overflow counts and time to first
    tuple unchanged; one-lane hybrid: the build pulls orders in one batch,
    which moves the last bit of the stamps its output rows take from the
    build side), and again when the exchange producers began ramping their
    pulls 1 -> 4 -> ... -> 1024 rows as the executor does: a lane now sees
    its first rows when the source's first rows arrive (lineitem's scan
    first outputs at 5.064 ms; 69.0 ms with 1024-row pulls) and lane work
    overlaps the source's waits — completion 108.577 -> 103.094 ms at 2
    lanes (hybrid 107.809 -> 103.026) and 106.954 -> 106.532 at 4 (hybrid
    106.702 -> 106.532).  The same re-recording left cardinality, row
    values, time to first tuple and every operator's row and overflow
    counts unchanged."""

    #: (plan, lanes, drive) -> (cardinality, completion ms, time to first
    #: tuple ms, timeline digest, operator-stats digest); the tuple drive's
    #: goldens left with that drive.
    PARENT = {
        ("dpj", 1, "columnar"): (1527, 101.80750000000016, 10.128999999999989, "6739f2364674a8ae", "23644173eb653106"),
        ("dpj", 2, "columnar"): (1527, 103.09350000000076, 5.0895, "d68e7c022f64af3f", "b3b443dc1dadf09c"),
        ("dpj", 4, "columnar"): (1527, 106.53150000000075, 5.0895, "30c790b2a22da420", "6039a852f1f4da6c"),
        ("hybrid", 1, "columnar"): (1527, 100.43950000000075, 37.82449999999968, "0c7cc389760cc609", "5a429674692cae73"),
        ("hybrid", 2, "columnar"): (1527, 103.02550000000076, 5.0895, "d68e7c022f64af3f", "7c816790fc5e1d6c"),
        ("hybrid", 4, "columnar"): (1527, 106.53150000000075, 5.0895, "30c790b2a22da420", "62cca7e6fb12ce83"),
        ("dpj-64k", 2, "columnar"): (1527, 103.09350000000076, 5.0895, "d68e7c022f64af3f", "b3b443dc1dadf09c"),
        ("dpj-64k", 4, "columnar"): (1527, 106.53150000000075, 5.0895, "30c790b2a22da420", "6039a852f1f4da6c"),
    }
    PLANS = {
        "dpj": (JoinImplementation.DOUBLE_PIPELINED, None),
        "hybrid": (JoinImplementation.HYBRID_HASH, None),
        "dpj-64k": (JoinImplementation.DOUBLE_PIPELINED, 64 * 1024),
    }

    @pytest.mark.parametrize("plan,lanes,drive", sorted(PARENT), ids=str)
    def test_reproduces_the_parent_bit_for_bit(self, deployment, plan, lanes, drive):
        implementation, memory = self.PLANS[plan]
        result = DRIVE_MODES[drive](
            fig3a_plan(implementation, memory),
            deployment.catalog,
            engine_config=EngineConfig(exchange_lanes=lanes),
        )
        assert run_fingerprint(result) == self.PARENT[plan, lanes, drive]


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
            checks.append((broker.used_bytes, server_resident_bytes(server)))

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
        assert server_resident_bytes(server) == 0

    def test_lane_results_match_serial_under_pressure(self):
        _, a1, b1, _ = self.run_contended(1)
        _, a2, b2, checks = self.run_contended(2)
        assert checks  # the parallel run also revoked (per-lane victim leases)
        assert multiset(a2.result) == multiset(a1.result)
        assert multiset(b2.result) == multiset(b1.result)


class TestPartitionedSpeedup:
    """Figure 3a's plan at 1, 2 and 4 lanes where CPU, not arrival, bounds
    it: a 1 Gbps LAN with a 1 ms set-up and 0.02 ms of CPU per tuple (on the
    default 10 Mbps link no CPU parallelism can beat data arrival)."""

    LANES = [1, 2, 4]

    #: 4 lanes at least this much below 1 lane in virtual time.
    SPEEDUP_BAR = 2.0

    @staticmethod
    def config(lanes: int) -> EngineConfig:
        return EngineConfig(exchange_lanes=lanes, per_tuple_cpu_ms=0.02)

    @pytest.fixture(scope="class")
    def cpu_bound(self):
        profile = lan(bandwidth_kbps=125000.0, initial_latency_ms=1.0)
        return build_deployment(0.5, ["lineitem", "orders", "supplier"], profile=profile, seed=42)

    @pytest.fixture(scope="class")
    def sweep(self, cpu_bound):
        return {
            lanes: run_operator_tree(
                fig3a_plan(), cpu_bound.catalog, engine_config=self.config(lanes)
            )
            for lanes in self.LANES
        }

    def test_lane_count_never_changes_the_result(self, sweep):
        reference = multiset(sweep[1].relation)
        assert reference
        for lanes in self.LANES[1:]:
            assert multiset(sweep[lanes].relation) == reference, lanes

    def test_contended_four_lane_sessions_hold_the_budget_invariant(self, cpu_bound):
        """Two sessions whose combined join memory exceeds the broker: every
        lane's budget is a lease of its own, and residency recomputed across
        all lanes matches the broker at every revocation."""
        memory = 80 * 1024
        server = QueryServer(
            cpu_bound.catalog,
            engine_config=self.config(4),
            memory_capacity_bytes=int(memory * 1.5),
        )
        server.broker.floor_bytes = 8 * 1024
        checks = []
        server.broker.on_revocation = lambda broker, record: checks.append(
            (broker.used_bytes, server_resident_bytes(server))
        )
        sessions = [
            server.submit(fig3a_plan(memory=memory, prefix="qa_"), "qa"),
            server.submit(fig3a_plan(memory=memory, prefix="qb_"), "qb", arrival_ms=200.0),
        ]
        server.run()
        for session in sessions:
            assert session.status == SessionStatus.COMPLETED, (session.session_id, session.error)
        assert checks, "the contended run was meant to force revocations"
        for used, resident in checks:
            assert used == resident

    def test_four_lanes_at_least_twice_as_fast(self, sweep):
        gain = sweep[1].completion_time_ms / sweep[4].completion_time_ms
        assert gain >= self.SPEEDUP_BAR, (sweep[1].completion_time_ms, sweep[4].completion_time_ms)


class TestLaneFailure:
    """A producer's failure, driven through the lanes: nobody sees it before it
    happened on the producer's clock, it tears down cleanly under the server,
    and a collector's standby mirror is contacted only once its policy says so
    — at 1, 2 and 4 lanes alike."""

    DROP_AFTER = 500

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_source_drop_fails_the_session_no_earlier_than_it_happened(self, lanes):
        catalog = contended_catalog()
        healthy = catalog.source("r")
        dropping = DataSource(
            "r-drop", healthy.relation, SLOW.with_overrides(drop_after_tuples=self.DROP_AFTER)
        )
        catalog.register_source(dropping)
        server = QueryServer(catalog, engine_config=EngineConfig(exchange_lanes=lanes))
        failing = server.submit(
            join(
                wrapper_scan("l", operator_id="f_scan_l"),
                wrapper_scan("r-drop", operator_id="f_scan_r"),
                ["l.id"],
                ["r.rid"],
                operator_id="f_join",
            ),
            "failing",
        )
        bystander = server.submit(contended_join("ok", memory=None), "bystander")
        server.run()

        assert failing.status == SessionStatus.FAILED
        assert "failed after 500 tuples" in failing.error
        # The last tuple the source delivered had to arrive first ...
        failed_at = failing.context.clock.now
        assert failed_at >= dropping.timetable(0.0)[self.DROP_AFTER - 1]
        # ... and under lanes the failure happened on the producer's own clock.
        if lanes > 1:
            assert failed_at >= server.clock.session_clocks["failing/f_join.in1"].now
        assert bystander.status == SessionStatus.COMPLETED
        assert bystander.result_cardinality == 1200
        assert server.broker.used_bytes == 0
        # No lane or producer clock is left on the timeline: an active one
        # would hold the frontier below the makespan.
        assert server.clock.frontier == server.clock.completion_ms

    def bib_catalog(self, drop_after=None) -> DataSourceCatalog:
        bib = [(i, f"title{i}") for i in range(600)]
        catalog = DataSourceCatalog()
        for name, profile in (
            ("bib-main", SLOW.with_overrides(drop_after_tuples=drop_after)),
            ("bib-mirror", SLOW),
        ):
            relation = make_relation("bib", ["isbn:int", "title:str"], bib)
            catalog.register_source(DataSource(name, relation, profile))
        return catalog

    def bib_spec(self):
        spec = collector(
            [
                wrapper_scan("bib-main", operator_id="scan_main"),
                wrapper_scan("bib-mirror", operator_id="scan_mirror"),
            ],
            operator_id="coll",
        )
        spec.params["dedup_keys"] = ["bib.isbn"]
        spec.params["initially_active"] = ["scan_main"]
        return spec

    def run_bib(self, catalog, lanes):
        return run_operator_tree(
            self.bib_spec(), catalog, engine_config=EngineConfig(exchange_lanes=lanes)
        )

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_standby_mirror_is_not_contacted_while_the_primary_is_healthy(self, lanes):
        catalog = self.bib_catalog()
        assert self.run_bib(catalog, lanes).cardinality == 600
        mirror = catalog.source("bib-mirror").stats
        assert mirror.connections_opened == mirror.tuples_sent == 0

    def test_idle_standby_mirror_does_not_hold_the_server_frontier(self):
        server = QueryServer(self.bib_catalog(), engine_config=EngineConfig(exchange_lanes=2))
        session = server.submit(self.bib_spec(), "q")
        for _ in range(6):  # the lanes' clocks pass 100 ms at the fifth step
            session.step()
        # Mid-stream: the mirror's producer clock still reads its build time,
        # and the frontier follows the lanes that are actually running.
        assert server.clock.session_clocks["q/coll.in1"].now == 0.0
        assert session.context.clock.now > 100.0
        assert server.clock.frontier > 100.0

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_fallback_mirror_is_read_only_after_the_primary_failed(self, lanes):
        catalog = self.bib_catalog(drop_after=300)
        result = self.run_bib(catalog, lanes)
        assert result.cardinality == 600
        # The mirror is opened at the failure (no earlier than the primary's
        # last output) and then needs its whole transfer, latency included.
        primary_last_output = result.context.stats.operator("scan_main").time_of_last_output
        mirror_transfer = catalog.source("bib-mirror").timetable(0.0)[-1]
        assert result.completion_time_ms >= primary_last_output + mirror_transfer


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
        config=EngineConfig(per_tuple_cpu_ms=0.0),
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
    # Routing uses the run-stable hash (lane assignment must not move with
    # PYTHONHASHSEED), not the builtin-hash bucket_of.
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
            config=EngineConfig(per_tuple_cpu_ms=0.0),
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
            emitted = list(iterate(xchg))
            xchg.close()
        lane_of = {id(source): index for index, source in lanes.items()}
        assert multiset(emitted) == multiset(batch)
        got = {}
        for (source, _, part), _, _ in routed:
            for row in part:
                got[row.values[0]] = lane_of[id(source)]
        assert [got[v] for v in range(16)] == self.PARENT_LANES[keys]


class TestStablePartitionHashing:
    """``stable_bucket_of`` is a pure function of the key *values* —
    independent of ``PYTHONHASHSEED``, interpreter run, or platform — so lane
    assignment, and with it every laned virtual-time number, repeats."""

    #: Pinned routing: a change here silently reshuffles every partitioned
    #: stream (and moves every laned virtual number).
    PINNED = {
        ((0,), 2): 1,
        ((1,), 2): 1,
        ((7,), 2): 0,
        (("tag3",), 2): 0,
        ((3.5,), 4): 1,
        ((None,), 4): 2,
        ((True,), 4): 0,
        ((42, "x"), 4): 3,
        ((7,), 8): 6,
        ((1,), 8): 3,
    }

    def test_pinned_assignments(self):
        for (key, lanes), expected in self.PINNED.items():
            assert stable_bucket_of(key, lanes) == expected, (key, lanes)

    @settings(deadline=None)
    @given(
        key=st.tuples(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.text(
                    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
                    max_size=12,
                ),
                st.none(),
                st.booleans(),
            )
        ),
        lanes=st.integers(min_value=1, max_value=16),
    )
    def test_bucket_in_range_and_deterministic(self, key, lanes):
        bucket = stable_bucket_of(key, lanes)
        assert 0 <= bucket < lanes
        assert stable_bucket_of(tuple(key), lanes) == bucket

    def test_independent_of_hash_seed(self):
        # The builtin ``hash`` for strings varies per process (PYTHONHASHSEED);
        # routing must not.  Compute assignments under two adversarial seeds
        # in fresh interpreters and require identical results.
        program = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.storage.hash_table import stable_bucket_of;"
            "keys = [(i,) for i in range(32)]"
            " + [(f'tag{i}',) for i in range(32)]"
            " + [(i / 8,) for i in range(32)] + [(None,), (True,), (False,)];"
            "print([stable_bucket_of(k, 4) for k in keys])"
        )
        outputs = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
                cwd=Path(__file__).resolve().parent.parent,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, "stable_bucket_of varied with PYTHONHASHSEED"


class TestDeterministicTieBreaking:
    def test_equal_event_times_emit_in_lane_index_order(self):
        # With zero CPU cost and identical arrivals, both lanes always share
        # the same next-event time; the merge must prefer the lower lane
        # index, so lane 0's rows all precede lane 1's.
        xchg, expected_lane = build_tie_exchange()
        xchg.open()
        emitted = [row.values[0] for row in iterate(xchg)]
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
        while next_row(drained) is not None:
            pass  # exhaust child 0 directly
        assert drained.peek_arrival() is None
        assert union.peek_arrival() is not None
