"""Per-layer numbers: public-stats counts, span-derived counts and shares,
and the microbenchmarks.

Three kinds (see :class:`perflab.registry.PerLayer`):

* **count** — exact per op; read from the engine's public stats objects
  (:func:`public_counts`) or counted at a wrapped boundary
  (:func:`span_counts`).  Must repeat bit-identically from op to op.
* **share** — a layer's span self time summed over the traced ops, over
  their summed time (:func:`shares`).
* **micro** — a public function called directly on a fixed seeded input for
  :data:`MICRO_SECONDS` of timed work, reported in ``ku`` per million rows
  (:func:`run_micros`).  The input never depends on ``--seed``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.datagen.tpcd import TPCDGenerator
from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators.select import Select
from repro.catalog.catalog import DataSourceCatalog
from repro.network.simclock import SimClock
from repro.network.source import DataSource
from repro.network.wrapper import Wrapper
from repro.query.conjunctive import SelectionPredicate
from repro.storage.batch import Batch
from repro.storage.columns import DictColumn
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import BucketedHashTable, bucket_of
from repro.storage.memory import MemoryBudget

from perflab import trace
from perflab.calib import time_kernel
from perflab.workloads import OpResult

#: Timed seconds per microbenchmark, and the wall-clock cap that ends one
#: early when its untimed preparation dwarfs the timed call (opening a
#: connection per ``fetch_columns`` round, copying columns per spill round).
MICRO_SECONDS = 0.5
MICRO_WALL_SECONDS = 1.0
#: Seed and scale of the microbenchmarks' fixed input (never ``--seed``).
MICRO_SEED = 19990601
MICRO_SCALE_MB = 10.0
MICRO_BATCH_ROWS = 256

SHARE_LAYERS = {
    "query.share": "query",
    "optimizer.share": "optimizer",
    "plan_check.share": "plan_check",
    "engine.builder.share": "engine.builder",
    "engine.executor.share": "engine.executor",
    "engine.scan.share": "engine.scan",
    "engine.dpj.share": "engine.dpj",
    "engine.hybrid.share": "engine.hybrid",
    "engine.materialize.share": "engine.materialize",
    "network.wrapper.share": "network.wrapper",
    "network.cache.share": "network.cache",
    "storage.hash_table.share": "storage.hash_table",
    "storage.disk.share": "storage.disk",
    "server.scheduler.share": "server.scheduler",
}


# -- counts from the engine's public stats objects ------------------------------------


def public_counts(result: OpResult) -> dict[str, float]:
    """Exact per-op counts read from public stats objects after one op
    (server-only counts are absent, and so read 0, without a server)."""
    server = result.server
    contexts = (
        [session.context for session in server.sessions.values()]
        if server is not None
        else result.contexts
    )
    counts: dict[str, float] = {
        "network.source.connections": result.source_connections,
        "network.source.queued_virtual_ms": result.source_queued_ms,
        "optimizer.replans": sum(r.reoptimizations for r in result.query_results),
        "engine.executor.fragments": sum(len(r.stats.fragment_stats) for r in result.query_results),
        "plan.rules.fired": sum(r.stats.rules_fired for r in result.query_results),
    }
    for field in ("cpu_ms", "wait_ms", "io_ms"):
        counts[f"network.simclock.{field}"] = sum(
            getattr(context.clock.stats, field) for context in contexts
        )
    for field in ("tuples_written", "tuples_read", "bytes_written"):
        counts[f"storage.disk.{field}"] = sum(
            getattr(context.disk.stats, field) for context in contexts
        )
    counts["storage.disk.pages"] = sum(context.disk.stats.total_pages for context in contexts)

    overflow = {"DoublePipelinedJoin": 0, "HybridHashJoin": 0}
    refusals = 0
    peak = 0
    for context in contexts:
        context_peak = 0
        for operator in context.operators.values():
            kind = type(operator).__name__
            if kind in overflow:
                overflow[kind] += context.stats.operator(operator.operator_id).overflow_events
            budget = getattr(operator, "budget", None)
            if budget is not None:
                context_peak += budget.stats.peak
                refusals += budget.stats.overflow_events
        peak = max(peak, context_peak)
    counts["engine.dpj.overflow_events"] = overflow["DoublePipelinedJoin"]
    counts["engine.hybrid.overflow_events"] = overflow["HybridHashJoin"]
    counts["storage.memory.peak_bytes"] = peak
    counts["storage.memory.overflow_events"] = refusals

    if server is not None:
        stats = server.stats()
        elapsed = [s.elapsed_ms or 0.0 for s in stats.sessions]
        cache = server.source_cache.stats
        counts.update(
            {
                "network.cache.hit_rate": cache.hit_rate,
                "network.cache.cross_session_hits": stats.cross_session_cache_hits,
                "server.scheduler.slices": stats.scheduler_slices,
                "server.session.elapsed_virtual_ms_p50": statistics.median(elapsed),
                "server.session.elapsed_virtual_ms_max": max(elapsed),
                "server.broker.revocations": stats.revocations,
                "server.broker.bytes_revoked": stats.bytes_revoked,
                "server.broker.peak_used_bytes": server.broker.stats.peak_used_bytes,
            }
        )
    return counts


def prefetch_counts(result: OpResult, late_from: int) -> dict[str, float]:
    """``server.prefetch.*`` counts from one speculative replay of the mix.

    ``late_from`` is the index of the first staggered session: the late
    sessions' mean time to first tuple is the number the layer exists for,
    and the slowest session's elapsed time is what ROADMAP flags as the
    unreported cost (early sessions finishing later).
    """
    stats = result.server.stats()
    prefetch = stats.prefetch
    late = [o.ttft_ms for o in result.outcomes[late_from:] if o.ttft_ms is not None]
    fetched = prefetch.bytes_fetched
    return {
        "server.prefetch.makespan_virtual_ms": stats.makespan_ms,
        "server.prefetch.late_ttft_virtual_ms": sum(late) / len(late) if late else 0.0,
        "server.prefetch.session_elapsed_max_virtual_ms": max(
            s.elapsed_ms or 0.0 for s in stats.sessions
        ),
        "server.prefetch.blocks_published": prefetch.blocks_published,
        "server.prefetch.bytes_fetched": fetched,
        "server.prefetch.waste_ratio": prefetch.bytes_wasted / fetched if fetched else 0.0,
        "server.prefetch.partial_extent_hits": stats.partial_extent_hits,
    }


# -- counts and shares from spans -------------------------------------------------------


def span_counts(tracer: trace.Tracer, op: int) -> dict[str, float]:
    """Counts made at the wrapped boundaries during traced op ``op``."""
    counts = {
        "optimizer.calls": 0, "plan_check.calls": 0,
        "engine.scan.rows": 0, "engine.scan.batches": 0,
        "engine.dpj.rows_out": 0, "engine.dpj.batches_out": 0,
        "engine.hybrid.rows_out": 0, "engine.materialize.rows": 0,
        "network.wrapper.blocks": 0, "network.wrapper.rows": 0,
        "network.cache.lookups": 0,
        "storage.hash_table.bulk_rows": 0, "storage.hash_table.flushes": 0,
    }
    for span in tracer.spans:
        if span[trace.OP] != op:
            continue
        layer, name, rows = span[trace.LAYER], span[trace.NAME], span[trace.ROWS]
        if layer == "optimizer":
            counts["optimizer.calls"] += 1
        elif layer == "plan_check":
            counts["plan_check.calls"] += 1
        elif layer == "network.wrapper":
            if rows:
                counts["network.wrapper.blocks"] += 1
                counts["network.wrapper.rows"] += rows
        elif name == "SourceCache.lookup":
            counts["network.cache.lookups"] += 1
        elif name in ("BucketedHashTable.insert_batch", "BucketedHashTable.gather_matches"):
            counts["storage.hash_table.bulk_rows"] += rows
        elif name == "BucketedHashTable.flush_bucket":
            counts["storage.hash_table.flushes"] += 1
        elif rows and ".next_batch" in name:
            if layer == "engine.scan":
                counts["engine.scan.rows"] += rows
                counts["engine.scan.batches"] += 1
            elif layer == "engine.dpj":
                counts["engine.dpj.rows_out"] += rows
                counts["engine.dpj.batches_out"] += 1
            elif layer == "engine.hybrid":
                counts["engine.hybrid.rows_out"] += rows
            elif layer == "engine.materialize":
                counts["engine.materialize.rows"] += rows
    counts["storage.hash_table.per_tuple_calls"] = tracer.counts.get(
        (op, "storage.hash_table.per_tuple_calls"), 0
    )
    return counts


def shares(tracer: trace.Tracer, op_ns: dict[int, int]) -> dict[str, float]:
    """Each layer's share of the traced ops' time, in %.

    ``op_ns`` maps a traced op's index to its wall time.  A share is the
    layer's self time summed over the traced ops, over their summed wall
    time; the time outside every span is ``harness.driver.share``, so the
    shares sum to exactly 100 %.
    """
    totals = trace.layer_self_ns(tracer.spans)
    elapsed = sum(op_ns.values())
    out = {
        metric: 100.0 * sum(totals.get((op, layer), 0) for op in op_ns) / elapsed
        for metric, layer in SHARE_LAYERS.items()
    }
    out["harness.driver.share"] = 100.0 - sum(out.values())
    return out


# -- microbenchmarks ------------------------------------------------------------------


class _Replay(Operator):
    """Feeds prebuilt batches to the operator under test at no cost of its own."""

    def __init__(self, context: ExecutionContext, batches: list[Batch]) -> None:
        super().__init__("replay", context)
        self._batches = batches
        self._at = 0

    @property
    def output_schema(self):
        return self._batches[0].schema

    def _next_batch(self, max_rows: int) -> Batch:
        if self._at >= len(self._batches):
            return Batch.empty(self.output_schema)
        self._at += 1
        return self._batches[self._at - 1]


def _measure(round_: Callable[[], tuple[float, int]]) -> float:
    """Repeat ``round_`` (-> timed seconds, rows) for :data:`MICRO_SECONDS`
    of timed work or :data:`MICRO_WALL_SECONDS` in all; ``ku`` per million
    rows against the kernel timed before and after."""
    before = time_kernel()
    seconds, rows = 0.0, 0
    deadline = time.perf_counter() + MICRO_WALL_SECONDS
    while seconds < MICRO_SECONDS and time.perf_counter() < deadline:
        took, handled = round_()
        seconds += took
        rows += handled
    after = time_kernel()
    return seconds / ((before + after) / 2.0) / rows * 1e6


class MicroSuite:
    """The fixed input and one method per microbenchmark."""

    def __init__(self) -> None:
        database = TPCDGenerator(scale_mb=MICRO_SCALE_MB, seed=MICRO_SEED).generate(
            ["part", "partsupp"]
        )
        self.part = DataSource("part", database["part"])
        self.partsupp = DataSource("partsupp", database["partsupp"])
        self.catalog = DataSourceCatalog()
        self.catalog.register_source(self.part)
        self.catalog.register_source(self.partsupp)
        self.part_batches = self._batches(self.part)
        self.partsupp_batches = self._batches(self.partsupp)

    @staticmethod
    def _batches(source: DataSource) -> list[Batch]:
        columns, _ = source.encoded_column_cache()
        schema = source.exported_schema
        out = []
        for start in range(0, source.cardinality, MICRO_BATCH_ROWS):
            stop = min(start + MICRO_BATCH_ROWS, source.cardinality)
            out.append(
                Batch.from_columns(
                    schema, [column[start:stop] for column in columns], [0.0] * (stop - start)
                )
            )
        return out

    def _select(self, predicate: SelectionPredicate) -> float:
        def round_() -> tuple[float, int]:
            context = ExecutionContext(self.catalog)
            select = Select("select", context, _Replay(context, self.part_batches), [predicate])
            select.open()
            started = time.perf_counter()
            while select.next_batch(MICRO_BATCH_ROWS):
                pass
            took = time.perf_counter() - started
            select.close()
            return took, self.part.cardinality

        return _measure(round_)

    def select_plain(self) -> float:
        return self._select(SelectionPredicate("part", "p_size", "<", 45))

    def select_dict(self) -> float:
        return self._select(SelectionPredicate("part", "p_brand", "!=", "Brand#11"))

    def fetch_columns(self) -> float:
        def round_() -> tuple[float, int]:
            wrapper = Wrapper(self.partsupp, SimClock())
            wrapper.open()
            started = time.perf_counter()
            while wrapper.fetch_columns(MICRO_BATCH_ROWS) is not None:
                pass
            took = time.perf_counter() - started
            wrapper.close()
            return took, self.partsupp.cardinality

        return _measure(round_)

    def _table(self, source: DataSource, key: str) -> BucketedHashTable:
        return BucketedHashTable(
            [key], MemoryBudget(None), SimulatedDisk(), schema=source.exported_schema
        )

    def insert_batch(self) -> float:
        def round_() -> tuple[float, int]:
            table = self._table(self.partsupp, "partsupp.ps_partkey")
            started = time.perf_counter()
            for batch in self.partsupp_batches:
                table.insert_batch(batch)
            return time.perf_counter() - started, self.partsupp.cardinality

        return _measure(round_)

    def gather_matches(self) -> float:
        table = self._table(self.part, "part.p_partkey")
        for batch in self.part_batches:
            table.insert_batch(batch)
        probes = [batch.key_tuples([0]) for batch in self.partsupp_batches]

        def round_() -> tuple[float, int]:
            started = time.perf_counter()
            for keys in probes:
                table.gather_matches(keys)
            return time.perf_counter() - started, self.partsupp.cardinality

        return _measure(round_)

    def insert_position(self) -> float:
        rows = []
        for batch in self.partsupp_batches:
            columns, arrivals = batch.columns, batch.arrivals
            for position, key in enumerate(batch.key_tuples([0])):
                rows.append((bucket_of(key, 64), key, columns, position, arrivals[position]))

        def round_() -> tuple[float, int]:
            table = self._table(self.partsupp, "partsupp.ps_partkey")
            insert = table.insert_position
            started = time.perf_counter()
            for bucket, key, columns, position, arrival in rows:
                insert(bucket, key, columns, position, arrival)
            return time.perf_counter() - started, len(rows)

        return _measure(round_)

    def _spill_round(self, timed: str) -> tuple[float, int]:
        """Write every partsupp batch to one overflow file, then read it back;
        only the ``timed`` half (``"write"`` or ``"read"``) is on the clock."""
        chunks = [
            ([column[:] for column in batch.columns], list(batch.arrivals))
            for batch in self.partsupp_batches
        ]
        spill = SimulatedDisk().create_file(schema=self.partsupp.exported_schema)
        started = time.perf_counter()
        for columns, arrivals in chunks:
            spill.write_columns(columns, arrivals)
        wrote = time.perf_counter() - started
        started = time.perf_counter()
        rows = sum(len(chunk) for chunk in spill.read_chunks())
        read = time.perf_counter() - started
        spill.close()
        return (wrote if timed == "write" else read), rows

    def write_columns(self) -> float:
        return _measure(lambda: self._spill_round("write"))

    def read_chunks(self) -> float:
        return _measure(lambda: self._spill_round("read"))

    def batch_take(self) -> float:
        indices = list(range(0, MICRO_BATCH_ROWS, 2))
        batches = [b for b in self.part_batches if len(b) == MICRO_BATCH_ROWS]

        def round_() -> tuple[float, int]:
            started = time.perf_counter()
            for batch in batches:
                batch.take(indices)
            return time.perf_counter() - started, len(batches) * len(indices)

        return _measure(round_)

    def dict_extend(self) -> float:
        name_at = self.part.exported_schema.index_of("part.p_brand")
        _, dictionaries = self.part.encoded_column_cache()
        values = [list(batch.columns[name_at]) for batch in self.part_batches]

        def round_() -> tuple[float, int]:
            started = time.perf_counter()
            for block in values:
                DictColumn(dictionaries[name_at]).extend(block)
            return time.perf_counter() - started, self.part.cardinality

        return _measure(round_)


def run_micros() -> dict[str, float]:
    """Every ``micro``-kind per-layer metric."""
    suite = MicroSuite()
    return {
        "engine.select.ku_per_mrow": suite.select_plain(),
        "engine.select_dict.ku_per_mrow": suite.select_dict(),
        "network.wrapper.fetch_columns.ku_per_mrow": suite.fetch_columns(),
        "storage.hash_table.insert_batch.ku_per_mrow": suite.insert_batch(),
        "storage.hash_table.gather_matches.ku_per_mrow": suite.gather_matches(),
        "storage.hash_table.insert_position.ku_per_mrow": suite.insert_position(),
        "storage.disk.write_columns.ku_per_mrow": suite.write_columns(),
        "storage.disk.read_chunks.ku_per_mrow": suite.read_chunks(),
        "storage.batch.take.ku_per_mrow": suite.batch_take(),
        "storage.columns.dict_extend.ku_per_mrow": suite.dict_extend(),
    }
