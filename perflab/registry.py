"""The in-code registry: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root lists the same names (the test
suite holds the two together).  Every per-layer metric also writes down,
*before* anything is measured, the one end-to-end metric and the workloads
it is allowed to move — so a later performance or simplicity change is
checked against a stated prediction instead of against everything.  On
every workload a metric does not name, the prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("fig3a_dpj", "fig3a_hybrid", "overflow_spill", "server_mix8", "fig5_replan")


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: ``share`` (span self time / traced op time), ``count`` (exact per op,
    #: must repeat bit-identically), ``micro`` (direct call on a fixed input),
    #: ``info`` (raw twin of a calibrated number; moves nothing).
    kind: str
    #: The end-to-end metric this number should move, or ``"none"``.
    moves: str
    #: The workloads on which it should move it (empty with ``"none"``).
    on: tuple[str, ...] = ()


WORKLOADS: tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "fig3a_dpj",
        "Fig. 3a with both joins double pipelined: the DPJ's per-tuple dispatch is most of the "
        "cost, so this is where a DPJ or per-tuple hash-table change must show",
    ),
    WorkloadInfo(
        "fig3a_hybrid",
        "Same data, the two hybrid-hash plans: the DPJ does nothing here and the bulk "
        "insert_batch/gather_matches kernels do most, so it bypasses any DPJ change",
    ),
    WorkloadInfo(
        "overflow_spill",
        "Sec. 4.2.3 part x partsupp at a third of the encoded join state: the same hash tables "
        "flushed, written and re-read, the only workload where storage.disk runs",
    ),
    WorkloadInfo(
        "server_mix8",
        "Eight staggered sessions on a wide-area link: the only workload that runs the "
        "scheduler, broker revocation, cache admission and connection queueing",
    ),
    WorkloadInfo(
        "fig5_replan",
        "The seven Fig. 5 four-table joins as SQL through the front door: parser, optimizer, "
        "rules, fragments, materialize and re-optimize, plus many-to-many output assembly",
    ),
)

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "data generation + source registration + 3 warm-up ops, median of 3 set-ups; "
        "the reference computation is excluded",
    ),
    EndToEnd(
        "op_cost_p50", "ku", "lower", 0.20,
        "median cost of the timed ops (at least 40; gc.collect() between ops, untimed)",
    ),
    EndToEnd(
        "op_cost_p75", "ku", "lower", 0.25,
        "75th percentile of the same ops, the highest percentile with ten samples beyond it",
    ),
    EndToEnd(
        "virtual_ms", "virtual_ms", "lower", 0.06,
        "modelled completion time of one op: sum of its queries' completion times, "
        "the makespan on server_mix8; bit-identical across the ops of a run",
    ),
    EndToEnd(
        "virtual_ttft_ms", "virtual_ms", "lower", 0.12,
        "mean over the op's queries or sessions of admission to first output tuple",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss after the untraced pass, before references are computed or the tracer loads",
    ),
)

_DPJ_ON = ("fig3a_dpj", "overflow_spill", "server_mix8", "fig5_replan")


def _share(name: str, on: tuple[str, ...]) -> PerLayer:
    return PerLayer(name, "%", "lower", "share", "op_cost_p50", on)


def _count(
    name: str, unit: str, moves: str, on: tuple[str, ...], better: str = "lower"
) -> PerLayer:
    return PerLayer(name, unit, better, "count", moves, on)


def _micro(name: str, on: tuple[str, ...]) -> PerLayer:
    return PerLayer(name, "ku/Mrow", "lower", "micro", "op_cost_p50" if on else "none", on)


def _none(name: str, unit: str, kind: str, better: str = "lower") -> PerLayer:
    return PerLayer(name, unit, better, kind, "none")


PER_LAYER: tuple[PerLayer, ...] = (
    # harness: raw twins of the calibrated numbers, informational
    _none("harness.calib_s", "s", "info"),
    _none("harness.op_s_p50", "s", "info"),
    _none("harness.rows_per_s", "1/s", "info", better="higher"),
    _none("harness.trace_overhead_pct", "%", "info"),
    _none("harness.driver.share", "%", "share"),
    # query: parser + reformulation
    _share("query.share", ("fig5_replan",)),
    # optimizer
    _share("optimizer.share", ("fig5_replan",)),
    _count("optimizer.calls", "count", "virtual_ms", ("fig5_replan",)),
    _count("optimizer.replans", "count", "virtual_ms", ("fig5_replan",)),
    # analysis.plan_check
    _share("plan_check.share", ("fig5_replan", "server_mix8")),
    _count("plan_check.calls", "count", "op_cost_p50", ("fig5_replan", "server_mix8")),
    # engine.builder / engine.executor / plan.rules
    _share("engine.builder.share", ("fig5_replan",)),
    _share("engine.executor.share", ("fig5_replan",)),
    _count("engine.executor.fragments", "count", "virtual_ms", ("fig5_replan",)),
    _count("plan.rules.fired", "count", "virtual_ms", ("fig5_replan",)),
    # engine.operators.scan
    _share("engine.scan.share", ALL),
    _count("engine.scan.rows", "rows", "op_cost_p50", ALL),
    _count("engine.scan.batches", "count", "op_cost_p50", ALL),
    # engine.operators.joins.double_pipelined
    _share("engine.dpj.share", _DPJ_ON),
    _count("engine.dpj.rows_out", "rows", "op_cost_p50", _DPJ_ON),
    _count("engine.dpj.batches_out", "count", "op_cost_p50", _DPJ_ON),
    _count("engine.dpj.overflow_events", "count", "op_cost_p50", ("overflow_spill", "server_mix8")),
    # engine.operators.joins.hybrid_hash
    _share("engine.hybrid.share", ("fig3a_hybrid", "overflow_spill")),
    _count("engine.hybrid.rows_out", "rows", "virtual_ttft_ms", ("fig3a_hybrid",)),
    _count("engine.hybrid.overflow_events", "count", "op_cost_p50", ("overflow_spill",)),
    # engine.operators.materialize / storage.relation
    _share("engine.materialize.share", ("fig5_replan",)),
    _count("engine.materialize.rows", "rows", "peak_rss_mb", ("fig5_replan",)),
    # engine.operators.select: no workload selects
    _micro("engine.select.ku_per_mrow", ()),
    _micro("engine.select_dict.ku_per_mrow", ()),
    # engine.operators.exchange: lanes default to 1, so nothing end to end
    _none("engine.exchange.inline4.cost_ratio", "ratio", "info"),
    _none("engine.exchange.inline4.virtual_ratio", "ratio", "info"),
    # network.wrapper
    _share("network.wrapper.share", ("fig3a_hybrid",)),
    _count("network.wrapper.blocks", "count", "op_cost_p50", ("fig3a_hybrid",)),
    _count("network.wrapper.rows", "rows", "op_cost_p50", ("fig3a_hybrid",)),
    _micro("network.wrapper.fetch_columns.ku_per_mrow", ("fig3a_hybrid",)),
    # network.source
    _count("network.source.connections", "count", "virtual_ms", ("server_mix8",)),
    _count("network.source.queued_virtual_ms", "virtual_ms", "virtual_ttft_ms", ("server_mix8",)),
    # network.cache
    _share("network.cache.share", ("server_mix8",)),
    _count("network.cache.lookups", "count", "op_cost_p50", ("server_mix8",)),
    _count("network.cache.hit_rate", "ratio", "virtual_ms", ("server_mix8",), better="higher"),
    _count("network.cache.cross_session_hits", "count", "virtual_ms", ("server_mix8",),
           better="higher"),
    # network.simclock: the three addends of virtual_ms
    _count("network.simclock.cpu_ms", "virtual_ms", "virtual_ms", ALL),
    _count("network.simclock.wait_ms", "virtual_ms", "virtual_ms", ALL),
    _count("network.simclock.io_ms", "virtual_ms", "virtual_ms", ALL),
    # storage.hash_table
    _share("storage.hash_table.share", ("fig3a_hybrid", "fig3a_dpj")),
    _count("storage.hash_table.bulk_rows", "rows", "op_cost_p50", ("fig3a_hybrid",)),
    _count("storage.hash_table.per_tuple_calls", "count", "op_cost_p50", ("fig3a_dpj",)),
    _count("storage.hash_table.flushes", "count", "op_cost_p50", ("overflow_spill",)),
    _micro("storage.hash_table.insert_batch.ku_per_mrow", ("fig3a_hybrid",)),
    _micro("storage.hash_table.gather_matches.ku_per_mrow", ("fig3a_hybrid",)),
    _micro("storage.hash_table.insert_position.ku_per_mrow", ("fig3a_dpj",)),
    # storage.disk
    _share("storage.disk.share", ("overflow_spill",)),
    _count("storage.disk.tuples_written", "rows", "virtual_ms", ("overflow_spill",)),
    _count("storage.disk.tuples_read", "rows", "virtual_ms", ("overflow_spill",)),
    _count("storage.disk.bytes_written", "bytes", "virtual_ms", ("overflow_spill",)),
    _count("storage.disk.pages", "count", "virtual_ms", ("overflow_spill",)),
    _micro("storage.disk.write_columns.ku_per_mrow", ("overflow_spill",)),
    _micro("storage.disk.read_chunks.ku_per_mrow", ("overflow_spill",)),
    # storage.memory
    _count("storage.memory.peak_bytes", "bytes", "virtual_ms", ("overflow_spill", "server_mix8")),
    _count("storage.memory.overflow_events", "count", "virtual_ms",
           ("overflow_spill", "server_mix8")),
    # storage.batch / storage.columns: called too finely to span; no bypass workload
    _micro("storage.batch.take.ku_per_mrow", ALL),
    _micro("storage.columns.dict_extend.ku_per_mrow", ALL),
    # server.scheduler / server.session
    _share("server.scheduler.share", ("server_mix8",)),
    _count("server.scheduler.slices", "count", "virtual_ms", ("server_mix8",)),
    _count("server.session.elapsed_virtual_ms_p50", "virtual_ms", "virtual_ms", ("server_mix8",)),
    _count("server.session.elapsed_virtual_ms_max", "virtual_ms", "virtual_ms", ("server_mix8",)),
    # server.broker
    _count("server.broker.revocations", "count", "virtual_ms", ("server_mix8",)),
    _count("server.broker.bytes_revoked", "bytes", "virtual_ms", ("server_mix8",)),
    _count("server.broker.peak_used_bytes", "bytes", "virtual_ms", ("server_mix8",)),
    # server.prefetch: the layer is off by default, so nothing end to end
    _none("server.prefetch.cost_ratio", "ratio", "info"),
    _none("server.prefetch.makespan_virtual_ms", "virtual_ms", "count"),
    _none("server.prefetch.late_ttft_virtual_ms", "virtual_ms", "count"),
    _none("server.prefetch.session_elapsed_max_virtual_ms", "virtual_ms", "count"),
    _none("server.prefetch.blocks_published", "count", "count", better="higher"),
    _none("server.prefetch.bytes_fetched", "bytes", "count"),
    _none("server.prefetch.waste_ratio", "ratio", "count"),
    _none("server.prefetch.partial_extent_hits", "count", "count", better="higher"),
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}
PER_LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}
