"""One workload, one process: set-up, the timed pass, the checks, the metrics.

``--trace 0`` is the untraced pass every end-to-end number comes from:
three set-ups (median is ``setup_s``), then ops back to back — closed loop,
one client, single-threaded; sources and session arrivals live on the
virtual clock, so there is no real-time arrival process to open-loop — until
both the op floor (:data:`MIN_OPS`) and ``--seconds`` are met.  The kernel
is timed before and after every op; ``gc.collect()`` runs between ops,
outside the timed region.

``--trace 1`` is the short traced pass every per-layer number comes from:
ops alternating between bare (the overhead baseline and the ``harness.*``
raw twins) and with :mod:`perflab.trace` installed, then the workload's side
experiment and the microbenchmarks.

An op *fails* on an exception, a query that did not complete, a cardinality
that differs from the engine-independent reference (every op), a
result-multiset digest that differs from it (first and last op), or virtual
metrics that differ from the first op's.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

from repro.engine.context import EngineConfig

from perflab import OUT_DIR, layers, reference, trace
from perflab.calib import cost_ku, time_kernel
from perflab.registry import END_TO_END, PER_LAYER
from perflab.workloads import (
    WARMUP_OPS,
    WORKLOAD_CLASSES,
    OpResult,
    ServerMix8Speculative,
    Workload,
    drive_tree,
)

#: Floor of the timed sample: 40 ops leave ten samples beyond the 75th percentile.
MIN_OPS = 40
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Floor of bare/traced pairs in the traced pass (one op's cost swings 10-20 %
#: here, so fewer pairs cannot resolve a 25 % overhead limit), and the share
#: of ``--seconds`` the pairs may use beyond it.
TRACED_PAIRS = 15
TRACED_SECONDS_SHARE = 0.5
#: Alternating pairs of a traced pass's side experiment.
SIDE_PAIRS = 6
#: Traced ops written to the Chrome trace file (every op looks the same).
TRACE_FILE_OPS = 3


@dataclass
class RunConfig:
    workload: str
    seed: int = 42
    seconds: float = 10.0
    trace: bool = False
    #: Exact op count (local use); ``None`` = the floor plus ``seconds``.
    ops: int | None = None
    scale_factor: float = 1.0


@dataclass
class OpRecord:
    """What the runner keeps of one op after the result itself is dropped."""

    seconds: float
    cost: float
    rows: int
    error: str = ""
    cardinalities: tuple[tuple[str, int], ...] = ()
    virtual: tuple[float, float] = (0.0, 0.0)
    digests: tuple[reference.Answer, ...] | None = None


@dataclass
class Pass:
    """A sequence of timed ops with the kernel timed around each."""

    records: list[OpRecord] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)

    @property
    def costs(self) -> list[float]:
        return [r.cost for r in self.records]


def set_up(cfg: RunConfig, cls: type[Workload] | None = None) -> Workload:
    """Data generation, source registration and the warm-up ops."""
    workload = (cls or WORKLOAD_CLASSES[cfg.workload])(cfg.seed, cfg.scale_factor)
    for _ in range(WARMUP_OPS):
        workload.run_op()
    return workload


def _digests(result: OpResult) -> tuple[reference.Answer, ...]:
    return tuple(reference.digest_relation(o.relation) for o in result.outcomes)


def run_pass(
    workload: Workload,
    min_ops: int,
    seconds: float,
    exact_ops: int | None,
    after_op=None,
    before_op=None,
) -> Pass:
    """Run ops back to back until ``min_ops`` and ``seconds`` are both met
    (or exactly ``exact_ops``).  The first and the last op keep digests."""
    done = Pass()
    started = time.perf_counter()
    kernel_before = time_kernel()
    done.kernels.append(kernel_before)
    while True:
        index = len(done.records)
        result: OpResult | None = None  # the previous op's result is freed before the next runs
        gc.collect()
        if before_op is not None:
            before_op(index)
        error = ""
        op_started = time.perf_counter()
        try:
            result = workload.run_op()
        except Exception:  # noqa: BLE001 - a failed op is counted, and the run goes on
            error = traceback.format_exc()
        took = time.perf_counter() - op_started
        if after_op is not None:
            after_op(index, result, took)
        kernel_after = time_kernel()
        done.kernels.append(kernel_after)
        record = OpRecord(took, cost_ku(took, kernel_before, kernel_after), 0, error)
        if result is not None:
            record.rows = result.rows
            record.cardinalities = tuple((o.query, o.cardinality) for o in result.outcomes)
            record.virtual = (result.virtual_ms, result.virtual_ttft_ms)
            failed = [o for o in result.outcomes if not o.ok]
            if failed:
                record.error = "; ".join(
                    f"{o.query}: {o.detail or 'not completed'}" for o in failed
                )
            elif index == 0:
                record.digests = _digests(result)
        done.records.append(record)
        kernel_before = kernel_after
        count = index + 1
        if exact_ops is not None:
            if count >= exact_ops:
                break
        elif count >= min_ops and time.perf_counter() - started >= seconds:
            break
    if result is not None and len(done.records) > 1 and not done.records[-1].error:
        done.records[-1].digests = _digests(result)
    return done


def check(workload: Workload, records: list[OpRecord]) -> list[str]:
    """Per-op failure reasons (``""`` = passed) against the reference."""
    answers = {
        query.name: reference.evaluate(query, workload.database.tables)
        for query in workload.reference_queries()
    }
    first = next((r for r in records if not r.error), None)
    reasons = []
    for record in records:
        reason = record.error
        if not reason:
            for query, cardinality in record.cardinalities:
                if cardinality != answers[query].cardinality:
                    reason = f"{query}: {cardinality} rows, reference {answers[query].cardinality}"
                    break
        if not reason and record.digests is not None:
            for (query, _), digest in zip(record.cardinalities, record.digests):
                if digest != answers[query]:
                    reason = f"{query}: result multiset differs from the reference"
                    break
        if not reason and record.virtual != first.virtual:
            reason = f"virtual metrics {record.virtual} differ from the first op's {first.virtual}"
        reasons.append(reason)
    return reasons


# -- the untraced pass: end-to-end metrics ---------------------------------------------


def run_untraced(cfg: RunConfig) -> dict:
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        started = time.perf_counter()
        workload = set_up(cfg)
        setups.append(time.perf_counter() - started)
    timed = run_pass(workload, MIN_OPS, cfg.seconds, cfg.ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons = check(workload, timed.records)
    passed = next((r for r in timed.records if not r.error), timed.records[0])
    values = {
        "setup_s": statistics.median(setups),
        "op_cost_p50": statistics.median(timed.costs),
        "op_cost_p75": statistics.quantiles(timed.costs, n=4, method="inclusive")[2],
        "virtual_ms": passed.virtual[0],
        "virtual_ttft_ms": passed.virtual[1],
        "peak_rss_mb": peak_rss_mb,
    }
    return _report(
        cfg, END_TO_END, values, reasons,
        extra={
            "samples": len(timed.records),
            "costs_ku": timed.costs,
            "setups_s": setups,
            "harness": _harness(timed),
        },
    )


def _harness(done: Pass) -> dict[str, float]:
    seconds = [r.seconds for r in done.records]
    return {
        "harness.calib_s": statistics.median(done.kernels),
        "harness.op_s_p50": statistics.median(seconds),
        "harness.rows_per_s": sum(r.rows for r in done.records) / sum(seconds),
    }


# -- the traced pass: per-layer metrics --------------------------------------------------


def run_traced(cfg: RunConfig) -> dict:
    workload = set_up(cfg)
    tracer = trace.Tracer()
    op_ns: dict[int, int] = {}
    per_op_counts: list[dict[str, float]] = []

    # Untraced and traced ops alternate, so machine drift hits both sides of
    # the overhead ratio alike: even ops run bare, odd ops run with the
    # tracer installed (install/uninstall is some forty attribute stores).
    def before_op(index: int) -> None:
        if index % 2:
            tracer.install()
            tracer.op = index // 2

    def after_op(index: int, result: OpResult | None, took: float) -> None:
        if index % 2:
            tracer.uninstall()
            tracer.op = -1
            op_ns[index // 2] = int(took * 1e9)
            if result is not None:
                per_op_counts.append(layers.public_counts(result))

    try:
        both = run_pass(
            workload,
            2 * TRACED_PAIRS,
            cfg.seconds * TRACED_SECONDS_SHARE,
            None if cfg.ops is None else 2 * cfg.ops,
            after_op=after_op,
            before_op=before_op,
        )
    finally:
        tracer.uninstall()
    untraced = Pass(both.records[0::2], both.kernels)
    traced = Pass(both.records[1::2], both.kernels)
    for index, counts in enumerate(per_op_counts):
        counts.update(layers.span_counts(tracer, index))

    values: dict[str, float] = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    values.update(_harness(untraced))
    overhead = paired_ratio(untraced.costs, traced.costs) - 1.0
    values["harness.trace_overhead_pct"] = 100.0 * overhead
    values.update(layers.shares(tracer, op_ns))
    unstable = []
    if per_op_counts:
        values.update(per_op_counts[0])
        unstable = sorted(
            name for name in per_op_counts[0]
            if any(counts[name] != per_op_counts[0][name] for counts in per_op_counts[1:])
        )
    if cfg.workload in SIDE_EXPERIMENTS:
        values.update(SIDE_EXPERIMENTS[cfg.workload](cfg, workload))
    values.update(layers.run_micros())

    tracer.write_chrome_trace(OUT_DIR / f"trace-{cfg.workload}.json", cfg.workload, TRACE_FILE_OPS)
    return _report(
        cfg, PER_LAYER, values, check(workload, both.records),
        other_failures=[
            f"count metric {name} did not repeat bit-identically across traced ops"
            for name in unstable
        ],
        extra={
            "samples": len(traced.records),
            "spans": len(tracer.spans),
            "per_tuple_calls": {
                counter: calls for (op, counter), calls in sorted(tracer.counts.items()) if op == 0
            },
            "claims": claims(cfg.workload, values),
        },
    )


def paired_ratio(base: list[float], other: list[float]) -> float:
    """Median over alternating pairs of ``other / base``."""
    return statistics.median(b / a for a, b in zip(base, other))


def timed(op) -> tuple[float, object]:
    """Run ``op()`` once between two kernel runs: ``(cost in ku, result)``."""
    gc.collect()
    kernel_before = time_kernel()
    started = time.perf_counter()
    result = op()
    took = time.perf_counter() - started
    return cost_ku(took, kernel_before, time_kernel()), result


def exchange_side(cfg: RunConfig, workload: Workload) -> dict[str, float]:
    """``fig3a_dpj``'s plan at four inline exchange lanes against one."""
    costs: dict[int, list[float]] = {1: [], 4: []}
    virtual = {}
    for _ in range(SIDE_PAIRS):
        for lanes in (1, 4):
            _, spec = workload.plans()[0]
            config = EngineConfig(exchange_lanes=lanes)
            cost, (outcome, _) = timed(
                partial(drive_tree, spec, workload.catalog, config, f"lanes{lanes}", "")
            )
            costs[lanes].append(cost)
            virtual[lanes] = outcome.completion_ms
    return {
        "engine.exchange.inline4.cost_ratio": paired_ratio(costs[1], costs[4]),
        "engine.exchange.inline4.virtual_ratio": virtual[4] / virtual[1],
    }


def prefetch_side(cfg: RunConfig, workload: Workload) -> dict[str, float]:
    """``server_mix8``'s mix replayed with the speculative source layer on."""
    speculative = set_up(cfg, ServerMix8Speculative)
    default_costs, speculative_costs = [], []
    counts: dict[str, float] = {}
    for _ in range(SIDE_PAIRS):
        default_costs.append(timed(workload.run_op)[0])
        cost, result = timed(speculative.run_op)
        speculative_costs.append(cost)
        counts = layers.prefetch_counts(result, speculative.head_sessions)
    counts["server.prefetch.cost_ratio"] = paired_ratio(default_costs, speculative_costs)
    return counts


#: The one extra configuration a workload's traced pass measures, its two
#: sides alternating :data:`SIDE_PAIRS` times.  Both layers are off by
#: default, so these numbers move nothing end to end.
SIDE_EXPERIMENTS = {"fig3a_dpj": exchange_side, "server_mix8": prefetch_side}


def claims(workload: str, values: dict[str, float]) -> list[str]:
    """The workloads stress what they claim — checked by the run itself.

    Returns the violated claims.  Thresholds hold at the default scale (the
    issue's 10,000 per-tuple calls were counted at 4 MB; the recorded scale
    is 2 MB, where the same plan makes about 7,100).  The layer shares sum
    to 100 % by construction (:func:`perflab.layers.shares`).
    """
    expected = {
        "fig3a_dpj": [
            ("engine.dpj.share", ">=", 40.0),
            ("storage.hash_table.per_tuple_calls", ">=", 5000),
            ("storage.disk.tuples_written", "==", 0),
        ],
        "fig3a_hybrid": [
            ("engine.dpj.share", "==", 0.0),
            ("storage.hash_table.per_tuple_calls", "==", 0),
            ("storage.disk.tuples_written", "==", 0),
        ],
        "overflow_spill": [("storage.disk.tuples_written", ">=", 1)],
        "server_mix8": [
            ("server.broker.revocations", ">=", 1),
            ("network.cache.cross_session_hits", ">=", 1),
        ],
        "fig5_replan": [("optimizer.replans", ">=", 7)],
    }[workload]
    expected.append(("harness.trace_overhead_pct", "<=", 25.0))
    violated = []
    for name, relation, bound in expected:
        value = values[name]
        holds = {"<=": value <= bound, ">=": value >= bound, "==": value == bound}[relation]
        if not holds:
            violated.append(f"{name} = {value:.6g}, expected {relation} {bound}")
    return violated


# -- reporting -----------------------------------------------------------------------------


def _report(cfg, metrics, values, op_reasons, extra, other_failures=()) -> dict:
    """``op_reasons`` holds one entry per attempted op (``""`` = passed)."""
    failed_ops = [reason for reason in op_reasons if reason]
    failures = failed_ops + list(other_failures)
    return {
        "workload": cfg.workload,
        "seed": cfg.seed,
        "trace": int(cfg.trace),
        "scale_factor": cfg.scale_factor,
        "result": {
            "correct": not failures,
            "attempted": len(op_reasons),
            "failed": len(failed_ops),
            "metrics": {
                m.name: {"value": values[m.name], "unit": m.unit} for m in metrics
            },
        },
        "failures": failures[:10],
        **extra,
    }


def run(cfg: RunConfig) -> dict:
    """Run one workload in this process and write its detail report."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report = run_traced(cfg) if cfg.trace else run_untraced(cfg)
    detail = OUT_DIR / f"run-{cfg.workload}-trace{int(cfg.trace)}.json"
    detail.write_text(json.dumps(report, indent=1) + "\n")
    for failure in report["failures"]:
        print(f"FAILED {cfg.workload}: {failure}", file=sys.stderr)
    return report
