"""The traced pass: spans and counts recorded from outside the program.

:meth:`Tracer.install` wraps the layers' *public* callables at runtime; the
tracer owns every span, count and patch, and :meth:`Tracer.uninstall` puts
back the identical original objects.
End-to-end numbers never come from a traced run — ``--trace 0`` is its own
process, in which ``install()`` is never called — and tracing *inside* the
program is a later issue.

Boundaries are batch-granular.  Per-tuple public calls get a count-only
wrapper and no span; functions that other modules import by name are patched
in every ``repro`` module that holds a reference, because that is where they
are looked up.

A span is ``[id, parent, op, layer, name, t0_ns, t1_ns, rows]`` with the
parent taken from a stack.  Its *self time* is its duration minus the part
its children cover, and belongs to exactly one layer, so the layer shares of
an op plus the share spent outside every span sum to 100 %.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

ID, PARENT, OP, LAYER, NAME, T0, T1, ROWS = range(8)

#: Operator class -> layer for the one patch on the ``Operator`` base class.
#: A class without a row of its own (select, project, union, collector,
#: exchange) is driven by, and charged to, the executor layer.
OPERATOR_LAYERS = {
    "WrapperScan": "engine.scan",
    "TableScan": "engine.scan",
    "DoublePipelinedJoin": "engine.dpj",
    "HybridHashJoin": "engine.hybrid",
    "Materialize": "engine.materialize",
}
DEFAULT_OPERATOR_LAYER = "engine.executor"


def _batch_rows(args, kwargs, result) -> int:
    return len(result)


def _fetch_columns_rows(args, kwargs, result) -> int:
    return 0 if result is None else len(result[1])


def _insert_batch_rows(args, kwargs, result) -> int:
    start = kwargs.get("start", args[4] if len(args) > 4 else 0)
    return result - start


def _gather_matches_rows(args, kwargs, result) -> int:
    positions = kwargs.get("positions", args[2] if len(args) > 2 else None)
    return len(positions if positions is not None else args[1])


def _result_rows(args, kwargs, result) -> int:
    return result or 0


def _write_columns_rows(args, kwargs, result) -> int:
    return len(kwargs["arrivals"] if "arrivals" in kwargs else args[2])


def _write_gather_rows(args, kwargs, result) -> int:
    return len(kwargs["indices"] if "indices" in kwargs else args[3])


def span_targets() -> list[tuple[Any, str, str, Callable | None, bool]]:
    """``(owner, attribute, layer, rows_of, is_generator)`` for every span boundary."""
    from repro.analysis import plan_check
    from repro.core.interleaving import InterleavedExecutionDriver
    from repro.engine import builder
    from repro.engine.executor import QueryExecutor
    from repro.network.cache import SourceCache
    from repro.network.wrapper import Wrapper
    from repro.optimizer.optimizer import Optimizer
    from repro.query import parser
    from repro.query.reformulation import Reformulator
    from repro.server.broker import MemoryBroker
    from repro.server.prefetch import PlanAwarePrefetcher
    from repro.server.scheduler import QueryServer
    from repro.server.session import QuerySession
    from repro.storage.disk import OverflowFile
    from repro.storage.hash_table import BucketedHashTable

    table, disk = "storage.hash_table", "storage.disk"
    return [
        (parser, "parse_query", "query", None, False),
        (Reformulator, "reformulate", "query", None, False),
        (Optimizer, "optimize", "optimizer", None, False),
        (Optimizer, "reoptimize", "optimizer", None, False),
        (plan_check, "check_tree", "plan_check", None, False),
        (plan_check, "check_plan", "plan_check", None, False),
        (builder, "build_operator", "engine.builder", None, False),
        (InterleavedExecutionDriver, "run", "engine.executor", None, False),
        (QueryExecutor, "execute", "engine.executor", None, False),
        (QuerySession, "step", "engine.executor", None, False),
        (Wrapper, "fetch_columns", "network.wrapper", _fetch_columns_rows, False),
        (Wrapper, "fetch_batch", "network.wrapper", _batch_rows, False),
        (SourceCache, "lookup", "network.cache", None, False),
        (SourceCache, "fill", "network.cache", None, False),
        (SourceCache, "begin_stream", "network.cache", None, False),
        (SourceCache, "attach_follower", "network.cache", None, False),
        (BucketedHashTable, "insert_batch", table, _insert_batch_rows, False),
        (BucketedHashTable, "gather_matches", table, _gather_matches_rows, False),
        (BucketedHashTable, "flush_bucket", table, _result_rows, False),
        (BucketedHashTable, "flush_largest_bucket", table, None, False),
        (BucketedHashTable, "flush_all", table, None, False),
        (OverflowFile, "write_columns", disk, _write_columns_rows, False),
        (OverflowFile, "write_gather", disk, _write_gather_rows, False),
        (OverflowFile, "read_chunks", disk, _batch_rows, True),
        (QueryServer, "submit", "server.scheduler", None, False),
        (QueryServer, "run", "server.scheduler", None, False),
        (MemoryBroker, "lease", "server.scheduler", None, False),
        (MemoryBroker, "release_lease", "server.scheduler", None, False),
        (MemoryBroker, "resize_lease", "server.scheduler", None, False),
        (PlanAwarePrefetcher, "advance", "server.scheduler", None, False),
    ]


def count_targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, counter)`` for the per-tuple count-only wrappers."""
    from repro.engine.event_handler import EventHandler
    from repro.storage.disk import OverflowFile
    from repro.storage.hash_table import BucketedHashTable

    return [
        (BucketedHashTable, "insert_position", "storage.hash_table.per_tuple_calls"),
        (BucketedHashTable, "match_positions", "storage.hash_table.per_tuple_calls"),
        (BucketedHashTable, "spill_position", "storage.hash_table.per_tuple_calls"),
        (OverflowFile, "write_position", "storage.disk.write_position_calls"),
        (EventHandler, "process_event", "engine.event_handler.events"),
    ]


OPERATOR_METHODS = ("open", "next_batch", "next_batch_bounded", "close")


class Tracer:
    """Owns the spans, the counts and the patches of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(op, counter) -> calls`` from the count-only wrappers.
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        #: Index of the op being traced; spans between ops carry ``-1``.
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------------

    def _span(self, original, layer, name, rows_of):
        spans, stack, now, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, tracer.op, layer, name, now(), 0, 0]
            spans.append(record)
            stack.append(record[ID])
            try:
                result = original(*args, **kwargs)
            finally:
                record[T1] = now()
                stack.pop()
            if rows_of is not None:
                record[ROWS] = rows_of(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _generator_span(self, original, layer, name, rows_of):
        """Span every resumption of a generator function (one span per item)."""
        spans, stack, now, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                record = [
                    len(spans), stack[-1] if stack else -1, tracer.op, layer, name, now(), 0, 0
                ]
                spans.append(record)
                stack.append(record[ID])
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    record[T1] = now()
                    stack.pop()
                record[ROWS] = rows_of(args, kwargs, item)
                yield item

        traced.__wrapped__ = original
        return traced

    def _operator_span(self, original, method):
        """One patch on the ``Operator`` base class; the span is keyed by the
        runtime class of ``self``."""
        spans, stack, now, tracer = self.spans, self._stack, time.perf_counter_ns, self
        labels: dict[type, tuple[str, str]] = {}
        counts_rows = method.startswith("next_batch")

        def traced(operator, *args, **kwargs):
            cls = type(operator)
            label = labels.get(cls)
            if label is None:
                label = labels[cls] = (
                    OPERATOR_LAYERS.get(cls.__name__, DEFAULT_OPERATOR_LAYER),
                    f"{cls.__name__}.{method}",
                )
            record = [
                len(spans), stack[-1] if stack else -1, tracer.op, label[0], label[1], now(), 0, 0
            ]
            spans.append(record)
            stack.append(record[ID])
            try:
                result = original(operator, *args, **kwargs)
            finally:
                record[T1] = now()
                stack.pop()
            if counts_rows:
                record[ROWS] = len(result)
            return result

        traced.__wrapped__ = original
        return traced

    def _counter(self, original, counter):
        counts, tracer = self.counts, self

        def counted(*args, **kwargs):
            counts[tracer.op, counter] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, owner, attribute: str, replacement) -> None:
        """Patch a module-level function in every ``repro`` module that
        imported it by name (a ``from x import f`` binding is looked up in the
        importer's namespace, not in ``x``)."""
        original = vars(owner)[attribute]
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.split(".")[0] == "repro":
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, replacement)

    def install(self) -> "Tracer":
        from repro.engine.iterators import Operator

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, layer, rows_of, is_generator in span_targets():
            original = vars(owner)[attribute]
            name = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attribute}"
            make = self._generator_span if is_generator else self._span
            wrapper = make(original, layer, name, rows_of)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
            else:
                self._patch_everywhere(owner, attribute, wrapper)
        for method in OPERATOR_METHODS:
            self._patch(Operator, method, self._operator_span(vars(Operator)[method], method))
        for owner, attribute, counter in count_targets():
            self._patch(owner, attribute, self._counter(vars(owner)[attribute], counter))
        return self

    def uninstall(self) -> None:
        """Put back the identical original objects, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` for every live patch."""
        return list(self._patches)

    # -- export --------------------------------------------------------------------

    def write_chrome_trace(self, path: Path, workload: str, ops: int) -> None:
        """Chrome trace-event JSON of the first ``ops`` traced ops (open in
        ``chrome://tracing`` or Perfetto)."""
        origin = self.spans[0][T0] if self.spans else 0
        events = [
            {
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "ts": (span[T0] - origin) / 1000.0,
                "dur": (span[T1] - span[T0]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span[ID], "parent": span[PARENT], "op": span[OP], "rows": span[ROWS]
                },
            }
            for span in self.spans
            if span[OP] < ops
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": {"workload": workload}}) + "\n"
        )


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus what its children cover.

    Children of one parent never overlap (one thread, one stack), so the
    covered part is the plain sum of the children's durations.
    """
    own = {span[ID]: span[T1] - span[T0] for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent in own:
            own[parent] -= span[T1] - span[T0]
    return own


def layer_self_ns(spans: list[list]) -> dict[tuple[int, str], int]:
    """``(op, layer) -> summed self time in ns``."""
    own = self_times(spans)
    totals: dict[tuple[int, str], int] = defaultdict(int)
    for span in spans:
        totals[span[OP], span[LAYER]] += own[span[ID]]
    return totals
