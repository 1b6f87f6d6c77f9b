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
