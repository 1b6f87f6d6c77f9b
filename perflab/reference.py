"""Engine-independent reference answers.

A naive evaluator over the generated relations — plain ``dict`` hash joins,
one probe pipeline per query, no import from ``repro.engine`` — that gives,
per query, the cardinality and a digest of the result *multiset* that does
not depend on row order or column order (every row is canonicalised by
qualified attribute name before it is hashed).  Rows stream through the
digest one at a time, so neither the reference answer nor an engine result
being checked is ever held as a second copy in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterable, Iterator, Sequence

#: Rows read per ``Relation.column_block`` call when digesting engine output.
DIGEST_BLOCK_ROWS = 4096

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class JoinQuery:
    """One equi-join query: relations plus ``(table, attr, table, attr)`` edges."""

    name: str
    relations: tuple[str, ...]
    predicates: tuple[tuple[str, str, str, str], ...]


@dataclass(frozen=True)
class Answer:
    """Cardinality and order-/column-order-independent multiset digest."""

    cardinality: int
    digest: str


def multiset_digest(names: Sequence[str], rows: Iterable[Sequence[Any]]) -> Answer:
    """Digest ``rows`` (value vectors laid out as ``names``) as a multiset.

    Each row is reordered by sorted attribute name, hashed, and the 64-bit
    row hashes are summed modulo 2**64 — a commutative fold, so any row
    order gives the same digest, and duplicates count.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    total = 0
    count = 0
    for values in rows:
        canonical = repr(tuple([values[i] for i in order])).encode()
        total = (total + int.from_bytes(blake2b(canonical, digest_size=8).digest(), "big")) & _MASK
        count += 1
    header = ",".join(sorted(names))
    return Answer(count, f"{blake2b(header.encode(), digest_size=4).hexdigest()}-{total:016x}")


def relation_rows(relation) -> Iterator[tuple[Any, ...]]:
    """Value tuples of a ``Relation`` read block by block through its public
    columnar accessor, so a buffered columnar result is never boxed whole."""
    start = 0
    while True:
        columns, count = relation.column_block(start, DIGEST_BLOCK_ROWS)
        if count == 0:
            return
        yield from zip(*columns)
        start += count


def digest_relation(relation) -> Answer:
    """Multiset digest of an engine result relation (qualified schema)."""
    return multiset_digest(list(relation.schema.names), relation_rows(relation))


def _qualified_names(relation) -> list[str]:
    return [f"{relation.name}.{name.rsplit('.', 1)[-1]}" for name in relation.schema.names]


def evaluate(query: JoinQuery, relations: dict[str, Any]) -> Answer:
    """Naive answer to ``query`` over base ``relations`` (name -> Relation).

    Joins left-deep in an order that keeps every step connected; each step
    probes a ``dict`` built over the incoming relation on *all* predicates
    that link it to the relations already joined.
    """
    remaining = list(query.relations)
    order = [remaining.pop(0)]
    while remaining:
        for candidate in remaining:
            if any(
                {a, c} & set(order) and candidate in (a, c) for a, _, c, _ in query.predicates
            ):
                order.append(candidate)
                remaining.remove(candidate)
                break
        else:
            raise ValueError(f"query {query.name!r} has a disconnected join graph")

    names = _qualified_names(relations[order[0]])
    stream: Iterable[tuple[Any, ...]] = (row.values for row in relations[order[0]].rows)
    for table in order[1:]:
        relation = relations[table]
        table_names = _qualified_names(relation)
        probe_at: list[int] = []
        build_at: list[int] = []
        for a, a_attr, c, c_attr in query.predicates:
            if c == table and f"{a}.{a_attr}" in names:
                probe_at.append(names.index(f"{a}.{a_attr}"))
                build_at.append(table_names.index(f"{c}.{c_attr}"))
            elif a == table and f"{c}.{c_attr}" in names:
                probe_at.append(names.index(f"{c}.{c_attr}"))
                build_at.append(table_names.index(f"{a}.{a_attr}"))
        index: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        for row in relation.rows:
            values = row.values
            index.setdefault(tuple([values[i] for i in build_at]), []).append(values)
        stream = _probe(stream, index, probe_at)
        names = names + table_names
    return multiset_digest(names, stream)


def _probe(
    stream: Iterable[tuple[Any, ...]],
    index: dict[tuple[Any, ...], list[tuple[Any, ...]]],
    probe_at: list[int],
) -> Iterator[tuple[Any, ...]]:
    for values in stream:
        for match in index.get(tuple([values[i] for i in probe_at]), ()):
            yield values + match
