"""Relational storage substrate: schemas, tuples, relations, hash tables.

This package provides the storage primitives the Tukwila engine is built on:

* :class:`~repro.storage.schema.Schema` / :class:`~repro.storage.schema.Attribute`
* :class:`~repro.storage.tuples.Row`
* :class:`~repro.storage.batch.Batch` — columnar (struct-of-arrays) batches
* :class:`~repro.storage.relation.Relation`
* :class:`~repro.storage.hash_table.BucketedHashTable` with spill-to-disk
* :class:`~repro.storage.disk.SimulatedDisk` with tuple/page I/O accounting
* :class:`~repro.storage.memory.MemoryPool` / :class:`~repro.storage.memory.MemoryBudget`
* :class:`~repro.storage.table_store.LocalStore` for fragment materialization
"""

from repro.storage.batch import Batch, transpose_rows
from repro.storage.columns import ColumnarPartition, build_columns, empty_columns
from repro.storage.disk import (
    DiskStats,
    OverflowFile,
    SimulatedDisk,
    SpillChunk,
    PAGE_SIZE_BYTES,
)
from repro.storage.hash_table import BucketedHashTable, Bucket, DEFAULT_BUCKET_COUNT
from repro.storage.memory import MB, MemoryBudget, MemoryPool, MemoryStats
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, Schema, TYPE_SIZES
from repro.storage.table_store import LocalStore
from repro.storage.tuples import Row, counting_row_constructions

__all__ = [
    "Attribute",
    "Batch",
    "Bucket",
    "BucketedHashTable",
    "ColumnarPartition",
    "DEFAULT_BUCKET_COUNT",
    "DiskStats",
    "LocalStore",
    "MB",
    "MemoryBudget",
    "MemoryPool",
    "MemoryStats",
    "OverflowFile",
    "PAGE_SIZE_BYTES",
    "Relation",
    "Row",
    "Schema",
    "SimulatedDisk",
    "SpillChunk",
    "TYPE_SIZES",
    "build_columns",
    "counting_row_constructions",
    "empty_columns",
    "transpose_rows",
]
