"""Exception hierarchy shared across the Tukwila reproduction.

Every error raised by the library derives from :class:`TukwilaError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class TukwilaError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(TukwilaError):
    """A schema is malformed or two schemas are incompatible."""


class StorageError(TukwilaError):
    """A storage-layer operation failed (relation, hash table, disk)."""


class MemoryBudgetError(StorageError):
    """An operator attempted to reserve more memory than its budget allows."""


class CatalogError(TukwilaError):
    """The data source catalog is missing or holds inconsistent metadata."""


class QueryError(TukwilaError):
    """A query is syntactically or semantically invalid."""


class ReformulationError(QueryError):
    """The reformulator could not rewrite a mediated query over the sources."""


class PlanError(TukwilaError):
    """A query execution plan is malformed."""


class RuleError(PlanError):
    """An event-condition-action rule is malformed or violates restrictions."""


class PlanValidationError(PlanError):
    """A plan failed static validation before execution.

    Carries the individual :class:`~repro.analysis.plan_check.PlanCheckFinding`
    records in ``findings`` so callers can report every violation, not just
    the first.
    """

    def __init__(self, message: str, findings: list | None = None) -> None:
        super().__init__(message)
        self.findings = list(findings or [])


class OptimizationError(TukwilaError):
    """The optimizer failed to produce a plan."""


class ExecutionError(TukwilaError):
    """The execution engine hit an unrecoverable runtime failure."""


class SourceUnavailableError(ExecutionError):
    """A data source could not be contacted or failed mid-transfer."""


class SourceTimeoutError(SourceUnavailableError):
    """A data source did not respond within its timeout."""


class MemoryOverflowError(ExecutionError):
    """An operator ran out of memory and no overflow strategy was configured."""
