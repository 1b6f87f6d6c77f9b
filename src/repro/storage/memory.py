"""Memory budgets, per-query pools, and the broker lease protocol.

Tukwila's optimizer assigns each operator a memory allotment (Section 3.1.1)
and the execution engine raises an ``out of memory`` event when an operator
exceeds it.  :class:`MemoryPool` is the per-query pool, and
:class:`MemoryBudget` is the slice granted to one operator.  Budgets are
byte-accounted: hash tables reserve the estimated tuple footprint for every
inserted row and release it when buckets are flushed to disk.

In the multi-query server, a pool can be backed by a server-wide *broker*
(:class:`repro.server.broker.MemoryBroker`): every bounded grant becomes a
lease negotiated with the broker, usage propagates upward so the broker's
``used_bytes`` is the live server-wide total, and the broker may *revoke*
(shrink) a lease under cross-query pressure.  A revocation that leaves the
budget over its new limit invokes the owner's ``on_revoke`` handler, which is
how the Section 4.2 overflow-resolution machinery (bucket flush to the
columnar spill path) is triggered mid-build by another query's admission.
The broker is duck-typed here (``lease`` / ``release_lease`` /
``resize_lease`` / ``note_reserve`` / ``note_release``) so the storage layer
stays import-free of the server package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import MemoryBudgetError

MB = 1024 * 1024


@dataclass
class MemoryStats:
    """High-water-mark statistics for a budget or pool."""

    reserved: int = 0
    peak: int = 0
    overflow_events: int = 0

    def reserve(self, nbytes: int) -> None:
        self.reserved += nbytes
        if self.reserved > self.peak:
            self.peak = self.reserved

    def release(self, nbytes: int) -> None:
        self.reserved = max(0, self.reserved - nbytes)


class MemoryBudget:
    """A byte-accounted allotment for a single operator.

    ``try_reserve`` returns ``False`` instead of raising when the allotment
    would be exceeded, which lets adaptive operators trigger their overflow
    strategy; ``reserve`` raises :class:`MemoryBudgetError` for operators with
    no overflow path.

    When carved from a :class:`MemoryPool`, every reserve/release is also
    reported to the pool (and, transitively, to a backing broker), so the
    ``budget.used == sum(resident_bytes)`` invariant that the spill tests
    assert per operator composes into a live server-wide total.
    """

    def __init__(
        self,
        limit_bytes: int | None,
        name: str = "operator",
        on_overflow: Callable[["MemoryBudget"], None] | None = None,
        pool: "MemoryPool | None" = None,
    ) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise MemoryBudgetError(f"memory limit must be positive, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self.name = name
        self.stats = MemoryStats()
        self.pool = pool
        self._on_overflow = on_overflow
        #: Revocation hook: called as ``on_revoke(budget)`` after the broker
        #: shrinks this budget's lease *below its current usage*.  Operators
        #: with an overflow strategy point this at their Section 4.2
        #: resolution so revocation frees real memory immediately; without a
        #: handler the shrunken limit simply makes the next ``try_reserve``
        #: fail, deferring resolution to the owner's next insert.  A handler
        #: never raises — it runs inside another session's grant; bytes it
        #: cannot free surface at the owner's own next reserve.
        self.on_revoke: Callable[["MemoryBudget"], None] | None = None
        #: Revocations applied to this budget (for stats/rule conditions).
        self.revocations = 0

    @property
    def used_bytes(self) -> int:
        return self.stats.reserved

    @property
    def available_bytes(self) -> int | None:
        if self.limit_bytes is None:
            return None
        return max(0, self.limit_bytes - self.stats.reserved)

    def would_overflow(self, nbytes: int) -> bool:
        """True when reserving ``nbytes`` more would exceed the limit."""
        if self.limit_bytes is None:
            return False
        return self.stats.reserved + nbytes > self.limit_bytes

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve ``nbytes`` if possible; on failure notify and return False."""
        if self.would_overflow(nbytes):
            self.stats.overflow_events += 1
            if self._on_overflow is not None:
                self._on_overflow(self)
            return False
        self.stats.reserve(nbytes)
        if self.pool is not None:
            self.pool._note_reserve(nbytes)
        return True

    def reserve(self, nbytes: int) -> None:
        """Reserve ``nbytes`` or raise :class:`MemoryBudgetError`."""
        if not self.try_reserve(nbytes):
            raise MemoryBudgetError(
                f"{self.name}: cannot reserve {nbytes} bytes "
                f"(used {self.stats.reserved} of {self.limit_bytes})"
            )

    def force_reserve(self, nbytes: int) -> None:
        """Reserve ``nbytes`` unconditionally, even past the limit.

        Used for metadata that cannot be refused row by row — dictionary
        entries of encoded columns, dedup key sets — so the budget's usage
        stays an honest total.  Pushing usage past the limit simply makes
        the next ``try_reserve`` fail, which is exactly the overflow signal
        the owning operator's spill strategy reacts to.
        """
        self.stats.reserve(nbytes)
        if self.pool is not None:
            self.pool._note_reserve(nbytes)

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget."""
        actual = min(nbytes, self.stats.reserved)
        self.stats.release(nbytes)
        if self.pool is not None and actual > 0:
            self.pool._note_release(actual)

    def resize(self, new_limit_bytes: int | None) -> None:
        """Change the allotment (the ``alter memory allotment`` rule action).

        On a broker-leased budget the resize is a lease renegotiation: growth
        may be granted only partially (the broker revokes other leases before
        refusing), shrinkage returns bytes to the server immediately.
        """
        if new_limit_bytes is not None and new_limit_bytes <= 0:
            raise MemoryBudgetError(f"memory limit must be positive, got {new_limit_bytes}")
        if (
            self.pool is not None
            and self.pool.broker is not None
            and self.limit_bytes is not None
            and new_limit_bytes is not None
        ):
            new_limit_bytes = self.pool._resize_lease(self, new_limit_bytes)
        self.limit_bytes = new_limit_bytes

    def revoke_to(self, new_limit_bytes: int) -> None:
        """Shrink the allotment in place (the broker's revocation path).

        Unlike :meth:`resize` this never renegotiates — the broker has
        already decided — and it *actively* resolves the resulting pressure:
        if usage now exceeds the limit and the owner registered
        :attr:`on_revoke`, the handler runs immediately (flushing buckets,
        spilling key sets) so the reclaimed bytes are real, not promised.
        """
        if new_limit_bytes < 0:
            raise MemoryBudgetError(f"memory limit must be >= 0, got {new_limit_bytes}")
        # Zero is legal here (unlike resize): a speculative lease has no
        # floor and revocation may strip it entirely.
        self.limit_bytes = new_limit_bytes
        self.revocations += 1
        if self.on_revoke is not None and self.stats.reserved > new_limit_bytes:
            self.on_revoke(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = "unbounded" if self.limit_bytes is None else f"{self.limit_bytes}B"
        return f"MemoryBudget({self.name!r}, used={self.stats.reserved}B, limit={limit})"


class MemoryPool:
    """Per-query memory pool from which operator budgets are carved.

    The pool enforces that the sum of carved budgets does not exceed the pool
    size, mirroring the optimizer's memory allocation step.  With ``broker``
    set (the multi-query server), every bounded grant is first negotiated as
    a broker lease — the broker may grant less than requested after revoking
    what it can from other queries — and reserve/release traffic is
    propagated so the broker's usage total stays live.
    """

    def __init__(
        self,
        total_bytes: int | None = None,
        name: str = "query",
        broker=None,
    ) -> None:
        if total_bytes is not None and total_bytes <= 0:
            raise MemoryBudgetError(f"pool size must be positive, got {total_bytes}")
        self.total_bytes = total_bytes
        self.name = name
        self.broker = broker
        self._granted = 0
        self._used = 0
        self._budgets: dict[str, MemoryBudget] = {}
        if broker is not None:
            broker.register_pool(self)

    @property
    def granted_bytes(self) -> int:
        return self._granted

    @property
    def used_bytes(self) -> int:
        """Live bytes reserved across every budget carved from this pool."""
        return self._used

    @property
    def budget_names(self) -> set[str]:
        """Names of the grants the pool still holds."""
        return set(self._budgets)

    @property
    def remaining_bytes(self) -> int | None:
        if self.total_bytes is None:
            return None
        return max(0, self.total_bytes - self._granted)

    # -- usage propagation (budgets report in; the broker listens) ---------------------

    def _note_reserve(self, nbytes: int) -> None:
        self._used += nbytes
        if self.broker is not None:
            self.broker.note_reserve(nbytes)

    def _note_release(self, nbytes: int) -> None:
        self._used = max(0, self._used - nbytes)
        if self.broker is not None:
            self.broker.note_release(nbytes)

    def _resize_lease(self, budget: MemoryBudget, new_limit_bytes: int) -> int:
        """Renegotiate one budget's lease with the broker; returns the new size."""
        assert self.broker is not None
        granted = self.broker.resize_lease(budget, new_limit_bytes)
        self._granted = max(0, self._granted - (budget.limit_bytes or 0)) + granted
        return granted

    # -- grants ------------------------------------------------------------------------

    def grant(
        self,
        operator_name: str,
        nbytes: int | None,
        on_overflow: Callable[[MemoryBudget], None] | None = None,
        speculative: bool = False,
    ) -> MemoryBudget:
        """Carve a budget of ``nbytes`` (or unbounded) for ``operator_name``.

        Broker-backed pools lease the bytes from the server: the grant that
        comes back may be smaller than requested when the server is under
        pressure (the broker revokes other queries' leases down to their
        floors before shrinking this request).  Unbounded grants are never
        leased — their usage still propagates, but capacity enforcement is
        only meaningful for bounded allotments.

        ``speculative`` marks the lease as prefetch-backed: granted only
        from free broker capacity (possibly zero bytes) and revoked ahead of
        every query lease.
        """
        budget = MemoryBudget(nbytes, name=operator_name, on_overflow=on_overflow, pool=self)
        if nbytes is not None:
            if self.broker is not None:
                granted = self.broker.lease(budget, nbytes, speculative=speculative)
                budget.limit_bytes = granted
                nbytes = granted
            if self.total_bytes is not None and self._granted + nbytes > self.total_bytes:
                if self.broker is not None:
                    self.broker.release_lease(budget)
                raise MemoryBudgetError(
                    f"pool {self.name!r}: cannot grant {nbytes} bytes to "
                    f"{operator_name!r}; {self.remaining_bytes} bytes remain"
                )
            self._granted += nbytes
        self._budgets[operator_name] = budget
        return budget

    def revoke(self, operator_name: str) -> None:
        """Return an operator's allotment to the pool (and its lease to the broker)."""
        budget = self._budgets.pop(operator_name, None)
        if budget is not None:
            # A bound method of the budget's owner: dropped, owner <-> budget
            # is no cycle keeping the owner's spill state alive.
            budget.on_revoke = None
            if budget.limit_bytes is not None:
                self._granted = max(0, self._granted - budget.limit_bytes)
            if self.broker is not None:
                self.broker.release_lease(budget)

    def budget(self, operator_name: str) -> MemoryBudget:
        """Look up a previously granted budget."""
        try:
            return self._budgets[operator_name]
        except KeyError:
            raise MemoryBudgetError(
                f"no budget granted to operator {operator_name!r}"
            ) from None
