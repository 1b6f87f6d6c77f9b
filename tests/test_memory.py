"""Unit tests for repro.storage.memory."""

import pytest

from repro.errors import MemoryBudgetError
from repro.server.broker import MemoryBroker
from repro.storage.memory import MB, MemoryBudget, MemoryPool


class TestMemoryBudget:
    def test_reserve_and_release(self):
        budget = MemoryBudget(100)
        budget.reserve(60)
        assert budget.used_bytes == 60
        assert budget.available_bytes == 40
        budget.release(30)
        assert budget.used_bytes == 30

    def test_try_reserve_over_limit_returns_false(self):
        budget = MemoryBudget(100)
        assert budget.try_reserve(80)
        assert not budget.try_reserve(30)
        assert budget.stats.overflow_events == 1

    def test_reserve_over_limit_raises(self):
        budget = MemoryBudget(10)
        with pytest.raises(MemoryBudgetError):
            budget.reserve(20)

    def test_on_overflow_callback(self):
        calls = []
        budget = MemoryBudget(10, on_overflow=calls.append)
        budget.try_reserve(20)
        assert calls == [budget]

    def test_unlimited_budget(self):
        budget = MemoryBudget(None)
        assert budget.limit_bytes is None
        assert budget.available_bytes is None
        assert budget.try_reserve(10**9)

    def test_peak_tracking(self):
        budget = MemoryBudget(100)
        budget.reserve(70)
        budget.release(70)
        budget.reserve(10)
        assert budget.stats.peak == 70

    def test_resize(self):
        budget = MemoryBudget(10)
        budget.resize(100)
        assert budget.try_reserve(50)
        with pytest.raises(MemoryBudgetError):
            budget.resize(0)

    def test_invalid_limit(self):
        with pytest.raises(MemoryBudgetError):
            MemoryBudget(0)

    def test_release_never_goes_negative(self):
        budget = MemoryBudget(10)
        budget.release(100)
        assert budget.used_bytes == 0


class TestMemoryPool:
    def test_grant_within_pool(self):
        pool = MemoryPool(10 * MB)
        budget = pool.grant("join1", 4 * MB)
        assert budget.limit_bytes == 4 * MB
        assert pool.remaining_bytes == 6 * MB

    def test_grant_over_pool_rejected(self):
        pool = MemoryPool(MB)
        with pytest.raises(MemoryBudgetError):
            pool.grant("join1", 2 * MB)

    def test_grant_over_pool_returns_its_broker_lease(self):
        """The broker leases before the pool checks its total; a refused
        grant must give that lease back."""
        broker = MemoryBroker()
        pool = MemoryPool(MB, broker=broker)
        pool.grant("join1", MB // 2)
        with pytest.raises(MemoryBudgetError, match="join2"):
            pool.grant("join2", MB)
        assert broker.granted_bytes == pool.granted_bytes == MB // 2
        assert pool.budget_names == {"join1"}

    def test_unbounded_pool(self):
        pool = MemoryPool(None)
        assert pool.remaining_bytes is None
        pool.grant("join1", 100 * MB)

    def test_unbounded_grant_from_bounded_pool(self):
        pool = MemoryPool(MB)
        budget = pool.grant("join1", None)
        assert budget.limit_bytes is None
        assert pool.granted_bytes == 0

    def test_revoke_returns_memory(self):
        pool = MemoryPool(MB)
        pool.grant("join1", MB)
        pool.revoke("join1")
        assert pool.remaining_bytes == MB
        pool.grant("join2", MB)

    def test_budget_lookup(self):
        pool = MemoryPool(MB)
        granted = pool.grant("join1", 1024)
        assert pool.budget("join1") is granted
        with pytest.raises(MemoryBudgetError):
            pool.budget("missing")

    def test_invalid_pool_size(self):
        with pytest.raises(MemoryBudgetError):
            MemoryPool(-1)
