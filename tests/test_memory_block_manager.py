"""Tests for the paged KV-cache pool."""

from __future__ import annotations

import pytest

from repro.memory.block_manager import (
    AllocationError,
    BlockKVCachePool,
    OutOfMemoryError,
)


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BlockKVCachePool(0)

    def test_rejects_non_positive_block_size(self):
        with pytest.raises(ValueError):
            BlockKVCachePool(64, block_size=0)

    def test_rejects_capacity_smaller_than_block(self):
        with pytest.raises(ValueError):
            BlockKVCachePool(4, block_size=8)

    def test_capacity_rounds_down_to_block_multiple(self):
        pool = BlockKVCachePool(100, block_size=16)
        assert pool.num_blocks == 6
        assert pool.token_capacity == 96


class TestAllocation:
    def test_allocate_and_free(self):
        pool = BlockKVCachePool(64, block_size=16)
        table = pool.allocate("a", 20)
        assert table.num_tokens == 20
        assert len(table.block_ids) == 2
        assert pool.used_blocks == 2
        assert pool.free("a") == 2
        assert pool.used_blocks == 0

    def test_used_tokens_tracks_allocations(self):
        pool = BlockKVCachePool(64, block_size=16)
        pool.allocate("a", 10)
        pool.allocate("b", 5)
        assert pool.used_tokens == 15

    def test_double_allocation_rejected(self):
        pool = BlockKVCachePool(64, block_size=16)
        pool.allocate("a", 4)
        with pytest.raises(AllocationError):
            pool.allocate("a", 4)

    def test_non_positive_allocation_rejected(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(AllocationError):
            pool.allocate("a", 0)

    def test_allocation_exceeding_capacity_raises(self):
        pool = BlockKVCachePool(64, block_size=16)
        with pytest.raises(OutOfMemoryError):
            pool.allocate("a", 65)

    def test_can_allocate(self):
        pool = BlockKVCachePool(64, block_size=16)
        assert pool.can_allocate(64)
        assert not pool.can_allocate(65)
        pool.allocate("a", 33)
        assert pool.can_allocate(16)
        assert not pool.can_allocate(32)

    def test_free_unknown_request_is_noop(self):
        pool = BlockKVCachePool(64)
        assert pool.free("ghost") == 0

    def test_holds_and_tokens_of(self):
        pool = BlockKVCachePool(64)
        pool.allocate("a", 7)
        assert pool.holds("a")
        assert not pool.holds("b")
        assert pool.tokens_of("a") == 7
        assert pool.tokens_of("b") == 0

    def test_paged_pool_avoids_external_fragmentation(self):
        """Freed non-adjacent gaps together serve a request larger than any
        one of them: a paged pool has no external fragmentation."""
        pool = BlockKVCachePool(100, block_size=1)
        for index in range(4):
            pool.allocate(f"r{index}", 25)
        pool.free("r0")
        pool.free("r2")
        assert pool.can_allocate(40)


class TestAppendToken:
    def test_append_fills_partial_block_without_new_block(self):
        pool = BlockKVCachePool(64, block_size=16)
        pool.allocate("a", 10)
        blocks_before = pool.used_blocks
        pool.append_token("a")
        assert pool.used_blocks == blocks_before
        assert pool.tokens_of("a") == 11

    def test_append_grabs_new_block_when_full(self):
        pool = BlockKVCachePool(64, block_size=4)
        pool.allocate("a", 4)
        pool.append_token("a")
        assert pool.used_blocks == 2

    def test_append_without_allocation_rejected(self):
        pool = BlockKVCachePool(64)
        with pytest.raises(AllocationError):
            pool.append_token("ghost")

    def test_append_raises_when_pool_exhausted(self):
        pool = BlockKVCachePool(8, block_size=4)
        pool.allocate("a", 8)
        with pytest.raises(OutOfMemoryError):
            pool.append_token("a")

    def test_can_append_token(self):
        pool = BlockKVCachePool(8, block_size=4)
        pool.allocate("a", 7)
        assert pool.can_append_token("a")   # slack in last block
        pool.append_token("a")
        assert not pool.can_append_token("a")  # full and no free block
        assert not pool.can_append_token("ghost")


class TestAccounting:
    def test_free_tokens_counts_partial_slack(self):
        pool = BlockKVCachePool(32, block_size=16)
        pool.allocate("a", 10)
        # One free block (16) plus 6 slack tokens in a's partial block.
        assert pool.free_tokens == 22

    def test_utilization(self):
        pool = BlockKVCachePool(100, block_size=1)
        pool.allocate("a", 25)
        assert pool.utilization == pytest.approx(0.25)

    def test_peak_tokens_used_tracks_high_water_mark(self):
        pool = BlockKVCachePool(100, block_size=1)
        pool.allocate("a", 40)
        pool.allocate("b", 20)
        pool.free("a")
        assert pool.peak_tokens_used == 60
        assert pool.used_tokens == 20

    def test_reset(self):
        pool = BlockKVCachePool(100, block_size=1)
        pool.allocate("a", 40)
        pool.reset()
        assert pool.used_tokens == 0
        assert pool.free_blocks == pool.num_blocks
        assert pool.peak_tokens_used == 0

    def test_owners_and_block_table(self):
        pool = BlockKVCachePool(64, block_size=16)
        pool.allocate("a", 5)
        assert pool.owners() == ["a"]
        assert pool.block_table("a").num_tokens == 5
        with pytest.raises(AllocationError):
            pool.block_table("ghost")

    def test_block_reuse_after_free(self):
        pool = BlockKVCachePool(32, block_size=16)
        pool.allocate("a", 32)
        pool.free("a")
        pool.allocate("b", 32)
        assert pool.used_blocks == 2


class TestTokenGranularity:
    def test_block_size_one_has_no_rounding_waste(self):
        pool = BlockKVCachePool(100, block_size=1)
        pool.allocate("a", 33)
        pool.allocate("b", 67)
        assert pool.free_tokens == 0
        assert pool.used_tokens == 100
