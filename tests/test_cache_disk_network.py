"""Tests for the LRU cache, disk model and network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import DiskModel, LRUCache, NetworkModel


class TestLRUCache:
    def test_miss_then_hit(self):
        c = LRUCache(2)
        assert not c.access(1)
        assert c.access(1)
        assert c.hits == 1 and c.misses == 1

    def test_eviction_order(self):
        c = LRUCache(2)
        c.access(1)
        c.access(2)
        c.access(3)  # evicts 1
        assert 1 not in c
        assert 2 in c and 3 in c

    def test_touch_refreshes_recency(self):
        c = LRUCache(2)
        c.access(1)
        c.access(2)
        c.access(1)  # 2 is now LRU
        c.access(3)
        assert 2 not in c
        assert 1 in c

    def test_capacity_zero_disables(self):
        c = LRUCache(0)
        assert not c.access(1)
        assert not c.access(1)
        assert len(c) == 0

    def test_hit_rate(self):
        c = LRUCache(4)
        c.access(1)
        c.access(1)
        c.access(1)
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert LRUCache(4).hit_rate == 0.0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_len_bounded(self):
        c = LRUCache(3)
        for i in range(10):
            c.access(i)
        assert len(c) == 3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(st.lists(st.integers(0, 12), max_size=8), max_size=20),
)
def test_access_many_matches_sequential_access(capacity, requests):
    """One batched probe per request leaves the cache exactly as one
    ``access`` per block would: misses, counts, recency and evictions."""
    batched, sequential = LRUCache(capacity), LRUCache(capacity)
    for blocks in requests:
        missed = [b for b in blocks if not sequential.access(b)]
        assert batched.access_many(blocks) == missed
        assert (batched.hits, batched.misses) == (sequential.hits, sequential.misses)
        assert list(batched._blocks) == list(sequential._blocks)


def test_access_many_evicts_in_lru_order():
    c = LRUCache(3)
    assert c.access_many([1, 2, 3]) == [1, 2, 3]
    assert c.access_many([1, 4, 5]) == [4, 5]  # 1 refreshed; 2 then 3 evicted
    assert list(c._blocks) == [1, 4, 5]
    assert (c.hits, c.misses) == (1, 5)


class TestDiskModel:
    def test_zero_blocks(self):
        assert DiskModel().service_time(0) == 0.0

    def test_single_block(self):
        d = DiskModel(position_time=0.01, reposition_time=0.005, transfer_rate=1e6, block_bytes=1000)
        assert d.service_time(1) == pytest.approx(0.01 + 0.001)

    def test_batching_cheaper_than_separate(self):
        d = DiskModel()
        assert d.service_time(10) < 10 * d.service_time(1)

    def test_monotone(self):
        d = DiskModel()
        times = [d.service_time(n) for n in range(1, 20)]
        assert times == sorted(times)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiskModel().service_time(-1)


class TestNetworkModel:
    def test_transfer_time(self):
        n = NetworkModel(latency=1e-3, bandwidth=1e6)
        assert n.transfer_time(500_000) == pytest.approx(0.5)

    def test_zero_bytes(self):
        assert NetworkModel().transfer_time(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)
