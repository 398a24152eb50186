"""A fixed-capacity LRU set of keys.

The cluster simulator's per-node buffer cache of disk blocks
(:mod:`repro.parallel.node`).  A hit refreshes recency; an overflowing
insert evicts the least recently used key.
"""

from __future__ import annotations

from collections import OrderedDict

from repro._util import check_positive_int

__all__ = ["LRUCache"]


class LRUCache:
    """Fixed-capacity LRU set of block ids.

    Parameters
    ----------
    capacity:
        Number of blocks the cache holds; 0 disables caching.
    """

    def __init__(self, capacity: int):
        if capacity != 0:
            check_positive_int(capacity, "capacity")
        self.capacity = int(capacity)
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, block_id: int) -> bool:
        """Touch a block; returns True on a hit (and updates recency)."""
        if self.capacity == 0:
            self.misses += 1
            return False
        if block_id in self._blocks:
            self._blocks.move_to_end(block_id)
            self.hits += 1
            return True
        self.misses += 1
        self._blocks[block_id] = None
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
        return False

    def access_many(self, block_ids: list) -> list:
        """:meth:`access` each block in order; returns the blocks that missed.

        Hit and miss counts, recency order and evictions are exactly those
        of the sequential ``access`` calls.
        """
        if self.capacity == 0:
            self.misses += len(block_ids)
            return list(block_ids)
        blocks = self._blocks
        refresh = blocks.move_to_end
        capacity = self.capacity
        missed = []
        for b in block_ids:
            if b in blocks:
                refresh(b)
            else:
                missed.append(b)
                blocks[b] = None
                if len(blocks) > capacity:
                    blocks.popitem(last=False)
        self.misses += len(missed)
        self.hits += len(block_ids) - len(missed)
        return missed

    def invalidate(self, block_id: int) -> bool:
        """Drop a block if cached; returns True when an entry was removed.

        Used by the online engine when a write, split or bucket renumbering
        makes a cached copy stale.  Does not touch the hit/miss counters —
        invalidation is a coherence action, not an access.
        """
        if block_id in self._blocks:
            del self._blocks[block_id]
            return True
        return False

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
