"""Worker nodes of the simulated shared-nothing cluster.

Each node owns one or more local disks (the paper's SP-2 had one per node;
its future-work configuration seven), an LRU buffer cache shared by those
disks, a CPU for record filtering, and a NIC.  A block request is served by
reading the cache-missing blocks from the owning disks (in parallel across
disks, serially within one), filtering the candidate records, and streaming
the qualified records back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.lru import LRUCache
from repro.parallel.des import Resource
from repro.parallel.disk import DiskModel
from repro.parallel.message import BlockRequest

__all__ = ["WorkerNode"]


@dataclass
class WorkerNode:
    """One worker: disks + cache + CPU + NIC, all FIFO resources.

    Degradable state (mutated by :class:`repro.parallel.faults.FaultInjector`
    mid-run): ``alive`` gates whether delivered requests are served at all,
    and ``disk_slowdown`` holds a per-local-disk service-time multiplier that
    :meth:`disk_service` applies on every read.  Crash/recovery bookkeeping
    feeds the alive-window utilization in
    :class:`repro.parallel.engine.stats.PerfReport`.
    """

    node_id: int
    disk_model: DiskModel
    cache: LRUCache
    disks: list[Resource]
    cpu: Resource
    nic: Resource
    cpu_filter_per_record: float = 2e-6
    #: Total blocks requested from this node across the run.
    blocks_requested: int = 0
    #: Total blocks actually read from disk (cache misses).
    blocks_read: int = 0
    records_filtered: int = 0
    records_qualified: int = 0
    #: False while the node is crashed (requests delivered then are dropped).
    alive: bool = True
    #: Simulated time of the current crash (None while up).
    down_since: "float | None" = None
    #: Accumulated crashed time over completed down intervals.
    down_time: float = 0.0
    #: Per-local-disk service-time multipliers (1.0 = healthy).
    disk_slowdown: list = field(default_factory=list)

    @classmethod
    def create(
        cls,
        node_id: int,
        disk_model: DiskModel,
        cache_blocks: int,
        disks_per_node: int = 1,
        cpu_filter_per_record: float = 2e-6,
    ) -> "WorkerNode":
        """Build a node with fresh resources."""
        return cls(
            node_id=node_id,
            disk_model=disk_model,
            cache=LRUCache(cache_blocks),
            disks=[Resource(f"node{node_id}.disk{i}") for i in range(disks_per_node)],
            cpu=Resource(f"node{node_id}.cpu"),
            nic=Resource(f"node{node_id}.nic"),
            cpu_filter_per_record=cpu_filter_per_record,
            disk_slowdown=[1.0] * disks_per_node,
        )

    # -- degraded-mode transitions ------------------------------------------

    def crash(self, now: float) -> None:
        """Take the node down: volatile state (the buffer cache) is lost."""
        if not self.alive:
            return
        self.alive = False
        self.down_since = now
        # A restarted node comes back with a cold cache; hit/miss counters
        # survive (they are run statistics, not node state).
        hits, misses = self.cache.hits, self.cache.misses
        self.cache = LRUCache(self.cache.capacity)
        self.cache.hits, self.cache.misses = hits, misses

    def recover(self, now: float) -> None:
        """Bring a crashed node back up (cold cache, healthy disks)."""
        if self.alive:
            return
        self.alive = True
        self.down_time += now - self.down_since
        self.down_since = None
        # Work queued on the disks died with the node: restart with an empty
        # queue (requests delivered while down were dropped, not deferred).
        for d in self.disks:
            d.busy_until = now

    def alive_window(self, elapsed: float) -> float:
        """Seconds this node was up within ``[0, elapsed]``."""
        down = self.down_time
        if self.down_since is not None:
            down += max(0.0, elapsed - self.down_since)
        return max(0.0, elapsed - down)

    def disk_service(self, local_disk: int, n_blocks: int) -> tuple[float, float]:
        """(service seconds, slowdown factor) for reading ``n_blocks``
        sequentially from ``local_disk``, fault slowdowns applied."""
        slow = (
            self.disk_slowdown[local_disk]
            if local_disk < len(self.disk_slowdown)
            else 1.0
        )
        return self.disk_model.service_time(n_blocks, slow), slow

    def finish_request(self, disk_done: float, request: BlockRequest, n_misses: int) -> float:
        """Filter stage: the CPU pass over the request's candidate records
        once all blocks are in memory, plus the run counters.  Returns the
        time the reply payload is ready for the NIC."""
        _, cpu_done = self.cpu.reserve(
            disk_done, self.cpu_filter_per_record * request.candidates
        )
        self.blocks_requested += request.n_blocks
        self.blocks_read += n_misses
        self.records_filtered += request.candidates
        self.records_qualified += request.qualified
        return cpu_done
