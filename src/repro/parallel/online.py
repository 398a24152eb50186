"""Online mixed read/write engine: a live grid file under the cluster.

Everywhere else in the repo the grid file is *frozen* before it is
declustered: build, assign, then measure queries.  This module drives an
interleaved stream of inserts, deletes and range queries (a
:func:`repro.sim.workload.mixed_workload`) through the simulated cluster
while the grid file keeps restructuring itself underneath:

* **Writes** travel the same protocol path as reads — coordinator CPU
  lookup, NIC transfer to the owning node, a one-block disk write — and
  only then mutate the structure, so write latency competes with query
  traffic for the very same simulated resources.
* **Splits** triggered by inserts create buckets that did not exist when
  the assignment was computed.  A pluggable
  :class:`repro.core.placement.PlacementPolicy` places each one online and
  may request bounded maintenance moves; every move is charged its real
  cost (source disk read, network transfer, destination disk write).
* **Merges and renumbering** (bucket removal swaps the last id down)
  invalidate stale worker-cache entries through
  :meth:`repro._util.lru.LRUCache.invalidate` — a cached block whose id
  was reused must never serve a later read.
* A **degradation monitor** watches the windowed ratio of each query's
  response time ``max_i N_i(q)`` to its lower bound ``⌈touched/M⌉``; when
  the declustering has degraded past a threshold it triggers a
  reorganization bounded by a movement budget
  (:func:`repro.core.redistribute.bounded_reconcile`).

Operations execute strictly sequentially (a closed system with depth 1, the
paper's workload model), so query plans never race structure mutations.

The driver is a thin composition over the same
:class:`repro.parallel.engine.pipeline.RequestPipeline` that powers the
static engine (built with ``lazy_plan=True`` so each query plans against
the live store at submit time) — it is not a subclass; queries flow through
the unmodified pipeline stages while the write path reserves the very same
simulated resources.

**Neutrality pin:** with a write-free workload and no monitor, an
:class:`OnlineCluster` run is bit-for-bit identical to
:meth:`repro.parallel.engine.runners.ParallelGridFile.run_queries` on the same
queries — the lazy per-submit planning sees an unmutated grid file, no
online event ever fires, and no online metric instrument is created
(``tests/test_online.py`` pins the report hashes against each other).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.core.placement import PlacementPolicy, make_placement
from repro.core.redistribute import bounded_reconcile
from repro.gridfile.gridfile import GridFile
from repro.obs import PROFILER
from repro.parallel.engine import ClusterParams, ParallelGridFile, PerfReport
from repro.parallel.engine.pipeline import RequestPipeline
from repro.parallel.stores import DurableGridFileStore, GridFileStore
from repro.sim.workload import Operation

__all__ = ["DegradationMonitor", "OnlineReport", "OnlineCluster"]


@dataclass(frozen=True)
class DegradationMonitor:
    """Reorganization trigger configuration (``None`` disables reorgs).

    The engine tracks, per completed query, the ratio of its response time
    ``max_i N_i(q)`` to the balanced lower bound ``⌈touched/M⌉``.  When the
    mean ratio over the last ``window`` queries exceeds ``threshold`` (and
    at least ``cooldown`` queries have completed since the last trigger),
    the engine recomputes a fresh assignment with ``method`` and reconciles
    toward it under ``budget`` (fraction of non-empty buckets allowed to
    move; see :func:`repro.core.redistribute.bounded_reconcile`).
    """

    window: int = 32
    threshold: float = 1.5
    cooldown: int = 64
    budget: float = 0.2
    method: str = "minimax"

    def __post_init__(self):
        if self.window < 1 or self.cooldown < 0:
            raise ValueError("window must be >= 1 and cooldown >= 0")
        if not self.threshold >= 1.0:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if not self.budget >= 0:
            raise ValueError(f"budget must be non-negative, got {self.budget}")


@dataclass
class OnlineReport:
    """Results of a mixed read/write run.

    ``perf`` is the unchanged query-side :class:`PerfReport` (latencies and
    completion times cover queries only); the remaining fields describe the
    write path and the declustering maintenance that rode along.
    """

    perf: PerfReport
    n_ops: int
    n_inserts: int
    n_deletes: int
    #: Deletes that found no live record (counted, not an error).
    n_noop_deletes: int
    n_splits: int
    n_merges: int
    n_refines: int
    #: Buckets moved by placement maintenance (policy steals / recomputes).
    policy_moves: int
    #: Buckets moved by monitor-triggered reorganizations.
    reorg_moves: int
    n_reorgs: int
    #: Worker-cache entries dropped because their block went stale.
    cache_invalidations: int
    #: Mean over queries of ``max_i N_i(q) / ⌈touched/M⌉`` (1.0 = optimal).
    mean_rq_ratio: float
    #: Sum of simulated write latencies (submission to acknowledgement).
    write_time: float
    #: Completion time of the last write (0.0 when the workload has none).
    last_write_end: float
    final_buckets: int
    final_records: int

    @property
    def buckets_moved(self) -> int:
        """Total maintenance movement (policy + reorganizations)."""
        return self.policy_moves + self.reorg_moves

    @property
    def movement_fraction(self) -> float:
        """Buckets moved per final bucket — the cost axis of the sweep."""
        return self.buckets_moved / self.final_buckets if self.final_buckets else 0.0

    @property
    def elapsed_time(self) -> float:
        """Simulated seconds to drain the whole operation stream."""
        return max(self.perf.elapsed_time, self.last_write_end)

    @property
    def mean_write_latency(self) -> float:
        n_writes = self.n_inserts + self.n_deletes + self.n_noop_deletes
        return self.write_time / n_writes if n_writes else 0.0


class _OnlineDriver:
    """Sequential op driver over the live store; also a GridFile listener.

    Owns a lazily-planning :class:`RequestPipeline` for the query side and
    drives the write path against the same simulated resources.
    """

    def __init__(self, owner: ParallelGridFile, ops, policy, monitor, tracer=None, seed=0):
        self.ops = list(ops)
        for op in self.ops:
            if op.kind not in ("query", "insert", "delete"):
                raise ValueError(f"unknown operation kind {op.kind!r}")
            if op.kind == "query" and op.query is None:
                raise ValueError("query operation without a query")
            if op.kind == "insert" and op.point is None:
                raise ValueError("insert operation without a point")
        queries = [op.query for op in self.ops if op.kind == "query"]
        self.owner = owner
        self.params = owner.params
        # Plans must see the structure as of submit time, hence lazy_plan.
        self.pipe = RequestPipeline(owner, queries, faults=None, tracer=tracer, lazy_plan=True)
        self.sim = self.pipe.sim
        self.net = self.pipe.net
        self.nodes = self.pipe.nodes
        self.metrics = self.pipe.metrics
        self.tracer = self.pipe.tracer
        self.trace = self.pipe.trace
        self.coord_cpu = self.pipe.coord_cpu
        self.coord_nic = self.pipe.coord_nic
        self.gf: GridFile = owner.store.gf
        #: Crash-safe backing store, when the cluster was built over one.
        #: Each applied operation is committed as one WAL transaction; the
        #: storage engine's counters land in this run's metrics registry.
        self.durable: "DurableGridFileStore | None" = (
            owner.store if isinstance(owner.store, DurableGridFileStore) else None
        )
        if self.durable is not None:
            self.durable.engine.metrics = self.metrics
        #: Autoscale seam (None unless ``params.autoscale`` is set): query
        #: completions feed its heat tracker through the pipeline; the
        #: listener hooks below keep its controller's bucket bookkeeping
        #: aligned with the live structure (splits, renumbering, moves) and
        #: invalidate replicas whose content a write changed.
        self.autoscale = self.pipe.autoscale
        self.policy: PlacementPolicy = policy
        self.monitor = monitor
        self.assign_list = [int(d) for d in owner.coordinator.assignment]
        if monitor is not None:
            from repro.core.registry import make_method

            self._reorg_method = make_method(monitor.method)
            self._reorg_rng = as_rng(seed)
            self._window = deque(maxlen=monitor.window)
            self._since_reorg = monitor.cooldown
        self._op_i = 0
        self._next_qid = 0
        self._pending_new: list[tuple[int, int]] = []
        self._write_bucket = -1
        self._write_submit = 0.0
        self.rq_ratios: list[float] = []
        self.n_inserts = 0
        self.n_deletes = 0
        self.n_noop_deletes = 0
        self.n_splits = 0
        self.n_merges = 0
        self.n_refines = 0
        self.policy_moves = 0
        self.reorg_moves = 0
        self.n_reorgs = 0
        self.n_invalidations = 0
        self.write_time = 0.0
        self.last_write_end = 0.0
        self.pipe.on_complete = self._query_done

    # -- operation driver ---------------------------------------------------

    def drive(self) -> None:
        """Install listeners, start the stream, run the simulation."""
        self.gf.add_listener(self)
        try:
            self._next_op()
            with PROFILER.phase("online.run"):
                self.sim.run()
        finally:
            self.gf.remove_listener(self)
            self.pipe.on_complete = None  # the bound method holds ``self``
        if self._op_i < len(self.ops):  # pragma: no cover - defensive
            raise RuntimeError("simulation drained with operations pending")

    def _next_op(self) -> None:
        if self._op_i >= len(self.ops):
            return
        op = self.ops[self._op_i]
        self._op_i += 1
        # Open arrivals: an op never starts before its arrival instant, but
        # the stream stays sequential (closed once the system is saturated).
        if op.time is not None and op.time > self.sim.now:
            self.sim.call_at(float(op.time), self._start_op, op)
        else:
            self._start_op(op)

    def _start_op(self, op: Operation) -> None:
        if op.kind == "query":
            qid = self._next_qid
            self._next_qid += 1
            self.pipe.submit(qid)
        else:
            self._submit_write(op)

    def _query_done(self, qid: int) -> None:
        plan = self.pipe.plans[qid]
        touched = int(plan.blocks_per_disk.sum())
        if touched:
            optimal = -(-touched // self.owner.n_disks)
            ratio = plan.response_by_definition / optimal
        else:
            ratio = 1.0
        self.rq_ratios.append(ratio)
        if self.monitor is not None:
            self._window.append(ratio)
            self._since_reorg += 1
            self.metrics.gauge("online.rq_ratio.window").set(
                sum(self._window) / len(self._window)
            )
            if (
                len(self._window) == self.monitor.window
                and self._since_reorg >= self.monitor.cooldown
                and sum(self._window) / len(self._window) > self.monitor.threshold
            ):
                end = self._reorganize()
                if end > self.sim.now:
                    self.sim.call_at(end, self._next_op)
                    return
        self._next_op()

    # -- write path ---------------------------------------------------------

    def _submit_write(self, op: Operation) -> None:
        self._write_submit = self.sim.now
        self.metrics.counter(f"online.{op.kind}s.submitted").inc()
        _, cpu_end = self.coord_cpu.reserve(self.sim.now, self.params.lookup_time)
        if op.kind == "insert":
            cell = self.gf.scales.locate(np.asarray(op.point, dtype=np.float64))
            rid = -1
            payload = self.params.header_bytes + self.params.record_bytes
        else:
            if op.record_id is not None:
                # Targeted delete (the SQL engine resolved the victim
                # against the live structure at plan time).
                rid = int(op.record_id)
                if not self.gf.is_live(rid):
                    self.n_noop_deletes += 1
                    self.sim.call_at(cpu_end, self._write_done, op)
                    return
            else:
                live = self.gf.live_record_ids()
                if live.size == 0:
                    self.n_noop_deletes += 1
                    self.sim.call_at(cpu_end, self._write_done, op)
                    return
                rid = int(live[min(int(op.delete_rank * live.size), live.size - 1)])
            cell = self.gf.scales.locate(self.gf.points[rid])
            payload = self.params.header_bytes + self.params.bucket_id_bytes
        bid = self.gf.directory.bucket_at(cell)
        node_id = self.owner.coordinator.node_of_bucket(bid)
        t = self.net.transfer_time(payload)
        _, send_end = self.coord_nic.reserve(cpu_end, t)
        self.pipe.stats.comm_time += t + self.net.latency
        if self.trace:
            self.tracer.event(
                "write.send",
                self.sim.now,
                entity="coord",
                kind=op.kind,
                bucket=int(bid),
                node=node_id,
            )
        self.sim.call_at(
            send_end + self.net.latency, self._worker_write, op, int(bid), rid, node_id
        )

    def _disk_op(self, disk: int, earliest: float) -> float:
        """Reserve one block of service on global ``disk``; end time."""
        dpn = self.params.disks_per_node
        node = self.nodes[disk // dpn]
        local = disk % dpn
        service = node.disk_model.service_time(1, node.disk_slowdown[local])
        _, end = node.disks[local].reserve(earliest, service)
        return end

    def _worker_write(self, op: Operation, bid: int, rid: int, node_id: int) -> None:
        # Read-modify-write of the target block on its owning disk.
        end = self._disk_op(self.assign_list[bid], self.sim.now)
        self.sim.call_at(end, self._apply_write, op, rid, node_id)

    def _apply_write(self, op: Operation, rid: int, node_id: int) -> None:
        self._pending_new.clear()
        self._write_bucket = -1
        if op.kind == "insert":
            self.gf.insert_point(op.point)
            self.n_inserts += 1
        else:
            self.gf.delete_record(rid)
            self.n_deletes += 1
        if self.durable is not None:
            # Durably commit the operation (and any split/merge it caused)
            # as one WAL transaction.  Real I/O adds no simulated time: the
            # analytic disk model above remains the cost authority.
            self.durable.commit_op()
        end = self.sim.now
        # Freshly split buckets are written out to their assigned disks.
        for new_id, disk in self._pending_new:
            src = self.nodes[node_id]
            dst = self.nodes[disk // self.params.disks_per_node]
            arrive = end
            if dst is not src:
                t = self.net.transfer_time(self.params.disk.block_bytes)
                _, send_end = src.nic.reserve(end, t)
                self.pipe.stats.comm_time += t + self.net.latency
                arrive = send_end + self.net.latency
            end = self._disk_op(disk, arrive)
        self._pending_new.clear()
        self._sync_assignment()
        # Policy maintenance: bounded moves to keep the declustering healthy.
        moves = self.policy.maintain(
            self.gf, self.owner.coordinator.assignment, self.owner.n_disks
        )
        for b, dst in moves:
            b, dst = int(b), int(dst)
            src = self.assign_list[b]
            if src == dst:
                continue
            end = self._move_bucket(b, src, dst, end)
            self.policy_moves += 1
            self.metrics.counter("online.policy_moves").inc()
        if moves:
            self._sync_assignment()
        # Acknowledge the write back to the coordinator.
        t = self.net.transfer_time(self.params.header_bytes)
        _, ack_end = self.nodes[node_id].nic.reserve(end, t)
        self.pipe.stats.comm_time += t + self.net.latency
        self.sim.call_at(ack_end + self.net.latency, self._write_done, op)

    def _write_done(self, op: Operation) -> None:
        self.write_time += self.sim.now - self._write_submit
        self.last_write_end = self.sim.now
        self.metrics.counter(f"online.{op.kind}s.completed").inc()
        if self.trace:
            self.tracer.event(
                "write.done", self.sim.now, entity="coord", kind=op.kind
            )
        self._next_op()

    # -- maintenance movement ------------------------------------------------

    def _move_bucket(self, b: int, src: int, dst: int, earliest: float) -> float:
        """Ship bucket ``b`` from disk ``src`` to ``dst``; completion time."""
        read_end = self._disk_op(src, earliest)
        dpn = self.params.disks_per_node
        arrive = read_end
        if src // dpn != dst // dpn:
            t = self.net.transfer_time(self.params.disk.block_bytes)
            _, send_end = self.nodes[src // dpn].nic.reserve(read_end, t)
            self.pipe.stats.comm_time += t + self.net.latency
            arrive = send_end + self.net.latency
        write_end = self._disk_op(dst, arrive)
        self.assign_list[b] = dst
        if self.autoscale is not None:
            self.autoscale.primary_moved(b, dst)
        self._invalidate(b, "move")
        if self.trace:
            self.tracer.event(
                "bucket.move", self.sim.now, entity="online", bucket=b, src=src, dst=dst
            )
        return write_end

    def _reorganize(self) -> float:
        """Monitor-triggered bounded reorganization; returns completion time."""
        mon = self.monitor
        self._since_reorg = 0
        self._window.clear()
        current = np.asarray(self.assign_list, dtype=np.int64)
        sizes = self.gf.bucket_sizes()
        target = self._reorg_method.assign(
            self.gf, self.owner.n_disks, rng=self._reorg_rng
        )
        merged, moved = bounded_reconcile(current, target, mon.budget, sizes=sizes)
        self.n_reorgs += 1
        self.metrics.counter("online.reorgs").inc()
        if self.trace:
            self.tracer.event(
                "reorg.start",
                self.sim.now,
                entity="online",
                n_moves=int(moved.size),
                method=mon.method,
            )
        end = self.sim.now
        for b in moved:
            b = int(b)
            end = self._move_bucket(b, self.assign_list[b], int(merged[b]), end)
            self.reorg_moves += 1
        self.metrics.counter("online.reorg_moves").inc(int(moved.size))
        if moved.size:
            self._sync_assignment()
        if self.trace:
            self.tracer.event("reorg.end", self.sim.now, entity="online", end=end)
        return end

    def _sync_assignment(self) -> None:
        if len(self.assign_list) != self.gf.n_buckets:  # pragma: no cover
            raise RuntimeError(
                f"assignment tracks {len(self.assign_list)} buckets, "
                f"grid file has {self.gf.n_buckets}"
            )
        self.owner.coordinator.assignment = np.asarray(
            self.assign_list, dtype=np.int64
        )

    def _invalidate(self, bid: int, reason: str) -> None:
        """Drop bucket ``bid`` from every worker cache (stale content/id)."""
        n = sum(1 for node in self.nodes if node.cache.invalidate(bid))
        if n:
            self.n_invalidations += n
            self.metrics.counter("online.cache_invalidations").inc(n)
            if self.trace:
                self.tracer.event(
                    "cache.invalidate",
                    self.sim.now,
                    entity="online",
                    bucket=bid,
                    nodes=n,
                    reason=reason,
                )

    # -- GridFile listener callbacks ----------------------------------------

    def on_record(self, gf, bucket_id: int, kind: str) -> None:
        self._write_bucket = bucket_id
        if self.autoscale is not None:
            # Write-invalidation coherence: the replica copy went stale.
            self.autoscale.bucket_dirty(bucket_id)
        self._invalidate(bucket_id, kind)

    def on_split(self, gf, bucket_id: int, new_bucket_id: int) -> None:
        assignment = np.asarray(self.assign_list, dtype=np.int64)
        disk = int(
            self.policy.place(gf, assignment, new_bucket_id, self.owner.n_disks)
        )
        if not 0 <= disk < self.owner.n_disks:
            raise ValueError(
                f"policy {self.policy.name!r} placed bucket on disk {disk}"
            )
        self.assign_list.append(disk)
        if self.autoscale is not None:
            self.autoscale.bucket_added(disk)
            self.autoscale.bucket_dirty(bucket_id)
        self._pending_new.append((new_bucket_id, disk))
        self.n_splits += 1
        self.metrics.counter("online.splits").inc()
        self._invalidate(bucket_id, "split")
        if self.trace:
            self.tracer.event(
                "bucket.split",
                self.sim.now,
                entity="online",
                bucket=bucket_id,
                new_bucket=new_bucket_id,
                disk=disk,
            )

    def on_merge(self, gf, survivor_id: int, absorbed_id: int) -> None:
        self.n_merges += 1
        self.metrics.counter("online.merges").inc()
        if self.autoscale is not None:
            self.autoscale.bucket_dirty(survivor_id)
            self.autoscale.bucket_dirty(absorbed_id)
        self._invalidate(survivor_id, "merge")
        self._invalidate(absorbed_id, "merge")
        if self.trace:
            self.tracer.event(
                "bucket.merge",
                self.sim.now,
                entity="online",
                survivor=survivor_id,
                absorbed=absorbed_id,
            )

    def on_remove(self, gf, bucket_id: int, moved_id: "int | None") -> None:
        # Swap-removal renumbering: the last bucket takes over ``bucket_id``.
        if self.autoscale is not None:
            self.autoscale.bucket_removed(bucket_id, moved_id)
        if moved_id is None:
            self.assign_list.pop()
        else:
            self.assign_list[bucket_id] = self.assign_list[moved_id]
            self.assign_list.pop()
            self._invalidate(moved_id, "renumber")
        self._invalidate(bucket_id, "renumber")

    def on_refine(self, gf, dim: int, interval: int) -> None:
        self.n_refines += 1
        self.metrics.counter("online.refines").inc()

    # -- reporting ----------------------------------------------------------

    def online_report(self) -> OnlineReport:
        return OnlineReport(
            perf=self.pipe.report(),
            n_ops=len(self.ops),
            n_inserts=self.n_inserts,
            n_deletes=self.n_deletes,
            n_noop_deletes=self.n_noop_deletes,
            n_splits=self.n_splits,
            n_merges=self.n_merges,
            n_refines=self.n_refines,
            policy_moves=self.policy_moves,
            reorg_moves=self.reorg_moves,
            n_reorgs=self.n_reorgs,
            cache_invalidations=self.n_invalidations,
            mean_rq_ratio=(
                float(np.mean(self.rq_ratios)) if self.rq_ratios else 0.0
            ),
            write_time=self.write_time,
            last_write_end=self.last_write_end,
            final_buckets=self.gf.n_buckets,
            final_records=self.gf.n_records,
        )


class OnlineCluster:
    """A live grid file declustered on the simulated cluster.

    Parameters
    ----------
    gf:
        The grid file (mutated in place by the run's inserts/deletes), or a
        :class:`repro.parallel.stores.GridFileStore` wrapping one — pass a
        :class:`repro.parallel.stores.DurableGridFileStore` to have every
        applied operation committed to the crash-safe storage engine (one
        WAL transaction per operation, checkpoint when the run drains).
    assignment:
        ``(n_buckets,)`` initial disk ids.
    n_disks:
        Total disks; multiple of ``params.disks_per_node``.
    params:
        Cost model (:class:`repro.parallel.engine.params.ClusterParams`).
        Replication is not supported online (writes to replicas are not
        modeled) — and with it the replica-balancing read policies.
        ``params.autoscale`` *is* supported: autoscaler replicas stay
        coherent by write-invalidation (a write to a bucket drops its
        replica; the heat loop may re-create it later).  The
        online stream is sequential, so ``pipeline_depth`` is effectively 1
        and open-system admission control (``max_inflight``/``deadline``)
        does not apply.  The ``scheduler`` seam works online.
    placement:
        A :class:`repro.core.placement.PlacementPolicy` or policy name
        (see :data:`repro.core.placement.PLACEMENT_POLICIES`).
    monitor:
        Optional :class:`DegradationMonitor`; ``None`` disables
        reorganizations.
    seed:
        Seed for reorganization tie-breaking.
    """

    def __init__(
        self,
        gf: GridFile,
        assignment: np.ndarray,
        n_disks: int,
        params: "ClusterParams | None" = None,
        placement="rr-least-loaded",
        monitor: "DegradationMonitor | None" = None,
        seed=1996,
    ):
        if isinstance(gf, GridFileStore):
            store, gf = gf, gf.gf
        elif isinstance(gf, GridFile):
            store = None
        else:
            raise TypeError("OnlineCluster requires a live GridFile store")
        self.pgf = ParallelGridFile(store if store is not None else gf, assignment, n_disks, params)
        if self.pgf.params.replication is not None:
            raise ValueError("replication is not supported by the online engine")
        if self.pgf.params.max_inflight is not None or self.pgf.params.deadline is not None:
            raise ValueError(
                "admission control (max_inflight/deadline) applies to open-system "
                "runs only; the online stream is sequential"
            )
        self.gf = gf
        self.placement = make_placement(placement)
        self.monitor = monitor
        self.seed = seed

    def run(self, ops, tracer=None) -> OnlineReport:
        """Drive the operation stream to completion; mutates the grid file."""
        engine = _OnlineDriver(
            self.pgf,
            ops,
            self.placement,
            self.monitor,
            tracer=tracer,
            seed=self.seed,
        )
        engine.drive()
        if engine.durable is not None:
            # Durability point: fsync the device, truncate the WAL.
            engine.durable.checkpoint()
        return engine.online_report()
