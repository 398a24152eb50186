"""Pluggable per-disk queue disciplines for the request pipeline.

Every physical disk of the simulated cluster owns one :class:`DiskQueue`.
The worker stage submits one *job* per disk touched by a block request (the
disk reads its blocks as one sequential transfer, exactly as before); the
queue decides the order jobs are serviced in:

``fifo``
    First-come-first-served — the legacy behaviour.  Implemented as an
    immediate analytic reservation against the disk's
    :class:`~repro.parallel.des.Resource` (no extra simulator events), so
    the default configuration is *byte-for-byte identical* to the
    pre-refactor engine.
``sjf``
    Shortest job first on the planned block count: while the disk is busy,
    waiting jobs re-order so small reads overtake large ones (ties broken
    by arrival order).  Reduces mean latency under mixed query sizes at the
    cost of large-read tail latency.
``fair``
    Round-robin across queries: each query gets its own FIFO lane and the
    disk cycles over lanes, one job at a time — one block-hungry query can
    no longer convoy everyone else behind it.

The non-FIFO disciplines are event-driven (service completion is decided
only when the disk frees up), so their jobs complete via simulator events;
``submit`` therefore reports completion through a callback in all cases.

Use :func:`make_scheduler` to resolve a discipline name (raises
``ValueError`` with the available names for unknown ones).
"""

from __future__ import annotations

from collections import deque

__all__ = ["DiskQueue", "FifoDiskQueue", "SjfDiskQueue", "FairDiskQueue",
           "SCHEDULERS", "make_scheduler"]


class DiskJob:
    """One disk read: ``n_blocks`` blocks taking ``service`` seconds."""

    __slots__ = ("qid", "n_blocks", "service", "done", "seq")

    def __init__(self, qid: int, n_blocks: int, service: float, done, seq: int):
        self.qid = qid
        self.n_blocks = n_blocks
        self.service = service
        self.done = done
        self.seq = seq


class DiskQueue:
    """Base class: one scheduling queue in front of one disk resource.

    Parameters
    ----------
    sim:
        The run's :class:`~repro.parallel.des.Simulator` (event-driven
        disciplines schedule their completions on it).
    resource:
        The disk's :class:`~repro.parallel.des.Resource`; busy-time
        accounting flows through it so utilization reporting is uniform
        across disciplines.
    """

    name = "base"
    #: True when every job finishes inside :meth:`submit` (its ``done``
    #: callback has run before ``submit`` returns); such a queue also offers
    #: ``reserve(now, service) -> (start, end)``.
    completes_on_submit = False

    def __init__(self, sim, resource):
        self.sim = sim
        self.resource = resource
        self._seq = 0
        #: Total service seconds sitting in the queue (not yet started);
        #: consulted by the ``fastest-estimated`` replica policy.
        self.pending_service = 0.0

    def submit(self, now: float, service: float, qid: int, n_blocks: int, done) -> None:
        """Enqueue one job arriving at ``now``; ``done(start, end)`` fires
        when the disk has finished it."""
        raise NotImplementedError

    def estimated_free(self, now: float) -> float:
        """Earliest time a job submitted at ``now`` could start service."""
        return max(now, self.resource.busy_until) + self.pending_service


class FifoDiskQueue(DiskQueue):
    """First-come-first-served: the analytic legacy reservation path."""

    name = "fifo"
    completes_on_submit = True

    def reserve(self, now: float, service: float) -> tuple[float, float]:
        """The ``(start, end)`` window of a job arriving at ``now``; what
        :meth:`submit` passes to ``done``, for callers with nothing to
        call back."""
        return self.resource.reserve(now, service)

    def submit(self, now, service, qid, n_blocks, done):
        done(*self.reserve(now, service))


class _EventDrivenQueue(DiskQueue):
    """Shared machinery for disciplines that wait for the disk to free up."""

    def __init__(self, sim, resource):
        super().__init__(sim, resource)
        self._busy = False

    # -- discipline hooks ----------------------------------------------------

    def _enqueue(self, job: DiskJob) -> None:
        raise NotImplementedError

    def _pick(self) -> "DiskJob | None":
        raise NotImplementedError

    # -- engine --------------------------------------------------------------

    def submit(self, now, service, qid, n_blocks, done):
        job = DiskJob(qid, n_blocks, service, done, self._seq)
        self._seq += 1
        self._enqueue(job)
        self.pending_service += service
        if not self._busy:
            self._start_next(now)

    def _start_next(self, now: float) -> None:
        job = self._pick()
        if job is None:
            return
        self._busy = True
        self.pending_service -= job.service
        start = max(now, self.resource.busy_until)
        end = start + job.service
        self.resource.busy_until = end
        self.resource.busy_time += job.service
        self.sim.call_at(end, self._finish, job, start, end)

    def _finish(self, job: DiskJob, start: float, end: float) -> None:
        self._busy = False
        job.done(start, end)
        if not self._busy:  # the callback may have submitted and started work
            self._start_next(self.sim.now)


class SjfDiskQueue(_EventDrivenQueue):
    """Shortest job first on planned block count (FIFO among equals)."""

    name = "sjf"

    def __init__(self, sim, resource):
        super().__init__(sim, resource)
        self._jobs: list[DiskJob] = []

    def _enqueue(self, job):
        self._jobs.append(job)

    def _pick(self):
        if not self._jobs:
            return None
        best = min(self._jobs, key=lambda j: (j.n_blocks, j.seq))
        self._jobs.remove(best)
        return best


class FairDiskQueue(_EventDrivenQueue):
    """Round-robin across queries: per-query FIFO lanes, served cyclically."""

    name = "fair"

    def __init__(self, sim, resource):
        super().__init__(sim, resource)
        self._lanes: dict[int, deque] = {}
        self._cycle: deque = deque()  # qids in round-robin order

    def _enqueue(self, job):
        lane = self._lanes.get(job.qid)
        if lane is None:
            lane = self._lanes[job.qid] = deque()
            self._cycle.append(job.qid)
        lane.append(job)

    def _pick(self):
        if not self._cycle:
            return None
        qid = self._cycle.popleft()
        lane = self._lanes[qid]
        job = lane.popleft()
        if lane:
            self._cycle.append(qid)  # stays in the rotation
        else:
            del self._lanes[qid]
        return job


#: Registered disk queue disciplines, by name.
SCHEDULERS = {
    FifoDiskQueue.name: FifoDiskQueue,
    SjfDiskQueue.name: SjfDiskQueue,
    FairDiskQueue.name: FairDiskQueue,
}


def make_scheduler(name: str):
    """The :class:`DiskQueue` subclass registered under ``name``.

    Raises ``ValueError`` listing the known disciplines otherwise.
    """
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
