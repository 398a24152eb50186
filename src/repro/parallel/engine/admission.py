"""Admission control for open-system runs (arrival → admit/queue/shed).

:meth:`~repro.parallel.engine.runners.ParallelGridFile.run_open` hands the
Poisson arrival instants to a controller; the controller decides when each
query actually enters the pipeline:

``unbounded``
    The legacy behaviour: every query is submitted exactly at its arrival
    instant no matter how many are already in flight — queueing happens
    implicitly at the simulated resources.  Past the saturation rate,
    latency grows without bound over the run.
``bounded``
    At most ``max_inflight`` queries run concurrently; later arrivals wait
    in an admission queue (FIFO).  Latency is measured from *arrival*, so
    admission waiting is visible in the percentiles.  With a ``deadline``,
    a query that has already waited longer than the deadline when its turn
    comes is **shed** — recorded, never executed — which bounds the tail
    latency of the queries actually served at the cost of availability.

Use :func:`make_admission` to build the controller a
:class:`~repro.parallel.engine.params.ClusterParams` asks for.
"""

from __future__ import annotations

import weakref
from collections import deque

__all__ = ["AdmissionController", "UnboundedAdmission", "BoundedAdmission", "make_admission"]


class AdmissionController:
    """Decides when (and whether) each arriving query enters the pipeline."""

    name = "base"

    def __init__(self, pipeline):
        # Weak: the pipeline owns its controller (no cycle to collect).
        self.pipe = weakref.proxy(pipeline)

    def start(self, arrivals) -> None:
        """Schedule the workload's arrival instants on the simulator."""
        raise NotImplementedError

    def query_done(self, qid: int) -> None:
        """Pipeline callback: query ``qid`` finished (admit the next?)."""


class UnboundedAdmission(AdmissionController):
    """Submit every query at its arrival instant (the legacy behaviour)."""

    name = "unbounded"

    def start(self, arrivals):
        for qid, t in enumerate(arrivals):
            self.pipe.sim.call_at(float(t), self.pipe.submit, qid)


class BoundedAdmission(AdmissionController):
    """FIFO admission queue with a concurrency bound and optional deadline."""

    name = "bounded"

    def __init__(self, pipeline, max_inflight: int, deadline: "float | None"):
        super().__init__(pipeline)
        self.max_inflight = int(max_inflight)
        self.deadline = deadline
        self.inflight = 0
        self.waiting: deque[tuple[int, float]] = deque()

    def start(self, arrivals):
        for qid, t in enumerate(arrivals):
            self.pipe.sim.call_at(float(t), self._arrive, qid)

    def _arrive(self, qid: int) -> None:
        if self.inflight < self.max_inflight:
            self._admit(qid, self.pipe.sim.now)
        else:
            self.waiting.append((qid, self.pipe.sim.now))

    def _admit(self, qid: int, arrival: float) -> None:
        self.inflight += 1
        self.pipe.submit(qid, arrival=arrival)

    def _shed(self, qid: int, arrival: float) -> None:
        pipe = self.pipe
        pipe.stats.record_shed(qid, arrival, pipe.sim.now)
        if pipe.trace:
            pipe.tracer.event(
                "query.shed",
                pipe.sim.now,
                entity="coord",
                qid=qid,
                waited=pipe.sim.now - arrival,
            )

    def query_done(self, qid: int) -> None:
        self.inflight -= 1
        # Shed decisions happen when a slot frees up: anything that has
        # already overstayed its deadline is dropped, then one query admits.
        while self.waiting:
            nxt, arrival = self.waiting.popleft()
            if self.deadline is not None and self.pipe.sim.now - arrival > self.deadline:
                self._shed(nxt, arrival)
                continue
            self._admit(nxt, arrival)
            break


def make_admission(pipeline, params) -> AdmissionController:
    """The controller ``params`` asks for, bound to ``pipeline``.

    ``deadline`` without ``max_inflight`` implies a bound of ``2 *
    n_nodes`` concurrent queries (shedding needs an admission queue to
    shed from).
    """
    if params.max_inflight is None and params.deadline is None:
        return UnboundedAdmission(pipeline)
    k = params.max_inflight
    if k is None:
        k = 2 * pipeline.n_nodes
    return BoundedAdmission(pipeline, k, params.deadline)
