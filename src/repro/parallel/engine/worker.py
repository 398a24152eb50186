"""Worker-side pipeline stages: cache probe → disk service → filter → reply.

:class:`WorkerStage` executes a delivered block request on its target
node.  The stages mirror the §3.5 worker loop: probe the LRU cache in
arrival order, fan the missing blocks out to the owning disks' *queues*
(the pluggable discipline — :mod:`repro.parallel.engine.scheduling`), and
once the last disk read lands, run the CPU filter pass and stream the
reply back through the node NIC toward the coordinator's ingest link.

Under the default FIFO discipline every disk job completes synchronously
(an analytic reservation), so the whole stage runs inline at the arrival
instant, with no completion callbacks — exactly the legacy code path,
byte for byte.
"""

from __future__ import annotations

import weakref

from repro.parallel.engine.scheduling import make_scheduler

__all__ = ["WorkerStage"]


class _Fanout:
    """Join-counter for one request's parallel per-disk reads."""

    __slots__ = ("left", "done")

    def __init__(self, left: int, done: float):
        self.left = left
        self.done = done  # completion time of the latest finished read


class WorkerStage:
    """Serves delivered block requests on behalf of a pipeline run."""

    def __init__(self, pipeline):
        # Weak: the pipeline owns this stage (no cycle to collect).
        self.pipe = weakref.proxy(pipeline)
        #: FIFO disks finish a job when it is submitted, so the stage
        #: reserves them inline instead of through completion callbacks.
        self.inline = make_scheduler(pipeline.params.scheduler).completes_on_submit

    def receive(self, state) -> None:
        """A block request arrives at its target node (post network)."""
        pipe = self.pipe
        req = state.req
        node = pipe.nodes[req.node_id]
        if pipe.injector is not None:
            if not node.alive:
                # Dropped on the floor; the timeout recovers it.
                if pipe.trace:
                    pipe.tracer.event(
                        "request.drop",
                        pipe.sim.now,
                        entity=f"node{req.node_id}",
                        cause=state.trace_id,
                        reason="node_down",
                    )
                return
            if not pipe.injector.message_delivered(req.node_id):
                pipe.stats.n_messages_lost += 1
                if pipe.trace:
                    pipe.tracer.event(
                        "message.drop",
                        pipe.sim.now,
                        entity=f"node{req.node_id}",
                        cause=state.trace_id,
                        direction="request",
                    )
                return
        arrive_id = None
        if pipe.trace:
            arrive_id = pipe.tracer.event(
                "request.arrive",
                pipe.sim.now,
                entity=f"node{req.node_id}",
                cause=state.trace_id,
                qid=state.qid,
                n_blocks=req.n_blocks,
            )
        arrival = pipe.sim.now
        # Cache lookups happen in arrival order (FIFO node), so mutating the
        # LRU here is consistent with processing order.
        missed = node.cache.access_many(req.bucket_ids.tolist())
        n_misses = len(missed)
        if not missed:
            self._filter_and_reply(state, node, arrival, 0, arrive_id)
            return
        # Disks work in parallel; each disk serves its blocks as one job
        # ordered by that disk's queue discipline.  The reply is assembled
        # when the last read lands.
        per_disk = pipe.misses_per_disk(req, missed)
        queues = pipe.disk_queues[req.node_id]
        if self.inline:
            disk_done = arrival
            for d, n_blocks in per_disk.items():
                service, slow = node.disk_service(d, n_blocks)
                start, end = queues[d].reserve(arrival, service)
                self._disk_read(req.node_id, d, n_blocks, service, slow, start, end, arrive_id)
                if end > disk_done:
                    disk_done = end
            self._filter_and_reply(state, node, disk_done, n_misses, arrive_id)
            return
        fanout = _Fanout(len(per_disk), arrival)
        for d, n_blocks in per_disk.items():
            service, slow = node.disk_service(d, n_blocks)
            queues[d].submit(
                arrival,
                service,
                state.qid,
                n_blocks,
                self._on_disk_done(
                    state, node, fanout, d, n_blocks, service, slow, n_misses, arrive_id
                ),
            )

    def _disk_read(self, node_id, d, n_blocks, service, slow, start, end, cause) -> None:
        """Record one finished disk job: the service-time histogram and,
        when tracing, a ``disk.read`` event."""
        pipe = self.pipe
        pipe.disk_service_time.observe(service)
        if pipe.trace:
            pipe.tracer.event(
                "disk.read",
                pipe.sim.now,
                entity=f"node{node_id}.disk{d}",
                cause=cause,
                n_blocks=n_blocks,
                start=start,
                end=end,
                slowdown=slow,
            )

    def _on_disk_done(self, state, node, fanout, d, n_blocks, service, slow, n_misses, cause):
        def done(start: float, end: float) -> None:
            self._disk_read(node.node_id, d, n_blocks, service, slow, start, end, cause)
            fanout.done = max(fanout.done, end)
            fanout.left -= 1
            if fanout.left == 0:
                self._filter_and_reply(state, node, fanout.done, n_misses, cause)

        return done

    def _filter_and_reply(self, state, node, disk_done, n_misses, cause) -> None:
        """CPU filter pass, then stream the reply through the node NIC."""
        pipe = self.pipe
        req = state.req
        ready = node.finish_request(disk_done, req, n_misses)
        reply_bytes = pipe.params.header_bytes + pipe.params.record_bytes * req.qualified
        t = pipe.net.transfer_time(reply_bytes)
        _, send_end = node.nic.reserve(ready, t)
        pipe.stats.comm_time += t + pipe.net.latency
        reply_id = None
        if pipe.trace:
            reply_id = pipe.tracer.event(
                "reply.send",
                pipe.sim.now,
                entity=f"node{req.node_id}",
                cause=cause,
                qid=state.qid,
                ready=ready,
                send_end=send_end,
                n_qualified=req.qualified,
                n_cache_misses=n_misses,
                reply_bytes=reply_bytes,
            )
        pipe.sim.call_at(
            send_end + pipe.net.latency,
            pipe._coordinator_receive,
            state,
            reply_bytes,
            reply_id,
        )
