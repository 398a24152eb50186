"""Degraded-mode stage: timeout → retry → suspect → failover → abort.

:class:`DegradedMode` owns the coordinator's failure-detection state for
one run — which nodes are suspected down, which queries were aborted, and
the per-query request states whose timeouts may still fire.  The policy is
the legacy engine's, unchanged: a timed-out request retries the same node
with exponential backoff up to ``max_retries``, then the node is suspected
and the request fails over per the replica-selection policy (or the query
aborts when there is no replication to fail over to).  Recovery is
heartbeat-based: ``heartbeat_delay`` after the injector revives a node the
coordinator clears its suspicion.

Timeout deadlines scale with request size (:meth:`DegradedMode._service_estimate`),
so ``ClusterParams.request_timeout`` is *slack over the healthy estimate*,
not an absolute budget — large requests are not spuriously suspected.
"""

from __future__ import annotations

import weakref

from repro._util import as_rng
from repro.parallel.message import BlockRequest

__all__ = ["DegradedMode"]

#: Seed of the dedicated retry-jitter RNG (deterministic reproducibility).
JITTER_SEED = 1996


class DegradedMode:
    """Failure detection and recovery for one :class:`RequestPipeline` run."""

    def __init__(self, pipeline):
        # Weak: the pipeline owns this stage (no cycle to collect).
        self.pipe = weakref.proxy(pipeline)
        #: Per-request timeout slack; None disables timeouts entirely.
        self.timeout = pipeline.params.request_timeout
        #: Nodes the coordinator currently believes down (timeout-detected).
        self.suspected: set[int] = set()
        #: Queries given up on (data unreachable without replication).
        self.aborted: set[int] = set()
        self._states_by_qid: dict = {}
        #: Full-jitter fraction on retry backoff (0.0 = legacy determinism;
        #: the RNG only exists when jitter is on, so jitter-free runs make
        #: no extra random draws).
        self._jitter = pipeline.params.retry_jitter
        self._jitter_rng = as_rng(JITTER_SEED) if self._jitter > 0.0 else None

    # -- timeout arming ------------------------------------------------------

    def arm(self, state, arrive: float) -> None:
        """Arm the timeout for an in-flight request (no-op when disabled)."""
        if self.timeout is None:
            return
        pipe = self.pipe
        self._states_by_qid.setdefault(state.qid, []).append(state)
        state.timeout_ev = pipe.sim.schedule_at(
            arrive + self.timeout + self._service_estimate(state.req),
            self.request_timeout,
            state,
        )

    def _service_estimate(self, req: BlockRequest) -> float:
        """Healthy-case service time for a request (deadline scaling).

        A cold read of every block plus the CPU filter pass and the reply
        transfer: large requests get proportionally later deadlines, so the
        timeout slack (``request_timeout``) measures *anomaly*, not size.
        """
        params = self.pipe.params
        reply_bytes = params.header_bytes + params.record_bytes * req.qualified
        return (
            params.disk.service_time(req.n_blocks)
            + params.cpu_filter_per_record * req.candidates
            + self.pipe.net.transfer_time(reply_bytes)
            + self.pipe.net.latency
        )

    # -- suspicion / recovery ------------------------------------------------

    def node_recovered(self, node_id: int) -> None:
        """Called by the injector on recovery: heartbeat clears suspicion."""
        self.pipe.sim.schedule(
            self.pipe.params.heartbeat_delay, self.suspected.discard, node_id
        )

    def suspected_disks(self) -> set:
        """Global disk ids owned by currently suspected nodes."""
        disks = set()
        for n in self.suspected:
            disks.update(self.pipe.coordinator.disks_of_node(n))
        return disks

    # -- timeout / failover / abort ------------------------------------------

    def request_timeout(self, state) -> None:
        if state.done:
            return
        pipe = self.pipe
        pipe.stats.n_timeouts += 1
        state.done = True
        req = state.req
        timeout_id = None
        if pipe.trace:
            timeout_id = pipe.tracer.event(
                "request.timeout",
                pipe.sim.now,
                entity="coord",
                cause=state.trace_id,
                qid=state.qid,
                node=req.node_id,
                attempt=req.attempt,
            )
        if req.node_id not in self.suspected and req.attempt < pipe.params.max_retries:
            # Retry the same node with exponential backoff.
            pipe.stats.n_retries += 1
            delay = pipe.params.retry_backoff * (2.0**req.attempt)
            if self._jitter_rng is not None:
                # Full jitter: uniform over ((1 - jitter) * full, full].
                delay *= 1.0 - self._jitter * float(self._jitter_rng.random())
            if pipe.trace:
                pipe.tracer.event(
                    "request.retry",
                    pipe.sim.now,
                    entity="coord",
                    cause=timeout_id,
                    qid=state.qid,
                    node=req.node_id,
                    attempt=req.attempt + 1,
                    delay=delay,
                )
            pipe.resend(state.qid, req.retry(), pipe.sim.now + delay)
            return
        # Retries exhausted (or the node is already suspected): declare the
        # node down and fail the request over per the replica policy.
        if pipe.trace and req.node_id not in self.suspected:
            pipe.tracer.event(
                "node.suspect",
                pipe.sim.now,
                entity="coord",
                cause=timeout_id,
                node=req.node_id,
            )
        self.suspected.add(req.node_id)
        self.failover(state)

    def failover(self, state) -> None:
        pipe = self.pipe
        qid = state.qid
        if qid in self.aborted:
            return
        new_reqs = pipe.route_failover(pipe.plans[qid], state.req)
        if new_reqs is None:
            self.abort(qid)
            return
        pipe.stats.n_failovers += 1
        if pipe.trace:
            pipe.tracer.event(
                "request.failover",
                pipe.sim.now,
                entity="coord",
                cause=state.trace_id,
                qid=qid,
                node=state.req.node_id,
                n_requests=len(new_reqs),
            )
        # Re-planning the replica route costs coordinator CPU.
        _, replan_end = pipe.coord_cpu.reserve(
            pipe.sim.now,
            pipe.coordinator.plan_time_per_bucket * state.req.n_blocks,
        )
        pipe.remaining[qid] += len(new_reqs) - 1
        for nr in new_reqs:
            pipe.resend(qid, nr, replan_end)

    def abort(self, qid: int) -> None:
        """Give up on a query whose data is unreachable."""
        if qid in self.aborted:
            return
        pipe = self.pipe
        self.aborted.add(qid)
        if pipe.trace:
            pipe.tracer.event(
                "query.abort",
                pipe.sim.now,
                entity=f"query{qid}",
                cause=pipe._qspan.get(qid),
                qid=qid,
            )
        for st in self._states_by_qid.get(qid, []):
            st.done = True
            if st.timeout_ev is not None:
                st.timeout_ev.cancel()
        pipe.remaining.pop(qid, None)
        pipe._complete(qid)
