"""The coordinator-side request pipeline: one simulation run.

:class:`RequestPipeline` is the explicit composition of the engine's
stages.  A query flows:

1. **admission** (open runs only — :mod:`repro.parallel.engine.admission`)
   decides when the query enters;
2. **plan/route**: the coordinator plans the query (CPU reservation) and
   the replica-selection policy (:mod:`repro.parallel.engine.replicas`)
   maps each planned bucket to the disk that will serve it;
3. **request send**: one message per involved node over the coordinator
   NIC, with an optional timeout armed per request;
4. the **worker stage** (:mod:`repro.parallel.engine.worker`) probes the
   cache, fans out to the per-disk queues
   (:mod:`repro.parallel.engine.scheduling`), filters, and replies;
5. **ingest/reply**: replies serialize through the coordinator's ingest
   link; the query completes when the last one lands.

Degraded mode (timeout → retry → suspect → failover → abort) and the
:class:`~repro.parallel.faults.FaultInjector` contract (``sim``, ``nodes``,
``net``, ``node_recovered``, ``trace``/``tracer`` attributes) are unchanged
from the legacy engine.  Statistics accumulate in a shared
:class:`~repro.parallel.engine.stats.StatsCollector`; both the static and
the online drivers are thin compositions over this class, and
:meth:`RequestPipeline.run_closed` is the one closed-loop driver.

With the default seams (FIFO scheduling, primary-only replica selection,
unbounded admission) every reservation and event is issued in the exact
legacy order — runs are byte-for-byte identical to the pre-refactor
engine (``tests/test_engine_neutrality.py``).
"""

from __future__ import annotations

from collections import Counter

from repro.obs import PROFILER, MetricsRegistry, default_tracer
from repro.parallel.des import Resource, Simulator
from repro.parallel.engine.degraded import DegradedMode
from repro.parallel.engine.params import DEFAULT_REQUEST_TIMEOUT
from repro.parallel.engine.replicas import make_replica_policy
from repro.parallel.engine.scheduling import make_scheduler
from repro.parallel.engine.stats import QUEUE_BOUNDS, StatsCollector
from repro.parallel.engine.worker import WorkerStage
from repro.parallel.message import BlockRequest
from repro.parallel.node import WorkerNode

__all__ = ["RequestPipeline"]


class _RequestState:
    """Coordinator-side bookkeeping for one in-flight block request."""

    __slots__ = ("qid", "req", "timeout_ev", "done", "trace_id")

    def __init__(self, qid: int, req: BlockRequest):
        self.qid = qid
        self.req = req
        self.timeout_ev = None
        self.done = False
        self.trace_id = None


class RequestPipeline:
    """Resources, protocol stages and statistics of one simulation run."""

    def __init__(self, owner, queries, faults=None, tracer=None, lazy_plan=False):
        self.owner = owner
        self.params = owner.params
        self.coordinator = owner.coordinator
        self.n_nodes = owner.n_nodes
        self.n_disks = owner.n_disks
        self.net = owner.params.network
        self.tracer = tracer if tracer is not None else default_tracer()
        self.trace = self.tracer.enabled
        self.metrics = MetricsRegistry()
        # Hot-path instruments, bound once; each joins the registry (and so
        # the run's snapshot) on its first update.
        self._queries_submitted = self.metrics.lazy_counter("queries.submitted")
        self._queue_depth = self.metrics.lazy_histogram("queue.depth", QUEUE_BOUNDS)
        self._requests_sent = self.metrics.lazy_counter("requests.sent")
        self._queries_completed = self.metrics.lazy_counter("queries.completed")
        self._query_latency = self.metrics.lazy_histogram("query.latency")
        self.disk_service_time = self.metrics.lazy_histogram("disk.service_time")
        self.sim = Simulator(tracer=self.tracer if self.trace else None)
        self.queries = list(queries)
        #: Lazy runs (the online engine) plan each query at submit time
        #: against the live store instead of eagerly up front.
        self.lazy_plan = lazy_plan
        if lazy_plan:
            self.plans = [None] * len(self.queries)
        else:
            with PROFILER.phase("cluster.plan"):
                self.plans = self.coordinator.plan_batch(self.queries)
        self.nodes = [
            WorkerNode.create(
                i,
                self.params.disk,
                self.params.cache_blocks,
                disks_per_node=self.params.disks_per_node,
                cpu_filter_per_record=self.params.cpu_filter_per_record,
            )
            for i in range(owner.n_nodes)
        ]
        self.coord_cpu = Resource("coord.cpu")
        self.coord_nic = Resource("coord.nic")
        self.coord_ingest = Resource("coord.ingest")
        self.stats = StatsCollector(len(self.queries))
        self.remaining: dict[int, int] = {}
        self.on_complete = None  # optional hook(qid)

        # -- pluggable seams ------------------------------------------------
        queue_cls = make_scheduler(self.params.scheduler)
        self.disk_queues = [
            [queue_cls(self.sim, d) for d in node.disks] for node in self.nodes
        ]
        self.worker = WorkerStage(self)
        self.selector = make_replica_policy(self.params.replica_policy)
        self.selector.bind(self)
        self.admission = None  # installed by the open runner
        #: Autoscale policy seam (None unless ``params.autoscale`` is set;
        #: the import is deferred to keep the package acyclic).
        self.autoscale = None
        if self.params.autoscale is not None:
            from repro.parallel.autoscale.policy import make_autoscale_policy

            self.autoscale = make_autoscale_policy(self.params.autoscale)
            self.autoscale.bind(self)

        # -- degraded mode (timeout/retry/suspect/failover/abort) ------------
        self.degraded = DegradedMode(self)
        self.injector = None
        if faults is not None:
            from repro.parallel.faults import FaultInjector, FaultPlan

            if isinstance(faults, FaultPlan):
                faults = FaultInjector(
                    faults, owner.n_nodes, disks_per_node=self.params.disks_per_node
                )
            self.injector = faults
            self.injector.install(self)
            if self.degraded.timeout is None:
                self.degraded.timeout = DEFAULT_REQUEST_TIMEOUT
        self._qspan: dict[int, int] = {}
        if self.trace:
            self.tracer.event(
                "run.start",
                self.sim.now,
                entity="run",
                n_queries=len(self.queries),
                n_nodes=owner.n_nodes,
                n_disks=owner.n_disks,
                faulted=self.injector is not None,
            )

    # -- plan / route --------------------------------------------------------

    def _plan_of(self, qid: int):
        """The plan of query ``qid``; computed on first use when lazy."""
        plan = self.plans[qid]
        if plan is None:
            plan = self.plans[qid] = self.coordinator.plan(qid, self.queries[qid])
        return plan

    def submit(self, qid: int, arrival: "float | None" = None) -> None:
        """Start query ``qid`` now; ``arrival`` backdates the latency clock
        to when the query entered the admission queue."""
        now = self.sim.now
        self.stats.record_submit(qid, now if arrival is None else arrival)
        plan = self._plan_of(qid)
        self._queries_submitted.inc()
        self._queue_depth.observe(len(self.remaining))
        if self.trace:
            self._qspan[qid] = self.tracer.span_open(
                "query",
                now,
                entity=f"query{qid}",
                qid=qid,
                n_requests=len(plan.requests),
            )
        _, lookup_end = self.coord_cpu.reserve(
            now, self.coordinator.plan_cpu_time(plan)
        )
        if not plan.requests:
            self.sim.call_at(lookup_end, self._complete, qid)
            return
        if self.autoscale is not None and self.autoscale.routes:
            requests = self.autoscale.route(plan, plan.requests)
        else:
            requests = self.selector.route(plan, plan.requests)
        if requests is None:
            self.sim.call_at(lookup_end, self.degraded.abort, qid)
            return
        self.remaining[qid] = len(requests)
        for req in requests:
            self._send_request(_RequestState(qid, req), lookup_end)

    # -- request send --------------------------------------------------------

    def _send_request(self, state: _RequestState, earliest: float) -> None:
        """Transmit one block request, arming its timeout if enabled."""
        req = state.req
        req_bytes = (
            self.params.header_bytes + self.params.bucket_id_bytes * req.n_blocks
        )
        t = self.net.transfer_time(req_bytes)
        _, send_end = self.coord_nic.reserve(earliest, t)
        self.stats.comm_time += t + self.net.latency
        arrive = send_end + self.net.latency
        self._requests_sent.inc()
        if self.trace:
            # Effective global disk per requested block (failover reads carry
            # explicit targets); lets traces reconstruct per-disk access
            # counts exactly (tests/test_obs_differential.py).
            disks = (
                req.target_disks
                if req.target_disks is not None
                else self.coordinator.assignment[req.bucket_ids]
            )
            state.trace_id = self.tracer.event(
                "request.send",
                self.sim.now,
                entity="coord",
                cause=self._qspan.get(state.qid),
                qid=state.qid,
                node=req.node_id,
                attempt=req.attempt,
                n_blocks=req.n_blocks,
                disks=disks,
                send_end=send_end,
                arrive=arrive,
            )
        self.sim.call_at(arrive, self.worker.receive, state)
        self.degraded.arm(state, arrive)

    def resend(self, qid: int, req: BlockRequest, earliest: float) -> None:
        """Re-transmit a request (retry or failover) in fresh state."""
        self._send_request(_RequestState(qid, req), earliest)

    def misses_per_disk(self, req: BlockRequest, missed: list) -> dict:
        """``{local disk: missed blocks}`` of a request on its node, in
        first-miss order (the order the disks get their jobs); rerouted
        reads go to their failover targets."""
        dpn = self.params.disks_per_node
        if dpn == 1:
            return {0: len(missed)}
        if req.target_disks is None:
            return Counter((self.coordinator.assignment[missed] % dpn).tolist())
        local = {
            int(b): int(d) % dpn for b, d in zip(req.bucket_ids, req.target_disks)
        }
        return Counter(local[b] for b in missed)

    def disk_queue_of(self, disk: int):
        """The :class:`~repro.parallel.engine.scheduling.DiskQueue` in front
        of global disk id ``disk``."""
        dpn = self.params.disks_per_node
        return self.disk_queues[disk // dpn][disk % dpn]

    # -- reply ingest / completion -------------------------------------------

    def _coordinator_receive(
        self, state: _RequestState, reply_bytes: float, cause=None
    ) -> None:
        if state.done:
            # Duplicate/late reply: the request was already resolved.
            if self.trace:
                self.tracer.event(
                    "reply.stale", self.sim.now, entity="coord", cause=cause
                )
            return
        if self.injector is not None and not self.injector.message_delivered(
            state.req.node_id
        ):
            self.stats.n_messages_lost += 1
            if self.trace:
                self.tracer.event(
                    "message.drop",
                    self.sim.now,
                    entity="coord",
                    cause=cause,
                    direction="reply",
                )
            return
        state.done = True
        if state.timeout_ev is not None:
            state.timeout_ev.cancel()
        if state.qid in self.aborted:
            return
        _, ingest_end = self.coord_ingest.reserve(
            self.sim.now, self.net.transfer_time(reply_bytes)
        )
        if self.trace:
            self.tracer.event(
                "reply.ingest",
                self.sim.now,
                entity="coord",
                cause=cause,
                qid=state.qid,
                ingest_end=ingest_end,
            )
        self.sim.call_at(ingest_end, self._reply_done, state.qid)

    def _reply_done(self, qid: int) -> None:
        if qid not in self.remaining:
            return  # aborted while this reply was being ingested
        self.remaining[qid] -= 1
        if self.remaining[qid] == 0:
            del self.remaining[qid]
            self._complete(qid)

    def _complete(self, qid: int) -> None:
        self.stats.record_completion(qid, self.sim.now)
        self._queries_completed.inc()
        self._query_latency.observe(self.sim.now - self.stats.submit_time[qid])
        if self.trace:
            span = self._qspan.pop(qid, None)
            if span is not None:
                self.tracer.span_close(span, self.sim.now, aborted=qid in self.aborted)
        if self.autoscale is not None:
            self.autoscale.query_complete(qid)
        if self.admission is not None:
            self.admission.query_done(qid)
        if self.on_complete is not None:
            self.on_complete(qid)

    # -- degraded-mode facade ------------------------------------------------
    # Failure detection lives in :class:`DegradedMode`; these delegates are
    # the stable surface the injector, replica policies and drivers use.

    @property
    def suspected(self) -> set:
        return self.degraded.suspected

    @property
    def aborted(self) -> set:
        return self.degraded.aborted

    def node_recovered(self, node_id: int) -> None:
        """Injector contract: a revived node heartbeats suspicion away."""
        self.degraded.node_recovered(node_id)

    def suspected_disks(self) -> set:
        """Global disk ids owned by currently suspected nodes."""
        return self.degraded.suspected_disks()

    def route_failover(self, plan, req):
        """Re-route one timed-out request's buckets (autoscale-aware)."""
        if self.autoscale is not None and self.autoscale.routes:
            return self.autoscale.failover(plan, req)
        return self.selector.failover(plan, req)

    # -- driving -------------------------------------------------------------

    def run_closed(self):
        """Closed-system run: keep ``pipeline_depth`` queries outstanding,
        submitting the next in workload order as each one completes."""
        pending = iter(range(len(self.queries)))

        def submit_next(_qid=None):
            qid = next(pending, None)
            if qid is not None:
                self.submit(qid)

        self.on_complete = submit_next
        try:
            for _ in range(self.params.pipeline_depth):
                submit_next()
            with PROFILER.phase("cluster.run"):
                self.sim.run()
        finally:
            self.on_complete = None  # the closure holds ``self``
        return self.report()

    # -- reporting -----------------------------------------------------------

    def report(self):
        """Fold the run into a :class:`~repro.parallel.engine.stats.PerfReport`."""
        return self.stats.build_report(
            n_nodes=self.n_nodes,
            n_disks=self.n_disks,
            nodes=self.nodes,
            plans=self.plans,
            metrics=self.metrics,
            aborted=self.aborted,
            injector=self.injector,
            tracer=self.tracer if self.trace else None,
            now=self.sim.now,
        )
