"""The ``AutoscalePolicy`` seam: controller decisions on pipeline resources.

:class:`AutoscalePolicy` is the pluggable hook the request pipeline calls
at three points — route, failover, query completion.  The default
configuration (``ClusterParams.autoscale = None``) installs nothing, and
the ``null`` policy installs a pure pass-through: both are byte-for-byte
identical to a pre-autoscale run (``tests/test_autoscale_neutrality.py``
pins this against the PR 5 goldens).

The replicating policies own routing outright (``routes = True``): every
bucket read goes to whichever copy — primary or autoscaler-created replica
— has been handed the fewest blocks this run, and failover regroups around
suspected nodes using the surviving copies.  Every block a controller
action physically copies is charged to the simulated resources it would
occupy (source disk read, NIC transfer, destination disk write), so the
latency benefit of replication and the cost of making the copies meet in
the same simulated clock.

Observability: ``autoscale.*`` counters/gauges land in the run's
:class:`~repro.obs.MetricsRegistry` and the controller work is profiled
under the ``autoscale.control`` / ``autoscale.membership`` phases (see
``docs/observability.md``).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.obs import PROFILER
from repro.parallel.autoscale.controller import AutoscaleController
from repro.parallel.autoscale.params import AutoscaleParams
from repro.parallel.engine.replicas import regroup_requests

__all__ = [
    "AutoscalePolicy",
    "NullAutoscale",
    "StaticReplicate",
    "HeatReplicate",
    "AUTOSCALE_POLICIES",
    "make_autoscale_policy",
]


class AutoscalePolicy:
    """Base seam: the null behaviour every hook defaults to."""

    name = "base"
    #: Whether the policy owns routing (replica-aware read placement and
    #: failover).  False delegates both to the replica-selection seam.
    routes = False
    #: Whether the policy runs the closed control loop on query completions.
    adaptive = False
    #: The control ledger :class:`~repro.parallel.autoscale.AutoscaleReport`
    #: reads; a policy that replicates nothing leaves every count at zero.
    replicas_created = replicas_evicted = promotions = moves = 0
    control_steps = joins = leaves = peak_replicas = final_replicas = 0

    def bind(self, pipeline) -> None:
        """Attach to one pipeline run (called once, before any routing).

        The pipeline owns its policy, so the back-link is weak."""
        self.pipe = weakref.proxy(pipeline)

    def route(self, plan, requests):
        """Map a plan's primary-grouped requests to the ones actually sent."""
        return self.pipe.selector.route(plan, requests)

    def failover(self, plan, req):
        """Re-route one timed-out request after its node was suspected."""
        return self.pipe.selector.failover(plan, req)

    def query_complete(self, qid: int) -> None:
        """A query finished — the adaptive policies observe and may act."""

    # -- online-engine coherence hooks (no-ops unless replicating) -----------

    def bucket_added(self, disk: int) -> None:
        """A grid-file split created a bucket on ``disk``."""

    def bucket_dirty(self, bucket_id: int) -> None:
        """A write changed the bucket — replicas must be invalidated."""

    def bucket_removed(self, bucket_id: int, moved_id: "int | None") -> None:
        """Swap-removal renumbering (mirror of the driver's bookkeeping)."""

    def primary_moved(self, bucket_id: int, disk: int) -> None:
        """The online driver shipped the primary copy to ``disk``."""


class NullAutoscale(AutoscalePolicy):
    """Measurement-only: no replicas, no instruments, no behaviour change."""

    name = "null"

    def __init__(self, params: "AutoscaleParams | None" = None):
        self.p = params or AutoscaleParams(policy="null")


class _ReplicatedAutoscale(AutoscalePolicy):
    """Shared machinery of the replicating policies.

    Owns an :class:`AutoscaleController`, routes reads across its copies,
    charges the cost of every copied block, and keeps the movement /
    replica counters the report and bench gates read.
    """

    routes = True

    def __init__(self, params: AutoscaleParams):
        self.p = params
        self._completed = 0

    def bind(self, pipeline) -> None:
        super().bind(pipeline)
        store = pipeline.owner.store
        sizes = [store.page_records(b).size for b in range(store.n_pages)]
        self._build_controller(
            active=pipeline.n_disks, expand_fn=None, sizes=sizes
        )
        self._rr: dict[int, int] = {}

    @property
    def final_replicas(self) -> int:
        return self.ctl.n_replicas

    def _build_controller(self, active: int, expand_fn, sizes=None) -> None:
        if sizes is None:
            sizes = self.ctl.sizes if hasattr(self, "ctl") else None
        self.ctl = AutoscaleController(
            [int(d) for d in self.pipe.coordinator.assignment],
            active_disks=active,
            pool_disks=self.pipe.n_disks,
            params=self.p,
            sizes=sizes,
            expand_fn=expand_fn,
        )
        self._bootstrap()

    def configure(self, active: int, expand_fn=None) -> None:
        """Driver hook: shrink the live prefix below the provisioned pool
        and install the join-time rebalancer (before any query runs)."""
        self._build_controller(active=active, expand_fn=expand_fn)
        self._sync_assignment()

    def _bootstrap(self) -> None:
        """Pre-run replica provisioning (free — it predates the workload)."""

    # -- routing -------------------------------------------------------------

    def _choose(self, b: int, failed: set) -> "int | None":
        # Per-bucket round-robin over the live copies.  A cumulative
        # per-disk counter would dump the whole stream onto a freshly
        # created replica until it "caught up" with the primary's history;
        # alternating per bucket splits the load 50/50 from the first
        # request after the copy lands.
        cands = [d for d in self.ctl.copies(b) if d not in failed]
        if not cands:
            return None
        i = self._rr.get(b, 0)
        self._rr[b] = i + 1
        return cands[i % len(cands)]

    def route(self, plan, requests):
        pipe = self.pipe
        failed = pipe.suspected_disks()
        bids = [int(b) for req in requests for b in req.bucket_ids]
        return regroup_requests(
            pipe, plan, bids, lambda b: self._choose(b, failed)
        )

    def failover(self, plan, req):
        failed = self.pipe.suspected_disks()
        return regroup_requests(
            self.pipe, plan, req.bucket_ids, lambda b: self._choose(b, failed)
        )

    # -- control loop ---------------------------------------------------------

    def query_complete(self, qid: int) -> None:
        plan = self.pipe.plans[qid]
        if plan is None:
            return
        bids = [int(b) for r in plan.requests for b in r.bucket_ids]
        if bids:
            self.ctl.observe(bids)
        self._completed += 1
        if self.adaptive and self._completed % self.p.interval == 0:
            with PROFILER.phase("autoscale.control"):
                actions = self.ctl.control_step()
            self.control_steps += 1
            self.pipe.metrics.counter("autoscale.control_steps").inc()
            self._apply(actions)

    def apply_event(self, event) -> None:
        """Driver hook: one membership/budget event fires on the sim clock."""
        with PROFILER.phase("autoscale.membership"):
            if event.kind == "join":
                actions = self.ctl.join(event.count)
                self.joins += 1
                self.pipe.metrics.counter("autoscale.joins").inc()
            elif event.kind == "leave":
                actions = self.ctl.leave(event.count)
                self.leaves += 1
                self.pipe.metrics.counter("autoscale.leaves").inc()
            elif event.kind == "budget":
                actions = self.ctl.set_budget(event.budget)
            else:  # pragma: no cover - ScalePlan validates kinds
                raise ValueError(f"unknown scale event kind {event.kind!r}")
        self._apply(actions)
        self._sync_assignment()
        self.pipe.metrics.gauge("autoscale.active_disks").set(self.ctl.active)

    # -- action application ----------------------------------------------------

    def _apply(self, actions, charge: bool = True) -> None:
        metrics = self.pipe.metrics
        for a in actions:
            if a.copies_block and charge:
                self._charge_copy(a.src, a.dst)
            if a.kind == "replicate":
                self.replicas_created += 1
                metrics.counter("autoscale.replicas.created").inc()
            elif a.kind == "evict":
                self.replicas_evicted += 1
                metrics.counter("autoscale.replicas.evicted").inc()
            elif a.kind == "promote":
                self.promotions += 1
                metrics.counter("autoscale.promotions").inc()
            elif a.kind == "move":
                self.moves += 1
                metrics.counter("autoscale.moves").inc()
        self.peak_replicas = max(self.peak_replicas, self.ctl.n_replicas)
        metrics.gauge("autoscale.replica_count").set(self.ctl.n_replicas)

    def _charge_copy(self, src: int, dst: int) -> None:
        """Reserve the simulated cost of shipping one block ``src -> dst``:
        source disk read, cross-node NIC transfer, destination disk write."""
        pipe = self.pipe
        dpn = pipe.params.disks_per_node
        snode = pipe.nodes[src // dpn]
        service = snode.disk_model.service_time(1, snode.disk_slowdown[src % dpn])
        _, read_end = snode.disks[src % dpn].reserve(pipe.sim.now, service)
        arrive = read_end
        if src // dpn != dst // dpn:
            t = pipe.net.transfer_time(pipe.params.disk.block_bytes)
            _, send_end = snode.nic.reserve(read_end, t)
            pipe.stats.comm_time += t + pipe.net.latency
            arrive = send_end + pipe.net.latency
        dnode = pipe.nodes[dst // dpn]
        service = dnode.disk_model.service_time(1, dnode.disk_slowdown[dst % dpn])
        dnode.disks[dst % dpn].reserve(arrive, service)

    def _sync_assignment(self) -> None:
        """Publish the controller's primary map to the coordinator (primaries
        only change on membership events; online primary moves flow the
        other way, driver -> controller)."""
        self.pipe.coordinator.assignment = np.asarray(
            self.ctl.assignment, dtype=np.int64
        )

    # -- online-engine coherence ----------------------------------------------

    def bucket_added(self, disk: int) -> None:
        self.ctl.add_bucket(disk)

    def bucket_dirty(self, bucket_id: int) -> None:
        self._apply(self.ctl.drop_replicas(bucket_id))

    def bucket_removed(self, bucket_id: int, moved_id: "int | None") -> None:
        self.ctl.remove_bucket(bucket_id, moved_id)

    def primary_moved(self, bucket_id: int, disk: int) -> None:
        self.ctl.set_primary(bucket_id, disk)


class StaticReplicate(_ReplicatedAutoscale):
    """The equal-storage, heat-oblivious baseline.

    Spends the same replica budget as ``heat-replicate``, but picks the
    buckets by *size* (largest first — the best guess available without
    popularity data) once, before the run, and never adapts.  The bench's
    trade-off curves measure exactly what closing the loop buys over this.
    """

    name = "static"

    def _bootstrap(self) -> None:
        order = sorted(
            range(len(self.ctl.assignment)), key=lambda b: (-self.ctl.sizes[b], b)
        )
        for b in order:
            if self.ctl.n_replicas >= self.ctl.budget:
                break
            self.ctl.replicate(b)
        self.peak_replicas = max(self.peak_replicas, self.ctl.n_replicas)


class HeatReplicate(_ReplicatedAutoscale):
    """The closed loop: EWMA heat in, budgeted greedy replication out."""

    name = "heat-replicate"
    adaptive = True


#: Registered autoscale policies, by name.
AUTOSCALE_POLICIES = {
    NullAutoscale.name: NullAutoscale,
    StaticReplicate.name: StaticReplicate,
    HeatReplicate.name: HeatReplicate,
}


def make_autoscale_policy(spec) -> AutoscalePolicy:
    """Resolve a policy name or :class:`AutoscaleParams` to a fresh instance.

    Raises ``ValueError`` listing the registered names for unknown ones.
    """
    if isinstance(spec, str):
        params = AutoscaleParams(policy=spec)
    elif isinstance(spec, AutoscaleParams):
        params = spec
    else:
        raise TypeError(
            f"autoscale spec must be a policy name or AutoscaleParams, "
            f"got {type(spec).__name__}"
        )
    try:
        cls = AUTOSCALE_POLICIES[params.policy]
    except KeyError:
        raise ValueError(
            f"unknown autoscale policy {params.policy!r}; "
            f"choose from {sorted(AUTOSCALE_POLICIES)}"
        ) from None
    return cls(params)
