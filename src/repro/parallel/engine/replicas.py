"""Pluggable replica-selection policies for the request router.

When :attr:`~repro.parallel.engine.params.ClusterParams.replication` places
a backup copy of every bucket (chained or mirrored), the router has a
choice on every read: serve it from the primary copy or from the replica.
The policies here make that seam explicit — the metrics framing follows
*Replication in Data Grids: Metrics and Strategies* (see PAPERS.md):

``primary-only``
    The legacy behaviour: healthy reads always hit the primary disk;
    replicas serve *failover* traffic only (suspected/crashed targets).
    Works with or without replication and is byte-for-byte identical to
    the pre-refactor engine.
``least-loaded-alive``
    Every bucket read goes to whichever live copy (primary or backup) has
    been handed the fewest blocks so far this run — cumulative
    load-balancing that also absorbs a dead node's traffic without
    timeouts ever firing.
``fastest-estimated``
    Every bucket read goes to the live copy whose disk is estimated to
    free up first (current reservation horizon plus queued service) —
    instantaneous load-balancing keyed to the scheduling state.

Use :func:`make_replica_policy` to resolve a name (raises ``ValueError``
with the available names for unknown ones).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.parallel.message import BlockRequest
from repro.parallel.replication import effective_disk

__all__ = [
    "ReplicaSelector",
    "PrimaryOnlySelector",
    "LeastLoadedSelector",
    "FastestEstimatedSelector",
    "REPLICA_POLICIES",
    "make_replica_policy",
    "regroup_requests",
]


def regroup_requests(pipe, plan, bucket_ids, choose) -> "list | None":
    """Group per-bucket disk choices into per-node block requests.

    ``choose(bucket) -> global disk | None``; ``None`` means no live copy
    can serve the bucket and the whole routing fails (the caller aborts).
    Shared by the balancing replica selectors and the autoscale router —
    the grouping and field computation are byte-identical to the original
    ``_BalancingSelector`` implementation.
    """
    by_node: dict[int, list] = {}
    for b in bucket_ids:
        b = int(b)
        disk = choose(b)
        if disk is None:
            return None
        by_node.setdefault(pipe.coordinator.node_of_disk(disk), []).append((b, disk))
    qid = plan.query_id
    out = []
    for node in sorted(by_node):
        pairs = by_node[node]
        out.append(
            BlockRequest(
                query_id=qid,
                node_id=node,
                bucket_ids=np.array([b for b, _ in pairs], dtype=np.int64),
                candidates=sum(plan.candidates_per_bucket[b] for b, _ in pairs),
                qualified=sum(plan.qualified_per_bucket[b] for b, _ in pairs),
                attempt=0,
                target_disks=np.array([d for _, d in pairs], dtype=np.int64),
            )
        )
    return out


class ReplicaSelector:
    """Chooses the disk serving each bucket read (one instance per run)."""

    name = "base"
    #: Whether the policy reads from replica copies on healthy paths
    #: (and therefore requires ``ClusterParams.replication``).
    needs_replication = False

    def bind(self, pipeline) -> None:
        """Attach to a pipeline run (called once, before any routing).

        The pipeline owns its selector, so the back-link is weak."""
        self.pipe = weakref.proxy(pipeline)

    def route(self, plan, requests) -> "list | None":
        """Map a plan's primary-grouped requests to the requests actually
        sent; ``None`` means some bucket is unreachable (abort)."""
        raise NotImplementedError

    def failover(self, plan, req) -> "list | None":
        """Re-route one timed-out request's buckets after its target node
        was suspected; ``None`` means no live copy remains (abort)."""
        raise NotImplementedError


class PrimaryOnlySelector(ReplicaSelector):
    """Reads hit the primary; replicas serve failover traffic only."""

    name = "primary-only"

    def route(self, plan, requests):
        pipe = self.pipe
        if not pipe.suspected:
            return requests
        out = []
        failed = pipe.suspected_disks()
        for req in requests:
            if req.node_id not in pipe.suspected:
                out.append(req)
                continue
            if pipe.params.replication is None:
                return None
            rerouted = self._reroute(plan, req, failed)
            if rerouted is None:
                return None
            pipe.stats.n_failovers += 1
            out.extend(rerouted)
        return out

    def failover(self, plan, req):
        pipe = self.pipe
        if pipe.params.replication is None:
            return None
        return self._reroute(plan, req, pipe.suspected_disks())

    def _reroute(self, plan, req, failed: set) -> "list | None":
        """Send each of ``req``'s buckets to its effective replica disk
        (cascaded for chained) and regroup them into per-node requests."""
        pipe = self.pipe
        assignment = pipe.coordinator.assignment
        scheme = pipe.params.replication
        return regroup_requests(
            pipe,
            plan,
            req.bucket_ids,
            lambda b: effective_disk(int(assignment[b]), pipe.n_disks, failed, scheme),
        )


class _BalancingSelector(ReplicaSelector):
    """Shared routing for policies that spread reads over live copies."""

    needs_replication = True

    def _choose(self, primary: int, failed: set) -> "int | None":
        """The disk serving one bucket whose primary copy is ``primary``."""
        pipe = self.pipe
        backup = effective_disk(
            primary, pipe.n_disks, failed | {primary}, pipe.params.replication
        )
        candidates = [d for d in (primary, backup) if d is not None and d not in failed]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return self._pick(candidates, primary)

    def _pick(self, candidates: list, primary: int) -> int:
        raise NotImplementedError

    def _regroup(self, plan, bucket_ids) -> "list | None":
        """Select a disk per bucket and regroup into per-node requests."""
        pipe = self.pipe
        failed = pipe.suspected_disks()
        return regroup_requests(
            pipe,
            plan,
            bucket_ids,
            lambda b: self._choose(int(pipe.coordinator.assignment[b]), failed),
        )

    def route(self, plan, requests):
        bids = [int(b) for req in requests for b in req.bucket_ids]
        return self._regroup(plan, bids)

    def failover(self, plan, req):
        return self._regroup(plan, req.bucket_ids)


class LeastLoadedSelector(_BalancingSelector):
    """Pick the live copy handed the fewest blocks so far (ties: primary)."""

    name = "least-loaded-alive"

    def bind(self, pipeline):
        super().bind(pipeline)
        self._load = [0] * pipeline.n_disks

    def _pick(self, candidates, primary):
        best = min(candidates, key=lambda d: (self._load[d], d != primary, d))
        self._load[best] += 1
        return best


class FastestEstimatedSelector(_BalancingSelector):
    """Pick the live copy whose disk frees up first (ties: primary)."""

    name = "fastest-estimated"

    def _pick(self, candidates, primary):
        pipe = self.pipe
        now = pipe.sim.now
        return min(
            candidates,
            key=lambda d: (pipe.disk_queue_of(d).estimated_free(now), d != primary, d),
        )


#: Registered replica-selection policies, by name.
REPLICA_POLICIES = {
    PrimaryOnlySelector.name: PrimaryOnlySelector,
    LeastLoadedSelector.name: LeastLoadedSelector,
    FastestEstimatedSelector.name: FastestEstimatedSelector,
}


def make_replica_policy(name: str) -> ReplicaSelector:
    """A fresh selector instance for the policy registered under ``name``.

    Raises ``ValueError`` listing the known policies otherwise.
    """
    try:
        cls = REPLICA_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replica policy {name!r}; choose from {sorted(REPLICA_POLICIES)}"
        ) from None
    return cls()
