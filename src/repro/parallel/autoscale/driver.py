"""Elastic run driver: a declustered store under a scale plan.

:class:`AutoscaleCluster` runs a closed-loop workload on a cluster whose
capacity changes *mid-run*: a :class:`ScalePlan` schedules node joins,
drains and budget changes on the simulated clock, and the autoscale policy
(:mod:`repro.parallel.autoscale.policy`) absorbs each event — bounded
primary movement on join (``minimax_expand`` when the store exposes bucket
geometry), replica promotion on drain, immediate trim on budget cuts.

The simulated node list is **pre-provisioned**: the pool holds every disk
the plan will ever activate, and membership is the live prefix.  That
keeps the DES resource set fixed while capacity varies, which is also how
the movement accounting stays honest — activating a disk is free, filling
it with data is charged block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro._util import as_rng
from repro.core.redistribute import minimax_expand
from repro.parallel.autoscale.params import AutoscaleParams
from repro.parallel.autoscale.policy import make_autoscale_policy
from repro.parallel.engine.params import ClusterParams
from repro.parallel.engine.pipeline import RequestPipeline
from repro.parallel.engine.runners import ParallelGridFile
from repro.parallel.engine.stats import PerfReport

__all__ = ["ScaleEvent", "ScalePlan", "AutoscaleReport", "AutoscaleCluster"]


@dataclass(frozen=True)
class ScaleEvent:
    """One scheduled capacity change (see :class:`ScalePlan`)."""

    time: float
    kind: str  # "join" | "leave" | "budget"
    count: int = 0
    budget: int = 0


class ScalePlan:
    """A builder for the membership/budget timeline of one elastic run."""

    def __init__(self):
        self.events: list[ScaleEvent] = []

    def _add(self, event: ScaleEvent) -> "ScalePlan":
        if not 0 <= event.time < math.inf:
            raise ValueError(f"time must be finite and >= 0, got {event.time}")
        self.events.append(event)
        return self

    def join(self, time: float, disks: int = 1) -> "ScalePlan":
        """Activate ``disks`` more pool disks at ``time``."""
        if disks < 1:
            raise ValueError(f"disks must be >= 1, got {disks}")
        return self._add(ScaleEvent(float(time), "join", count=disks))

    def leave(self, time: float, disks: int = 1) -> "ScalePlan":
        """Drain the last ``disks`` active disks at ``time``."""
        if disks < 1:
            raise ValueError(f"disks must be >= 1, got {disks}")
        return self._add(ScaleEvent(float(time), "leave", count=disks))

    def set_budget(self, time: float, budget: int) -> "ScalePlan":
        """Change the replica storage budget at ``time``."""
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        return self._add(ScaleEvent(float(time), "budget", budget=budget))

    def sorted_events(self) -> list[ScaleEvent]:
        """Events by firing time (stable — ties keep insertion order)."""
        return sorted(self.events, key=lambda e: e.time)

    def capacity_profile(self, start: int) -> tuple[int, int]:
        """(peak, final) active-disk counts when starting from ``start``;
        raises when the plan ever drains the farm below one disk."""
        cur = peak = start
        for ev in self.sorted_events():
            if ev.kind == "join":
                cur += ev.count
            elif ev.kind == "leave":
                cur -= ev.count
                if cur < 1:
                    raise ValueError("scale plan drains the farm below one disk")
            peak = max(peak, cur)
        return peak, cur


@dataclass
class AutoscaleReport:
    """Results of one elastic run: the perf report plus the control ledger."""

    perf: PerfReport
    n_disks_start: int
    n_disks_end: int
    pool_disks: int
    replicas_created: int
    replicas_evicted: int
    promotions: int
    #: Primaries shipped by membership rebalancing.
    moves: int
    control_steps: int
    joins: int
    leaves: int
    final_replicas: int
    peak_replicas: int

    @property
    def blocks_copied(self) -> int:
        """Physical block transfers the autoscaler caused (movement axis)."""
        return self.replicas_created + self.moves


class AutoscaleCluster:
    """A declustered store with dynamic replication and elastic membership.

    Parameters
    ----------
    store:
        The declustered storage structure (grid file, R-tree, or any
        :class:`~repro.parallel.stores.PageStore`).
    assignment:
        ``(n_pages,)`` initial disk ids over the *starting* farm.
    n_disks:
        Active disks at the start of the run.
    params:
        :class:`~repro.parallel.ClusterParams`; ``params.autoscale``
        defaults to ``AutoscaleParams()`` (the ``heat-replicate`` loop).
    plan:
        Optional :class:`ScalePlan` of membership/budget events (requires a
        replicating policy — the ``null`` policy has no controller).
    pool_disks:
        Provisioned disks (defaults to the plan's peak requirement).
    seed:
        Tie-breaking seed for the join-time ``minimax_expand``.
    """

    def __init__(
        self,
        store,
        assignment: np.ndarray,
        n_disks: int,
        params: "ClusterParams | None" = None,
        plan: "ScalePlan | None" = None,
        pool_disks: "int | None" = None,
        seed=1996,
    ):
        params = params or ClusterParams()
        if params.autoscale is None:
            params = replace(params, autoscale=AutoscaleParams())
        self.params = params
        self.plan = plan or ScalePlan()
        self.policy_name = make_autoscale_policy(params.autoscale).name
        if self.plan.events and self.policy_name == "null":
            raise ValueError(
                "membership/budget events require a replicating autoscale "
                "policy; the null policy has no controller"
            )
        peak, final = self.plan.capacity_profile(int(n_disks))
        pool = int(pool_disks) if pool_disks is not None else peak
        if pool < peak:
            raise ValueError(
                f"pool_disks ({pool}) below the plan's peak capacity ({peak})"
            )
        dpn = params.disks_per_node
        for value, label in ((n_disks, "n_disks"), (pool, "pool_disks")):
            if value % dpn:
                raise ValueError(
                    f"{label} ({value}) must be a multiple of disks_per_node ({dpn})"
                )
        for ev in self.plan.events:
            if ev.kind in ("join", "leave") and ev.count % dpn:
                raise ValueError(
                    f"{ev.kind} of {ev.count} disks is not whole nodes "
                    f"(disks_per_node={dpn})"
                )
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.size and assignment.max() >= n_disks:
            raise ValueError(
                "initial assignment uses disks beyond the starting farm"
            )
        self.n_disks_start = int(n_disks)
        self.n_disks_end = final
        self.pool_disks = pool
        self.seed = seed
        self.pgf = ParallelGridFile(store, assignment, pool, params)

    def _expand_fn(self):
        """Bounded-movement join rebalancer when the store has geometry."""
        gf = getattr(self.pgf.store, "gf", None)
        if gf is None or not hasattr(gf, "bucket_regions"):
            return None  # controller falls back to the balanced steal
        rng = as_rng(self.seed)

        def expand(assignment, old_disks, new_disks):
            lo, hi = gf.bucket_regions()
            return minimax_expand(
                lo, hi, gf.scales.lengths, assignment, old_disks, new_disks, rng=rng
            )

        return expand

    def run(self, queries, tracer=None) -> AutoscaleReport:
        """Closed-system run under the scale plan; returns the full ledger."""
        pipe = RequestPipeline(self.pgf, queries, tracer=tracer)
        policy = pipe.autoscale
        if policy.routes:
            policy.configure(self.n_disks_start, expand_fn=self._expand_fn())
            for ev in self.plan.sorted_events():
                pipe.sim.call_at(ev.time, policy.apply_event, ev)
        perf = pipe.run_closed()
        return AutoscaleReport(
            perf=perf,
            n_disks_start=self.n_disks_start,
            n_disks_end=self.n_disks_end,
            pool_disks=self.pool_disks,
            replicas_created=policy.replicas_created,
            replicas_evicted=policy.replicas_evicted,
            promotions=policy.promotions,
            moves=policy.moves,
            control_steps=policy.control_steps,
            joins=policy.joins,
            leaves=policy.leaves,
            final_replicas=policy.final_replicas,
            peak_replicas=policy.peak_replicas,
        )
