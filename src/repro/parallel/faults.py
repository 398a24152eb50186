"""Mid-run fault injection for the simulated cluster.

The static availability story (:func:`repro.parallel.apply_failures`)
rewrites the assignment *before* a run; this module injects faults *while
queries are in flight*, which is what a production deployment of parallel
grid files actually survives.  A :class:`FaultPlan` is a schedule of
:class:`FaultEvent`\\ s, and a :class:`FaultInjector` binds the plan to one
engine run: at each event time it mutates the degradable per-node/per-disk
state that the worker stage (:mod:`repro.parallel.engine.worker`) and the
cost models consult.

Fault kinds
-----------
``node_crash``
    The node stops serving: requests delivered while it is down are dropped
    (the coordinator's timeout/retry/failover machinery recovers them) and
    its buffer cache is lost.
``node_recover``
    The node restarts cold; a recovery heartbeat clears the coordinator's
    suspicion after ``ClusterParams.heartbeat_delay``.
``disk_slowdown``
    One local disk serves every read ``factor``× slower (1.0 restores it).
``link_loss``
    The node's link drops each delivered message (either direction) with
    probability ``loss_prob``, using the plan's seeded RNG (0.0 restores).

Determinism: events are applied in (time, insertion-order) order on the same
event loop as the protocol, and the loss RNG is consulted only at delivery
points of lossy links — so the same plan + seed reproduces a run exactly.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FAULT_KINDS"]

#: Supported fault-event kinds.
FAULT_KINDS = ("node_crash", "node_recover", "disk_slowdown", "link_loss")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or repair) on the simulated cluster."""

    #: Absolute simulated time at which the event takes effect.
    time: float
    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Target node id.
    node: int
    #: Local disk index (``disk_slowdown`` only).
    disk: int = 0
    #: Service-time multiplier (``disk_slowdown`` only; 1.0 = healthy).
    factor: float = 1.0
    #: Per-message drop probability (``link_loss`` only; 0.0 = healthy).
    loss_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if not 0 <= self.time < math.inf:
            raise ValueError(f"time must be finite and non-negative, got {self.time}")
        if not 0 < self.factor < math.inf:
            raise ValueError(f"factor must be finite and positive, got {self.factor}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"loss_prob must be in [0, 1], got {self.loss_prob}")


@dataclass
class FaultPlan:
    """A schedule of fault events plus the seed for stochastic message loss.

    Builder methods return ``self`` so plans chain fluently::

        plan = (FaultPlan()
                .node_crash(0.5, node=3)
                .node_recover(2.0, node=3)
                .link_loss(1.0, node=5, loss_prob=0.05))
    """

    events: list = field(default_factory=list)
    #: Seed of the RNG used for per-message loss draws during the run.
    seed: int = 0

    # -- builders ------------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append one event."""
        self.events.append(event)
        return self

    def node_crash(self, time: float, node: int) -> "FaultPlan":
        """Crash ``node`` at ``time``."""
        return self.add(FaultEvent(time, "node_crash", node))

    def node_recover(self, time: float, node: int) -> "FaultPlan":
        """Restart ``node`` at ``time`` (cold cache)."""
        return self.add(FaultEvent(time, "node_recover", node))

    def disk_slowdown(self, time: float, node: int, factor: float, disk: int = 0) -> "FaultPlan":
        """Multiply one local disk's service time by ``factor`` from ``time`` on."""
        return self.add(FaultEvent(time, "disk_slowdown", node, disk=disk, factor=factor))

    def disk_restore(self, time: float, node: int, disk: int = 0) -> "FaultPlan":
        """Restore one local disk to healthy service time."""
        return self.add(FaultEvent(time, "disk_slowdown", node, disk=disk, factor=1.0))

    def link_loss(self, time: float, node: int, loss_prob: float) -> "FaultPlan":
        """Make ``node``'s link drop messages with ``loss_prob`` from ``time`` on."""
        return self.add(FaultEvent(time, "link_loss", node, loss_prob=loss_prob))

    def link_restore(self, time: float, node: int) -> "FaultPlan":
        """Restore ``node``'s link to lossless delivery."""
        return self.add(FaultEvent(time, "link_loss", node, loss_prob=0.0))

    def sorted_events(self) -> list:
        """Events in chronological order (stable for equal times)."""
        return sorted(self.events, key=lambda e: e.time)

    def validate(self, n_nodes: int, disks_per_node: int = 1) -> None:
        """Check every event targets an existing node/disk."""
        for ev in self.events:
            if not 0 <= ev.node < n_nodes:
                raise ValueError(f"fault targets node {ev.node} outside [0, {n_nodes})")
            if ev.kind == "disk_slowdown" and not 0 <= ev.disk < disks_per_node:
                raise ValueError(
                    f"fault targets local disk {ev.disk} outside [0, {disks_per_node})"
                )


class FaultInjector:
    """Applies a :class:`FaultPlan` to one engine run.

    Created (usually implicitly, by passing a plan to
    :meth:`repro.parallel.ParallelGridFile.run_queries`) per run —
    injectors hold run state and must not be reused across runs.
    """

    def __init__(self, plan: FaultPlan, n_nodes: int, disks_per_node: int = 1):
        plan.validate(n_nodes, disks_per_node)
        self.plan = plan
        self.n_nodes = int(n_nodes)
        self.rng = np.random.default_rng(plan.seed)
        self.loss_prob = [0.0] * self.n_nodes
        self._engine = None
        #: Applied-event counts by kind (observability).
        self.applied = {kind: 0 for kind in FAULT_KINDS}

    def install(self, engine) -> None:
        """Schedule every planned event on the engine's simulator."""
        if self._engine is not None:
            raise RuntimeError("FaultInjector already installed; use one per run")
        # Weak: the engine owns its injector (no cycle to collect).
        self._engine = weakref.proxy(engine)
        for ev in self.plan.sorted_events():
            engine.sim.call_at(ev.time, self._apply, ev)

    def _apply(self, ev: FaultEvent) -> None:
        engine = self._engine
        node = engine.nodes[ev.node]
        if ev.kind == "node_crash":
            node.crash(engine.sim.now)
        elif ev.kind == "node_recover":
            node.recover(engine.sim.now)
            engine.node_recovered(ev.node)
        elif ev.kind == "disk_slowdown":
            node.disk_slowdown[ev.disk] = ev.factor
        elif ev.kind == "link_loss":
            self.loss_prob[ev.node] = ev.loss_prob
        self.applied[ev.kind] += 1
        if engine.trace:
            engine.tracer.event(
                f"fault.{ev.kind}",
                engine.sim.now,
                entity=f"node{ev.node}",
                disk=ev.disk,
                factor=ev.factor,
                loss_prob=ev.loss_prob,
            )

    def message_delivered(self, node: int) -> bool:
        """Loss draw for one message on ``node``'s link (True = delivered)."""
        return self._engine.net.delivered(self.rng, self.loss_prob[node])
