"""Knobs of the popularity-driven autoscaler.

:class:`AutoscaleParams` configures the closed control loop of
:mod:`repro.parallel.autoscale`: how fast per-bucket heat decays, how often
the controller runs, the replica storage budget, and the hysteresis that
keeps the loop from thrashing (watermark gap, minimum dwell, per-step
action cap).  The numeric invariants are validated eagerly in
``__post_init__``; the ``policy`` name is resolved by
:func:`repro.parallel.autoscale.policy.make_autoscale_policy` (which lists
the registered names on a miss).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.validate import check_int_field

__all__ = ["AutoscaleParams"]


@dataclass(frozen=True)
class AutoscaleParams:
    """Configuration of the replication controller and its policy seam."""

    #: Registered policy name: "null" (measurement only, byte-identical to
    #: an unconfigured run), "static" (heat-oblivious size-ranked replicas,
    #: the equal-storage baseline) or "heat-replicate" (the closed loop).
    policy: str = "heat-replicate"
    #: Storage budget: maximum replica copies alive at once (primaries are
    #: not counted — they are the data, not the overhead).
    budget: int = 16
    #: EWMA smoothing of per-bucket heat: ``h ← (1-α)·h + α·touches`` per
    #: control tick.  1.0 = last window only, small = long memory.
    alpha: float = 0.4
    #: Completed queries between control-loop ticks.
    interval: int = 16
    #: Replicate a bucket when its heat-per-byte score exceeds this.
    add_heat: float = 1.0
    #: Evict a replica when its score falls to or below this (must not
    #: exceed ``add_heat``; the gap is the hysteresis band).
    evict_heat: float = 0.25
    #: Control ticks a fresh replica survives even when cold (anti-thrash).
    min_dwell: int = 2
    #: Maximum replicate/evict actions per control tick (movement bound).
    max_actions: int = 8

    def __post_init__(self):
        for name, minimum in (
            ("budget", 0), ("interval", 1), ("min_dwell", 0), ("max_actions", 1)
        ):
            check_int_field(getattr(self, name), name, minimum)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        for name in ("add_heat", "evict_heat"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.evict_heat > self.add_heat:
            raise ValueError(
                f"evict_heat ({self.evict_heat}) must not exceed "
                f"add_heat ({self.add_heat}) — the gap is the hysteresis band"
            )
