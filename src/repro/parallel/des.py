"""A minimal discrete-event simulation kernel.

Deterministic, callback-based: events fire in (time, insertion-order) order,
so equal-time events are processed first-scheduled-first — which makes whole
cluster runs exactly reproducible.  :meth:`Simulator.schedule_at` returns an
:class:`Event` handle that can be cancelled before it fires (the cluster's
request timeouts are scheduled eagerly and cancelled when the reply lands);
cancelled events are skipped without advancing the clock or perturbing the
ordering of live events.  :class:`Resource` models a serially usable unit
(a disk, a NIC) through reservation: callers ask for the earliest slot at or
after a given time and the resource returns the granted ``(start, end)``
window.

Boundary semantics of :meth:`Simulator.run` (regression-tested in
``tests/test_des.py``): an event scheduled exactly at ``until`` fires in
that run, exactly once — never again in a later run; the clock is clamped
monotone (an event admitted by ``schedule_at``'s 1e-12 past-tolerance can
never move ``now`` backwards); and cancelled events are discarded without
firing, so they never appear in traces.

Observability: construct with ``Simulator(tracer=...)`` (any
:class:`repro.obs.Tracer`) and every *fired* callback emits a ``sim.fire``
event — the causal backbone under the protocol-level records the cluster
engine adds on top.  With the default ``tracer=None`` the loop is exactly
the untraced loop.

Events that nobody cancels (:meth:`Simulator.call_at`) carry no handle.
Pending events live in a binary heap of ``(time, seq, Event | None,
callback, args)`` tuples.  ``(time, seq)`` is unique, so tuple comparison
never reaches the non-comparable payload, and handle-free and cancellable
events interleave in one ``(time, insertion-order)`` order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

__all__ = ["Simulator", "Resource", "Event"]


class Event:
    """Handle for a scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "cancelled", "fired")

    def __init__(self, time: float):
        self.time = time
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the event is still pending (not fired, not cancelled)."""
        return not (self.cancelled or self.fired)


class Simulator:
    """Event loop: schedule callbacks at future times, run until drained.

    Parameters
    ----------
    tracer:
        Optional :class:`repro.obs.Tracer`; when enabled, each fired
        callback emits a ``sim.fire`` trace event (cancelled events emit
        nothing).  ``None`` (default) traces nothing.
    """

    def __init__(self, tracer=None):
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self._tracer = tracer if tracer is not None and tracer.enabled else None

    def schedule_at(self, time: float, callback, *args) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``; the
        returned :class:`Event` can cancel it."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        ev = Event(float(time))
        heapq.heappush(self._heap, (ev.time, self._seq, ev, callback, args))
        self._seq += 1
        return ev

    def call_at(self, time: float, callback, *args) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time`` without
        a handle: the event cannot be cancelled.  Orders exactly like
        :meth:`schedule_at`."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._heap, (float(time), self._seq, None, callback, args))
        self._seq += 1

    def schedule(self, delay: float, callback, *args) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def run(self, until: "float | None" = None) -> float:
        """Process events (optionally only up to time ``until``).

        Events scheduled exactly at ``until`` fire (inclusive upper bound);
        each fires exactly once even across repeated ``run(until=...)``
        calls with the same boundary.  Returns the simulation clock after
        the run.
        """
        tracer = self._tracer
        heap = self._heap
        pop = heapq.heappop
        limit = math.inf if until is None else until
        while heap:
            time, _, ev, callback, args = heap[0]
            if ev is not None and ev.cancelled:
                # Cancelled events are discarded without touching the clock
                # (and never traced — they did not happen).
                pop(heap)
                continue
            if time > limit:
                break
            pop(heap)
            if time > self.now:
                # Clamp: an event admitted by the 1e-12 past-tolerance must
                # not move the clock backwards (trace timestamps and
                # downstream schedule(delay) calls rely on monotonicity).
                self.now = time
            if ev is not None:
                ev.fired = True
            if tracer is not None:
                tracer.event(
                    "sim.fire",
                    self.now,
                    entity="sim",
                    callback=getattr(callback, "__qualname__", None)
                    or type(callback).__name__,
                )
            callback(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events not yet processed."""
        return sum(1 for _, _, ev, _, _ in self._heap if ev is None or not ev.cancelled)


@dataclass
class Resource:
    """A serially usable resource (disk, NIC, CPU) with FIFO reservation.

    Reservations are granted in call order: each returns the earliest window
    of the requested duration starting no earlier than ``earliest``.
    """

    name: str = "resource"
    busy_until: float = 0.0
    #: Total reserved (busy) time, for utilization reporting.
    busy_time: float = field(default=0.0)

    def reserve(self, earliest: float, duration: float) -> tuple[float, float]:
        """Reserve ``duration`` seconds; returns the granted ``(start, end)``."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        busy = self.busy_until
        start = busy if busy > earliest else earliest  # max(), without the call
        end = start + duration
        self.busy_until = end
        self.busy_time += duration
        return start, end
