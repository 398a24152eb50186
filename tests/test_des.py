"""Tests for the discrete-event kernel."""

import pytest

from repro.parallel import Event, Resource, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_equal_time_fifo(self):
        sim = Simulator()
        log = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["x", "y", "z"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            log.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(5.0, log.append, 5)
        sim.run(until=2.0)
        assert log == [1]
        assert sim.pending == 1
        assert sim.now == 2.0
        sim.run()
        assert log == [1, 5]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_rejects_past_schedule(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()


class TestRunUntilBoundary:
    """Boundary semantics of run(until=...), pinned for the tracing layer."""

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        log = []
        sim.schedule_at(2.0, log.append, "edge")
        sim.run(until=2.0)
        assert log == ["edge"]
        assert sim.now == 2.0

    def test_event_at_until_fires_exactly_once_across_runs(self):
        sim = Simulator()
        log = []
        sim.schedule_at(2.0, log.append, "edge")
        sim.run(until=2.0)
        sim.run(until=2.0)  # repeat with the same boundary
        sim.run()
        assert log == ["edge"]

    def test_repeated_run_until_advances_clock_monotonically(self):
        sim = Simulator()
        times = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: times.append(sim.now))
        assert sim.run(until=1.5) == 1.5
        assert sim.run(until=1.5) == 1.5  # no-op, clock holds
        assert sim.run(until=2.5) == 2.5
        assert sim.run() == 3.0
        assert times == [1.0, 2.0, 3.0]

    def test_tolerance_admitted_event_cannot_move_clock_backwards(self):
        """schedule_at's 1e-12 past-tolerance must never rewind `now`."""
        sim = Simulator()
        seen = []

        def at_one():
            # Admitted by the tolerance: nominal time is just *before* now.
            sim.schedule_at(sim.now - 5e-13, lambda: seen.append(sim.now))

        sim.schedule_at(1.0, at_one)
        sim.run()
        assert seen == [1.0]  # fired at the clamped clock, not before it
        assert sim.now == 1.0

    def test_cancelled_event_at_until_never_fires_or_traces(self):
        from repro.obs import Tracer

        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        log = []
        ev = sim.schedule_at(2.0, log.append, "cancelled")
        sim.schedule_at(2.0, log.append, "live")
        ev.cancel()
        sim.run(until=2.0)
        assert log == ["live"]
        fired = [r for r in tracer.records if r["name"] == "sim.fire"]
        assert len(fired) == 1  # the cancelled event left no trace

    def test_traced_run_matches_untraced_schedule(self):
        from repro.obs import Tracer

        def drive(sim):
            log = []
            sim.schedule(1.0, lambda: (log.append(sim.now), sim.schedule(1.0, log.append, "x")))
            sim.schedule(2.5, log.append, "y")
            sim.run()
            return log, sim.now

        tracer = Tracer()
        assert drive(Simulator()) == drive(Simulator(tracer=tracer))
        assert [r["t"] for r in tracer.records] == [1.0, 2.0, 2.5]

    def test_disabled_tracer_is_ignored(self):
        from repro.obs import NULL_TRACER

        sim = Simulator(tracer=NULL_TRACER)
        assert sim._tracer is None  # the loop stays the untraced loop


class TestEventCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        ev = sim.schedule(1.0, log.append, "doomed")
        sim.schedule(2.0, log.append, "kept")
        ev.cancel()
        sim.run()
        assert log == ["kept"]

    def test_schedule_returns_event(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert isinstance(ev, Event)
        assert ev.active
        assert ev.time == 1.0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        ev.cancel()
        assert sim.pending == 1

    def test_cancel_from_callback(self):
        """A callback can defuse an already-scheduled later event."""
        sim = Simulator()
        log = []
        timeout = sim.schedule(5.0, log.append, "timeout")
        sim.schedule(1.0, timeout.cancel)
        sim.run()
        assert log == []
        assert sim.now == 1.0  # cancelled events never advance the clock

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        log = []
        ev = sim.schedule(1.0, log.append, "x")
        sim.run()
        assert log == ["x"]
        assert ev.fired and not ev.active
        ev.cancel()  # no error, no effect
        assert not ev.cancelled or log == ["x"]

    def test_cancel_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert not ev.active
        sim.run()
        assert sim.pending == 0

    def test_cancelled_tail_leaves_clock_alone(self):
        """run() skipping a cancelled final event must not move ``now``."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(9.0, lambda: None)
        ev.cancel()
        sim.run()
        assert sim.now == 1.0


class TestHandleFreeEvents:
    def test_call_at_orders_with_schedule_at_by_time_then_insertion(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, log.append, "a")
        sim.schedule_at(1.0, log.append, "b")
        sim.call_at(0.5, log.append, "first")
        sim.call_at(1.0, log.append, "c")
        sim.schedule(1.0, log.append, "d")
        assert sim.call_at(2.0, log.append, "e") is None
        sim.run()
        assert log == ["first", "a", "b", "c", "d", "e"]
        assert sim.now == 2.0

    def test_pending_counts_handle_free_events(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        ev = sim.schedule_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        assert sim.pending == 3
        ev.cancel()
        assert sim.pending == 2
        sim.run(until=1.0)
        assert sim.pending == 1

    def test_cancelled_events_between_handle_free_ones(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, log.append, 1)
        doomed = [sim.schedule_at(t, log.append, "x") for t in (1.0, 1.5, 3.0)]
        sim.call_at(1.5, log.append, 2)
        sim.call_at(1.5, doomed[2].cancel)
        doomed[0].cancel()
        doomed[1].cancel()
        sim.call_at(2.0, log.append, 3)
        sim.run()
        assert log == [1, 2, 3]
        assert sim.now == 2.0  # the cancelled 3.0 event never advanced the clock
        assert not any(ev.fired for ev in doomed)

    def test_call_at_refuses_the_past(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: sim.call_at(0.5, lambda: None))
        with pytest.raises(ValueError, match="past"):
            sim.run()


class TestResource:
    def test_idle_reserve_starts_immediately(self):
        r = Resource("disk")
        start, end = r.reserve(5.0, 2.0)
        assert (start, end) == (5.0, 7.0)

    def test_busy_reserve_queues(self):
        r = Resource("disk")
        r.reserve(0.0, 3.0)
        start, end = r.reserve(1.0, 2.0)
        assert (start, end) == (3.0, 5.0)

    def test_gap_not_backfilled(self):
        """FIFO semantics: a later request cannot jump into an earlier gap."""
        r = Resource("disk")
        r.reserve(10.0, 1.0)
        start, _ = r.reserve(0.0, 1.0)
        assert start == 11.0

    def test_busy_time_accumulates(self):
        r = Resource("disk")
        r.reserve(0.0, 3.0)
        r.reserve(0.0, 2.0)
        assert r.busy_time == 5.0

    def test_zero_duration(self):
        r = Resource("x")
        start, end = r.reserve(1.0, 0.0)
        assert start == end == 1.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Resource("x").reserve(0.0, -1.0)
