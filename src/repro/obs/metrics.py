"""Counter / gauge / histogram registry for simulator statistics.

A :class:`MetricsRegistry` is a named collection of three instrument types:

* :class:`Counter` — monotonically increasing totals (timeouts, retries,
  blocks read);
* :class:`Gauge` — last-value instruments (queries in flight);
* :class:`Histogram` — fixed-bound bucket counts plus count/sum/min/max
  (per-disk service time, query latency, queue depth).

Everything is deterministic pure Python (no wall clock, no randomness), so
registries populated during a simulated run are identical across repeated
runs with the same seed — which lets the determinism suite compare
``PerfReport.metrics`` snapshots exactly.  :data:`GLOBAL_METRICS` is a
process-wide registry for components without a natural per-run home (the
minimax growth-step counter); it is observability only and never feeds back
into any result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial

__all__ = [
    "Counter", "Gauge", "Histogram", "LazyInstrument", "MetricsRegistry", "GLOBAL_METRICS",
]

#: Default histogram bucket upper bounds (seconds-scale; +inf is implicit).
DEFAULT_BOUNDS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self.value += amount


class Gauge:
    """A last-value instrument."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bound bucket counts plus count / sum / min / max.

    ``bounds`` are inclusive upper edges; one overflow bucket (``+inf``)
    is implicit.  Bounds must be strictly increasing.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds=DEFAULT_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value) -> None:
        """Record one observation.

        It lands in the first bucket whose bound is ``>= value``; NaN lands
        in the overflow bucket, since it compares ``<=`` to no bound.
        """
        value = float(value)
        i = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        self.bucket_counts[i] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class LazyInstrument:
    """A registry instrument looked up once and created on its first update.

    Hot paths keep one of these instead of looking the instrument up by
    name on every update, while a snapshot still lists only the
    instruments a run actually touched.  Made by
    :meth:`MetricsRegistry.lazy_counter` and
    :meth:`MetricsRegistry.lazy_histogram`; a :meth:`MetricsRegistry.reset`
    does not reach instruments already created through it.
    """

    __slots__ = ("_create", "_inst")

    def __init__(self, create):
        self._create = create
        self._inst = None

    def inc(self, amount=1) -> None:
        """:meth:`Counter.inc` on the bound counter."""
        inst = self._inst
        if inst is None:
            inst = self._inst = self._create()
        inst.inc(amount)

    def observe(self, value) -> None:
        """:meth:`Histogram.observe` on the bound histogram."""
        inst = self._inst
        if inst is None:
            inst = self._inst = self._create()
        inst.observe(value)


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as plain dicts."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(bounds)
        return h

    def lazy_counter(self, name: str) -> LazyInstrument:
        """The counter called ``name``, created on its first ``inc``."""
        return LazyInstrument(partial(self.counter, name))

    def lazy_histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> LazyInstrument:
        """The histogram called ``name``, created on its first ``observe``."""
        return LazyInstrument(partial(self.histogram, name, bounds))

    def snapshot(self) -> dict:
        """JSON-serializable state of every instrument."""
        out: dict = {}
        if self._counters:
            out["counters"] = {
                name: c.value for name, c in sorted(self._counters.items())
            }
        if self._gauges:
            out["gauges"] = {name: g.value for name, g in sorted(self._gauges.items())}
        if self._histograms:
            out["histograms"] = {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                }
                for name, h in sorted(self._histograms.items())
            }
        return out

    def reset(self) -> None:
        """Drop every instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: Process-wide registry for components without a per-run registry
#: (e.g. ``minimax.growth_steps``).  Observability only.
GLOBAL_METRICS = MetricsRegistry()
