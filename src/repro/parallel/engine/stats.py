"""Run statistics: the shared per-query collector and :class:`PerfReport`.

Before the pipeline refactor, the per-query bookkeeping (submission /
completion clocks, communication time, degraded-mode counters) and the
report-building aggregation lived on the engine class and were duplicated
by the online engine's subclass.  :class:`StatsCollector` is the single
home for that state now: both the static and the online drivers write into
one collector through the pipeline, and :meth:`StatsCollector.build_report`
folds it — together with the per-node counters and the metrics registry —
into the :class:`PerfReport` the callers see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PerfReport", "StatsCollector"]

#: Queue-depth histogram bucket bounds (outstanding queries at submit).
QUEUE_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class PerfReport:
    """Results of a cluster run (the Tables 4-5 columns, plus detail)."""

    n_queries: int
    n_nodes: int
    n_disks: int
    #: Sum over queries of ``max_i N_i(q)`` — "response time by definition".
    blocks_fetched: int
    #: Total blocks requested from workers (sum over disks, not max).
    blocks_requested_total: int
    #: Blocks actually read from disk (cache misses).
    blocks_read: int
    #: Seconds of NIC transfer time (requests + replies) including latency.
    comm_time: float
    #: Simulated wall-clock seconds to complete the workload.
    elapsed_time: float
    #: Total qualified records returned.
    records_returned: int
    #: Aggregate worker cache hit rate.
    cache_hit_rate: float
    #: Per-query completion times (simulated clock).
    completion_times: np.ndarray
    #: Per-query latencies (completion - submission).  A shed query's entry
    #: is its time in the admission queue until the shed decision.
    latencies: np.ndarray
    #: Per-node busy fractions of the disk resources (over alive windows).
    disk_utilization: np.ndarray
    #: Coordinator request timeouts observed.
    timeouts: int = 0
    #: Retransmissions to the same node after a timeout.
    retries: int = 0
    #: Requests rerouted to replica disks (suspected/crashed targets).
    failovers: int = 0
    #: Messages dropped by fault-injected lossy links.
    messages_lost: int = 0
    #: Queries aborted because some bucket had no live replica.
    aborted_queries: int = 0
    #: :class:`repro.obs.MetricsRegistry` snapshot of the run (counters,
    #: queue-depth / service-time / latency histograms); deterministic.
    metrics: "dict | None" = None
    #: Queries shed by the admission controller (deadline exceeded before
    #: admission; 0 under the default unbounded admission).
    shed_queries: int = 0
    #: Boolean mask over queries marking the shed ones (None when nothing
    #: could shed — the default admission mode).
    shed_mask: "np.ndarray | None" = None

    @property
    def availability(self) -> float:
        """Fraction of queries answered (1.0 = nothing aborted)."""
        return 1.0 - self.aborted_queries / self.n_queries if self.n_queries else 1.0

    @property
    def served_latencies(self) -> np.ndarray:
        """Latencies of the queries that actually ran (excludes shed ones)."""
        if self.shed_mask is None:
            return self.latencies
        return self.latencies[~self.shed_mask]

    @property
    def mean_latency(self) -> float:
        """Mean per-query latency (seconds)."""
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    @property
    def p95_latency(self) -> float:
        """95th-percentile per-query latency (seconds)."""
        return float(np.percentile(self.latencies, 95)) if self.latencies.size else 0.0

    @property
    def p99_latency(self) -> float:
        """99th-percentile latency over *served* queries (seconds)."""
        lat = self.served_latencies
        return float(np.percentile(lat, 99)) if lat.size else 0.0

    @property
    def shed_fraction(self) -> float:
        """Fraction of the workload shed by admission control."""
        return self.shed_queries / self.n_queries if self.n_queries else 0.0

    @property
    def throughput(self) -> float:
        """Completed queries per simulated second."""
        return self.n_queries / self.elapsed_time if self.elapsed_time > 0 else 0.0

    def row(self) -> tuple:
        """The (blocks, comm seconds, elapsed seconds) row of Tables 4-5."""
        return (self.blocks_fetched, self.comm_time, self.elapsed_time)


class StatsCollector:
    """Per-query bookkeeping shared by the static and online drivers.

    Holds everything :meth:`build_report` needs that is not per-node state:
    submission/completion clocks, wire time, degraded-mode counters and the
    shed set.  The pipeline owns exactly one collector per run.
    """

    def __init__(self, n_queries: int):
        self.n_queries = int(n_queries)
        self.submit_time = np.zeros(self.n_queries)
        self.completion = np.zeros(self.n_queries)
        self.comm_time = 0.0
        self.n_timeouts = 0
        self.n_retries = 0
        self.n_failovers = 0
        self.n_messages_lost = 0
        self.shed: set[int] = set()

    def record_submit(self, qid: int, when: float) -> None:
        """Stamp the user-visible submission instant of query ``qid``."""
        self.submit_time[qid] = when

    def record_completion(self, qid: int, when: float) -> None:
        """Stamp the completion instant of query ``qid``."""
        self.completion[qid] = when

    def record_shed(self, qid: int, arrival: float, when: float) -> None:
        """Mark query ``qid`` shed at ``when`` after arriving at ``arrival``."""
        self.submit_time[qid] = arrival
        self.completion[qid] = when
        self.shed.add(qid)

    def build_report(
        self,
        *,
        n_nodes: int,
        n_disks: int,
        nodes,
        plans,
        metrics,
        aborted,
        injector=None,
        tracer=None,
        now: "float | None" = None,
    ) -> PerfReport:
        """Fold the run into a :class:`PerfReport`.

        Parameters mirror the pipeline's end-of-run state: the worker
        ``nodes`` (block/cache counters, alive windows), the per-query
        ``plans`` (``None`` entries allowed for never-planned queries), the
        run's :class:`~repro.obs.MetricsRegistry`, the ``aborted`` qid set,
        the optional fault ``injector`` (applied-event counters) and an
        optional *enabled* ``tracer`` for the run-end records (stamped at
        simulated time ``now`` when given).
        """
        total_hits = sum(n.cache.hits for n in nodes)
        total_access = sum(n.cache.hits + n.cache.misses for n in nodes)
        elapsed = float(self.completion.max()) if self.n_queries else 0.0
        # Utilization over each node's *alive* window, so a crashed node's
        # dead time doesn't dilute its busy fraction.
        windows = [n.alive_window(elapsed) for n in nodes]
        disk_util = np.array(
            [
                sum(d.busy_time for d in n.disks) / (w * len(n.disks)) if w > 0 else 0.0
                for n, w in zip(nodes, windows)
            ]
        )
        # Aggregate counters (run totals; the live instruments cover queue
        # depth, latency and per-disk service time).
        m = metrics
        m.counter("blocks.requested").inc(sum(n.blocks_requested for n in nodes))
        m.counter("blocks.read").inc(sum(n.blocks_read for n in nodes))
        m.counter("cache.hits").inc(total_hits)
        m.counter("cache.misses").inc(total_access - total_hits)
        m.counter("requests.timeout").inc(self.n_timeouts)
        m.counter("requests.retry").inc(self.n_retries)
        m.counter("requests.failover").inc(self.n_failovers)
        m.counter("messages.lost").inc(self.n_messages_lost)
        m.counter("queries.aborted").inc(len(aborted))
        if self.shed:
            m.counter("queries.shed").inc(len(self.shed))
        if injector is not None:
            for kind, count in injector.applied.items():
                m.counter(f"faults.applied.{kind}").inc(count)
        snapshot = m.snapshot()
        if tracer is not None:
            tracer.event(
                "run.end",
                now if now is not None else elapsed,
                entity="run",
                elapsed=elapsed,
            )
            tracer.metrics(snapshot)
        shed_mask = None
        if self.shed:
            shed_mask = np.zeros(self.n_queries, dtype=bool)
            shed_mask[sorted(self.shed)] = True
        return PerfReport(
            n_queries=self.n_queries,
            n_nodes=n_nodes,
            n_disks=n_disks,
            blocks_fetched=sum(
                p.response_by_definition
                for qid, p in enumerate(plans)
                if p is not None and qid not in self.shed
            ),
            blocks_requested_total=sum(n.blocks_requested for n in nodes),
            blocks_read=sum(n.blocks_read for n in nodes),
            comm_time=self.comm_time,
            elapsed_time=elapsed,
            records_returned=sum(
                p.total_qualified
                for qid, p in enumerate(plans)
                if p is not None and qid not in self.shed
            ),
            cache_hit_rate=(total_hits / total_access) if total_access else 0.0,
            completion_times=self.completion,
            latencies=self.completion - self.submit_time,
            disk_utilization=disk_util,
            timeouts=self.n_timeouts,
            retries=self.n_retries,
            failovers=self.n_failovers,
            messages_lost=self.n_messages_lost,
            aborted_queries=len(aborted),
            metrics=snapshot,
            shed_queries=len(self.shed),
            shed_mask=shed_mask,
        )
