"""Run drivers: closed/open workloads and the initial-load simulation.

:class:`ParallelGridFile` is the user-facing entry point; its run methods
are thin compositions over :class:`~repro.parallel.engine.pipeline.
RequestPipeline` — the closed driver keeps ``pipeline_depth`` queries
outstanding, the open driver hands Poisson arrivals to the admission
controller.  :func:`ParallelGridFile.simulate_load` models the initial
declustered load of §3.5 analytically (no pipeline involved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.obs import PROFILER
from repro.parallel.coordinator import Coordinator
from repro.parallel.des import Resource
from repro.parallel.engine.admission import make_admission
from repro.parallel.engine.params import ClusterParams, validate_params
from repro.parallel.engine.pipeline import RequestPipeline
from repro.parallel.engine.stats import PerfReport
from repro.parallel.replication import replica_assignment

__all__ = ["ParallelGridFile", "LoadReport"]


class ParallelGridFile:
    """A declustered page store deployed on the simulated cluster.

    Despite the historical name, any storage structure works: pass a
    :class:`~repro.gridfile.GridFile`, an :class:`~repro.rtree.RTree`, or
    any :class:`~repro.parallel.stores.PageStore` — the coordinator plans
    against the store interface (page = disk block).

    Parameters
    ----------
    store:
        The declustered storage structure.
    assignment:
        ``(n_pages,)`` disk ids (from any
        :class:`repro.core.DeclusteringMethod` or leaf-assignment helper).
    n_disks:
        Total disks; must be a multiple of ``params.disks_per_node``.
    params:
        Cost-model and pipeline-policy parameters
        (:class:`~repro.parallel.engine.params.ClusterParams`).
    """

    def __init__(
        self,
        store,
        assignment: np.ndarray,
        n_disks: int,
        params: "ClusterParams | None" = None,
    ):
        self.params = params or ClusterParams()
        if self.params.replication is not None:
            # Validate eagerly (scheme name, mirrored needs even M).
            replica_assignment(
                np.asarray(assignment, dtype=np.int64), int(n_disks), self.params.replication
            )
        validate_params(self.params)
        self.coordinator = Coordinator(
            store,
            assignment,
            n_disks,
            disks_per_node=self.params.disks_per_node,
            lookup_time=self.params.lookup_time,
            plan_time_per_bucket=self.params.plan_time_per_bucket,
        )
        self.store = self.coordinator.store
        self.n_disks = int(n_disks)
        self.n_nodes = self.coordinator.n_nodes

    def run_queries(self, queries, faults=None, tracer=None) -> PerfReport:
        """Closed-system run: at most ``pipeline_depth`` outstanding queries.

        Parameters
        ----------
        queries:
            The workload.
        faults:
            Optional :class:`repro.parallel.faults.FaultPlan` (or a bound
            :class:`~repro.parallel.faults.FaultInjector`) injecting crashes,
            slowdowns and message loss mid-run; see
            :mod:`repro.parallel.engine.degraded` for the degraded-mode
            protocol.
        tracer:
            Optional :class:`repro.obs.Tracer` recording the run; with the
            default ``None`` the process-wide tracer applies (enabled only
            when ``REPRO_TRACE`` is set — see ``docs/observability.md``).
        """
        return RequestPipeline(
            self, queries, faults=faults, tracer=tracer
        ).run_closed()

    def run_open(
        self, queries, arrival_rate: float, rng=None, faults=None, tracer=None
    ) -> PerfReport:
        """Open-system run: Poisson arrivals at ``arrival_rate`` queries/s.

        Queries enter the system at their arrival instants; with the default
        unbounded admission, queueing happens implicitly at the coordinator
        CPU/NIC and the worker disks, and latency percentiles reveal the
        saturation point (``benchmarks/bench_ext_open_system.py``).  Setting
        ``ClusterParams.max_inflight`` and/or ``deadline`` switches to
        bounded admission with optional deadline shedding — see
        :mod:`repro.parallel.engine.admission`.

        Parameters
        ----------
        queries:
            The workload.
        arrival_rate:
            Mean arrivals per simulated second (> 0).
        rng:
            Seed/generator for the exponential inter-arrival times.
        faults:
            Optional :class:`repro.parallel.faults.FaultPlan` injected
            mid-run (see :meth:`run_queries`).
        tracer:
            Optional :class:`repro.obs.Tracer` (see :meth:`run_queries`).
        """
        if not 0 < arrival_rate < math.inf:
            raise ValueError(f"arrival_rate must be finite and positive, got {arrival_rate}")
        rng = as_rng(rng)
        engine = RequestPipeline(self, queries, faults=faults, tracer=tracer)
        arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=len(engine.queries)))
        engine.admission = make_admission(engine, self.params)
        engine.admission.start(arrivals)
        with PROFILER.phase("cluster.run"):
            engine.sim.run()
        return engine.report()

    def simulate_load(
        self, cpu_build_per_record: float = 5e-6, parallel_input: bool = False
    ) -> "LoadReport":
        """Simulate the initial declustered load (paper §3.5's 3M-record step).

        The coordinator builds the structure (CPU per record), then ships
        every non-empty page to its owning node.  With the default
        ``parallel_input=False`` all pages flow through the coordinator's
        NIC before being written by the receiving node's disk; node disks
        work in parallel, so load time scales with nodes until the
        serialized coordinator NIC saturates (around ``disk_write /
        transfer_time`` ≈ 50 nodes with the default constants).
        ``parallel_input=True`` models pre-partitioned input (each node
        ingests its own share directly), which removes that ceiling.
        """
        if cpu_build_per_record < 0:
            raise ValueError("cpu_build_per_record must be non-negative")
        return _simulate_load(self, cpu_build_per_record, parallel_input)


@dataclass
class LoadReport:
    """Results of simulating the initial declustered load (paper §3.5)."""

    n_pages: int
    n_nodes: int
    #: Simulated seconds to build + distribute the file.
    elapsed_time: float
    #: Coordinator CPU seconds spent building the structure.
    build_time: float
    #: Bytes shipped to each node.
    bytes_per_node: np.ndarray

    @property
    def imbalance(self) -> float:
        """max/mean bytes per node (1.0 = perfectly even load)."""
        mean = self.bytes_per_node.mean()
        return float(self.bytes_per_node.max() / mean) if mean > 0 else 1.0


def _simulate_load(pgf: "ParallelGridFile", cpu_build_per_record: float, parallel_input: bool) -> LoadReport:
    params = pgf.params
    net = params.network
    store = pgf.store
    n_records = sum(
        store.page_records(p).size for p in range(store.n_pages)
    )
    build = cpu_build_per_record * n_records

    page_bytes = params.disk.block_bytes
    node_of = pgf.coordinator.node_of_bucket
    bytes_per_node = np.zeros(pgf.n_nodes)
    disk_write = [Resource(f"load.node{i}.disk") for i in range(pgf.n_nodes)]
    coord_nic = Resource("load.coord.nic")
    finish = build
    for page in range(store.n_pages):
        if store.page_records(page).size == 0:
            continue  # empty pages occupy no disk block
        node = node_of(page)
        bytes_per_node[node] += page_bytes
        t = net.transfer_time(page_bytes)
        if parallel_input:
            # Each node ingests its own partition of the input directly:
            # transfers overlap across nodes, serialized per node NIC=disk.
            _, arrive = disk_write[node].reserve(build, t + net.latency)
        else:
            # All data flows through the coordinator's NIC first.
            _, sent = coord_nic.reserve(build, t)
            _, arrive = disk_write[node].reserve(
                sent + net.latency, params.disk.service_time(1)
            )
        finish = max(finish, arrive)
    return LoadReport(
        n_pages=store.n_pages,
        n_nodes=pgf.n_nodes,
        elapsed_time=finish,
        build_time=build,
        bytes_per_node=bytes_per_node,
    )
