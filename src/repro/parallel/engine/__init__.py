"""The simulated shared-nothing cluster: an explicit request pipeline.

Drives the full §3.5 protocol on the discrete-event kernel:

1. the coordinator plans the query (CPU), then sends one block request per
   involved node over its NIC (serialized sends, latency per message);
2. each worker reads its cache-missing blocks from its local disks (parallel
   across disks, scheduled per disk), filters candidates on its CPU, and
   streams the qualified records back over its NIC;
3. the coordinator's ingest link receives replies one at a time — the
   shared bottleneck that makes communication time grow with answer size;
4. a query completes when every reply has been ingested.

:class:`~repro.parallel.engine.runners.ParallelGridFile` runs a workload
*closed* (``run_queries``: ``pipeline_depth`` outstanding queries, default
1, the paper's sequential workload) or *open* (``run_open``: Poisson
arrivals handed to the admission controller).  Reported metrics mirror
Tables 4-5: *response time by definition* (blocks, ``max_i N_i(q)`` summed
over queries — a pure declustering property), *communication time* and
*elapsed time*, plus latency, cache and utilization detail.

One query flows through explicit stages — admission → plan/route → cache
probe → replica selection → disk service → filter/aggregate → reply — each
owned by a small object, with three pluggable seams:

* **disk scheduling** (:mod:`~repro.parallel.engine.scheduling`):
  ``fifo`` / ``sjf`` / ``fair`` per-disk queue disciplines;
* **replica selection** (:mod:`~repro.parallel.engine.replicas`):
  ``primary-only`` / ``least-loaded-alive`` / ``fastest-estimated``;
* **admission control** (:mod:`~repro.parallel.engine.admission`):
  unbounded (legacy), ``max_inflight`` bounding and ``deadline`` shedding
  for open-system runs.

Degraded mode (timeout → retry → suspect → failover → abort, driven by a
:class:`repro.parallel.faults.FaultPlan`) is its own stage
(:mod:`~repro.parallel.engine.degraded`); shared per-run bookkeeping lives
in :mod:`~repro.parallel.engine.stats`.  With no faults and no explicit
timeout the engine arms no timeouts, and the default configuration
reproduces the legacy engine byte for byte
(``tests/test_engine_neutrality.py``).  See ``docs/architecture.md`` for
the stage diagram.
"""

from repro.parallel.engine.admission import (
    AdmissionController,
    BoundedAdmission,
    UnboundedAdmission,
    make_admission,
)
from repro.parallel.engine.degraded import DegradedMode
from repro.parallel.engine.params import (
    DEFAULT_REQUEST_TIMEOUT,
    ClusterParams,
    validate_params,
)
from repro.parallel.engine.pipeline import RequestPipeline
from repro.parallel.engine.replicas import (
    REPLICA_POLICIES,
    ReplicaSelector,
    make_replica_policy,
)
from repro.parallel.engine.runners import LoadReport, ParallelGridFile
from repro.parallel.engine.scheduling import SCHEDULERS, DiskQueue, make_scheduler
from repro.parallel.engine.stats import PerfReport, StatsCollector

__all__ = [
    "AdmissionController",
    "BoundedAdmission",
    "ClusterParams",
    "DEFAULT_REQUEST_TIMEOUT",
    "DegradedMode",
    "DiskQueue",
    "LoadReport",
    "ParallelGridFile",
    "PerfReport",
    "REPLICA_POLICIES",
    "ReplicaSelector",
    "RequestPipeline",
    "SCHEDULERS",
    "StatsCollector",
    "UnboundedAdmission",
    "make_admission",
    "make_replica_policy",
    "make_scheduler",
    "validate_params",
]
