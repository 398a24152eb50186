"""The simulated shared-nothing cluster: SPMD parallel grid file execution.

Drives the full §3.5 protocol on the discrete-event kernel:

1. the coordinator plans the query (CPU), then sends one block request per
   involved node over its NIC (serialized sends, latency per message);
2. each worker reads its cache-missing blocks from its local disks (parallel
   across disks, scheduled per disk), filters candidates on its CPU, and
   streams the qualified records back over its NIC;
3. the coordinator's ingest link receives replies one at a time — the
   shared bottleneck that makes communication time grow with answer size;
4. a query completes when every reply has been ingested.

Two driving modes:

* **closed** (:meth:`ParallelGridFile.run_queries`) — a fixed number of
  outstanding queries (default 1, the paper's sequential workload); the
  next query starts when one completes.
* **open** (:meth:`ParallelGridFile.run_open`) — queries arrive by a Poisson
  process at a given rate; the admission controller decides when each enters
  (unbounded by default; ``ClusterParams.max_inflight`` / ``deadline``
  switch to bounded admission with deadline shedding).

Reported metrics mirror Tables 4-5: *response time by definition* (blocks,
``max_i N_i(q)`` summed over queries — a pure declustering property),
*communication time* (seconds on the wire) and *elapsed time* (simulated
wall clock), plus latency, cache and utilization detail.

Fault tolerance (mid-run degraded mode)
---------------------------------------

Passing a :class:`repro.parallel.faults.FaultPlan` to either run method
injects node crashes, recoveries, disk slowdowns and message loss *while
queries are in flight*.  The coordinator then runs the robust protocol:
every request carries a timeout; a timed-out request is retried with
exponential backoff up to ``ClusterParams.max_retries`` times; when retries
are exhausted the target node is *suspected* and the request's buckets fail
over to their replica disks (``ClusterParams.replication`` — chained walks
cascade past consecutive dead disks).  Requests of later queries destined to
suspected nodes are rerouted at submit time; a recovery heartbeat clears
suspicion.  A query aborts only when some bucket has no live replica.  With
no faults and no explicit timeout the engine takes the exact legacy path —
``PerfReport`` numbers are bit-for-bit identical to the pre-fault-layer
engine (regression-tested).

Implementation
--------------

The engine itself lives in :mod:`repro.parallel.engine` as an explicit
request pipeline (admission → plan/route → cache probe → replica selection
→ disk service → filter/aggregate → reply) with pluggable scheduling,
replica-selection and admission seams; this module re-exports the public
entry points under their historical home.  See ``docs/architecture.md``
for the stage diagram.
"""

from repro.parallel.engine.params import (
    DEFAULT_REQUEST_TIMEOUT,
    ClusterParams,
    validate_params,
)
from repro.parallel.engine.pipeline import RequestPipeline
from repro.parallel.engine.runners import LoadReport, ParallelGridFile
from repro.parallel.engine.stats import PerfReport

__all__ = [
    "ClusterParams",
    "DEFAULT_REQUEST_TIMEOUT",
    "LoadReport",
    "ParallelGridFile",
    "PerfReport",
    "RequestPipeline",
    "validate_params",
]
