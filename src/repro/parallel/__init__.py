"""Shared-nothing parallel grid files on a simulated cluster (paper §3.5).

The paper runs parallel grid files on a 16-node IBM SP-2: each node owns a
local disk, one node doubles as the **coordinator** holding the scales and
directory, and queries follow an SPMD protocol — the coordinator translates
a query into per-node block requests, workers read the blocks (with whatever
their buffer cache saves them), filter records, and ship qualified records
back.

That hardware is simulated here by a small discrete-event engine
(:mod:`repro.parallel.des`) with explicit cost models: a per-block disk
service time, an LRU buffer cache per node, and a latency + bandwidth
network with serialized NICs (the coordinator's ingest link is the shared
bottleneck, which is what makes communication time grow with the answer
size, as in Table 5).  The declustering-level metric — blocks fetched,
``max_i N_i(q)`` summed over queries — is exactly the paper's and does not
depend on the cost model at all.
"""

from repro._util.lru import LRUCache
from repro.parallel.autoscale import (
    AUTOSCALE_POLICIES,
    AutoscaleCluster,
    AutoscaleParams,
    AutoscaleReport,
    ScalePlan,
    make_autoscale_policy,
)
from repro.parallel.des import Event, Resource, Simulator
from repro.parallel.engine import (
    REPLICA_POLICIES,
    SCHEDULERS,
    ClusterParams,
    LoadReport,
    ParallelGridFile,
    PerfReport,
    RequestPipeline,
    make_replica_policy,
    make_scheduler,
)
from repro.parallel.disk import DiskModel
from repro.parallel.faults import FaultEvent, FaultInjector, FaultPlan
from repro.parallel.network import NetworkModel
from repro.parallel.online import DegradationMonitor, OnlineCluster, OnlineReport
from repro.parallel.replication import apply_failures, effective_disk, replica_assignment
from repro.parallel.stores import (
    DurableGridFileStore,
    GridFileStore,
    PageStore,
    RTreeStore,
    as_page_store,
    make_store,
)

__all__ = [
    "apply_failures",
    "effective_disk",
    "replica_assignment",
    "PageStore",
    "GridFileStore",
    "DurableGridFileStore",
    "RTreeStore",
    "as_page_store",
    "make_store",
    "Simulator",
    "Resource",
    "Event",
    "LRUCache",
    "DiskModel",
    "NetworkModel",
    "ClusterParams",
    "ParallelGridFile",
    "PerfReport",
    "LoadReport",
    "RequestPipeline",
    "SCHEDULERS",
    "REPLICA_POLICIES",
    "make_scheduler",
    "make_replica_policy",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "OnlineCluster",
    "OnlineReport",
    "DegradationMonitor",
    "AutoscaleParams",
    "AutoscaleCluster",
    "AutoscaleReport",
    "ScalePlan",
    "AUTOSCALE_POLICIES",
    "make_autoscale_policy",
]
