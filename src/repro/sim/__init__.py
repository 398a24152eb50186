"""Disk-farm simulation: the paper's experimental methodology (§2.2).

The simulator makes the paper's assumptions explicit: raw disk I/O (no file
system caching), no temporal locality across queries, and identical per-
bucket read time on all disks.  Under those assumptions the **response
time** of query ``q`` is just ``max_i N_i(q)`` — the largest number of
buckets any one disk must deliver — and a workload's figure of merit is the
mean response time over 1000 random square queries.

(The richer model with caching, communication and service times lives in
:mod:`repro.parallel`; this package is the faithful counterpart of the
paper's §2.2 simulator.)
"""

from repro.sim.diskmodel import (
    BucketListSet,
    QueryEvaluation,
    evaluate_queries,
    resolve_query_buckets,
    response_times,
)
from repro.sim.metrics import (
    closest_pairs_same_disk,
    degree_of_data_balance,
    nearest_neighbors,
    speedup_series,
)
from repro.sim.runner import MethodCurve, SweepResult, sweep_methods
from repro.sim.workload import (
    Operation,
    animation_queries,
    flash_crowd_queries,
    mixed_workload,
    partial_match_workload,
    square_queries,
    trace_queries,
)

__all__ = [
    "BucketListSet",
    "QueryEvaluation",
    "evaluate_queries",
    "resolve_query_buckets",
    "response_times",
    "degree_of_data_balance",
    "closest_pairs_same_disk",
    "nearest_neighbors",
    "speedup_series",
    "square_queries",
    "animation_queries",
    "trace_queries",
    "partial_match_workload",
    "Operation",
    "mixed_workload",
    "flash_crowd_queries",
    "sweep_methods",
    "SweepResult",
    "MethodCurve",
]
