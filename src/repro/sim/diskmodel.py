"""Response-time evaluation of a declustered grid file.

Implements the paper's §2.2 performance metric: for a query ``q``,
``response(q) = max_i N_i(q)`` with ``N_i`` the number of buckets disk ``i``
delivers.  Assumptions made explicit (and matching the paper's simulator):
raw I/O (no caching), no temporal locality, identical per-bucket read time.

Batch evaluation
----------------
Workloads are resolved once into a :class:`BucketListSet` — a CSR packing of
all per-query bucket-id lists (one concatenated id array plus offsets).  The
response-time kernel is then a single scatter-add into a
``(queries, disks)`` count matrix followed by a row max, instead of one
Python-level ``np.bincount`` per query; the packing is independent of the
disk assignment, so a (method × disk-count) sweep reuses it for every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.core.base import validate_assignment
from repro.core.optimal import optimal_response_times
from repro.gridfile.gridfile import GridFile
from repro.obs import PROFILER

__all__ = [
    "BucketListSet",
    "QueryEvaluation",
    "evaluate_queries",
    "resolve_query_buckets",
    "response_times",
    "query_buckets",
]

#: Cap (in matrix cells) on the dense (queries, disks) count matrix a single
#: kernel block materializes; larger workloads are processed in query blocks.
_KERNEL_CELL_BUDGET = 1 << 22


@dataclass(frozen=True)
class BucketListSet:
    """CSR-packed per-query bucket-id lists.

    ``ids[offsets[i]:offsets[i+1]]`` holds the bucket ids touched by query
    ``i``.  The packing is computed once per workload (it does not depend on
    the disk assignment) and shared by every cell of a sweep.
    """

    #: Concatenated bucket ids of all queries (int64).
    ids: np.ndarray
    #: ``(n_queries + 1,)`` int64 prefix offsets into :attr:`ids`.
    offsets: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
            raise ValueError("offsets must be 1-d and start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if ids.ndim != 1 or offsets[-1] != ids.size:
            raise ValueError("offsets[-1] must equal len(ids)")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_lists(cls, bucket_lists) -> "BucketListSet":
        """Pack a sequence of per-query bucket-id arrays into CSR form."""
        lists = [np.asarray(b, dtype=np.int64).ravel() for b in bucket_lists]
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([b.size for b in lists], out=offsets[1:])
        ids = (
            np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        )
        return cls(ids=ids, offsets=offsets)

    @classmethod
    def from_queries(cls, gf: GridFile, queries) -> "BucketListSet":
        """Resolve a workload of :class:`RangeQuery` against ``gf`` in batch."""
        queries = list(queries)
        if not queries:
            return cls(ids=np.empty(0, dtype=np.int64), offsets=np.zeros(1, dtype=np.int64))
        lo = np.stack([np.asarray(q.lo, dtype=np.float64) for q in queries])
        hi = np.stack([np.asarray(q.hi, dtype=np.float64) for q in queries])
        ids, offsets = gf.batch_query_buckets(lo, hi)
        return cls(ids=ids, offsets=offsets)

    @property
    def n_queries(self) -> int:
        """Number of queries packed in the set."""
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        """Per-query number of buckets touched (int64)."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.n_queries

    def __getitem__(self, i: int) -> np.ndarray:
        """Bucket-id array of query ``i`` (a view into :attr:`ids`)."""
        return self.ids[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self):
        for i in range(self.n_queries):
            yield self[i]


def as_bucket_list_set(bucket_lists) -> BucketListSet:
    """Coerce a :class:`BucketListSet` or sequence of arrays into CSR form."""
    if isinstance(bucket_lists, BucketListSet):
        return bucket_lists
    return BucketListSet.from_lists(bucket_lists)


@dataclass(frozen=True)
class QueryEvaluation:
    """Results of running a query workload against one disk assignment."""

    #: Per-query response time ``max_i N_i(q)`` (buckets).
    response: np.ndarray
    #: Per-query number of distinct buckets touched.
    buckets_touched: np.ndarray
    #: Per-query optimal response time ``⌈buckets/M⌉``.
    optimal: np.ndarray
    #: Number of disks.
    n_disks: int

    @property
    def mean_response(self) -> float:
        """Mean response time over the workload (the paper's y-axis)."""
        return float(self.response.mean()) if self.response.size else 0.0

    @property
    def mean_optimal(self) -> float:
        """Mean optimal response time (the paper's reference curve)."""
        return float(self.optimal.mean()) if self.optimal.size else 0.0

    @property
    def total_blocks(self) -> int:
        """Sum of response times in blocks (the Table 4/5 first column)."""
        return int(self.response.sum())


def query_buckets(gf: GridFile, queries) -> list[np.ndarray]:
    """Bucket-id lists for each query (non-empty buckets only).

    Kept for callers that want plain per-query arrays; batch evaluation
    should use :func:`resolve_query_buckets`, which returns the CSR packing
    directly.
    """
    return [gf.query_buckets(q.lo, q.hi) for q in queries]


def resolve_query_buckets(gf: GridFile, queries) -> BucketListSet:
    """Resolve a workload into a CSR :class:`BucketListSet` (batched)."""
    with PROFILER.phase("resolve_query_buckets"):
        return BucketListSet.from_queries(gf, queries)


def response_times(
    bucket_lists, assignment: np.ndarray, n_disks: int
) -> np.ndarray:
    """Per-query ``max_i N_i(q)`` for precomputed per-query bucket lists.

    Fully vectorized: one segmented bincount into a ``(queries, disks)``
    count matrix per block of queries, followed by a row max.  Accepts a
    :class:`BucketListSet` or any sequence of bucket-id arrays and matches
    the per-query reference loop exactly.
    """
    check_positive_int(n_disks, "n_disks")
    with PROFILER.phase("response_times"):
        assignment = np.asarray(assignment, dtype=np.int64)
        bls = as_bucket_list_set(bucket_lists)
        nq = len(bls)
        out = np.zeros(nq, dtype=np.int64)
        if nq == 0 or bls.ids.size == 0:
            return out
        block = max(1, _KERNEL_CELL_BUDGET // n_disks)
        offsets = bls.offsets
        counts = bls.counts
        for q0 in range(0, nq, block):
            q1 = min(nq, q0 + block)
            s, e = int(offsets[q0]), int(offsets[q1])
            if s == e:
                continue
            # key = local query index * n_disks + disk, summed in place so
            # that at most two id-sized arrays are alive at once.
            key = np.repeat(np.arange(q1 - q0, dtype=np.int64) * n_disks, counts[q0:q1])
            key += assignment[bls.ids[s:e]]
            mat = np.bincount(key, minlength=(q1 - q0) * n_disks)
            out[q0:q1] = mat.reshape(q1 - q0, n_disks).max(axis=1)
        return out


def evaluate_queries(
    gf: GridFile,
    assignment: np.ndarray,
    queries,
    n_disks: int,
    bucket_lists=None,
) -> QueryEvaluation:
    """Run a workload of :class:`RangeQuery` against a declustered grid file.

    Parameters
    ----------
    gf:
        The grid file.
    assignment:
        ``(n_buckets,)`` disk ids.
    queries:
        Iterable of :class:`RangeQuery`.
    n_disks:
        Number of disks ``M``.
    bucket_lists:
        Optional precomputed :class:`BucketListSet` (or plain list output of
        :func:`query_buckets`).  Query resolution is independent of the
        assignment, so sweeps over methods and disk counts should compute it
        once with :func:`resolve_query_buckets`.
    """
    assignment = validate_assignment(assignment, gf.n_buckets, n_disks)
    if bucket_lists is None:
        bls = resolve_query_buckets(gf, queries)
    else:
        bls = as_bucket_list_set(bucket_lists)
    resp = response_times(bls, assignment, n_disks)
    touched = bls.counts
    opt = optimal_response_times(touched, n_disks)
    return QueryEvaluation(
        response=resp, buckets_touched=touched, optimal=opt, n_disks=n_disks
    )
