"""The coordinator: query translation against the storage structure.

The coordinator node stores the access structure's directory (grid-file
scales + directory, or the R-tree's internal levels); for each incoming
query it resolves the touched pages, groups them by owning node, and issues
the block requests.  Its CPU cost model charges a fixed lookup plus a small
per-page planning cost.

Any :class:`repro.parallel.stores.PageStore` works — the coordinator is the
point where the cluster simulator became storage-structure agnostic.

Planning is array work with two entry points over one body
(:meth:`Coordinator._build_plans`).  :meth:`Coordinator.plan_batch` plans
a whole workload at once; it serves the eager runs (``run_queries``,
``run_open``), and so the SQL engine's SELECT batches, whose routed page
sets pass through :meth:`~repro.parallel.stores.PageStore.
query_pages_batch` unchanged.  An eager run's plans depend only on the
store and the assignment, never on simulated state, so the store resolves
every box query in one call, one stable sort groups all (query, node)
pairs, and ``reduceat`` sums the groups.  :meth:`Coordinator.plan`
resolves one query with one directory lookup; it serves the online engine,
which plans each operation at submit time against the changing store.
Qualified records are counted query by query, so only one query's page
columns are alive at a time, whatever the store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import validate_assignment
from repro.gridfile.query import RangeQuery
from repro.parallel.message import BlockRequest
from repro.parallel.stores import PageStore, as_page_store

__all__ = ["Coordinator", "QueryPlan"]


@dataclass(frozen=True)
class QueryPlan:
    """The per-node work breakdown of one query."""

    query_id: int
    requests: list[BlockRequest]
    #: Per-disk block counts (the §2.2 response-time ingredients).
    blocks_per_disk: np.ndarray
    #: Candidate (stored) records per node.
    candidates_per_node: dict[int, int]
    #: Qualified records per node.
    qualified_per_node: dict[int, int]
    #: Candidate records per touched bucket (failover re-aggregation).
    candidates_per_bucket: dict[int, int]
    #: Qualified records per touched bucket (failover re-aggregation).
    qualified_per_bucket: dict[int, int]

    @property
    def response_by_definition(self) -> int:
        """``max_i N_i(q)`` over *disks* — the paper's response time."""
        return int(self.blocks_per_disk.max()) if self.blocks_per_disk.size else 0

    @property
    def total_qualified(self) -> int:
        """Answer-set size of the query."""
        return sum(self.qualified_per_node.values())


class Coordinator:
    """Query planner over a declustered page store.

    Parameters
    ----------
    store:
        A :class:`~repro.parallel.stores.PageStore`, or a ``GridFile`` /
        ``RTree`` (coerced automatically).
    assignment:
        ``(n_pages,)`` *disk* ids.
    n_disks:
        Total number of disks.
    disks_per_node:
        Disks owned by each node; ``node = disk // disks_per_node``.
    lookup_time:
        Fixed directory-lookup CPU cost per query (seconds).
    plan_time_per_bucket:
        Additional CPU cost per touched page.
    """

    def __init__(
        self,
        store,
        assignment: np.ndarray,
        n_disks: int,
        disks_per_node: int = 1,
        lookup_time: float = 0.2e-3,
        plan_time_per_bucket: float = 2e-6,
    ):
        self.store: PageStore = as_page_store(store)
        self.n_disks = int(n_disks)
        self.disks_per_node = int(disks_per_node)
        if self.disks_per_node < 1:
            raise ValueError(f"disks_per_node must be >= 1, got {disks_per_node}")
        if self.n_disks % self.disks_per_node:
            raise ValueError("n_disks must be a multiple of disks_per_node")
        self.n_nodes = self.n_disks // self.disks_per_node
        self.assignment = validate_assignment(assignment, self.store.n_pages, n_disks)
        for name, value in (
            ("lookup_time", lookup_time),
            ("plan_time_per_bucket", plan_time_per_bucket),
        ):
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.lookup_time = float(lookup_time)
        self.plan_time_per_bucket = float(plan_time_per_bucket)

    def node_of_bucket(self, bucket_id: int) -> int:
        """Owning node of a page."""
        return int(self.assignment[bucket_id]) // self.disks_per_node

    def node_of_disk(self, disk: int) -> int:
        """Owning node of a disk."""
        return int(disk) // self.disks_per_node

    def disks_of_node(self, node: int) -> range:
        """Global disk ids owned by ``node``."""
        return range(node * self.disks_per_node, (node + 1) * self.disks_per_node)

    def plan(self, query_id: int, query: RangeQuery) -> QueryPlan:
        """Translate one query into per-node block requests.

        Queries that already carry a resolved page set (the SQL planner's
        :class:`repro.sql.plan.RoutedQuery` — e.g. the R-tree access path
        fetches only match-holding buckets) are honoured as-is; plain
        queries resolve against the store with one directory lookup.
        Requests go out in ascending node order; each lists its buckets in
        page-set order.
        """
        page_ids = getattr(query, "page_ids", None)
        if page_ids is not None:
            bids = np.asarray(page_ids, dtype=np.int64)
        else:
            bids = np.asarray(self.store.query_pages(query.lo, query.hi), dtype=np.int64)
        return self._build_plans([query], bids, np.array([0, bids.size]), query_id)[0]

    def plan_batch(self, queries) -> list[QueryPlan]:
        """:meth:`plan` of every query of a workload, with query ids
        ``0..n-1``, resolved in one batch.

        Plans equal :meth:`plan`'s field for field.  The store resolves all
        queries at once (:meth:`~repro.parallel.stores.PageStore.
        query_pages_batch`) and one sort groups the whole batch; records
        are still counted one query at a time.  Plans depend only on the store and the assignment, so an
        eager run builds them all before its first event.
        """
        queries = list(queries)
        ids, offsets = self.store.query_pages_batch(queries)
        return self._build_plans(queries, ids, offsets, 0)

    def _build_plans(self, queries, ids, offsets, first_id: int) -> list[QueryPlan]:
        """Plans of ``queries`` from their CSR page sets ``ids[offsets[i]:
        offsets[i+1]]``; query ``i`` gets id ``first_id + i``.

        One stable sort on a (query, node) key orders every query's pages
        by node, keeping page-set order within a node, so each run of equal
        keys is one request; run totals come from ``reduceat``.
        """
        n = len(queries)
        n_disks, n_nodes = self.n_disks, self.n_nodes
        qidx = np.repeat(np.arange(n), offsets[1:] - offsets[:-1])
        disks = self.assignment[ids]
        blocks_per_disk = np.bincount(
            qidx * n_disks + disks, minlength=n * n_disks
        ).reshape(n, n_disks)
        key = qidx * n_nodes + disks // self.disks_per_node
        order = key.argsort(kind="stable")
        ids = ids[order]
        key = key[order]
        id_list = ids.tolist()
        off = offsets.tolist()
        cand, qual = self._record_counts(queries, id_list, off)

        new_run = np.empty(key.size, dtype=bool)
        new_run[:1] = True
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        starts = new_run.nonzero()[0]
        run_key = key[starts]
        run_off = run_key.searchsorted(np.arange(n + 1) * n_nodes).tolist()
        run_node = (run_key - qidx[starts] * n_nodes).tolist()
        run_start = starts.tolist()
        run_end = run_start[1:] + [key.size]
        if starts.size:
            run_cand = np.add.reduceat(cand, starts).tolist()
            run_qual = np.add.reduceat(qual, starts).tolist()
        else:
            run_cand = run_qual = []
        cand_list = cand.tolist()
        qual_list = qual.tolist()

        plans = []
        for i in range(n):
            qid = first_id + i
            r0, r1 = run_off[i], run_off[i + 1]
            node_ids = run_node[r0:r1]
            node_cand = run_cand[r0:r1]
            node_qual = run_qual[r0:r1]
            requests = [
                BlockRequest(qid, node, ids[a:b], c, q)
                for node, a, b, c, q in zip(
                    node_ids, run_start[r0:r1], run_end[r0:r1], node_cand, node_qual
                )
            ]
            s, e = off[i], off[i + 1]
            bucket_ids = id_list[s:e]
            plans.append(
                QueryPlan(
                    query_id=qid,
                    requests=requests,
                    blocks_per_disk=blocks_per_disk[i],
                    candidates_per_node=dict(zip(node_ids, node_cand)),
                    qualified_per_node=dict(zip(node_ids, node_qual)),
                    candidates_per_bucket=dict(zip(bucket_ids, cand_list[s:e])),
                    qualified_per_bucket=dict(zip(bucket_ids, qual_list[s:e])),
                )
            )
        return plans

    def _record_counts(self, queries, page_ids: list, offsets: list):
        """Candidate and qualified records of each page, as int64 arrays
        aligned with ``page_ids``; query ``i`` owns the pages
        ``page_ids[offsets[i]:offsets[i+1]]``.

        Records are counted one query at a time (:meth:`_query_counts`), so
        only one query's page columns are alive at once, whether the store
        caches them or gathers them per call.
        """
        cand = np.zeros(len(page_ids), dtype=np.int64)
        qual = np.zeros(len(page_ids), dtype=np.int64)
        for i, query in enumerate(queries):
            s, e = offsets[i], offsets[i + 1]
            if s < e:
                cand[s:e], qual[s:e] = self._query_counts(query, page_ids[s:e])
        return cand, qual

    def _query_counts(self, query, page_ids: list):
        """Candidate and qualified records of each of one query's pages.

        The pages' coordinate columns are concatenated and tested against
        the closed box once per dimension; the flagged positions before
        each page boundary, differenced, give each page's hits.
        """
        cols = list(map(self.store.page_columns, page_ids))
        bounds = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum([c.shape[1] for c in cols], out=bounds[1:])
        sizes = bounds[1:] - bounds[:-1]
        if not bounds[-1]:
            return sizes, 0
        pts = np.concatenate(cols, axis=1)
        lo = np.asarray(query.lo, dtype=np.float64)
        hi = np.asarray(query.hi, dtype=np.float64)
        inside = pts[0] >= lo[0]
        inside &= pts[0] <= hi[0]
        for k in range(1, pts.shape[0]):
            inside &= pts[k] >= lo[k]
            inside &= pts[k] <= hi[k]
        hits = inside.nonzero()[0].searchsorted(bounds)
        return sizes, hits[1:] - hits[:-1]

    def plan_cpu_time(self, plan: QueryPlan) -> float:
        """CPU time the coordinator spends producing ``plan``."""
        n_buckets = int(plan.blocks_per_disk.sum())
        return self.lookup_time + self.plan_time_per_bucket * n_buckets
