"""The coordinator: query translation against the storage structure.

The coordinator node stores the access structure's directory (grid-file
scales + directory, or the R-tree's internal levels); for each incoming
query it resolves the touched pages, groups them by owning node, and issues
the block requests.  Its CPU cost model charges a fixed lookup plus a small
per-page planning cost.

Any :class:`repro.parallel.stores.PageStore` works — the coordinator is the
point where the cluster simulator became storage-structure agnostic.
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
        if self.n_disks % self.disks_per_node:
            raise ValueError("n_disks must be a multiple of disks_per_node")
        self.n_nodes = self.n_disks // self.disks_per_node
        self.assignment = validate_assignment(assignment, self.store.n_pages, n_disks)
        self.lookup_time = float(lookup_time)
        self.plan_time_per_bucket = float(plan_time_per_bucket)

    def node_of_bucket(self, bucket_id: int) -> int:
        """Owning node of a page."""
        return int(self.assignment[bucket_id]) // self.disks_per_node

    def local_disk_of_bucket(self, bucket_id: int) -> int:
        """Local disk index (within the owning node) of a page."""
        return int(self.assignment[bucket_id]) % self.disks_per_node

    def node_of_disk(self, disk: int) -> int:
        """Owning node of a disk."""
        return int(disk) // self.disks_per_node

    def disks_of_node(self, node: int) -> range:
        """Global disk ids owned by ``node``."""
        return range(node * self.disks_per_node, (node + 1) * self.disks_per_node)

    def plan(self, query_id: int, query: RangeQuery) -> QueryPlan:
        """Translate a query into per-node block requests.

        Queries that already carry a resolved page set (the SQL planner's
        :class:`repro.sql.plan.RoutedQuery` — e.g. the R-tree access path
        fetches only match-holding buckets) are honoured as-is; plain
        queries resolve against the store, the legacy behaviour.

        Requests go out in ascending node order; each lists its buckets in
        page-set order.  The counting is array work over the touched pages'
        coordinate columns (see :meth:`_page_counts`), with no Python loop
        per record and one per page only to fetch the columns.
        """
        page_ids = getattr(query, "page_ids", None)
        if page_ids is not None:
            bids = np.asarray(page_ids, dtype=np.int64)
        else:
            bids = self.store.query_pages(query.lo, query.hi)
        disks = self.assignment[bids]
        blocks_per_disk = np.bincount(disks, minlength=self.n_disks)

        requests: list[BlockRequest] = []
        candidates: dict[int, int] = {}
        qualified: dict[int, int] = {}
        cand_bucket: dict[int, int] = {}
        qual_bucket: dict[int, int] = {}
        if bids.size:
            nodes = disks // self.disks_per_node
            bids = bids[np.argsort(nodes, kind="stable")]
            bid_list = bids.tolist()
            cand, qual = self._page_counts(bid_list, query)
            cand_bucket = dict(zip(bid_list, cand.tolist()))
            qual_bucket = dict(zip(bid_list, qual.tolist()))
            per_node = np.bincount(nodes, minlength=self.n_nodes)
            present = np.flatnonzero(per_node)
            ends = np.cumsum(per_node[present])
            starts = ends - per_node[present]
            for node, s, e, c, q in zip(
                present.tolist(),
                starts.tolist(),
                ends.tolist(),
                np.add.reduceat(cand, starts).tolist(),
                np.add.reduceat(qual, starts).tolist(),
            ):
                requests.append(
                    BlockRequest(query_id, node, bids[s:e], candidates=c, qualified=q)
                )
                candidates[node] = c
                qualified[node] = q
        return QueryPlan(
            query_id=query_id,
            requests=requests,
            blocks_per_disk=blocks_per_disk,
            candidates_per_node=candidates,
            qualified_per_node=qualified,
            candidates_per_bucket=cand_bucket,
            qualified_per_bucket=qual_bucket,
        )

    def _page_counts(self, page_ids: list, query) -> tuple[np.ndarray, np.ndarray]:
        """Candidate and qualified record counts of each page in ``page_ids``.

        The pages' coordinate columns are concatenated and tested against
        the closed query box once per dimension; the number of qualified
        positions before each page boundary, differenced, gives each
        page's hits.
        """
        cols = list(map(self.store.page_columns, page_ids))
        bounds = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum([c.shape[1] for c in cols], out=bounds[1:])
        cand = bounds[1:] - bounds[:-1]
        if not bounds[-1]:
            return cand, np.zeros_like(cand)
        pts = np.concatenate(cols, axis=1)
        lo = np.asarray(query.lo, dtype=np.float64)
        hi = np.asarray(query.hi, dtype=np.float64)
        inside = (pts[0] >= lo[0]) & (pts[0] <= hi[0])
        for k in range(1, pts.shape[0]):
            inside &= pts[k] >= lo[k]
            inside &= pts[k] <= hi[k]
        hits = inside.nonzero()[0].searchsorted(bounds)
        return cand, hits[1:] - hits[:-1]

    def plan_cpu_time(self, plan: QueryPlan) -> float:
        """CPU time the coordinator spends producing ``plan``."""
        n_buckets = int(plan.blocks_per_disk.sum())
        return self.lookup_time + self.plan_time_per_bucket * n_buckets
