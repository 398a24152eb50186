"""Straightforward reference implementations the fast kernels are checked against.

Each oracle is the plain loop the optimised code replaced; tests compare
the two result for result.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_positive_int
from repro.parallel.coordinator import QueryPlan
from repro.parallel.message import BlockRequest
from repro.sim.diskmodel import as_bucket_list_set


def response_times_reference(bucket_lists, assignment: np.ndarray, n_disks: int) -> np.ndarray:
    """``max_i N_i(q)`` per query, one ``bincount`` per query."""
    check_positive_int(n_disks, "n_disks")
    assignment = np.asarray(assignment, dtype=np.int64)
    bucket_lists = as_bucket_list_set(bucket_lists)
    out = np.empty(len(bucket_lists), dtype=np.int64)
    for i, bids in enumerate(bucket_lists):
        if len(bids) == 0:
            out[i] = 0
            continue
        counts = np.bincount(assignment[bids], minlength=n_disks)
        out[i] = counts.max()
    return out


def reference_plan(coordinator, query_id: int, query) -> QueryPlan:
    """``Coordinator.plan`` as a loop over nodes and their buckets, filtering
    each bucket's records with ``query.contains``."""
    store = coordinator.store
    page_ids = getattr(query, "page_ids", None)
    if page_ids is not None:
        bids = np.asarray(page_ids, dtype=np.int64)
    else:
        bids = store.query_pages(query.lo, query.hi)
    disks = coordinator.assignment[bids]
    blocks_per_disk = np.bincount(disks, minlength=coordinator.n_disks)

    requests: list[BlockRequest] = []
    candidates: dict[int, int] = {}
    qualified: dict[int, int] = {}
    cand_bucket: dict[int, int] = {}
    qual_bucket: dict[int, int] = {}
    nodes = disks // coordinator.disks_per_node
    for node in np.unique(nodes):
        node_bids = bids[nodes == node]
        cand = 0
        qual = 0
        for b in node_bids:
            rec = store.page_records(int(b))
            bq = 0
            if rec.size:
                bq = int(query.contains(store.record_coords(rec)).sum())
            cand_bucket[int(b)] = rec.size
            qual_bucket[int(b)] = bq
            cand += rec.size
            qual += bq
        requests.append(
            BlockRequest(query_id, int(node), node_bids, candidates=cand, qualified=qual)
        )
        candidates[int(node)] = cand
        qualified[int(node)] = qual
    return QueryPlan(
        query_id=query_id,
        requests=requests,
        blocks_per_disk=blocks_per_disk,
        candidates_per_node=candidates,
        qualified_per_node=qualified,
        candidates_per_bucket=cand_bucket,
        qualified_per_bucket=qual_bucket,
    )


def str_rtree_reference(points: np.ndarray, max_entries: int) -> tuple[list, list]:
    """The STR R-tree built with plain loops, as the old object tree built it.

    Leaves come from a Sort-Tile-Recursive tiling done with Python's stable
    ``sorted``; each leaf's MBR is the ``min``/``max`` of its points, and
    each parent's the union of its chunk of at most ``max_entries``
    children.  Returns ``(leaves, levels)``: ``leaves`` lists each leaf's
    record ids, ``levels[l]`` lists level ``l``'s ``(lo, hi)`` boxes,
    leaves first.  An empty point set gives one empty leaf and no levels.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape

    def tile(ids: list, dim: int) -> list:
        if len(ids) <= max_entries:
            return [ids]
        ordered = sorted(ids, key=lambda r: points[r, dim])
        n_pages = math.ceil(len(ids) / max_entries)
        n_slabs = math.ceil(n_pages ** (1.0 / (d - dim))) if dim < d - 1 else n_pages
        per_slab = math.ceil(len(ids) / n_slabs)
        out = []
        for s in range(0, len(ids), per_slab):
            chunk = ordered[s : s + per_slab]
            out.extend(tile(chunk, dim + 1) if dim < d - 1 else [chunk])
        return out

    leaves = tile(list(range(n)), 0)
    if n == 0:
        return leaves, []
    levels = [[(points[g].min(axis=0), points[g].max(axis=0)) for g in leaves]]
    while len(levels[-1]) > 1:
        parents = []
        for s in range(0, len(levels[-1]), max_entries):
            lo, hi = levels[-1][s]
            for c_lo, c_hi in levels[-1][s + 1 : s + max_entries]:
                lo, hi = np.minimum(lo, c_lo), np.maximum(hi, c_hi)
            parents.append((lo, hi))
        levels.append(parents)
    return leaves, levels
