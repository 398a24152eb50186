"""Straightforward reference implementations the fast kernels are checked against.

Each oracle is the plain loop the optimised code replaced; tests compare
the two result for result.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.parallel.coordinator import QueryPlan
from repro.parallel.message import BlockRequest
from repro.sfc.base import deinterleave_bits
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


class WorkerReply(NamedTuple):
    """What :func:`serve_reference` reports about one served request."""

    n_blocks: int
    n_cache_misses: int
    n_candidates: int
    n_qualified: int


def serve_reference(
    node, arrival: float, request, disk_of_bucket, candidates: int, qualified: int, tracer=None
):
    """The worker stage for one request arriving at ``arrival``, as a loop.

    Probes ``node``'s LRU once per block in request order, reserves each
    local disk (``disk_of_bucket(bucket)``) for its missed blocks in
    first-miss order, then reserves the CPU filter pass over ``candidates``
    records once the last read lands.  With an enabled ``tracer``, each
    disk reservation emits a ``disk.read`` event like the engine's.
    Returns ``(ready_time, reply)``: when the reply payload is ready for
    the NIC, and its counts.
    """
    misses_per_disk: dict = {}
    n_misses = 0
    for bid in request.bucket_ids:
        if not node.cache.access(int(bid)):
            d = disk_of_bucket(int(bid))
            misses_per_disk[d] = misses_per_disk.get(d, 0) + 1
            n_misses += 1
    disk_done = arrival
    for d, n_blocks in misses_per_disk.items():
        service, slow = node.disk_service(d, n_blocks)
        start, end = node.disks[d].reserve(arrival, service)
        if tracer is not None:
            tracer.event(
                "disk.read",
                arrival,
                entity=f"node{node.node_id}.disk{d}",
                n_blocks=n_blocks,
                start=start,
                end=end,
                slowdown=slow,
            )
        disk_done = max(disk_done, end)
    _, ready = node.cpu.reserve(disk_done, node.cpu_filter_per_record * candidates)
    n_blocks = len(request.bucket_ids)
    node.blocks_requested += n_blocks
    node.blocks_read += n_misses
    node.records_filtered += candidates
    node.records_qualified += qualified
    return ready, WorkerReply(n_blocks, n_misses, candidates, qualified)


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


def hilbert_index_reference(coords: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Hilbert keys by Skilling's transform on one ``(n, d)`` int64 array,
    with boolean-mask updates (``x[hi, 0] ^= p``) for each branch."""
    x = np.array(coords, dtype=np.int64).reshape(-1, dims)
    m = np.int64(1) << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            hi = (x[:, i] & q) != 0
            x[hi, 0] ^= p
            lo = ~hi
            t = (x[lo, 0] ^ x[lo, i]) & p
            x[lo, 0] ^= t
            x[lo, i] ^= t
        q >>= 1
    for i in range(1, dims):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(x.shape[0], dtype=np.int64)
    q = m
    while q > 1:
        sel = (x[:, dims - 1] & q) != 0
        t[sel] ^= q - 1
        q >>= 1
    x ^= t[:, None]
    return interleave_bits_reference(x, bits)


def interleave_bits_reference(coords: np.ndarray, bits: int) -> np.ndarray:
    """Z-order keys one bit of one dimension at a time."""
    coords = np.asarray(coords, dtype=np.int64)
    n, d = coords.shape
    out = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        for k in range(d):
            out |= ((coords[:, k] >> b) & 1) << (b * d + (d - 1 - k))
    return out


def hilbert_coords_reference(index: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`hilbert_index_reference`, in the same style."""
    x = deinterleave_bits(np.asarray(index, dtype=np.int64), dims, bits)
    n_top = np.int64(2) << (bits - 1)
    t = x[:, dims - 1] >> 1
    for i in range(dims - 1, 0, -1):
        x[:, i] ^= x[:, i - 1]
    x[:, 0] ^= t
    q = np.int64(2)
    while q != n_top:
        p = q - 1
        for i in range(dims - 1, -1, -1):
            hi = (x[:, i] & q) != 0
            x[hi, 0] ^= p
            lo = ~hi
            t = (x[lo, 0] ^ x[lo, i]) & p
            x[lo, 0] ^= t
            x[lo, i] ^= t
        q <<= 1
    return x


def batch_query_buckets_reference(gf, lo, hi, include_empty: bool = False):
    """``GridFile.batch_query_buckets`` with one ``np.unique`` over the
    directory slab of each query."""
    lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
    starts, stops = gf.scales.cell_ranges_for_boxes(lo, hi)
    sizes = None if include_empty else gf.bucket_sizes()
    grid = gf.directory.grid
    chunks = [np.empty(0, dtype=np.int64)]
    offsets = np.zeros(starts.shape[0] + 1, dtype=np.int64)
    for i in range(starts.shape[0]):
        sl = tuple(slice(int(starts[i, k]), int(stops[i, k])) for k in range(gf.dims))
        ids = np.unique(grid[sl])
        if sizes is not None:
            ids = ids[sizes[ids] > 0]
        chunks.append(ids)
        offsets[i + 1] = offsets[i] + ids.size
    return np.concatenate(chunks).astype(np.int64), offsets


def bucket_alternatives(gf, disk_grid: np.ndarray) -> list:
    """Each bucket's per-cell disks, one directory slice per bucket."""
    return [disk_grid[b.cellbox.slices()].ravel() for b in gf.buckets]


def _check_alternatives(alternatives, n_disks):
    for i, alt in enumerate(alternatives):
        alt = np.asarray(alt)
        if alt.size == 0:
            raise ValueError(f"bucket {i} has no assignment alternatives")
        if alt.min() < 0 or alt.max() >= n_disks:
            raise ValueError(f"bucket {i} alternatives out of range [0, {n_disks})")


def resolve_random_reference(alternatives, n_disks, *, weights=None, sizes=None, rng=None):
    """Random conflict resolution, one ``np.unique`` and one draw per bucket."""
    _check_alternatives(alternatives, n_disks)
    rng = as_rng(rng)
    out = np.empty(len(alternatives), dtype=np.int64)
    for i, alt in enumerate(alternatives):
        distinct = np.unique(alt)
        out[i] = distinct[rng.integers(distinct.size)]
    return out


def resolve_most_frequent_reference(
    alternatives, n_disks, *, weights=None, sizes=None, rng=None
):
    """Most-frequent conflict resolution, one ``bincount`` and one draw per bucket."""
    _check_alternatives(alternatives, n_disks)
    rng = as_rng(rng)
    out = np.empty(len(alternatives), dtype=np.int64)
    for i, alt in enumerate(alternatives):
        counts = np.bincount(np.asarray(alt, dtype=np.int64), minlength=n_disks)
        top = np.nonzero(counts == counts.max())[0]
        out[i] = top[rng.integers(top.size)]
    return out


def _balance_reference(alternatives, n_disks, load_of, rng):
    _check_alternatives(alternatives, n_disks)
    rng = as_rng(rng)
    out = np.full(len(alternatives), -1, dtype=np.int64)
    load = np.zeros(n_disks, dtype=np.float64)
    conflicted = []
    for i, alt in enumerate(alternatives):
        distinct = np.unique(alt)
        if distinct.size == 1:
            out[i] = distinct[0]
            load[distinct[0]] += load_of(i)
        else:
            conflicted.append((i, distinct))
    for i, distinct in conflicted:
        loads = load[distinct]
        ties = distinct[loads == loads.min()]
        choice = ties[rng.integers(ties.size)] if ties.size > 1 else ties[0]
        out[i] = choice
        load[choice] += load_of(i)
    return out


def resolve_data_balance_reference(
    alternatives, n_disks, *, weights=None, sizes=None, rng=None
):
    """Algorithm 1 with one ``np.unique`` per bucket."""
    if sizes is None:
        sizes = np.ones(len(alternatives))
    sizes = np.asarray(sizes)
    return _balance_reference(alternatives, n_disks, lambda i: float(sizes[i] > 0), rng)


def resolve_area_balance_reference(
    alternatives, n_disks, *, weights=None, sizes=None, rng=None
):
    """Area balance with one ``np.unique`` per bucket."""
    weights = np.asarray(weights, dtype=np.float64)
    return _balance_reference(alternatives, n_disks, lambda i: float(weights[i]), rng)


#: The list-based resolvers, keyed like ``repro.core.CONFLICT_HEURISTICS``.
CONFLICT_REFERENCES = {
    "random": resolve_random_reference,
    "most_frequent": resolve_most_frequent_reference,
    "data_balance": resolve_data_balance_reference,
    "area_balance": resolve_area_balance_reference,
}
