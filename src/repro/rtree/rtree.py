"""Sort-Tile-Recursive (STR) R-tree held in flat arrays.

The tree is bulk loaded from a point snapshot and then only read: range
queries, leaf-page declustering and k-nearest neighbours.  Leaves are the
unit of disk storage (one leaf page = one block), mirroring the grid
file's buckets.

Layout:

* ``points`` — the record coordinates, ``(n_records, d)``;
* ``order`` — record ids in leaf order; leaf ``j`` holds
  ``order[leaf_start[j]:leaf_start[j + 1]]``;
* ``lo[l]``, ``hi[l]`` — ``(n_nodes, d)`` corners of the MBRs of level
  ``l``, leaves first (``l = 0``) and the single root last.

STR packs consecutive chunks of at most ``max_entries`` nodes into each
parent, so the children of node ``j`` are nodes ``[j*M, (j+1)*M)`` of the
level below and the tree needs no pointers.  An empty tree is one empty
root leaf whose box is inverted (``lo = +inf``, ``hi = -inf``), so it
intersects nothing.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro._util import check_positive_int, euclidean_norms

__all__ = ["RTree", "knn_query"]


class RTree:
    """A bulk-loaded STR R-tree over point records.

    Build it with :meth:`bulk_load`; the constructor makes the empty tree.

    Parameters
    ----------
    dims:
        Dimensionality.
    max_entries:
        Page capacity (records per leaf / children per node).  Matches the
        grid file's bucket capacity for apples-to-apples comparisons.
    """

    def __init__(self, dims: int, max_entries: int = 50):
        self.dims = check_positive_int(dims, "dims")
        self.max_entries = check_positive_int(max_entries, "max_entries", minimum=2)
        self.points = np.empty((0, self.dims), dtype=np.float64)
        self.order = np.empty(0, dtype=np.int64)
        self.leaf_start = np.zeros(2, dtype=np.int64)
        self.lo = [np.full((1, self.dims), np.inf)]
        self.hi = [np.full((1, self.dims), -np.inf)]

    @classmethod
    def bulk_load(cls, points: np.ndarray, max_entries: int = 50) -> "RTree":
        """Sort-Tile-Recursive (STR) bulk loading.

        Tiles the records into leaves of up to ``max_entries`` (sort by the
        first coordinate, cut into slabs, recurse on the next coordinate),
        then packs consecutive nodes into parents level by level.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be 2-d")
        n, d = points.shape
        tree = cls(dims=d, max_entries=max_entries)
        tree.points = points.copy()
        if n:
            groups = _str_tile(points, np.arange(n, dtype=np.int64), 0, max_entries)
            tree.order = np.concatenate(groups)
            tree.leaf_start = np.cumsum([0] + [g.size for g in groups], dtype=np.int64)
            starts = tree.leaf_start[:-1]
            leaf_pts = points[tree.order]
            tree.lo = [np.minimum.reduceat(leaf_pts, starts)]
            tree.hi = [np.maximum.reduceat(leaf_pts, starts)]
            while tree.lo[-1].shape[0] > 1:
                starts = np.arange(0, tree.lo[-1].shape[0], max_entries)
                tree.lo.append(np.minimum.reduceat(tree.lo[-1], starts))
                tree.hi.append(np.maximum.reduceat(tree.hi[-1], starts))
        for a in (tree.points, tree.order, tree.leaf_start, *tree.lo, *tree.hi):
            a.flags.writeable = False
        return tree

    # --------------------------------------------------------------- basics

    @property
    def n_records(self) -> int:
        """Number of stored records."""
        return self.points.shape[0]

    @property
    def n_leaves(self) -> int:
        """Number of leaf pages (1 for the empty tree: its empty root leaf)."""
        return self.leaf_start.size - 1

    def coords(self) -> np.ndarray:
        """Stored record coordinates, shape ``(n_records, d)``."""
        return self.points

    def leaf_records(self, leaf: int) -> np.ndarray:
        """Record ids stored in leaf ``leaf`` (a read-only view)."""
        return self.order[self.leaf_start[leaf] : self.leaf_start[leaf + 1]]

    def height(self) -> int:
        """Tree height (1 = root is a leaf)."""
        return len(self.lo)

    def _children(self, level: int, nodes: np.ndarray) -> np.ndarray:
        """Children (on level ``level - 1``) of ``nodes``, ascending."""
        m = self.max_entries
        below = self.lo[level - 1].shape[0]
        starts = nodes * m
        return _concat_ranges(starts, np.minimum(starts + m, below))

    # --------------------------------------------------------------- query

    def query_leaves(self, lo, hi) -> np.ndarray:
        """Ascending indices of the leaves whose MBR intersects the closed box."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        nodes = np.zeros(1, dtype=np.int64)
        for level in range(len(self.lo) - 1, -1, -1):
            hit = np.all(self.lo[level][nodes] <= hi, axis=1)
            hit &= np.all(lo <= self.hi[level][nodes], axis=1)
            nodes = nodes[hit]
            if level:
                nodes = self._children(level, nodes)
        return nodes

    def query_records(self, lo, hi) -> np.ndarray:
        """Record ids inside the closed query box (exact filter), ascending."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        leaves = self.query_leaves(lo, hi)
        rec = self.order[_concat_ranges(self.leaf_start[leaves], self.leaf_start[leaves + 1])]
        pts = self.points[rec]
        return np.sort(rec[np.all((pts >= lo) & (pts <= hi), axis=1)])

    def __repr__(self) -> str:
        return (
            f"RTree(n_records={self.n_records}, leaves={self.n_leaves}, "
            f"height={self.height()}, max_entries={self.max_entries})"
        )


def _concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, e) for s, e in zip(starts, ends)])``, vectorised."""
    counts = ends - starts
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _str_tile(
    points: np.ndarray, ids: np.ndarray, dim: int, max_entries: int
) -> list[np.ndarray]:
    """Recursively sort-and-slice record ids into STR leaf groups."""
    if ids.size <= max_entries:
        return [ids]
    d = points.shape[1]
    order = ids[np.argsort(points[ids, dim], kind="stable")]
    n_pages = int(np.ceil(ids.size / max_entries))
    n_slabs = int(np.ceil(n_pages ** (1.0 / (d - dim)))) if dim < d - 1 else n_pages
    per_slab = int(np.ceil(ids.size / n_slabs))
    out = []
    for s in range(0, ids.size, per_slab):
        chunk = order[s : s + per_slab]
        if dim < d - 1:
            out.extend(_str_tile(points, chunk, dim + 1, max_entries))
        else:
            out.append(chunk)
    return out


def knn_query(tree: RTree, point, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Best-first k-nearest-neighbour search (Hjaltason & Samet).

    A priority queue interleaves tree nodes (keyed by their MBR's minimum
    distance to the query point) and records (keyed by exact distance);
    popping a record before any closer node proves it is the next
    neighbour.  Visits only the nodes whose MBRs could contain one of the
    k results.

    Returns
    -------
    (record_ids, distances):
        Both of length ``min(k, n_records)``, ascending by distance (ties
        by record id).
    """
    check_positive_int(k, "k")
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (tree.dims,):
        raise ValueError(f"point must have shape ({tree.dims},)")
    k = min(k, tree.n_records)
    out_ids: list[int] = []
    out_d: list[float] = []
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)

    def node_dists(level: int, nodes) -> list:
        lo, hi = tree.lo[level][nodes], tree.hi[level][nodes]
        return euclidean_norms(np.maximum(np.maximum(lo - point, point - hi), 0.0)).tolist()

    root = len(tree.lo) - 1
    # Heap entries (distance, record id, push counter, node): nodes carry
    # record id 0 and records node None, so ties fall to record id and then
    # to push order.
    counter = 0
    heap: list = [(node_dists(root, [0])[0], 0, counter, (root, 0))]
    while heap and len(out_ids) < k:
        dist, rid, _, node = heapq.heappop(heap)
        if node is None:
            out_ids.append(rid)
            out_d.append(dist)
            continue
        level, j = node
        if level == 0:
            rec = tree.leaf_records(j)
            for r, d in zip(rec.tolist(), euclidean_norms(tree.points[rec] - point).tolist()):
                counter += 1
                heapq.heappush(heap, (d, r, counter, None))
        else:
            children = tree._children(level, np.array([j]))
            for c, d in zip(children.tolist(), node_dists(level - 1, children)):
                counter += 1
                heapq.heappush(heap, (d, 0, counter, (level - 1, c)))
    return np.asarray(out_ids, dtype=np.int64), np.asarray(out_d)
