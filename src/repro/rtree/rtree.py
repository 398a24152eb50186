"""Guttman R-tree with quadratic splits and STR bulk loading.

Supports the operations the declustering comparison needs: point insertion
(ChooseLeaf by least enlargement, quadratic split on overflow), range
queries, and Sort-Tile-Recursive bulk loading for the large datasets.
Leaves are the unit of disk storage (one leaf page = one block), mirroring
the grid file's buckets.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro._util import check_positive_int, euclidean_norms
from repro.rtree.mbr import MBR

__all__ = ["RTree", "RTreeNode", "knn_query"]


class RTreeNode:
    """One R-tree node.

    Attributes
    ----------
    is_leaf:
        Leaves hold record ids; internal nodes hold child nodes.
    mbr:
        Tight bounding box of the node's contents (None while empty).
    entries:
        Record ids (leaf) or :class:`RTreeNode` children (internal).
    """

    __slots__ = ("is_leaf", "mbr", "entries", "_parent", "__weakref__")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.mbr: "MBR | None" = None
        self.entries: list = []
        self._parent = None

    @property
    def parent(self) -> "RTreeNode | None":
        """The node holding this one in its entries (``None`` at the root).

        Held weakly: parents own their children through ``entries``, so a
        strong back-link would make every tree a reference cycle that only
        the cyclic garbage collector could free.
        """
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, node: "RTreeNode | None") -> None:
        self._parent = None if node is None else weakref.ref(node)

    @property
    def n_entries(self) -> int:
        """Number of entries in the node."""
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return f"RTreeNode({kind}, entries={self.n_entries})"


class RTree:
    """An R-tree over point records.

    Parameters
    ----------
    dims:
        Dimensionality.
    max_entries:
        Page capacity (records per leaf / children per node).  Matches the
        grid file's bucket capacity for apples-to-apples comparisons.
    min_entries:
        Minimum fill after a split (defaults to ``max_entries // 3``,
        Guttman's recommendation).
    """

    def __init__(self, dims: int, max_entries: int = 50, min_entries: "int | None" = None):
        self.dims = check_positive_int(dims, "dims")
        self.max_entries = check_positive_int(max_entries, "max_entries", minimum=2)
        if min_entries is None:
            min_entries = max(1, self.max_entries // 3)
        self.min_entries = check_positive_int(min_entries, "min_entries")
        if self.min_entries > self.max_entries // 2:
            raise ValueError("min_entries must be <= max_entries / 2")
        self.root = RTreeNode(is_leaf=True)
        self.points = np.empty((0, dims), dtype=np.float64)
        self._n = 0

    # --------------------------------------------------------------- basics

    @property
    def n_records(self) -> int:
        """Number of stored records."""
        return self._n

    def coords(self) -> np.ndarray:
        """Stored record coordinates, shape ``(n_records, d)``."""
        return self.points[: self._n]

    def leaves(self) -> list[RTreeNode]:
        """All leaf nodes, in left-to-right order."""
        out: list[RTreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.entries))
        return out

    def height(self) -> int:
        """Tree height (1 = root is a leaf)."""
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.entries[0]
            h += 1
        return h

    def _record_mbr(self, rid: int) -> MBR:
        return MBR.of_point(self.points[rid])

    def _node_mbr(self, node: RTreeNode) -> "MBR | None":
        if node.n_entries == 0:
            return None
        if node.is_leaf:
            return MBR.of_points(self.points[np.asarray(node.entries)])
        out = node.entries[0].mbr.copy()
        for child in node.entries[1:]:
            out = out.union(child.mbr)
        return out

    # -------------------------------------------------------------- insert

    def _append_point(self, coords) -> int:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.dims,):
            raise ValueError(f"point must have shape ({self.dims},)")
        if self._n == self.points.shape[0]:
            grown = np.empty((max(16, 2 * self.points.shape[0]), self.dims))
            grown[: self._n] = self.points[: self._n]
            self.points = grown
        self.points[self._n] = coords
        self._n += 1
        return self._n - 1

    def insert_point(self, coords) -> int:
        """Insert a point; returns its record id."""
        rid = self._append_point(coords)
        box = self._record_mbr(rid)
        leaf = self._choose_leaf(self.root, box)
        leaf.entries.append(rid)
        leaf.mbr = box if leaf.mbr is None else leaf.mbr.union(box)
        self._propagate_mbr(leaf.parent)
        if leaf.n_entries > self.max_entries:
            self._split(leaf)
        return rid

    def _choose_leaf(self, node: RTreeNode, box: MBR) -> RTreeNode:
        while not node.is_leaf:
            best = None
            for child in node.entries:
                key = (child.mbr.enlargement(box), child.mbr.area())
                if best is None or key < best[0]:
                    best = (key, child)
            node = best[1]
        return node

    def _propagate_mbr(self, node: "RTreeNode | None") -> None:
        while node is not None:
            node.mbr = self._node_mbr(node)
            node = node.parent

    def _entry_mbr(self, node: RTreeNode, entry) -> MBR:
        return self._record_mbr(entry) if node.is_leaf else entry.mbr

    def _split(self, node: RTreeNode) -> None:
        """Guttman's quadratic split, then fix up the parent chain."""
        entries = node.entries
        boxes = [self._entry_mbr(node, e) for e in entries]
        n = len(entries)

        # PickSeeds: the pair wasting the most area together.
        worst = (-np.inf, 0, 1)
        for i in range(n):
            for j in range(i + 1, n):
                waste = boxes[i].union(boxes[j]).area() - boxes[i].area() - boxes[j].area()
                if waste > worst[0]:
                    worst = (waste, i, j)
        _, si, sj = worst

        group_a = [si]
        group_b = [sj]
        mbr_a = boxes[si].copy()
        mbr_b = boxes[sj].copy()
        rest = [k for k in range(n) if k not in (si, sj)]

        while rest:
            # Honour minimum fill.
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(rest)
                for k in rest:
                    mbr_a = mbr_a.union(boxes[k])
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(rest)
                for k in rest:
                    mbr_b = mbr_b.union(boxes[k])
                break
            # PickNext: entry with the largest preference for one group.
            best = (-np.inf, rest[0], 0.0, 0.0)
            for k in rest:
                da = mbr_a.enlargement(boxes[k])
                db = mbr_b.enlargement(boxes[k])
                if abs(da - db) > best[0]:
                    best = (abs(da - db), k, da, db)
            _, k, da, db = best
            rest.remove(k)
            if da < db or (da == db and mbr_a.area() <= mbr_b.area()):
                group_a.append(k)
                mbr_a = mbr_a.union(boxes[k])
            else:
                group_b.append(k)
                mbr_b = mbr_b.union(boxes[k])

        sibling = RTreeNode(is_leaf=node.is_leaf)
        node.entries = [entries[k] for k in group_a]
        sibling.entries = [entries[k] for k in group_b]
        node.mbr = mbr_a
        sibling.mbr = mbr_b
        if not node.is_leaf:
            for child in node.entries:
                child.parent = node
            for child in sibling.entries:
                child.parent = sibling

        parent = node.parent
        if parent is None:
            new_root = RTreeNode(is_leaf=False)
            new_root.entries = [node, sibling]
            node.parent = sibling.parent = new_root
            new_root.mbr = node.mbr.union(sibling.mbr)
            self.root = new_root
            return
        sibling.parent = parent
        parent.entries.append(sibling)
        self._propagate_mbr(parent)
        if parent.n_entries > self.max_entries:
            self._split(parent)

    # --------------------------------------------------------------- query

    def query_leaves(self, lo, hi) -> list[RTreeNode]:
        """Leaves whose MBR intersects the closed query box."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        out: list[RTreeNode] = []
        if self.root.mbr is None:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(lo, hi):
                continue
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(node.entries)
        return out

    def query_records(self, lo, hi) -> np.ndarray:
        """Record ids inside the closed query box (exact filter)."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        hits: list[int] = []
        for leaf in self.query_leaves(lo, hi):
            rec = np.asarray(leaf.entries, dtype=np.int64)
            pts = self.points[rec]
            inside = np.all((pts >= lo) & (pts <= hi), axis=1)
            hits.extend(rec[inside].tolist())
        return np.sort(np.asarray(hits, dtype=np.int64))

    # ----------------------------------------------------------- bulk load

    @classmethod
    def bulk_load(cls, points: np.ndarray, max_entries: int = 50) -> "RTree":
        """Sort-Tile-Recursive (STR) bulk loading.

        Produces tightly packed, non-overlapping-ish leaves of up to
        ``max_entries`` records and builds the upper levels by packing
        consecutive nodes — the standard way to construct a read-mostly
        R-tree for a static snapshot dataset.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be 2-d")
        n, d = points.shape
        tree = cls(dims=d, max_entries=max_entries)
        tree.points = points.copy()
        tree._n = n
        if n == 0:
            return tree

        groups = _str_tile(points, np.arange(n, dtype=np.int64), 0, max_entries)
        level: list[RTreeNode] = []
        for g in groups:
            leaf = RTreeNode(is_leaf=True)
            leaf.entries = g.tolist()
            leaf.mbr = MBR.of_points(points[g])
            level.append(leaf)

        while len(level) > 1:
            parents: list[RTreeNode] = []
            for s in range(0, len(level), max_entries):
                chunk = level[s : s + max_entries]
                parent = RTreeNode(is_leaf=False)
                parent.entries = chunk
                mbr = chunk[0].mbr.copy()
                for c in chunk[1:]:
                    mbr = mbr.union(c.mbr)
                parent.mbr = mbr
                for c in chunk:
                    c.parent = parent
                parents.append(parent)
            level = parents
        tree.root = level[0]
        return tree

    # ----------------------------------------------------------- integrity

    def check_invariants(self) -> None:
        """Verify structural invariants; raises ``AssertionError`` on breakage."""
        seen: list[int] = []

        def walk(node: RTreeNode, depth: int, leaf_depth: list):
            # Dynamic splits guarantee min_entries; STR tail pages may be
            # smaller, so the hard invariant is 1..max_entries.
            if node is not self.root:
                assert 1 <= node.n_entries <= self.max_entries, (
                    f"node fill {node.n_entries} out of bounds"
                )
            else:
                assert node.n_entries <= self.max_entries
            if node.is_leaf:
                if leaf_depth[0] is None:
                    leaf_depth[0] = depth
                assert leaf_depth[0] == depth, "leaves at different depths"
                for rid in node.entries:
                    assert node.mbr.contains_point(self.points[rid])
                    seen.append(rid)
            else:
                for child in node.entries:
                    assert child.parent is node, "broken parent pointer"
                    assert node.mbr.contains_box(child.mbr), "child escapes parent MBR"
                    walk(child, depth + 1, leaf_depth)

        if self._n == 0 and self.root.is_leaf and self.root.n_entries == 0:
            return
        walk(self.root, 0, [None])
        assert sorted(seen) == list(range(self._n)), "records lost or duplicated"

    def __repr__(self) -> str:
        return (
            f"RTree(n_records={self._n}, leaves={len(self.leaves())}, "
            f"height={self.height()}, max_entries={self.max_entries})"
        )


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
    import heapq

    check_positive_int(k, "k")
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (tree.dims,):
        raise ValueError(f"point must have shape ({tree.dims},)")
    k = min(k, tree.n_records)
    out_ids: list[int] = []
    out_d: list[float] = []
    if k == 0 or tree.root.mbr is None:
        return np.empty(0, dtype=np.int64), np.empty(0)

    def node_dists(nodes) -> list:
        lo = np.array([n.mbr.lo for n in nodes])
        hi = np.array([n.mbr.hi for n in nodes])
        return euclidean_norms(np.maximum(np.maximum(lo - point, point - hi), 0.0)).tolist()

    counter = 0  # heap tie-breaker
    heap: list = [(node_dists([tree.root])[0], 0, counter, False, tree.root)]
    while heap and len(out_ids) < k:
        dist, rid, _, is_record, payload = heapq.heappop(heap)
        if is_record:
            out_ids.append(rid)
            out_d.append(dist)
            continue
        node = payload
        if node.is_leaf:
            dists = euclidean_norms(tree.points[node.entries] - point).tolist()
            for r, d in zip(node.entries, dists):
                counter += 1
                heapq.heappush(heap, (d, int(r), counter, True, None))
        else:
            for child, d in zip(node.entries, node_dists(node.entries)):
                counter += 1
                heapq.heappush(heap, (d, 0, counter, False, child))
    return np.asarray(out_ids, dtype=np.int64), np.asarray(out_d)
